//! Scalable system innovations (§5.4 of the paper): "the performance of the
//! system can be improved by introducing parallelism, such as sharding and
//! side-chains", plus offloading "transactions outside the blockchain, as in
//! the Lightning network", and the light-client/bootstrap problem.
//!
//! * [`sharding`] — the partition: which shard owns an account, and the
//!   escrow address a cross-shard lock goes to.
//! * [`beacon`] — the sharded ledger: a beacon chain anchoring shard
//!   headers, shard sequencers, and a two-way peg between shards (lock on
//!   the source, mint on the destination against a Merkle-proved receipt);
//!   experiment E22.
//! * [`channels`] — off-chain payment channels: one on-chain settlement
//!   (escrow, dispute windows, co-signed closes) and one off-chain party
//!   book (dual-signed updates, multi-hop HTLC routing), put on a chain by
//!   the middleware channel application (experiment E8).
//! * [`light`] — SPV light clients: header-only sync, Merkle transaction
//!   proofs, checkpoint bootstrap, and the download-size accounting of
//!   experiment E10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod channels;
pub mod light;
pub mod sharding;

pub use beacon::{BeaconNet, BeaconParams, BeaconRunStats, ScaleMsg, ScalePeer};
pub use channels::PaymentChannel;
pub use light::LightClient;
pub use sharding::{ShardedLedger, Transfer};
