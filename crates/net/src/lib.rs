//! The network layer (§4.6 of the paper): a deterministic simulation of the
//! unstructured peer-to-peer overlays blockchains run on (§2.3), including
//! overlay topology construction, per-link latency distributions, message
//! loss, partitions, bandwidth accounting, and gossip dissemination.
//!
//! The paper stresses that "the network topology is not often disclosed or
//! well understood in popular blockchain systems" and calls for
//! investigating "the network conditions and their impacts on the
//! blockchain"; this crate makes those conditions first-class experimental
//! parameters.
//!
//! A [`Runner`] drives one [`Protocol`] per peer over a [`Network`]. Every
//! event goes through one loop, the engine's shard loop: it pops the
//! event, drops it if the destination is crashed, traces it, runs the
//! peer's callback and routes the [`Action`]s the callback requested
//! through the fabric. `on_start` and fault hooks take the same path. At
//! one worker (the default) a single shard spans every peer inline on the
//! network's queue; [`Runner::set_shards`] runs it on several workers in
//! conservative time windows, with bit-identical results.
//!
//! # Examples
//!
//! ```
//! use dcs_net::{LatencyModel, NetConfig, Topology};
//! use dcs_sim::SimDuration;
//!
//! let cfg = NetConfig {
//!     nodes: 16,
//!     topology: Topology::KRegular { k: 4 },
//!     latency: LatencyModel::Uniform {
//!         lo: SimDuration::from_millis(20),
//!         hi: SimDuration::from_millis(100),
//!     },
//!     drop_probability: 0.0,
//!     bandwidth_bytes_per_sec: None,
//! };
//! let net = dcs_net::Network::<String>::new(cfg, 42);
//! assert_eq!(net.node_count(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod engine;
pub mod gossip;
pub mod latency;
pub mod network;
pub mod runner;
pub mod topology;

pub use gossip::Gossiper;
pub use latency::LatencyModel;
pub use network::{NetConfig, NetStats, Network};
pub use runner::{Action, Ctx, Protocol, Runner};
pub use topology::Topology;

use serde::{Deserialize, Serialize};

/// Identifies one simulated peer.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub usize);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
