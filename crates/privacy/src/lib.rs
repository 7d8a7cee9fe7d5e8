//! Security and privacy mechanisms (§5.3 of the paper):
//!
//! * [`mixer`] — mixer networks ("newer systems address these privacy
//!   concerns by introducing mixer networks to hide the transaction
//!   history"): round-based Chaumian mixing with quantified anonymity sets
//!   and latency cost (experiment E9).
//! * [`taint`] — the traceability problem that motivates mixing: haircut
//!   taint propagation over the transaction graph, quantifying how "some
//!   coins might be linked to addresses known to be used for fraudulent
//!   activities" and the resulting fungibility loss.
//! * [`commitments`] — hashlocks, the commitment a cross-channel swap
//!   claims against.
//! * [`multichannel`] — Hyperledger-style privacy domains ("the blockchain
//!   platform must support such privacy domains and yet still remain
//!   consistent"), with cross-channel atomic swaps via hashlocks (\[31\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commitments;
pub mod mixer;
pub mod multichannel;
pub mod taint;

pub use mixer::{Mixer, MixerConfig};
pub use multichannel::{ChannelLedger, MultiChannel};
pub use taint::TaintTracker;
