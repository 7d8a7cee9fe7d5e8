//! The `dcs-ledger` platform: the paper's distributed ledger (Fig. 1) as a
//! configurable, simulatable system — "blockchain + P2P network + consensus"
//! with every consensus family of §2.4 pluggable, plus the workload
//! generation and metric collection behind the DCS experiments (§2.7).
//!
//! This is the crate downstream users interact with:
//!
//! * [`builders`] — one constructor, [`build`], for a whole simulated
//!   network: any consensus family's engine rule × any state machine, each
//!   family's `Default` parameters its preset.
//! * [`workload`] — client transaction generators (the "users not actively
//!   involved in the ledger" of §2.4).
//! * [`metrics`] — the DCS measurement suite: throughput and latency
//!   (scalability), fork/reorg rates and replica agreement (consistency),
//!   Gini and Nakamoto coefficients over proposer power (decentralization).
//! * [`serve`] — the live operations surface: install a metrics registry
//!   over a whole network and expose it (plus status, per-transaction
//!   timelines, analytics, and a flight recorder) over HTTP
//!   (`dcs-ledger serve`; DESIGN.md §16).
//!
//! # Examples
//!
//! Run a 12-peer Bitcoin-like proof-of-work network over the null state
//! machine for ten simulated minutes and measure it:
//!
//! ```
//! use dcs_chain::NullMachine;
//! use dcs_ledger::{build, builders::Pow, metrics, workload::Workload, NetworkParams};
//! use dcs_sim::SimDuration;
//!
//! let mut cfg = NetworkParams::<Pow>::default();
//! cfg.nodes = 12;
//! cfg.chain.consensus = dcs_primitives::ConsensusKind::ProofOfWork {
//!     initial_difficulty: 1_000_000,
//!     retarget_window: 0,
//!     target_interval_us: 60_000_000,
//! };
//! let mut runner = build(&cfg, 42, |_| NullMachine);
//! let submitted = Workload::transfers(5.0, SimDuration::from_secs(600), 100)
//!     .inject(runner.net_mut(), 7);
//! runner.run_until(dcs_sim::SimTime::ZERO + SimDuration::from_secs(700));
//! let result = metrics::collect(runner.nodes(), &submitted, SimDuration::from_secs(700));
//! assert!(result.total_blocks > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod faults;
pub mod metrics;
pub mod scale;
pub mod serve;
pub mod trace;
pub mod workload;

pub use builders::{build, EngineRule, NetworkParams};
pub use dcs_consensus::LedgerNode;
pub use faults::install_faults;
pub use metrics::{collect, SimResult};
pub use scale::{run_channel_workload, ChannelRunReport, ChannelWorkloadParams};
pub use serve::{
    install_metrics, run_live, OpsServer, OpsState, RunnerGauges, ScaleSidecar, ScaleStatus,
    ServeParams,
};
pub use trace::{collect_traces, install_tracing};
pub use workload::Workload;
