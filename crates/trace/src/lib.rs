//! Deterministic structured tracing across the six-layer stack.
//!
//! Every event is timestamped in **sim time** (microseconds from the run's
//! virtual clock) — never the wall clock — so two same-seed runs emit
//! bit-identical streams, and the determinism suite can assert that with a
//! [stable digest](digest::fnv1a). The crate depends on nothing; the
//! event queue in `dcs-sim` no longer traces, and dispatch is recorded per
//! peer by `dcs-net`'s engine as [`TraceEvent::EngineDispatch`].
//!
//! The pieces:
//!
//! * [`Tracer`] — one per emitting stream of a peer (its consensus core,
//!   its chain, its fabric traffic, its engine dispatches); every record's
//!   actor is a peer index. Internally `Option<Box<_>>`: a disabled tracer
//!   is one branch on a `None`, with no formatting, allocation, or buffer
//!   touch.
//! * [`TraceEvent`] — the typed event taxonomy (network sends, mempool
//!   admissions, chain imports/reorgs, PBFT phases, workload submissions).
//! * [`TraceConfig`] — off, or full with a bounded ring buffer per actor.
//! * [`TraceSet`] — merges per-actor buffers into one time-ordered stream
//!   with per-actor digests.
//! * [`Timelines`] — lifecycle spans: stitches raw events into per-tx and
//!   per-block causal timelines (submit → admit → first-seen-per-peer →
//!   included → committed) and answers latency-breakdown and hop-count
//!   queries.
//! * [`export`] — JSONL and Chrome `trace_event` JSON (loadable in
//!   Perfetto / `chrome://tracing`: one track per node, one async slice per
//!   transaction and block).
//!
//! # Examples
//!
//! ```
//! use dcs_trace::{Category, TraceConfig, TraceEvent, Tracer};
//!
//! let mut tracer = Tracer::new(0, &TraceConfig::full());
//! tracer.emit(1_000, TraceEvent::Finalized { height: 1 });
//! assert_eq!(tracer.counters().unwrap().recorded, 1);
//!
//! let mut off = Tracer::disabled();
//! off.emit(1_000, TraceEvent::Finalized { height: 1 }); // a no-op branch
//! assert!(off.counters().is_none());
//! assert_eq!(TraceConfig::off().mode, dcs_trace::TraceMode::Off);
//! assert_eq!(Category::COUNT, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod event;
pub mod export;
pub mod span;
pub mod tracer;

pub use event::{
    Category, EntityKind, Id, ImportOutcome, PbftPhase, RejectReason, TraceEvent, TraceRecord,
    ORIGIN,
};
pub use span::{BlockSpan, ReorgSpan, StageSamples, Timelines, TxSpan};
pub use tracer::{TraceConfig, TraceCounters, TraceMode, TraceSet, Tracer};
