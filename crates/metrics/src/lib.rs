//! # dcs-metrics — live observability instruments
//!
//! A dependency-free metrics layer for watching a ledger *while it runs*
//! (DESIGN.md §16). Three instrument kinds — [`Counter`], [`Gauge`], and
//! fixed-bucket [`Histogram`] — hang off a shared [`Registry`] that renders
//! the Prometheus text exposition format, plus a bounded [`Ring`] flight
//! recorder for "what just happened" lines.
//!
//! ## Determinism contract
//!
//! Instrument updates are plain `Ordering::Relaxed` atomic arithmetic:
//! they never branch, never allocate, and never feed a value back into the
//! caller. Instrumented code therefore takes the *same* execution path
//! whether a registry is attached or not, which is what lets
//! `tests/determinism.rs` assert bit-identical same-seed digests with
//! metrics on vs off. Reading the registry (snapshots, exposition) is the
//! observer's job — it happens on the serve thread, off the simulation hot
//! path, and tolerates torn cross-instrument views by design.
//!
//! All snapshot reads happen inside `*Stats`-returning functions, so a
//! loaded value only ever leaves the crate as a snapshot for an observer.

mod exposition;
mod instrument;
mod registry;
mod ring;

pub use exposition::{escape_help, escape_label_value};
pub use instrument::{Counter, CounterStats, Gauge, GaugeStats, Histogram, HistogramStats};
pub use registry::{Kind, Registry, RegistryStats};
pub use ring::{Ring, RingStats};
