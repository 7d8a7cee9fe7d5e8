//! Deterministic discrete-event simulation substrate.
//!
//! All network and consensus experiments in the platform run on this engine:
//! a virtual clock ([`time::SimTime`]), a priority event queue
//! ([`event::Simulation`]) with stable tie-breaking, a seedable RNG
//! ([`rng::Rng`], xoshiro256** seeded via SplitMix64), and statistics
//! collectors ([`metrics`]) including the decentralization measures the DCS
//! experiments report (Gini and Nakamoto coefficients).
//!
//! Determinism contract: given the same seed and the same sequence of
//! schedule calls, a simulation replays bit-identically. Wall-clock time is
//! never consulted, and event ties are broken by the sender-assigned
//! [`EventKey`] (insertion order for unkeyed schedules). The queue keeps
//! only what `dcs-net`'s engine loop uses: schedule, pop (optionally up to a
//! deadline), peek, and drain/merge for sharding — no cancellation and no
//! tracer of its own.
//!
//! # Examples
//!
//! ```
//! use dcs_sim::{Simulation, SimDuration};
//!
//! let mut sim: Simulation<&'static str> = Simulation::new();
//! sim.schedule(SimDuration::from_millis(20), "second");
//! sim.schedule(SimDuration::from_millis(10), "first");
//! let (t1, e1) = sim.next().unwrap();
//! assert_eq!((t1.as_millis(), e1), (10, "first"));
//! let (t2, e2) = sim.next().unwrap();
//! assert_eq!((t2.as_millis(), e2), (20, "second"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod rng;
pub mod time;

pub use event::{EventKey, Simulation, EXTERNAL_SRC};
pub use metrics::{gini, nakamoto_coefficient, Summary};
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
