//! The experiment harness: one function per experiment in DESIGN.md's
//! index (§4), each regenerating the table that backs one of the paper's
//! quantitative claims. The `expt` binary drives them; EXPERIMENTS.md
//! records paper-vs-measured. Performance is not measured here: the
//! repository's one benchmark is the `benchmark/` package (`dcsbench`).
//!
//! Every experiment takes a [`Scale`] so CI can smoke-test the full harness
//! quickly while `expt --full` produces the publication-scale numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod table;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment: for CI and iteration.
    Quick,
    /// The numbers recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Scales an integer parameter down in quick mode.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
