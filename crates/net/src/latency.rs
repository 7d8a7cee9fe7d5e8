//! Link latency models. Real block propagation measurements show long-tailed
//! delays, so the log-normal model is the default in experiments; constant
//! and uniform models isolate effects in ablations.

use dcs_sim::{Rng, SimDuration};
use serde::{Deserialize, Serialize};

/// How long a message takes to traverse one overlay link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Every hop takes exactly this long.
    Constant(SimDuration),
    /// Uniform in `[lo, hi)`.
    Uniform {
        /// Minimum latency.
        lo: SimDuration,
        /// Maximum latency.
        hi: SimDuration,
    },
    /// Log-normal with the given median and shape; long-tailed like real
    /// WAN measurements.
    LogNormal {
        /// Median latency.
        median: SimDuration,
        /// Shape parameter (0.5 is a reasonable WAN tail).
        sigma: f64,
    },
}

impl LatencyModel {
    /// A typical WAN profile: median 80 ms, long-tailed.
    pub fn wan() -> Self {
        LatencyModel::LogNormal {
            median: SimDuration::from_millis(80),
            sigma: 0.5,
        }
    }

    /// A LAN/datacenter profile: median 1 ms, short tail.
    pub fn lan() -> Self {
        LatencyModel::LogNormal {
            median: SimDuration::from_millis(1),
            sigma: 0.2,
        }
    }

    /// Draws one latency sample. Samples never fall below
    /// [`LatencyModel::min_latency`]: the log-normal model clamps its
    /// extreme low tail (below `median · e^{-3σ}`, about 0.13% of draws) to
    /// the floor, which gives the sharded engine a usable conservative
    /// lookahead without visibly changing the distribution.
    pub fn sample(&self, rng: &mut Rng) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                if hi <= lo {
                    lo
                } else {
                    SimDuration::from_micros(rng.range(lo.as_micros(), hi.as_micros()))
                }
            }
            LatencyModel::LogNormal { median, sigma } => {
                SimDuration::from_secs_f64(rng.lognormal(median.as_secs_f64(), sigma))
                    .max(self.min_latency())
            }
        }
    }

    /// The guaranteed minimum of [`LatencyModel::sample`] — the conservative
    /// lookahead of the sharded engine: no message sent at time `t` can be
    /// delivered before `t + min_latency()`. Zero (e.g. a zero-constant
    /// link) keeps the engine on one inline shard.
    pub fn min_latency(&self) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, .. } => lo,
            LatencyModel::LogNormal { median, sigma } => {
                SimDuration::from_secs_f64(median.as_secs_f64() * (-3.0 * sigma.abs()).exp())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(SimDuration::from_millis(5));
        let mut rng = Rng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        let m = LatencyModel::Uniform { lo, hi };
        let mut rng = Rng::seed_from(2);
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!(s >= lo && s < hi, "{s}");
        }
    }

    #[test]
    fn degenerate_uniform_returns_lo() {
        let lo = SimDuration::from_millis(10);
        let m = LatencyModel::Uniform { lo, hi: lo };
        assert_eq!(m.sample(&mut Rng::seed_from(3)), lo);
    }

    #[test]
    fn min_latency_bounds_every_sample() {
        let models = [
            LatencyModel::Constant(SimDuration::from_millis(5)),
            LatencyModel::Uniform {
                lo: SimDuration::from_millis(10),
                hi: SimDuration::from_millis(20),
            },
            LatencyModel::wan(),
            LatencyModel::lan(),
        ];
        let mut rng = Rng::seed_from(9);
        for m in models {
            let floor = m.min_latency();
            assert!(floor > SimDuration::ZERO, "{m:?} must have a usable floor");
            for _ in 0..2000 {
                assert!(m.sample(&mut rng) >= floor, "{m:?} sampled under its floor");
            }
        }
    }

    #[test]
    fn lognormal_median_approximately_right() {
        let m = LatencyModel::LogNormal {
            median: SimDuration::from_millis(80),
            sigma: 0.5,
        };
        let mut rng = Rng::seed_from(4);
        let mut samples: Vec<u64> = (0..4001).map(|_| m.sample(&mut rng).as_micros()).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64 / 1000.0;
        assert!((median - 80.0).abs() < 8.0, "median {median} ms");
    }
}
