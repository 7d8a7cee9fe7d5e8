//! Deterministic random number generation: xoshiro256** seeded through
//! SplitMix64, plus the distributions the simulator needs (uniform,
//! exponential, log-normal, weighted choice, shuffling).
//!
//! Implemented from scratch so the entire platform depends on a single,
//! auditable randomness source. `rand` remains available for workload
//! generators, but the simulation core uses only this generator to keep the
//! determinism contract narrow.

/// A deterministic pseudo-random generator (xoshiro256**).
///
/// # Examples
///
/// ```
/// use dcs_sim::Rng;
///
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Seeds the generator from a single `u64` (expanded via SplitMix64).
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent child generator; used to give each simulated
    /// node its own stream without cross-contamination.
    pub fn fork(&mut self, label: u64) -> Rng {
        Rng::seed_from(self.next_u64() ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Derives an independent stream identified by `(domain, index)` from a
    /// root seed, **without** consuming state from any other generator.
    ///
    /// This is the splitting scheme the sharded engine uses for per-actor
    /// streams: because the derivation is a pure function of
    /// `(root, domain, index)`, actor `index` draws the same sequence no
    /// matter which shard it lands on or how many shards exist — unlike
    /// [`Rng::fork`], whose output depends on the parent's draw history.
    /// `domain` separates independent uses of the same index (e.g. a node's
    /// protocol stream vs. its link-sampling stream).
    pub fn stream(root: u64, domain: u64, index: u64) -> Rng {
        // Each input is avalanched through SplitMix64 before combining, so
        // adjacent (domain, index) pairs land in unrelated states.
        let mut a = root;
        let mut b = domain.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut c = index.wrapping_add(0x6a09_e667_f3bc_c909);
        let seed = splitmix64(&mut a) ^ splitmix64(&mut b) ^ splitmix64(&mut c);
        Rng::seed_from(seed)
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        // Lemire's unbiased multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range requires lo < hi ({lo} >= {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential variate with the given mean (used for Poisson block
    /// arrivals — the standard analytical model of proof-of-work mining).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(
            mean > 0.0 && mean.is_finite(),
            "exp() mean must be positive: {mean}"
        );
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Standard normal variate (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }

    /// Log-normal variate parameterized by the *median* and the shape sigma.
    /// Used for long-tailed network latencies.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.normal()).exp()
    }

    /// Picks an index in `[0, weights.len())` with probability proportional
    /// to `weights[i]`. This is the stake lottery for proof-of-stake.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[u64]) -> usize {
        let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        assert!(total > 0, "weighted_index requires a positive total weight");
        let mut target = (u128::from(self.next_u64()) * total) >> 64;
        for (i, &w) in weights.iter().enumerate() {
            let w = u128::from(w);
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = Rng::seed_from(1);
        let mut x = root.fork(0);
        let mut y = root.fork(1);
        let xs: Vec<u64> = (0..8).map(|_| x.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| y.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn stream_is_pure_and_separates_domains_and_indices() {
        let a1: Vec<u64> = {
            let mut r = Rng::stream(42, 1, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = Rng::stream(42, 1, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a1, a2, "pure function of (root, domain, index)");
        let b: Vec<u64> = {
            let mut r = Rng::stream(42, 2, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::stream(42, 1, 8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = Rng::stream(43, 1, 7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a1, b, "domain separation");
        assert_ne!(a1, c, "index separation");
        assert_ne!(a1, d, "root separation");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::seed_from(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn f64_bounds_and_mean() {
        let mut rng = Rng::seed_from(5);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut rng = Rng::seed_from(11);
        let n = 50_000;
        let mean_target = 600.0;
        let mean: f64 = (0..n).map(|_| rng.exp(mean_target)).sum::<f64>() / n as f64;
        assert!(
            (mean - mean_target).abs() / mean_target < 0.03,
            "mean {mean}"
        );
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::seed_from(13);
        let weights = [1u64, 0, 3];
        let mut counts = [0u64; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn normal_mean_and_variance() {
        let mut rng = Rng::seed_from(23);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        Rng::seed_from(0).below(0);
    }
}
