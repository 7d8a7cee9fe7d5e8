//! The harness's own seeded generator. Every input the program receives —
//! keys, transactions, arrival times, points of contact — is drawn from a
//! SplitMix64 stream derived from `--seed`, so a later change to
//! `dcs_sim::Rng` or `dcs_ledger::Workload` cannot silently change what the
//! benchmark feeds the stack.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit word of state, full
/// period, passes BigCrush. Golden values are pinned in the tests below.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// An independent stream for one purpose (`label`) of one repetition:
    /// a pure function of `(seed, label)`, so adding a stream never shifts
    /// the draws of another.
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut root = SplitMix64::new(seed);
        let a = root.next_u64();
        let mut tag = SplitMix64::new(label.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        SplitMix64::new(a ^ tag.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` by multiply-shift. The bias is below
    /// `bound / 2^64`, far under anything a workload of 10^6 draws can see.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() needs a positive bound");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential with the given mean: the gap of a Poisson arrival process.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }

    pub fn bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}

/// `count` Poisson arrival instants at `rate_per_s`, in simulated
/// microseconds, strictly increasing. The count is fixed (not the window),
/// so `ops_attempted` is the same for every seed.
pub fn poisson_arrivals_us(rng: &mut SplitMix64, count: usize, rate_per_s: f64) -> Vec<u64> {
    let mean_gap_us = 1e6 / rate_per_s;
    let mut t = 0.0f64;
    let mut last = 0u64;
    (0..count)
        .map(|_| {
            t += rng.exp(mean_gap_us);
            last = (t as u64).max(last + 1);
            last
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_golden_values() {
        // Reference outputs of the published algorithm for seed 0 and for
        // seed 1234567 (the vectors quoted with the xoshiro reference code).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
        let mut g = SplitMix64::new(1_234_567);
        assert_eq!(g.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(g.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_label() {
        let a: Vec<u64> = {
            let mut s = SplitMix64::stream(42, 3);
            (0..4).map(|_| s.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut s = SplitMix64::stream(42, 3);
            (0..4).map(|_| s.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut s = SplitMix64::stream(42, 4);
            (0..4).map(|_| s.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_and_exp_stay_in_range() {
        let mut g = SplitMix64::new(7);
        let mut sum = 0.0;
        for _ in 0..20_000 {
            assert!(g.below(32) < 32);
            let e = g.exp(5.0);
            assert!(e.is_finite() && e >= 0.0);
            sum += e;
        }
        let mean = sum / 20_000.0;
        assert!((mean - 5.0).abs() < 0.15, "exp mean {mean}");
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_fixed_in_count() {
        let mut g = SplitMix64::new(9);
        let at = poisson_arrivals_us(&mut g, 5_000, 2_000.0);
        assert_eq!(at.len(), 5_000);
        assert!(at.windows(2).all(|w| w[0] < w[1]));
        // 5 000 arrivals at 2 000/s span about 2.5 s.
        let span = *at.last().unwrap() as f64 / 1e6;
        assert!((span - 2.5).abs() < 0.2, "span {span}");
    }
}
