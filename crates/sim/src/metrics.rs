//! Statistics collectors for experiments: summary statistics and the
//! decentralization measures used by the DCS experiments
//! (Gini coefficient and Nakamoto coefficient over block-producer power).

/// Online summary of a stream of `f64` samples, retaining the samples for
/// exact percentile queries (experiments are small enough that this is fine).
///
/// # Examples
///
/// ```
/// use dcs_sim::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Exact percentile `p` in `[0, 100]`; 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            // total_cmp gives NaN a defined order (after +inf), so a stray
            // NaN sample skews a tail percentile instead of panicking.
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        // Linear interpolation between closest ranks.
        let pos = p.clamp(0.0, 100.0) / 100.0 * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
    }

    /// Convenience: the median.
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Folds another summary into this one, equivalent to having recorded
    /// all of `other`'s samples here. Lets per-node collectors be merged
    /// into a network-wide distribution without re-recording.
    pub fn merge(&mut self, other: &Summary) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// Gini coefficient of a distribution of non-negative "power" values
/// (0 = perfectly equal, →1 = concentrated). The paper's decentralization
/// axis is quantified with this plus [`nakamoto_coefficient`].
///
/// Returns 0 for empty input or all-zero weights.
pub fn gini(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<u64> = values.to_vec();
    v.sort_unstable();
    let n = v.len() as f64;
    let total: f64 = v.iter().map(|&x| x as f64).sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// Nakamoto coefficient: the minimum number of parties whose combined power
/// exceeds half the total — the size of the smallest coalition that can
/// censor or rewrite the chain (cf. the paper's 51% attack discussion, §2.4).
///
/// Returns 0 for empty input or all-zero weights.
pub fn nakamoto_coefficient(values: &[u64]) -> usize {
    let total: u128 = values.iter().map(|&v| u128::from(v)).sum();
    if total == 0 {
        return 0;
    }
    let mut v: Vec<u64> = values.to_vec();
    v.sort_unstable_by(|a, b| b.cmp(a));
    let mut acc: u128 = 0;
    for (i, &x) in v.iter().enumerate() {
        acc += u128::from(x);
        if acc * 2 > total {
            return i + 1;
        }
    }
    v.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.percentile(100.0), 4.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn summary_merge_equals_single_collector() {
        let xs = [4.0, 1.0, 3.0];
        let ys = [2.0, 9.0, 0.5, 6.0];
        let mut merged = Summary::new();
        let mut other = Summary::new();
        let mut single = Summary::new();
        for v in xs {
            merged.record(v);
            single.record(v);
        }
        for v in ys {
            other.record(v);
            single.record(v);
        }
        merged.merge(&other);
        assert_eq!(merged.count(), single.count());
        assert_eq!(merged.mean(), single.mean());
        assert_eq!(merged.min(), single.min());
        assert_eq!(merged.max(), single.max());
        for p in [0.0, 25.0, 50.0, 90.0, 100.0] {
            assert_eq!(merged.percentile(p), single.percentile(p), "p{p}");
        }
    }

    #[test]
    fn summary_merge_into_empty_and_of_empty() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        b.record(7.0);
        a.merge(&b); // into empty
        assert_eq!(a.count(), 1);
        assert_eq!(a.median(), 7.0);
        a.merge(&Summary::new()); // of empty
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn percentile_tolerates_nan_samples() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(f64::NAN);
        s.record(3.0);
        // NaN sorts last under total_cmp; lower percentiles stay finite.
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.median(), 3.0);
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12, "equal shares → 0");
        let concentrated = gini(&[0, 0, 0, 100]);
        assert!(
            concentrated > 0.74,
            "one holder → high gini, got {concentrated}"
        );
        let mid = gini(&[1, 2, 3, 4]);
        assert!(mid > 0.0 && mid < concentrated);
    }

    #[test]
    fn nakamoto_coefficient_cases() {
        assert_eq!(nakamoto_coefficient(&[]), 0);
        assert_eq!(nakamoto_coefficient(&[0, 0]), 0);
        // One party with 60% of power can attack alone.
        assert_eq!(nakamoto_coefficient(&[60, 20, 20]), 1);
        // Four equal parties: any three needed for majority.
        assert_eq!(nakamoto_coefficient(&[25, 25, 25, 25]), 3);
        // 51% exactly: one party suffices only above half.
        assert_eq!(nakamoto_coefficient(&[51, 49]), 1);
        assert_eq!(nakamoto_coefficient(&[50, 50]), 2);
    }
}
