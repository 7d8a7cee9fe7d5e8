//! The three instrument kinds: counter, gauge, fixed-bucket histogram.
//!
//! Instruments are cheap `Arc` handles; cloning one yields another view of
//! the same underlying atomics, which is how the [`Registry`](crate::Registry)
//! hands the *same* series to every caller that registers the same
//! name+labels. Updates are `Relaxed` stores/RMWs — no fences, no branches
//! on loaded values — so instrumented code never changes behaviour based on
//! metric state. Reads are confined to `*Stats`-returning snapshot
//! functions; the metrics-on ≡ metrics-off digest test in
//! `tests/determinism.rs` is what proves none feeds a decision.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl core::fmt::Debug for Counter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Counter({})", self.stats().value)
    }
}

/// Point-in-time snapshot of a [`Counter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterStats {
    /// Total count observed so far.
    pub value: u64,
}

impl Counter {
    /// Creates a detached counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Mirrors an externally maintained monotone total into the counter.
    ///
    /// Samplers that copy an existing statistic (e.g. `NetStats::delivered`)
    /// call this instead of `add`; `fetch_max` keeps the series monotone
    /// even if two samplers race or a snapshot arrives out of order.
    pub fn set_total(&self, total: u64) {
        self.value.fetch_max(total, Ordering::Relaxed);
    }

    /// Snapshot for exposition.
    pub fn stats(&self) -> CounterStats {
        CounterStats {
            value: self.value.load(Ordering::Relaxed),
        }
    }
}

/// A value that can go up and down (depths, heights, lags).
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl core::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Gauge({})", self.stats().value)
    }
}

/// Point-in-time snapshot of a [`Gauge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeStats {
    /// Current gauge level.
    pub value: i64,
}

impl Gauge {
    /// Creates a detached gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Snapshot for exposition.
    pub fn stats(&self) -> GaugeStats {
        GaugeStats {
            value: self.value.load(Ordering::Relaxed),
        }
    }
}

struct HistogramInner {
    /// Strictly ascending upper bounds; bucket `i` counts observations
    /// `v <= bounds[i]` (exclusive of smaller buckets). One extra slot at
    /// the end counts the `+Inf` overflow.
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

/// A fixed-bucket histogram over `u64` observations (typically µs or bytes).
///
/// Bucket bounds are fixed at construction — there is no resizing, so
/// `observe` is two relaxed `fetch_add`s and a binary search over a small
/// immutable slice.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = self.stats();
        write!(f, "Histogram(count={}, sum={})", s.count, s.sum)
    }
}

/// Point-in-time snapshot of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramStats {
    /// The configured upper bounds (ascending, not cumulative).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts, `bounds.len() + 1` entries; the last
    /// entry is the `+Inf` overflow bucket.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    /// Creates a detached histogram with the given upper bounds.
    ///
    /// Bounds are sorted and deduplicated defensively; an empty slice
    /// yields a single `+Inf` bucket (count + sum only).
    pub fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistogramInner {
                bounds,
                buckets,
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        // First bound >= v, i.e. the smallest `le` bucket that admits `v`;
        // past-the-end lands in the +Inf overflow slot.
        let idx = self.inner.bounds.partition_point(|b| *b < v);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshot for exposition.
    pub fn stats(&self) -> HistogramStats {
        let buckets: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramStats {
            bounds: self.inner.bounds.clone(),
            buckets,
            sum: self.inner.sum.load(Ordering::Relaxed),
            count,
        }
    }
}

impl HistogramStats {
    /// Cumulative `(le, count)` pairs in exposition order; `None` is `+Inf`.
    pub fn cumulative(&self) -> Vec<(Option<u64>, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, c) in self.buckets.iter().enumerate() {
            acc += c;
            out.push((self.bounds.get(i).copied(), acc));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_inc_add_and_monotone_mirror() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.stats().value, 5);
        // Mirroring a monotone external total never regresses.
        c.set_total(3);
        assert_eq!(c.stats().value, 5);
        c.set_total(10);
        assert_eq!(c.stats().value, 10);
        // Clones view the same series.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.stats().value, 11);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(7);
        g.add(-10);
        assert_eq!(g.stats().value, -3);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_le() {
        let h = Histogram::new(&[10, 100, 1000]);
        h.observe(1); // le=10
        h.observe(10); // le=10 (boundary is inclusive)
        h.observe(11); // le=100
        h.observe(100); // le=100
        h.observe(1000); // le=1000
        h.observe(1001); // +Inf
        let s = h.stats();
        assert_eq!(s.buckets, vec![2, 2, 1, 1]);
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 10 + 11 + 100 + 1000 + 1001);
        assert_eq!(
            s.cumulative(),
            vec![(Some(10), 2), (Some(100), 4), (Some(1000), 5), (None, 6)]
        );
    }

    #[test]
    fn histogram_zero_and_empty_bounds() {
        let h = Histogram::new(&[]);
        h.observe(0);
        h.observe(u64::MAX);
        let s = h.stats();
        assert_eq!(s.buckets, vec![2]);
        assert_eq!(s.cumulative(), vec![(None, 2)]);

        // Zero observations land in the smallest bucket, not below it.
        let h = Histogram::new(&[5]);
        h.observe(0);
        assert_eq!(h.stats().buckets, vec![1, 0]);
    }

    #[test]
    fn histogram_unsorted_bounds_are_normalised() {
        let h = Histogram::new(&[100, 10, 100]);
        assert_eq!(h.stats().bounds, vec![10, 100]);
    }
}
