//! Per-actor tracer handles, configuration, and the merged [`TraceSet`].

use crate::digest::{fnv1a_fold, FNV_OFFSET};
use crate::event::{Category, TraceEvent, TraceRecord};
use std::collections::{BTreeMap, VecDeque};

/// How much a tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing; the tracer holds no state at all. Emitting is a
    /// single branch on an `Option` being `None`.
    Off,
    /// Every event: counters, the stream digest, and the bounded ring
    /// buffer of full records.
    Full,
}

/// Configuration for building tracers: mode and ring-buffer capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// What to record.
    pub mode: TraceMode,
    /// Ring-buffer capacity per tracer (ignored when [`TraceMode::Off`]).
    pub buffer_cap: usize,
}

impl TraceConfig {
    /// Tracing fully disabled.
    pub fn off() -> Self {
        TraceConfig {
            mode: TraceMode::Off,
            buffer_cap: 0,
        }
    }

    /// Full recording with a generous default buffer (64k records/actor).
    pub fn full() -> Self {
        TraceConfig {
            mode: TraceMode::Full,
            buffer_cap: 65_536,
        }
    }

    /// Overrides the per-tracer ring-buffer capacity.
    pub fn with_buffer_cap(mut self, cap: usize) -> Self {
        self.buffer_cap = cap.max(1);
        self
    }
}

/// Cheap aggregate counters an enabled tracer maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounters {
    /// Events recorded.
    pub recorded: u64,
    /// Records evicted from the ring buffer (digest still covers them).
    pub evicted: u64,
    /// Events recorded per category.
    pub per_category: [u64; Category::COUNT],
}

/// Everything a live tracer owns. Boxed behind the `Option` in [`Tracer`]
/// so a disabled tracer is a single `None` word.
#[derive(Debug, Clone)]
struct Inner {
    node: u32,
    counters: TraceCounters,
    digest: u64,
    scratch: Vec<u8>,
    cap: usize,
    buffer: VecDeque<TraceRecord>,
}

/// A per-actor tracing handle.
///
/// A `Tracer` is owned by one emitting stream of one peer (its consensus
/// core, its chain, its fabric traffic, its engine dispatches) and is **not** shared: no
/// locks, no interior mutability, deterministic by construction. Disabled
/// tracers carry no state — `emit` is one branch.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Box<Inner>>);

impl Tracer {
    /// A tracer for actor `node` under `config`. Returns a disabled tracer
    /// when the mode is [`TraceMode::Off`].
    pub fn new(node: u32, config: &TraceConfig) -> Self {
        match config.mode {
            TraceMode::Off => Tracer(None),
            TraceMode::Full => Tracer(Some(Box::new(Inner {
                node,
                counters: TraceCounters::default(),
                digest: FNV_OFFSET,
                scratch: Vec::with_capacity(64),
                cap: config.buffer_cap.max(1),
                buffer: VecDeque::new(),
            }))),
        }
    }

    /// A permanently disabled tracer (the default for every instrumented
    /// struct — zero cost until somebody installs a real one).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Whether this tracer records anything. Callers use this to skip
    /// *computing* event payloads (hashes, counts) on the off path.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The actor id this tracer emits as, if enabled.
    pub fn node(&self) -> Option<u32> {
        self.0.as_ref().map(|i| i.node)
    }

    /// Records `event` at sim time `at_us`. On a disabled tracer this is a
    /// single branch — no formatting, no allocation, no buffer touch.
    #[inline]
    pub fn emit(&mut self, at_us: u64, event: TraceEvent) {
        if let Some(inner) = self.0.as_deref_mut() {
            let node = inner.node;
            inner.record(at_us, node, event);
        }
    }

    /// Records `event` on behalf of actor `node` (used by shared fabrics —
    /// the network tracer emits per-peer events from one handle).
    #[inline]
    pub fn emit_for(&mut self, at_us: u64, node: u32, event: TraceEvent) {
        if let Some(inner) = self.0.as_deref_mut() {
            inner.record(at_us, node, event);
        }
    }

    /// The counters, if enabled.
    pub fn counters(&self) -> Option<&TraceCounters> {
        self.0.as_ref().map(|i| &i.counters)
    }

    /// The running FNV-1a stream digest, if enabled. Folded per record
    /// *before* eviction, so it is independent of the buffer capacity.
    pub fn digest(&self) -> Option<u64> {
        self.0.as_ref().map(|i| i.digest)
    }

    /// The buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.0.iter().flat_map(|i| i.buffer.iter())
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.buffer.len())
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Inner {
    fn record(&mut self, at_us: u64, node: u32, event: TraceEvent) {
        self.counters.per_category[event.category().index()] += 1;
        self.counters.recorded += 1;
        let rec = TraceRecord { at_us, node, event };
        self.scratch.clear();
        rec.encode_into(&mut self.scratch);
        self.digest = fnv1a_fold(self.digest, &self.scratch);
        if self.buffer.len() == self.cap {
            self.buffer.pop_front();
            self.counters.evicted += 1;
        }
        self.buffer.push_back(rec);
    }
}

/// A set of tracers collected at the end of a run, merged into one
/// time-ordered record stream with per-source digests.
///
/// Sources are added in a **fixed caller order** and the merge is a stable
/// sort by timestamp, so the total order is deterministic: each tracer's
/// stream is already time-ordered, and ties across tracers resolve by
/// insertion order.
#[derive(Debug, Default)]
pub struct TraceSet {
    records: Vec<TraceRecord>,
    sorted: bool,
    digests: BTreeMap<String, u64>,
    counters: TraceCounters,
}

impl TraceSet {
    /// An empty set.
    pub fn new() -> Self {
        TraceSet::default()
    }

    /// Adds one tracer's buffer under `key` (e.g. `"node3"`, `"net"`).
    /// Disabled tracers are ignored. Adding two tracers under the same key
    /// combines their digests (fold of the pair), so a peer's core and
    /// chain tracers can share one per-peer key.
    pub fn add(&mut self, key: &str, tracer: &Tracer) {
        let Some(inner) = tracer.0.as_deref() else {
            return;
        };
        self.records.extend(inner.buffer.iter().copied());
        self.sorted = false;
        self.digests
            .entry(key.to_string())
            .and_modify(|d| *d = fnv1a_fold(*d, &inner.digest.to_le_bytes()))
            .or_insert(inner.digest);
        self.counters.recorded += inner.counters.recorded;
        self.counters.evicted += inner.counters.evicted;
        for (a, b) in self
            .counters
            .per_category
            .iter_mut()
            .zip(inner.counters.per_category)
        {
            *a += b;
        }
    }

    /// All records merged across sources, ordered by timestamp (stable —
    /// ties keep source insertion order).
    pub fn records(&mut self) -> &[TraceRecord] {
        if !self.sorted {
            self.records.sort_by_key(|r| r.at_us);
            self.sorted = true;
        }
        &self.records
    }

    /// Per-source stream digests, keyed by the `add` key.
    pub fn digests(&self) -> &BTreeMap<String, u64> {
        &self.digests
    }

    /// Counters summed over every added tracer.
    pub fn counters(&self) -> &TraceCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Id;

    fn ev(height: u64) -> TraceEvent {
        TraceEvent::Finalized { height }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(9, &TraceConfig::off());
        assert!(!t.is_enabled());
        t.emit(10, ev(1));
        assert!(t.counters().is_none());
        assert!(t.digest().is_none());
        assert_eq!(t.records().count(), 0);
    }

    #[test]
    fn digest_survives_ring_buffer_eviction() {
        let small = TraceConfig::full().with_buffer_cap(2);
        let mut a = Tracer::new(1, &small);
        let mut b = Tracer::new(1, &TraceConfig::full());
        for i in 0..10 {
            a.emit(i, ev(i));
            b.emit(i, ev(i));
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.counters().unwrap().evicted, 8);
        assert_eq!(b.len(), 10);
        assert_eq!(a.digest(), b.digest(), "digest independent of capacity");
    }

    #[test]
    fn emit_for_overrides_actor() {
        let mut t = Tracer::new(7, &TraceConfig::full());
        t.emit_for(5, 3, ev(1));
        t.emit(6, ev(2));
        let nodes: Vec<u32> = t.records().map(|r| r.node).collect();
        assert_eq!(nodes, vec![3, 7]);
    }

    #[test]
    fn trace_set_merges_deterministically() {
        let build = || {
            let mut a = Tracer::new(0, &TraceConfig::full());
            let mut b = Tracer::new(1, &TraceConfig::full());
            a.emit(10, ev(1));
            b.emit(10, TraceEvent::TxAdmitted { tx: Id([1; 32]) });
            a.emit(30, ev(2));
            b.emit(20, ev(3));
            let mut set = TraceSet::new();
            set.add("node0", &a);
            set.add("node1", &b);
            set
        };
        let mut s1 = build();
        let mut s2 = build();
        assert_eq!(s1.records(), s2.records());
        assert_eq!(s1.digests(), s2.digests());
        let times: Vec<u64> = s1.records().iter().map(|r| r.at_us).collect();
        assert_eq!(times, vec![10, 10, 20, 30]);
        // Tie at t=10 keeps insertion order: node0 first.
        assert_eq!(s1.records()[0].node, 0);
        assert_eq!(s1.records()[1].node, 1);
        assert_eq!(s1.digests().len(), 2);
        assert_eq!(s1.counters().recorded, 4);
    }

    #[test]
    fn same_key_folds_digests() {
        let mut core = Tracer::new(0, &TraceConfig::full());
        let mut chain = Tracer::new(0, &TraceConfig::full());
        core.emit(1, ev(1));
        chain.emit(2, ev(2));
        let mut set = TraceSet::new();
        set.add("node0", &core);
        set.add("node0", &chain);
        assert_eq!(set.digests().len(), 1);
        let folded = fnv1a_fold(
            core.digest().unwrap(),
            &chain.digest().unwrap().to_le_bytes(),
        );
        assert_eq!(set.digests()["node0"], folded);
    }
}
