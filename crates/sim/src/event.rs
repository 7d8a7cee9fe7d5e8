//! The discrete-event queue driving every simulation.
//!
//! Events are ordered by `(time, source, source sequence)` — the key the
//! sharded engine relies on: a source assigns its sequence numbers in the
//! order it emits events, so the total order is independent of how actors
//! are partitioned across shards. Events scheduled through the plain
//! (unkeyed) API get the reserved [`EXTERNAL_SRC`] source and a queue-local
//! sequence, which preserves the historical "simultaneous events fire in
//! insertion order" contract.
//!
//! The queue itself is a flat slab: event payloads live in reusable slots
//! (a free list recycles them, so the steady state allocates nothing) and a
//! manual binary heap of 24-byte plain-old-data entries orders the keys.
//! Nothing is ever cancelled, so every heap entry is live and
//! [`Simulation::pending`] is the heap's length.

use crate::time::{SimDuration, SimTime};

/// The reserved source id for events scheduled outside any simulated actor
/// (standalone queue use, client injection plumbing).
pub const EXTERNAL_SRC: u32 = u32::MAX;

/// The total-order tiebreak key of a scheduled event: the logical source
/// actor and that source's own monotone sequence number.
///
/// Because the key is assigned by the *sender* (not the queue), two runs
/// that partition actors differently across shards still agree on every
/// key, which is what makes the sharded engine's merge order — and hence
/// every observable — independent of the shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Logical source actor ([`EXTERNAL_SRC`] for non-actor schedules).
    pub src: u32,
    /// The source's monotone per-event sequence number.
    pub seq: u64,
}

impl EventKey {
    /// Builds a key from a source actor and its sequence counter.
    pub fn new(src: u32, seq: u64) -> Self {
        EventKey { src, seq }
    }
}

/// A plain-old-data heap entry; the payload stays in the slab.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    src: u32,
    slot: u32,
}

#[inline]
fn entry_less(a: &HeapEntry, b: &HeapEntry) -> bool {
    (a.time, a.src, a.seq) < (b.time, b.src, b.seq)
}

/// A discrete-event simulation: a clock plus a pending-event queue.
///
/// Callers pop events with [`Simulation::next`] or
/// [`Simulation::next_keyed`] (which advance the clock) and dispatch them
/// however they like; `dcs-net`'s engine shard loop is the full pattern.
#[derive(Debug)]
pub struct Simulation<E> {
    heap: Vec<HeapEntry>,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    high_water: usize,
    now: SimTime,
    next_seq: u64,
    clamped: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            high_water: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            clamped: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// The deepest the pending queue has ever been. Observability only —
    /// the value depends on how the queue was partitioned (the sharded
    /// engine keeps per-shard queues), so it must never feed a digest.
    pub fn pending_high_water(&self) -> usize {
        self.high_water
    }

    /// Number of schedules whose requested instant was in the past and was
    /// clamped to `now`. Silent clamping hides scheduling bugs in fault
    /// schedules, so it is counted.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant under the external source.
    /// Instants in the past fire "now" (the clock never moves backwards);
    /// each clamp is counted in [`Simulation::clamped`].
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_at_keyed(time, EventKey::new(EXTERNAL_SRC, seq), event);
    }

    /// Schedules `event` at an absolute instant under an explicit
    /// `(source, sequence)` key. The caller owns key uniqueness; the sharded
    /// engine derives keys from per-actor counters so they are stable
    /// across shard counts.
    pub fn schedule_at_keyed(&mut self, time: SimTime, key: EventKey, event: E) {
        let time = if time < self.now {
            self.clamped += 1;
            self.now
        } else {
            time
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap_push(HeapEntry {
            time,
            seq: key.seq,
            src: key.src,
            slot,
        });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is drained.
    // Not `Iterator::next`: popping mutates the simulation clock, so the
    // inherent method keeps that side effect explicit at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        self.next_keyed(None).map(|(t, _, e)| (t, e))
    }

    /// Pops the next event with its ordering key if it fires at or before
    /// `deadline` (any time when `None`), advancing the clock to it. The
    /// key is what the engine's dispatch trace records.
    pub fn next_keyed(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, EventKey, E)> {
        let head = *self.heap.first()?;
        if deadline.is_some_and(|d| head.time > d) {
            return None;
        }
        self.heap_pop();
        let event = self.slots[head.slot as usize]
            .take()
            .expect("a queued slot holds an event");
        self.free.push(head.slot);
        self.now = head.time;
        Some((head.time, EventKey::new(head.src, head.seq), event))
    }

    /// Earliest pending event time, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|head| head.time)
    }

    /// Removes and returns every pending event with its key, in no
    /// particular order. Does not advance the clock — this is bulk
    /// transfer (shard explode), not delivery.
    pub fn drain(&mut self) -> Vec<(SimTime, EventKey, E)> {
        let mut out = Vec::with_capacity(self.heap.len());
        for e in self.heap.drain(..) {
            let event = self.slots[e.slot as usize]
                .take()
                .expect("a queued slot holds an event");
            out.push((e.time, EventKey::new(e.src, e.seq), event));
        }
        self.free.clear();
        self.free.extend(0..self.slots.len() as u32);
        out
    }

    /// Folds a child queue back into this one: pending events are
    /// re-scheduled under their original keys, and the clamped tally and
    /// clock high-water mark are absorbed. Intended for the sharded
    /// engine's merge step, where every leftover event is known to be in
    /// this queue's future (keyed events only — external sequences are not
    /// reconciled).
    pub fn merge_from(&mut self, mut child: Simulation<E>) {
        self.clamped += child.clamped;
        self.high_water = self.high_water.max(child.high_water);
        let child_now = child.now;
        for (time, key, event) in child.drain() {
            self.schedule_at_keyed(time, key, event);
        }
        self.advance_to(child_now);
    }

    /// Advances the clock to `t` if `t` is later (never backwards).
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    fn heap_push(&mut self, e: HeapEntry) {
        self.heap.push(e);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if entry_less(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_pop(&mut self) {
        let Some(last) = self.heap.len().checked_sub(1) else {
            return;
        };
        self.heap.swap(0, last);
        self.heap.pop();
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let mut c = l;
            if r < n && entry_less(&self.heap[r], &self.heap[l]) {
                c = r;
            }
            if entry_less(&self.heap[c], &self.heap[i]) {
                self.heap.swap(i, c);
                i = c;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_secs(3), 'c');
        sim.schedule(SimDuration::from_secs(1), 'a');
        sim.schedule(SimDuration::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| sim.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(3));
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut sim = Simulation::new();
        for i in 0..10 {
            sim.schedule(SimDuration::from_secs(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| sim.next().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_events_order_by_source_then_sequence() {
        let mut sim = Simulation::new();
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        sim.schedule_at_keyed(t, EventKey::new(2, 0), "c");
        sim.schedule_at_keyed(t, EventKey::new(1, 1), "b");
        sim.schedule_at_keyed(t, EventKey::new(1, 0), "a");
        sim.schedule_at(t, "x"); // external sorts after every actor source
        let order: Vec<&str> = std::iter::from_fn(|| sim.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c", "x"]);
    }

    #[test]
    fn heap_entries_are_24_bytes() {
        assert_eq!(std::mem::size_of::<HeapEntry>(), 24);
    }

    #[test]
    fn past_scheduling_clamps_to_now_and_is_counted() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_secs(5), ());
        sim.next();
        assert_eq!(sim.clamped(), 0);
        sim.schedule_at(SimTime::ZERO, ());
        assert_eq!(sim.clamped(), 1);
        let (t, _) = sim.next().unwrap();
        assert_eq!(t, SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn next_keyed_respects_deadline() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_secs(1), 1);
        sim.schedule(SimDuration::from_secs(10), 2);
        let cutoff = Some(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.next_keyed(cutoff).map(|(_, _, e)| e), Some(1));
        assert!(sim.next_keyed(cutoff).is_none());
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.next().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn pending_is_exact_through_slot_reuse() {
        let mut sim = Simulation::new();
        for i in 0..8 {
            sim.schedule(SimDuration::from_secs(i), i);
        }
        assert_eq!(sim.pending(), 8);
        sim.next();
        sim.next();
        assert_eq!(sim.pending(), 6);
        // Freed slots are recycled without disturbing the order.
        sim.schedule(SimDuration::ZERO, 100);
        assert_eq!(sim.pending(), 7);
        let order: Vec<u64> = std::iter::from_fn(|| sim.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![100, 2, 3, 4, 5, 6, 7]);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.pending_high_water(), 8);
    }

    #[test]
    fn drain_and_merge_round_trip() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_secs(2), 'b');
        sim.schedule(SimDuration::from_secs(1), 'a');
        let drained = sim.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(sim.pending(), 0);

        let mut child = Simulation::new();
        for (t, k, e) in drained {
            child.schedule_at_keyed(t, k, e);
        }
        let mut root: Simulation<char> = Simulation::new();
        root.merge_from(child);
        assert_eq!(root.pending(), 2);
        let order: Vec<char> = std::iter::from_fn(|| root.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b']);
    }
}
