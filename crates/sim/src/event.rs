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
//! manual binary heap of plain-old-data entries orders the keys.
//! Cancellation bumps the slot generation — the heap entry becomes a
//! tombstone that is skipped on pop — which makes [`Simulation::pending`]
//! exact with no side set.

use crate::time::{SimDuration, SimTime};
use dcs_trace::{TraceEvent, Tracer};

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

/// A handle to a scheduled event, usable with [`Simulation::cancel`].
///
/// Ids are generation-tagged: cancelling an event that already fired, was
/// already cancelled, or was drained out of this queue is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// One payload slot in the slab. `gen` advances every time the slot is
/// vacated, invalidating outstanding [`EventId`]s and heap tombstones.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    event: Option<E>,
}

/// A plain-old-data heap entry; the payload stays in the slab.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: SimTime,
    src: u32,
    seq: u64,
    slot: u32,
    gen: u32,
}

#[inline]
fn entry_less(a: &HeapEntry, b: &HeapEntry) -> bool {
    (a.time, a.src, a.seq) < (b.time, b.src, b.seq)
}

/// A discrete-event simulation: a clock plus a pending-event queue.
///
/// The driver loop is intentionally simple: callers pop events with
/// [`Simulation::next`] (which advances the clock) and dispatch them however
/// they like. See `dcs-ledger`'s network runner for the full pattern.
#[derive(Debug)]
pub struct Simulation<E> {
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    now: SimTime,
    next_seq: u64,
    processed: u64,
    clamped: u64,
    tracer: Tracer,
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
            live: 0,
            high_water: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
            clamped: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer that records a [`TraceEvent::SimDispatch`] per
    /// delivered event and a [`TraceEvent::SimClamped`] per past-time
    /// schedule. Disabled by default.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed tracer (disabled unless [`Simulation::set_tracer`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending. Exact: cancellation frees the slot
    /// immediately, so there is no tombstone drift.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// The deepest the pending queue has ever been. Observability only —
    /// the value depends on how the queue was partitioned (the sharded
    /// engine keeps per-shard queues), so it must never feed a digest.
    pub fn pending_high_water(&self) -> usize {
        self.high_water
    }

    /// Number of schedules whose requested instant was in the past and was
    /// clamped to `now`. Silent clamping hides scheduling bugs in fault
    /// schedules, so it is counted (and traced when a tracer is installed).
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule(&mut self, delay: SimDuration, event: E) -> EventId {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` at an absolute instant under the external source.
    /// Instants in the past fire "now" (the clock never moves backwards);
    /// each clamp is counted in [`Simulation::clamped`].
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_at_keyed(time, EventKey::new(EXTERNAL_SRC, seq), event)
    }

    /// Schedules `event` at an absolute instant under an explicit
    /// `(source, sequence)` key. The caller owns key uniqueness; the sharded
    /// engine derives keys from per-actor counters so they are stable
    /// across shard counts.
    pub fn schedule_at_keyed(&mut self, time: SimTime, key: EventKey, event: E) -> EventId {
        let time = if time < self.now {
            self.clamped += 1;
            if self.tracer.is_enabled() {
                let lag_us = self.now.as_micros() - time.as_micros();
                self.tracer
                    .emit(self.now.as_micros(), TraceEvent::SimClamped { lag_us });
            }
            self.now
        } else {
            time
        };
        let (slot, gen) = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                s.event = Some(event);
                (slot, s.gen)
            }
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    event: Some(event),
                });
                ((self.slots.len() - 1) as u32, 0)
            }
        };
        self.heap_push(HeapEntry {
            time,
            src: key.src,
            seq: key.seq,
            slot,
            gen,
        });
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        EventId { slot, gen }
    }

    /// Cancels a previously scheduled event. Cancelling an event that
    /// already fired (or was already cancelled or drained) is a no-op: the
    /// slot generation no longer matches the handle.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(slot) = self.slots.get_mut(id.slot as usize) {
            if slot.gen == id.gen && slot.event.is_some() {
                slot.event = None;
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(id.slot);
                self.live -= 1;
            }
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// Returns `None` when the queue is drained.
    // Not `Iterator::next`: popping mutates the simulation clock, so the
    // inherent method keeps that side effect explicit at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed(None).map(|(t, _, e)| (t, e))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    pub fn next_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        self.pop_keyed(Some(deadline)).map(|(t, _, e)| (t, e))
    }

    /// Pops the next event with its ordering key, honoring an optional
    /// deadline. The key is what the sharded engine's dispatch trace emits.
    pub fn next_keyed(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, EventKey, E)> {
        self.pop_keyed(deadline)
    }

    /// Earliest pending event time, if any. Lazily discards tombstones.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let head = *self.heap.first()?;
            if self.slots[head.slot as usize].gen != head.gen {
                self.heap_pop();
                continue;
            }
            return Some(head.time);
        }
    }

    /// Removes and returns every pending event with its key, in no
    /// particular order. Outstanding [`EventId`]s are invalidated. Does not
    /// advance the clock or the processed count — this is bulk transfer
    /// (shard explode), not delivery.
    pub fn drain(&mut self) -> Vec<(SimTime, EventKey, E)> {
        let mut out = Vec::with_capacity(self.live);
        for e in self.heap.drain(..) {
            let slot = &mut self.slots[e.slot as usize];
            if slot.gen != e.gen {
                continue;
            }
            let event = slot.event.take().expect("live slot holds an event");
            slot.gen = slot.gen.wrapping_add(1);
            out.push((e.time, EventKey::new(e.src, e.seq), event));
        }
        self.free.clear();
        self.free.extend(0..self.slots.len() as u32);
        self.live = 0;
        out
    }

    /// Folds a child queue back into this one: pending events are
    /// re-scheduled under their original keys, and the processed/clamped
    /// tallies and clock high-water mark are absorbed. Intended for the
    /// sharded engine's merge step, where every leftover event is known to
    /// be in this queue's future (keyed events only — external sequences
    /// are not reconciled).
    pub fn merge_from(&mut self, mut child: Simulation<E>) {
        self.processed += child.processed;
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

    fn pop_keyed(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, EventKey, E)> {
        let head = loop {
            let head = *self.heap.first()?;
            if self.slots[head.slot as usize].gen != head.gen {
                self.heap_pop();
                continue;
            }
            break head;
        };
        if let Some(d) = deadline {
            if head.time > d {
                return None;
            }
        }
        self.heap_pop();
        let slot = &mut self.slots[head.slot as usize];
        let event = slot.event.take().expect("live slot holds an event");
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(head.slot);
        self.live -= 1;
        self.now = head.time;
        self.processed += 1;
        if self.tracer.is_enabled() {
            self.tracer.emit(
                head.time.as_micros(),
                TraceEvent::SimDispatch {
                    pending: self.live.min(u32::MAX as usize) as u32,
                },
            );
        }
        Some((head.time, EventKey::new(head.src, head.seq), event))
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

    fn heap_pop(&mut self) -> Option<HeapEntry> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let top = self.heap.pop();
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
        top
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
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulation::new();
        let keep = sim.schedule(SimDuration::from_secs(1), "keep");
        let drop1 = sim.schedule(SimDuration::from_secs(2), "drop");
        let _ = keep;
        sim.cancel(drop1);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.next().map(|(_, e)| e), Some("keep"));
        assert_eq!(sim.next(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut sim = Simulation::new();
        let id = sim.schedule(SimDuration::ZERO, 1u8);
        assert!(sim.next().is_some());
        sim.cancel(id);
        sim.schedule(SimDuration::ZERO, 2u8);
        assert_eq!(sim.next().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn cancel_is_exact_after_slot_reuse() {
        let mut sim = Simulation::new();
        let a = sim.schedule(SimDuration::from_secs(1), 'a');
        sim.cancel(a);
        // The freed slot is recycled with a fresh generation: the stale
        // handle must not cancel the new occupant.
        let _b = sim.schedule(SimDuration::from_secs(2), 'b');
        sim.cancel(a);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.next().map(|(_, e)| e), Some('b'));
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
    fn clamp_emits_a_trace_event() {
        use dcs_trace::TraceConfig;
        let mut sim = Simulation::new();
        sim.set_tracer(Tracer::new(dcs_trace::SIM_ACTOR, &TraceConfig::full()));
        sim.schedule(SimDuration::from_secs(2), ());
        sim.next();
        sim.schedule_at(SimTime::ZERO + SimDuration::from_secs(1), ());
        let clamps: Vec<_> = sim
            .tracer()
            .records()
            .filter(|r| matches!(r.event, TraceEvent::SimClamped { .. }))
            .collect();
        assert_eq!(clamps.len(), 1);
        assert_eq!(clamps[0].at_us, 2_000_000);
        assert!(matches!(
            clamps[0].event,
            TraceEvent::SimClamped { lag_us: 1_000_000 }
        ));
    }

    #[test]
    fn next_before_respects_deadline() {
        let mut sim = Simulation::new();
        sim.schedule(SimDuration::from_secs(1), 1);
        sim.schedule(SimDuration::from_secs(10), 2);
        let cutoff = SimTime::ZERO + SimDuration::from_secs(5);
        assert_eq!(sim.next_before(cutoff).map(|(_, e)| e), Some(1));
        assert_eq!(sim.next_before(cutoff), None);
        assert_eq!(sim.next().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn tracer_sees_each_dispatch_at_sim_time() {
        use dcs_trace::TraceConfig;
        let mut sim = Simulation::new();
        sim.set_tracer(Tracer::new(dcs_trace::SIM_ACTOR, &TraceConfig::full()));
        sim.schedule(SimDuration::from_secs(1), ());
        sim.schedule(SimDuration::from_secs(2), ());
        while sim.next().is_some() {}
        let recs: Vec<_> = sim.tracer().records().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].at_us, 1_000_000);
        assert_eq!(recs[1].at_us, 2_000_000);
        assert!(matches!(
            recs[1].event,
            TraceEvent::SimDispatch { pending: 0 }
        ));
    }

    #[test]
    fn processed_counts_delivered_only() {
        let mut sim = Simulation::new();
        let a = sim.schedule(SimDuration::ZERO, ());
        sim.schedule(SimDuration::ZERO, ());
        sim.cancel(a);
        while sim.next().is_some() {}
        assert_eq!(sim.processed(), 1);
    }

    #[test]
    fn pending_is_exact_through_cancel_and_fire() {
        let mut sim = Simulation::new();
        let ids: Vec<_> = (0..8)
            .map(|i| sim.schedule(SimDuration::from_secs(i), i))
            .collect();
        assert_eq!(sim.pending(), 8);
        sim.cancel(ids[3]);
        sim.cancel(ids[3]); // double-cancel must not double-decrement
        assert_eq!(sim.pending(), 7);
        sim.next();
        assert_eq!(sim.pending(), 6);
        // Cancelling a fired event leaves the count untouched.
        sim.cancel(ids[0]);
        assert_eq!(sim.pending(), 6);
        while sim.next().is_some() {}
        assert_eq!(sim.pending(), 0);
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

    #[test]
    fn drained_event_ids_become_inert() {
        let mut sim = Simulation::new();
        let id = sim.schedule(SimDuration::from_secs(1), 'a');
        let drained = sim.drain();
        for (t, k, e) in drained {
            sim.schedule_at_keyed(t, k, e);
        }
        sim.cancel(id); // stale generation: must not cancel the re-slotted event
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.next().map(|(_, e)| e), Some('a'));
    }
}
