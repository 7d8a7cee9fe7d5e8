//! The event engine: the one loop that pops an event, runs a protocol
//! callback and routes the [`Action`]s it requested, and the
//! conservative-window PDES coordinator that runs that loop on several
//! workers.
//!
//! Every drive, every `on_start` and every fault hook runs through a
//! `Shard`. At one effective worker (or zero lookahead) a single shard
//! spans every peer and works inline on the network's own queue: no
//! thread, channel, or queue explode/merge. At two or more, peers are
//! partitioned into contiguous shards, each owning a private event queue
//! and a scoped worker thread. A coordinator repeatedly picks the globally
//! earliest pending time `lo` and grants every shard the window
//! `[lo, lo + L − 1µs]` (clipped at the caller's deadline), where `L` is
//! the fabric's latency floor ([`crate::LatencyModel::min_latency`]). Any
//! message generated at time `t ≥ lo` delivers no earlier than `t + L`,
//! strictly after the window — so shards advance through a window without
//! observing each other, and cross-shard deliveries are exchanged at the
//! barrier for the *next* window.
//!
//! Determinism does not depend on the window schedule at all; it comes from
//! three per-node properties (see DESIGN.md §13): events are totally
//! ordered by `(time, source, source-sequence)` — a key assigned by the
//! *sender*, identical under any partitioning; every random draw comes from
//! the sending node's private [`dcs_sim::Rng::stream`]; and every trace
//! record lands in a per-node tracer. A shard processes exactly the
//! destination-restricted subsequence of the one-shard run, so every peer
//! observes the same messages, times, draws, and traces bit-for-bit.

use crate::network::{event_dest, route_send, NetEvent, NetStats, SharedNet};
use crate::runner::{Action, Ctx, Protocol, Runner};
use crate::NodeId;
use dcs_sim::{EventKey, Rng, SimTime, Simulation};
use dcs_trace::{TraceEvent, Tracer};
use std::sync::mpsc::{channel, Receiver, Sender};

/// One scheduled event in transit between shards.
type Item<M> = (SimTime, EventKey, NetEvent<M>);

/// Coordinator → worker.
enum Cmd<M> {
    /// Advance through `[previous grant, hi]`, after absorbing `inbox`.
    Window { hi: SimTime, inbox: Vec<Item<M>> },
    /// Run is over; return your state.
    Finish,
}

/// Worker → coordinator, one per window grant.
struct Rep<M> {
    shard: usize,
    /// Earliest locally pending event after the window, if any.
    next: Option<SimTime>,
    /// Deliveries destined for other shards, generated this window.
    outbox: Vec<Item<M>>,
}

/// One worker's slice of the simulation: a contiguous range of peers
/// (`base ..`), their protocol state, RNG streams, tracers, and the event
/// queue holding their pending events (the network's own when one shard
/// spans every peer).
struct Shard<'a, P: Protocol> {
    id: usize,
    base: usize,
    chunk: usize,
    queue: &'a mut Simulation<NetEvent<P::Msg>>,
    nodes: &'a mut [P],
    rngs: &'a mut [Rng],
    link_rngs: &'a mut [Rng],
    src_seqs: &'a mut [u64],
    net_tracers: &'a mut [Tracer],
    disp_tracers: &'a mut [Tracer],
    shared: &'a SharedNet<'a>,
    stats: NetStats,
    dispatched: u64,
    action_buf: Vec<Action<P::Msg>>,
    outbox: Vec<Item<P::Msg>>,
}

impl<P: Protocol> Shard<'_, P> {
    /// Runs one protocol callback on local peer `node` at `at` and routes
    /// the actions it requested: sends through the fabric (into this
    /// shard's queue, or the outbox when the destination is another
    /// shard's), timers into this shard's queue.
    fn call(&mut self, at: SimTime, node: NodeId, f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>)) {
        let li = node.0 - self.base;
        let Shard {
            id,
            chunk,
            queue,
            nodes,
            rngs,
            link_rngs,
            src_seqs,
            net_tracers,
            shared,
            stats,
            action_buf,
            outbox,
            ..
        } = self;
        let neighbors = &shared.adjacency[node.0];
        f(
            &mut nodes[li],
            &mut Ctx::new(node, at, neighbors, &mut rngs[li], action_buf),
        );
        for action in action_buf.drain(..) {
            match action {
                Action::Send { to, msg, size } => {
                    let (my, ch) = (*id, *chunk);
                    route_send(
                        shared,
                        stats,
                        &mut net_tracers[li],
                        &mut link_rngs[li],
                        &mut src_seqs[li],
                        at,
                        node,
                        to,
                        msg,
                        size,
                        |t, k, e| {
                            if event_dest(&e).0 / ch == my {
                                queue.schedule_at_keyed(t, k, e);
                            } else {
                                outbox.push((t, k, e));
                            }
                        },
                    );
                }
                Action::Timer { delay, tag } => {
                    let seq = src_seqs[li];
                    src_seqs[li] += 1;
                    queue.schedule_at_keyed(
                        at + delay,
                        EventKey::new(node.0 as u32, seq),
                        NetEvent::Timer { node, tag },
                    );
                }
            }
        }
    }

    /// Absorbs the barrier inbox, then dispatches every local event with
    /// time ≤ `hi`: a crashed destination's events are consumed silently
    /// (sim time still advances), every other is traced and handed to its
    /// peer's callback.
    fn run_window(&mut self, hi: SimTime, inbox: Vec<Item<P::Msg>>) -> Rep<P::Msg> {
        for (t, k, ev) in inbox {
            self.queue.schedule_at_keyed(t, k, ev);
        }
        while let Some((at, key, event)) = self.queue.next_keyed(Some(hi)) {
            let dest = event_dest(&event);
            let li = dest.0 - self.base;
            if !self.shared.alive[dest.0] {
                match event {
                    NetEvent::Deliver { .. } => self.stats.suppressed_deliveries += 1,
                    NetEvent::Timer { .. } => self.stats.suppressed_timers += 1,
                }
                continue;
            }
            if let NetEvent::Deliver { from, .. } = &event {
                self.stats.delivered += 1;
                self.net_tracers[li].emit_for(
                    at.as_micros(),
                    dest.0 as u32,
                    TraceEvent::MsgDelivered {
                        from: from.0 as u32,
                    },
                );
            }
            self.disp_tracers[li].emit_for(
                at.as_micros(),
                dest.0 as u32,
                TraceEvent::EngineDispatch {
                    src: key.src,
                    seq: key.seq,
                },
            );
            self.dispatched += 1;
            self.call(at, dest, |p, ctx| match event {
                NetEvent::Deliver { from, msg, .. } => p.on_message(from, msg, ctx),
                NetEvent::Timer { tag, .. } => p.on_timer(tag, ctx),
            });
        }
        Rep {
            shard: self.id,
            next: self.queue.peek_time(),
            outbox: std::mem::take(&mut self.outbox),
        }
    }
}

/// Runs `f` on one shard that spans every peer and works on the network's
/// own queue, then folds the shard's fabric counters back into the
/// network. Returns what `f` returns.
fn inline<P: Protocol, R>(runner: &mut Runner<P>, f: impl FnOnce(&mut Shard<'_, P>) -> R) -> R {
    let chunk = runner.nodes.len().max(1);
    let parts = runner.net.parts();
    let mut shard = Shard {
        id: 0,
        base: 0,
        chunk,
        queue: parts.sim,
        nodes: &mut runner.nodes,
        rngs: &mut runner.rngs,
        link_rngs: parts.link_rngs,
        src_seqs: parts.src_seqs,
        net_tracers: parts.net_tracers,
        disp_tracers: parts.disp_tracers,
        shared: &parts.shared,
        stats: NetStats::default(),
        dispatched: 0,
        action_buf: Vec::new(),
        outbox: Vec::new(),
    };
    let out = f(&mut shard);
    parts.stats.absorb(shard.stats);
    out
}

/// Runs `f` on `node` at the current instant, outside the event loop, and
/// routes the actions it requested — how `on_start` and the fault hooks
/// reach a peer.
pub(crate) fn call<P: Protocol>(
    runner: &mut Runner<P>,
    node: NodeId,
    f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>),
) {
    inline(runner, |shard| {
        let now = shard.queue.now();
        shard.call(now, node, f);
    });
}

/// Dispatches every event up to `deadline` on one inline shard. Returns
/// the number of events dispatched.
pub(crate) fn run_inline<P: Protocol>(runner: &mut Runner<P>, deadline: SimTime) -> u64 {
    let dispatched = inline(runner, |shard| {
        shard.run_window(deadline, Vec::new());
        shard.dispatched
    });
    runner.note_dispatched(0, dispatched);
    dispatched
}

/// A worker thread's whole life: serve window grants until told to finish,
/// then hand back the state the coordinator must merge.
fn worker<P: Protocol>(
    mut shard: Shard<'_, P>,
    rx: Receiver<Cmd<P::Msg>>,
    tx: Sender<Rep<P::Msg>>,
) -> (NetStats, u64) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Window { hi, inbox } => {
                let rep = shard.run_window(hi, inbox);
                if tx.send(rep).is_err() {
                    break;
                }
            }
            Cmd::Finish => break,
        }
    }
    (shard.stats, shard.dispatched)
}

/// Runs the network sharded `shards` ways until the queue drains past
/// `deadline`. Returns the number of events dispatched. The caller
/// guarantees `shards ≥ 2`, a non-zero lookahead, and that `on_start` has
/// already run.
pub(crate) fn run_sharded<P>(runner: &mut Runner<P>, deadline: SimTime, shards: usize) -> u64
where
    P: Protocol + Send,
    P::Msg: Send,
{
    let lookahead = runner.net.lookahead();
    let n = runner.nodes.len();
    let chunk = n.div_ceil(shards);
    let s = n.div_ceil(chunk);

    let nodes = &mut runner.nodes;
    let rngs = &mut runner.rngs;
    let parts = runner.net.parts();
    let sim = parts.sim;
    let shared = parts.shared;

    // Explode the global queue into per-shard queues by destination.
    let start_now = sim.now();
    let mut pending: Vec<Vec<Item<P::Msg>>> = (0..s).map(|_| Vec::new()).collect();
    for (t, k, ev) in sim.drain() {
        pending[event_dest(&ev).0 / chunk].push((t, k, ev));
    }
    let mut queues: Vec<Simulation<NetEvent<P::Msg>>> = Vec::with_capacity(s);
    let mut next: Vec<Option<SimTime>> = Vec::with_capacity(s);
    for evs in pending {
        let mut q = Simulation::new();
        q.advance_to(start_now);
        for (t, k, ev) in evs {
            q.schedule_at_keyed(t, k, ev);
        }
        next.push(q.peek_time());
        queues.push(q);
    }

    let mut shard_structs = Vec::with_capacity(s);
    {
        let mut queues_it = queues.iter_mut();
        let mut nodes_ch = nodes.chunks_mut(chunk);
        let mut rngs_ch = rngs.chunks_mut(chunk);
        let mut link_ch = parts.link_rngs.chunks_mut(chunk);
        let mut seq_ch = parts.src_seqs.chunks_mut(chunk);
        let mut net_tr_ch = parts.net_tracers.chunks_mut(chunk);
        let mut disp_tr_ch = parts.disp_tracers.chunks_mut(chunk);
        for id in 0..s {
            shard_structs.push(Shard {
                id,
                base: id * chunk,
                chunk,
                queue: queues_it.next().expect("one queue per shard"),
                nodes: nodes_ch.next().expect("one node chunk per shard"),
                rngs: rngs_ch.next().expect("one rng chunk per shard"),
                link_rngs: link_ch.next().expect("one link chunk per shard"),
                src_seqs: seq_ch.next().expect("one seq chunk per shard"),
                net_tracers: net_tr_ch.next().expect("one tracer chunk per shard"),
                disp_tracers: disp_tr_ch.next().expect("one tracer chunk per shard"),
                shared: &shared,
                stats: NetStats::default(),
                dispatched: 0,
                action_buf: Vec::new(),
                outbox: Vec::new(),
            });
        }
    }

    // lint-allow(thread-spawn): audited worker pool — scoped threads,
    // deterministic barrier protocol, no shared mutable state.
    let (outs, leftovers) = std::thread::scope(|scope| {
        let (rep_tx, rep_rx) = channel::<Rep<P::Msg>>();
        let mut cmd_txs: Vec<Sender<Cmd<P::Msg>>> = Vec::with_capacity(s);
        let mut handles = Vec::with_capacity(s);
        for shard in shard_structs {
            let (tx, rx) = channel();
            cmd_txs.push(tx);
            let rep = rep_tx.clone();
            handles.push(scope.spawn(move || worker(shard, rx, rep)));
        }
        drop(rep_tx);

        // Cross-shard deliveries parked at the barrier, per destination
        // shard.
        let mut inboxes: Vec<Vec<Item<P::Msg>>> = (0..s).map(|_| Vec::new()).collect();
        loop {
            let mut lo: Option<SimTime> = None;
            let mut fold = |t: SimTime| lo = Some(lo.map_or(t, |l| l.min(t)));
            for t in next.iter().flatten() {
                fold(*t);
            }
            for (t, _, _) in inboxes.iter().flatten() {
                fold(*t);
            }
            let Some(lo) = lo else { break };
            if lo > deadline {
                break;
            }
            let hi = SimTime::from_micros(
                lo.as_micros()
                    .saturating_add(lookahead.as_micros().saturating_sub(1))
                    .min(deadline.as_micros()),
            );
            for (i, tx) in cmd_txs.iter().enumerate() {
                tx.send(Cmd::Window {
                    hi,
                    inbox: std::mem::take(&mut inboxes[i]),
                })
                .expect("worker hung up");
            }
            for _ in 0..s {
                let rep = rep_rx.recv().expect("worker hung up");
                next[rep.shard] = rep.next;
                for item in rep.outbox {
                    inboxes[event_dest(&item.2).0 / chunk].push(item);
                }
            }
        }
        for tx in &cmd_txs {
            let _ = tx.send(Cmd::Finish);
        }
        let outs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (outs, inboxes)
    });

    // Fold the shards back into the global simulation: queues, counters,
    // and any cross-shard deliveries past the deadline.
    for queue in queues {
        sim.merge_from(queue);
    }
    let mut total = 0;
    let mut per_shard = Vec::with_capacity(outs.len());
    for (st, dispatched) in outs {
        parts.stats.absorb(st);
        total += dispatched;
        per_shard.push(dispatched);
    }
    for (t, k, ev) in leftovers.into_iter().flatten() {
        sim.schedule_at_keyed(t, k, ev);
    }
    for (slot, dispatched) in per_shard.into_iter().enumerate() {
        runner.note_dispatched(slot, dispatched);
    }
    total
}
