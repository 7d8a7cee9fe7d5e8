//! The protocol runner: owns one [`Protocol`] state machine per peer and
//! drives them from the network's event queue. Protocols never touch the
//! queue directly — they emit [`Action`]s through a [`Ctx`], which keeps
//! every protocol implementation deterministic and testable in isolation.
//!
//! Every drive runs the engine's shard loop (`crate::engine`), the one
//! place that pops an event, runs a callback and routes its actions. By
//! default one shard spans every peer, inline on the network's queue;
//! [`Runner::set_shards`] partitions the peers across a worker pool
//! advanced in conservative time windows bounded by the latency floor. The
//! partitioning is invisible — `run_until` produces bit-identical results
//! at any shard count.

use crate::network::{NetConfig, NetStats, Network};
use crate::{engine, NodeId};
use dcs_sim::{Rng, SimDuration, SimTime};

/// Deferred effects a protocol requests during a callback.
#[derive(Debug)]
pub enum Action<M> {
    /// Unicast `msg` (`size` bytes) to a peer.
    Send {
        /// Destination peer.
        to: NodeId,
        /// Payload.
        msg: M,
        /// Payload size in bytes (for bandwidth accounting).
        size: usize,
    },
    /// Arm a timer; `tag` comes back via [`Protocol::on_timer`]. There is no
    /// cancel action — protocols version their timers with epoch counters
    /// and ignore stale tags, which is simpler to reason about than
    /// cancellation races.
    Timer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Opaque tag returned to the protocol.
        tag: u64,
    },
}

/// Per-callback context: identity, clock, neighbors, RNG, and the action
/// buffer.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    /// The peer being called.
    pub node: NodeId,
    /// Current simulated time.
    pub now: SimTime,
    /// Overlay neighbors of this peer.
    pub neighbors: &'a [NodeId],
    /// This peer's private RNG stream.
    pub rng: &'a mut Rng,
    actions: &'a mut Vec<Action<M>>,
}

impl<'a, M> Ctx<'a, M> {
    /// Builds a context outside a [`Runner`] — for unit-testing protocol
    /// handlers in isolation. Requested actions accumulate in `actions`
    /// for the caller to inspect or apply.
    pub fn new(
        node: NodeId,
        now: SimTime,
        neighbors: &'a [NodeId],
        rng: &'a mut Rng,
        actions: &'a mut Vec<Action<M>>,
    ) -> Self {
        Ctx {
            node,
            now,
            neighbors,
            rng,
            actions,
        }
    }
}

impl<M: Clone> Ctx<'_, M> {
    /// Unicasts to one peer.
    pub fn send(&mut self, to: NodeId, msg: M, size: usize) {
        self.actions.push(Action::Send { to, msg, size });
    }

    /// Sends to every overlay neighbor (flood-gossip fanout).
    pub fn broadcast(&mut self, msg: M, size: usize) {
        for &to in self.neighbors {
            self.actions.push(Action::Send {
                to,
                msg: msg.clone(),
                size,
            });
        }
    }

    /// Sends to every neighbor except `except` (typically the peer the
    /// message just came from).
    pub fn broadcast_except(&mut self, except: NodeId, msg: M, size: usize) {
        for &to in self.neighbors {
            if to != except {
                self.actions.push(Action::Send {
                    to,
                    msg: msg.clone(),
                    size,
                });
            }
        }
    }

    /// Arms a timer with an opaque tag.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(Action::Timer { delay, tag });
    }
}

/// A per-peer protocol state machine.
pub trait Protocol {
    /// Message type exchanged between peers.
    type Msg: Clone;

    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message arrives.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a timer set through [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = (tag, ctx);
    }
}

/// Drives `N` protocol instances over a [`Network`].
#[derive(Debug)]
pub struct Runner<P: Protocol> {
    pub(crate) net: Network<P::Msg>,
    pub(crate) nodes: Vec<P>,
    pub(crate) rngs: Vec<Rng>,
    started: bool,
    shards: usize,
    /// Cumulative events dispatched per engine shard, observability only
    /// (serve mirrors these into per-worker counters). One-worker runs
    /// count in slot 0; the slot layout depends on the worker count, so
    /// this must never feed a digest.
    pub(crate) shard_dispatched: Vec<u64>,
}

impl<P: Protocol> Runner<P> {
    /// Builds the network and one protocol instance per peer.
    pub fn new(cfg: NetConfig, seed: u64, mut make: impl FnMut(NodeId) -> P) -> Self {
        let mut net = Network::new(cfg, seed);
        let n = net.node_count();
        let rngs = (0..n).map(|i| net.rng_mut().fork(i as u64)).collect();
        let nodes = (0..n).map(|i| make(NodeId(i))).collect();
        Runner {
            net,
            nodes,
            rngs,
            started: false,
            shards: 1,
            shard_dispatched: Vec::new(),
        }
    }

    /// Sets the engine worker count (default 1: one shard, inline; 0 reads
    /// as 1). Any value produces bit-identical results.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// The configured engine worker count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The protocol instance for `id`.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.0]
    }

    /// Mutable protocol access (to inject client transactions mid-run).
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id.0]
    }

    /// All protocol instances.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The underlying network.
    pub fn net(&self) -> &Network<P::Msg> {
        &self.net
    }

    /// Mutable access to the network (partitions, extra traffic).
    pub fn net_mut(&mut self) -> &mut Network<P::Msg> {
        &mut self.net
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Invokes `f` on one protocol instance with a live [`Ctx`], outside
    /// the event loop, and routes the requested actions through the
    /// engine — the hook fault drivers use to run crash/recovery callbacks
    /// at a scripted instant.
    pub fn with_ctx<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut P, &mut Ctx<'_, P::Msg>),
    {
        engine::call(self, node, f);
    }

    fn start_if_needed(&mut self) {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                engine::call(self, NodeId(i), |p, ctx| p.on_start(ctx));
            }
        }
    }

    /// Accumulates `count` dispatched events against shard `slot`.
    pub(crate) fn note_dispatched(&mut self, slot: usize, count: u64) {
        if self.shard_dispatched.len() <= slot {
            self.shard_dispatched.resize(slot + 1, 0);
        }
        self.shard_dispatched[slot] += count;
    }

    /// Cumulative events dispatched per engine shard across this runner's
    /// lifetime — the raw material for per-worker events/s metrics. Slot 0
    /// absorbs one-worker dispatches; empty before the first drive.
    pub fn shard_event_counts(&self) -> &[u64] {
        &self.shard_dispatched
    }

    fn drive(&mut self, deadline: SimTime) -> u64
    where
        P: Send,
        P::Msg: Send,
    {
        self.start_if_needed();
        let effective = self.shards.min(self.nodes.len().max(1));
        if effective <= 1 || self.net.lookahead() == SimDuration::ZERO {
            engine::run_inline(self, deadline)
        } else {
            engine::run_sharded(self, deadline, effective)
        }
    }

    /// Dispatches every event due at or before `deadline`, then leaves the
    /// clock at `deadline` — so whatever runs next (a fault hook, an
    /// injection) acts at exactly that instant. Returns the number of
    /// events dispatched. Bit-identical at any shard count.
    pub fn run_until(&mut self, deadline: SimTime) -> u64
    where
        P: Send,
        P::Msg: Send,
    {
        let dispatched = self.drive(deadline);
        self.net.sim.advance_to(deadline);
        dispatched
    }

    /// Runs until the queue fully drains (protocols must quiesce); the
    /// clock stays at the last dispatched event.
    pub fn run_to_quiescence(&mut self) -> u64
    where
        P: Send,
        P::Msg: Send,
    {
        self.drive(SimTime::from_micros(u64::MAX))
    }

    /// Network statistics.
    pub fn stats(&self) -> NetStats {
        self.net.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::topology::Topology;
    use dcs_crypto::sha256;

    /// Flood gossip: node 0 originates one rumor; everyone forwards on
    /// first sight.
    struct Rumor {
        gossip: dcs_crypto::IdSet,
        heard_at: Option<SimTime>,
        origin: bool,
    }

    impl Protocol for Rumor {
        type Msg = dcs_crypto::Hash256;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
            if self.origin {
                let id = sha256(b"rumor");
                self.gossip.insert(id);
                self.heard_at = Some(ctx.now);
                ctx.broadcast(id, 32);
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
            if self.gossip.insert(msg) {
                self.heard_at = Some(ctx.now);
                ctx.broadcast_except(from, msg, 32);
            }
        }
    }

    fn gossip_config(nodes: usize) -> NetConfig {
        NetConfig {
            nodes,
            topology: Topology::KRegular { k: 4 },
            latency: LatencyModel::Constant(SimDuration::from_millis(50)),
            drop_probability: 0.0,
            bandwidth_bytes_per_sec: None,
        }
    }

    #[test]
    fn rumor_reaches_every_node() {
        let mut runner = Runner::new(gossip_config(40), 11, |id| Rumor {
            gossip: dcs_crypto::IdSet::default(),
            heard_at: None,
            origin: id == NodeId(0),
        });
        runner.run_to_quiescence();
        assert!(runner.nodes().iter().all(|n| n.heard_at.is_some()));
        // Propagation takes at least one hop and at most diameter hops.
        let max_at = runner
            .nodes()
            .iter()
            .map(|n| n.heard_at.unwrap())
            .max()
            .unwrap();
        assert!(max_at.as_millis() >= 50);
        assert!(max_at.as_millis() <= 50 * 40);
    }

    #[test]
    fn rumor_blocked_by_partition_then_heals() {
        let mut runner = Runner::new(gossip_config(20), 13, |id| Rumor {
            gossip: dcs_crypto::IdSet::default(),
            heard_at: None,
            origin: id == NodeId(0),
        });
        // Split 0..10 | 10..20.
        let groups: Vec<u32> = (0..20).map(|i| u32::from(i >= 10)).collect();
        runner.net_mut().set_partition(groups);
        runner.run_to_quiescence();
        let heard: usize = runner
            .nodes()
            .iter()
            .filter(|n| n.heard_at.is_some())
            .count();
        assert!(heard < 20, "partition must block someone (heard {heard})");
        assert!(runner.stats().partitioned > 0);

        // Heal and re-gossip from a node that heard it.
        runner.net_mut().heal_partition();
        let heard_node = NodeId(
            (0..20)
                .find(|&i| runner.node(NodeId(i)).heard_at.is_some())
                .unwrap(),
        );
        let id = sha256(b"rumor");
        // Manually reflood from that node.
        runner.with_ctx(heard_node, |_, ctx| ctx.broadcast(id, 32));
        runner.run_to_quiescence();
        assert!(runner.nodes().iter().all(|n| n.heard_at.is_some()));
    }

    #[test]
    fn timers_dispatch_to_protocols() {
        struct Ticker {
            ticks: u32,
        }
        impl Protocol for Ticker {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
            fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, ()>) {
                assert_eq!(tag, 1);
                self.ticks += 1;
                if self.ticks < 5 {
                    ctx.set_timer(SimDuration::from_millis(10), 1);
                }
            }
        }
        let mut runner = Runner::new(gossip_config(3), 1, |_| Ticker { ticks: 0 });
        runner.run_to_quiescence();
        assert!(runner.nodes().iter().all(|n| n.ticks == 5));
        assert_eq!(runner.now().as_millis(), 50);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut runner = Runner::new(gossip_config(30), 17, |id| Rumor {
            gossip: dcs_crypto::IdSet::default(),
            heard_at: None,
            origin: id == NodeId(0),
        });
        let early = SimTime::from_micros(60_000); // one hop only
        runner.run_until(early);
        assert_eq!(runner.now(), early, "the clock stops at the deadline");
        let heard: usize = runner
            .nodes()
            .iter()
            .filter(|n| n.heard_at.is_some())
            .count();
        assert!(
            heard > 1 && heard < 30,
            "partial propagation, heard {heard}"
        );
    }

    fn gossip_outcome(shards: usize, latency: LatencyModel) -> (u64, Vec<u64>, NetStats, SimTime) {
        let mut cfg = gossip_config(48);
        cfg.latency = latency;
        let mut runner = Runner::new(cfg, 11, |id| Rumor {
            gossip: dcs_crypto::IdSet::default(),
            heard_at: None,
            origin: id == NodeId(0),
        });
        runner.set_shards(shards);
        assert_eq!(runner.shards(), shards.max(1));
        let processed = runner.run_to_quiescence();
        let heard = runner
            .nodes()
            .iter()
            .map(|n| n.heard_at.unwrap().as_micros())
            .collect();
        (processed, heard, runner.stats(), runner.now())
    }

    #[test]
    fn sharded_run_is_bit_identical_to_one_worker() {
        let one = gossip_outcome(1, LatencyModel::Constant(SimDuration::from_millis(50)));
        for shards in [2, 3, 8] {
            let sharded =
                gossip_outcome(shards, LatencyModel::Constant(SimDuration::from_millis(50)));
            assert_eq!(one, sharded, "shards={shards} diverged");
        }
    }

    #[test]
    fn sharded_run_matches_one_worker_under_lognormal_latency() {
        // Long-tailed latency exercises the clamped lookahead floor and
        // uneven window population.
        let one = gossip_outcome(1, LatencyModel::wan());
        for shards in [2, 8] {
            assert_eq!(
                one,
                gossip_outcome(shards, LatencyModel::wan()),
                "shards={shards} diverged"
            );
        }
    }

    #[test]
    fn deadline_windows_are_respected_when_sharded() {
        let run = |shards: usize| {
            let mut runner = Runner::new(gossip_config(30), 17, |id| Rumor {
                gossip: dcs_crypto::IdSet::default(),
                heard_at: None,
                origin: id == NodeId(0),
            });
            runner.set_shards(shards);
            // Drive in many small increments that cut windows short.
            let mut processed = 0;
            for step in 1..=8 {
                processed += runner.run_until(SimTime::from_micros(step * 60_000));
                assert_eq!(runner.now(), SimTime::from_micros(step * 60_000));
            }
            processed += runner.run_to_quiescence();
            let heard: Vec<u64> = runner
                .nodes()
                .iter()
                .map(|n| n.heard_at.unwrap().as_micros())
                .collect();
            (processed, heard)
        };
        assert_eq!(run(1), run(4));
    }
}
