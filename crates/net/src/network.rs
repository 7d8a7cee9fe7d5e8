//! The message fabric: point-to-point sends over the overlay with sampled
//! latency, probabilistic loss, partitions, bandwidth accounting, and
//! injectable faults (node crashes, link flaps, duplication, corruption),
//! all scheduled on the deterministic event queue.
//!
//! Shard-count invariance: every per-message random draw comes from the
//! *sending* node's private link stream (derived by [`Rng::stream`] from
//! the root seed), every scheduled event is keyed by the sender's own
//! `(node, sequence)` counter, and every trace record lands in the emitting
//! node's private tracer. None of that state is shared across nodes, so
//! partitioning nodes across engine shards cannot change what any of them
//! observes.

use crate::latency::LatencyModel;
use crate::topology::{self, Topology};
use crate::NodeId;
use dcs_sim::{EventKey, Rng, SimDuration, SimTime, Simulation};
use dcs_trace::{TraceConfig, TraceEvent, Tracer};
use std::collections::BTreeSet;

/// The [`Rng::stream`] domain for per-node link sampling streams.
const STREAM_LINK: u64 = 0x4c49_4e4b; // "LINK"

/// Network construction parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of peers.
    pub nodes: usize,
    /// Overlay shape.
    pub topology: Topology,
    /// Per-hop latency model.
    pub latency: LatencyModel,
    /// Probability each message is silently lost.
    pub drop_probability: f64,
    /// If set, add `size / bandwidth` serialization delay per message.
    pub bandwidth_bytes_per_sec: Option<u64>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            nodes: 16,
            topology: Topology::KRegular { k: 4 },
            latency: LatencyModel::wan(),
            drop_probability: 0.0,
            bandwidth_bytes_per_sec: None,
        }
    }
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the fabric.
    pub sent: u64,
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Messages lost to `drop_probability`.
    pub dropped: u64,
    /// Messages blocked by a partition.
    pub partitioned: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Messages lost to a downed link (link-flap fault).
    pub link_dropped: u64,
    /// Extra deliveries scheduled by the duplication fault.
    pub duplicated: u64,
    /// Messages corrupted in flight and discarded at the checksum.
    pub corrupted: u64,
    /// Node crash events applied.
    pub crashes: u64,
    /// Node restart events applied.
    pub restarts: u64,
    /// Deliveries consumed silently because the destination was crashed.
    pub suppressed_deliveries: u64,
    /// Timers consumed silently because their node was crashed.
    pub suppressed_timers: u64,
    /// Schedules whose requested instant was in the past and got clamped
    /// to "now" (see [`dcs_sim::Simulation::clamped`]).
    pub clamped_events: u64,
}

impl NetStats {
    /// Adds every counter of `other` into `self` (shard merge).
    pub(crate) fn absorb(&mut self, other: NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.partitioned += other.partitioned;
        self.bytes_sent += other.bytes_sent;
        self.link_dropped += other.link_dropped;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
        self.crashes += other.crashes;
        self.restarts += other.restarts;
        self.suppressed_deliveries += other.suppressed_deliveries;
        self.suppressed_timers += other.suppressed_timers;
        self.clamped_events += other.clamped_events;
    }
}

/// Internal queue events.
#[derive(Debug)]
pub(crate) enum NetEvent<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, tag: u64 },
}

/// The node an event is dispatched to (delivery destination / timer owner).
pub(crate) fn event_dest<M>(ev: &NetEvent<M>) -> NodeId {
    match ev {
        NetEvent::Deliver { to, .. } => *to,
        NetEvent::Timer { node, .. } => *node,
    }
}

/// The read-only fabric state a send consults: topology, link models, and
/// fault switches. During a sharded run this is shared (immutably) by every
/// worker — faults only mutate it between `run_until` calls, never inside
/// one.
#[derive(Debug)]
pub(crate) struct SharedNet<'a> {
    pub adjacency: &'a [Vec<NodeId>],
    pub latency: LatencyModel,
    pub bandwidth: Option<u64>,
    pub drop_probability: f64,
    pub duplicate_probability: f64,
    pub corrupt_probability: f64,
    pub groups: &'a [u32],
    pub alive: &'a [bool],
    pub down_links: &'a BTreeSet<(usize, usize)>,
}

impl SharedNet<'_> {
    fn delivery_delay(&self, size: usize, rng: &mut Rng) -> SimDuration {
        let mut delay = self.latency.sample(rng);
        if let Some(bw) = self.bandwidth {
            let ser = SimDuration::from_secs_f64(size as f64 / bw as f64);
            delay = delay + ser;
        }
        delay
    }
}

/// A split view of a [`Network`]: the shared read-only state alongside the
/// per-node mutable columns and the event queue, borrowed disjointly so the
/// sharded engine can chunk the columns across workers.
pub(crate) struct NetParts<'a, M> {
    pub shared: SharedNet<'a>,
    pub sim: &'a mut Simulation<NetEvent<M>>,
    pub stats: &'a mut NetStats,
    pub link_rngs: &'a mut [Rng],
    pub src_seqs: &'a mut [u64],
    pub net_tracers: &'a mut [Tracer],
    pub disp_tracers: &'a mut [Tracer],
}

/// Routes one send: accounting, fault gates (partition, downed link, drop,
/// corruption, duplication), latency sampling, and the delivery callback
/// for whatever is scheduled. The engine's shard loop is its one caller,
/// so every shard layout executes the same per-send logic: same draw order
/// from the sender's `link_rng`, same key assignment from the sender's
/// `src_seq` counter, same trace emissions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_send<M: Clone>(
    shared: &SharedNet<'_>,
    stats: &mut NetStats,
    tracer: &mut Tracer,
    link_rng: &mut Rng,
    src_seq: &mut u64,
    now: SimTime,
    from: NodeId,
    to: NodeId,
    msg: M,
    size: usize,
    mut deliver: impl FnMut(SimTime, EventKey, NetEvent<M>),
) {
    stats.sent += 1;
    stats.bytes_sent += size as u64;
    let now_us = now.as_micros();
    tracer.emit_for(
        now_us,
        from.0 as u32,
        TraceEvent::MsgSent {
            to: to.0 as u32,
            bytes: size.min(u32::MAX as usize) as u32,
        },
    );
    if shared.groups[from.0] != shared.groups[to.0] {
        stats.partitioned += 1;
        tracer.emit_for(
            now_us,
            from.0 as u32,
            TraceEvent::MsgPartitioned { to: to.0 as u32 },
        );
        return;
    }
    if shared.down_links.contains(&link_key(from, to)) {
        stats.link_dropped += 1;
        tracer.emit_for(
            now_us,
            from.0 as u32,
            TraceEvent::MsgDropped { to: to.0 as u32 },
        );
        return;
    }
    if shared.drop_probability > 0.0 && link_rng.chance(shared.drop_probability) {
        stats.dropped += 1;
        tracer.emit_for(
            now_us,
            from.0 as u32,
            TraceEvent::MsgDropped { to: to.0 as u32 },
        );
        return;
    }
    if shared.corrupt_probability > 0.0 && link_rng.chance(shared.corrupt_probability) {
        stats.corrupted += 1;
        tracer.emit_for(
            now_us,
            from.0 as u32,
            TraceEvent::MsgCorrupted { to: to.0 as u32 },
        );
        return;
    }
    if shared.duplicate_probability > 0.0 && link_rng.chance(shared.duplicate_probability) {
        stats.duplicated += 1;
        tracer.emit_for(
            now_us,
            from.0 as u32,
            TraceEvent::MsgDuplicated { to: to.0 as u32 },
        );
        let delay = shared.delivery_delay(size, link_rng);
        let seq = *src_seq;
        *src_seq += 1;
        deliver(
            now + delay,
            EventKey::new(from.0 as u32, seq),
            NetEvent::Deliver {
                from,
                to,
                msg: msg.clone(),
            },
        );
    }
    let delay = shared.delivery_delay(size, link_rng);
    let seq = *src_seq;
    *src_seq += 1;
    deliver(
        now + delay,
        EventKey::new(from.0 as u32, seq),
        NetEvent::Deliver { from, to, msg },
    );
}

/// The simulated network: overlay + event queue.
#[derive(Debug)]
pub struct Network<M> {
    pub(crate) sim: Simulation<NetEvent<M>>,
    adjacency: Vec<Vec<NodeId>>,
    latency: LatencyModel,
    drop_probability: f64,
    bandwidth: Option<u64>,
    groups: Vec<u32>,
    alive: Vec<bool>,
    down_links: BTreeSet<(usize, usize)>,
    duplicate_probability: f64,
    corrupt_probability: f64,
    rng: Rng,
    link_rngs: Vec<Rng>,
    src_seqs: Vec<u64>,
    net_tracers: Vec<Tracer>,
    disp_tracers: Vec<Tracer>,
    stats: NetStats,
}

/// Normalized undirected link key.
fn link_key(a: NodeId, b: NodeId) -> (usize, usize) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

impl<M> Network<M> {
    /// Builds the network; the overlay wiring is derived from `seed`, and
    /// each node's private link-sampling stream is split off the same seed.
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let adjacency = topology::build(cfg.topology, cfg.nodes, &mut rng);
        let link_rngs = (0..cfg.nodes)
            .map(|i| Rng::stream(seed, STREAM_LINK, i as u64))
            .collect();
        Network {
            sim: Simulation::new(),
            adjacency,
            latency: cfg.latency,
            drop_probability: cfg.drop_probability,
            bandwidth: cfg.bandwidth_bytes_per_sec,
            groups: vec![0; cfg.nodes],
            alive: vec![true; cfg.nodes],
            down_links: BTreeSet::new(),
            duplicate_probability: 0.0,
            corrupt_probability: 0.0,
            rng,
            link_rngs,
            src_seqs: vec![0; cfg.nodes],
            net_tracers: vec![Tracer::disabled(); cfg.nodes],
            disp_tracers: vec![Tracer::disabled(); cfg.nodes],
            stats: NetStats::default(),
        }
    }

    /// Installs (or, with [`TraceConfig::off`], uninstalls) per-node fabric
    /// and dispatch tracers under `cfg`. Fabric events are recorded in the
    /// emitting node's own tracer; dispatch events in the dispatched node's
    /// — which is what keeps trace digests identical across engine shard
    /// counts.
    pub fn set_tracing(&mut self, cfg: &TraceConfig) {
        let n = self.node_count();
        self.net_tracers = (0..n).map(|i| Tracer::new(i as u32, cfg)).collect();
        self.disp_tracers = (0..n).map(|i| Tracer::new(i as u32, cfg)).collect();
    }

    /// The per-node fabric tracers (message send/deliver/drop events),
    /// indexed by node.
    pub fn node_tracers(&self) -> &[Tracer] {
        &self.net_tracers
    }

    /// The per-node dispatch tracers (one
    /// [`TraceEvent::EngineDispatch`] per dispatched event), indexed by
    /// node.
    pub fn dispatch_tracers(&self) -> &[Tracer] {
        &self.disp_tracers
    }

    /// Emits an application-level event (e.g. a workload submission) into
    /// `node`'s fabric tracer.
    pub fn emit_app(&mut self, at_us: u64, node: NodeId, event: TraceEvent) {
        self.net_tracers[node.0].emit_for(at_us, node.0 as u32, event);
    }

    /// Number of peers.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// The overlay neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.0]
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of events currently pending in the fabric queue.
    ///
    /// Observability only: the value depends on drive interleaving and
    /// must never feed a digest or branch on the deterministic path.
    pub fn queue_depth(&self) -> usize {
        self.sim.pending()
    }

    /// High-water mark of the pending-event queue since construction.
    pub fn queue_high_water(&self) -> usize {
        self.sim.pending_high_water()
    }

    /// Fabric statistics so far.
    pub fn stats(&self) -> NetStats {
        let mut s = self.stats;
        s.clamped_events += self.sim.clamped();
        s
    }

    /// Borrow the fabric RNG (nodes fork child RNGs from it).
    pub fn rng_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// The engine's conservative lookahead: no message sent at `t` can be
    /// delivered before `t + lookahead()`.
    pub(crate) fn lookahead(&self) -> SimDuration {
        self.latency.min_latency()
    }

    /// Splits the network into its shared read-only state, per-node
    /// columns, and event queue (see [`NetParts`]).
    pub(crate) fn parts(&mut self) -> NetParts<'_, M> {
        NetParts {
            shared: SharedNet {
                adjacency: &self.adjacency,
                latency: self.latency,
                bandwidth: self.bandwidth,
                drop_probability: self.drop_probability,
                duplicate_probability: self.duplicate_probability,
                corrupt_probability: self.corrupt_probability,
                groups: &self.groups,
                alive: &self.alive,
                down_links: &self.down_links,
            },
            sim: &mut self.sim,
            stats: &mut self.stats,
            link_rngs: &mut self.link_rngs,
            src_seqs: &mut self.src_seqs,
            net_tracers: &mut self.net_tracers,
            disp_tracers: &mut self.disp_tracers,
        }
    }

    /// Splits the network: nodes keep messages only within their group.
    /// `groups[i]` is node `i`'s side. Panics if the length mismatches.
    pub fn set_partition(&mut self, groups: Vec<u32>) {
        assert_eq!(groups.len(), self.node_count(), "one group per node");
        self.groups = groups;
    }

    /// Heals all partitions.
    pub fn heal_partition(&mut self) {
        self.groups = vec![0; self.node_count()];
    }

    /// Fail-stops `node`: its queued and future deliveries and timers are
    /// consumed silently (counted in [`NetStats`]) until
    /// [`Network::restart`]. Idempotent. Outbound sends are not blocked
    /// here — a crashed protocol is never dispatched, so it cannot send.
    pub fn crash(&mut self, node: NodeId) {
        if !self.alive[node.0] {
            return;
        }
        self.alive[node.0] = false;
        self.stats.crashes += 1;
        self.net_tracers[node.0].emit_for(
            self.sim.now().as_micros(),
            node.0 as u32,
            TraceEvent::NodeCrashed,
        );
    }

    /// Brings a crashed node back: deliveries and timers scheduled from now
    /// on (including in-flight messages that arrive after this instant)
    /// reach it again. Idempotent.
    pub fn restart(&mut self, node: NodeId) {
        if self.alive[node.0] {
            return;
        }
        self.alive[node.0] = true;
        self.stats.restarts += 1;
        self.net_tracers[node.0].emit_for(
            self.sim.now().as_micros(),
            node.0 as u32,
            TraceEvent::NodeRestarted,
        );
    }

    /// Whether `node` is currently up.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.0]
    }

    /// Takes the undirected link `a`–`b` down: sends in either direction
    /// are dropped (counted as `link_dropped`, traced as drops).
    pub fn set_link_down(&mut self, a: NodeId, b: NodeId) {
        self.down_links.insert(link_key(a, b));
    }

    /// Restores the undirected link `a`–`b`.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId) {
        self.down_links.remove(&link_key(a, b));
    }

    /// Sets the probability that a sent message is delivered twice (the
    /// copy takes an independently sampled latency). Zero disables the
    /// fault and restores bit-identical behavior to a fault-free run.
    pub fn set_duplication(&mut self, p: f64) {
        self.duplicate_probability = p;
    }

    /// Sets the probability that a sent message is corrupted in flight.
    /// Corrupted messages are discarded at the receiver's checksum, so the
    /// fault manifests as loss that is counted and traced separately.
    pub fn set_corruption(&mut self, p: f64) {
        self.corrupt_probability = p;
    }

    /// Injects a message to `node` at an absolute time, bypassing topology,
    /// loss, and latency — how simulated *clients* (who are not overlay
    /// peers) deliver transactions to their point-of-contact peer. The
    /// message appears to come from the node itself, and is accounted and
    /// traced like a send so client traffic shows up in the same books.
    pub fn inject(&mut self, at: SimTime, node: NodeId, msg: M, size: usize) {
        self.stats.sent += 1;
        self.stats.bytes_sent += size as u64;
        self.net_tracers[node.0].emit_for(
            at.as_micros(),
            node.0 as u32,
            TraceEvent::MsgSent {
                to: node.0 as u32,
                bytes: size.min(u32::MAX as usize) as u32,
            },
        );
        let seq = self.src_seqs[node.0];
        self.src_seqs[node.0] += 1;
        self.sim.schedule_at_keyed(
            at,
            EventKey::new(node.0 as u32, seq),
            NetEvent::Deliver {
                from: node,
                to: node,
                msg,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, Protocol, Runner};

    /// Records every message and timer it is handed, with the instant.
    #[derive(Default)]
    struct Recorder {
        got: Vec<(SimTime, NodeId, &'static str)>,
        timers: Vec<(SimTime, u64)>,
    }

    impl Protocol for Recorder {
        type Msg = &'static str;

        fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
            self.got.push((ctx.now, from, msg));
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Msg>) {
            self.timers.push((ctx.now, tag));
        }
    }

    fn runner(
        latency: LatencyModel,
        drop_probability: f64,
        bandwidth: Option<u64>,
    ) -> Runner<Recorder> {
        let cfg = NetConfig {
            nodes: 4,
            topology: Topology::Complete,
            latency,
            drop_probability,
            bandwidth_bytes_per_sec: bandwidth,
        };
        Runner::new(cfg, 1, |_| Recorder::default())
    }

    fn tiny() -> Runner<Recorder> {
        runner(
            LatencyModel::Constant(SimDuration::from_millis(10)),
            0.0,
            None,
        )
    }

    fn send(r: &mut Runner<Recorder>, from: usize, to: usize, msg: &'static str, size: usize) {
        r.with_ctx(NodeId(from), |_, ctx| ctx.send(NodeId(to), msg, size));
    }

    /// The messages `node` received, in order.
    fn msgs(r: &Runner<Recorder>, node: usize) -> Vec<&'static str> {
        r.node(NodeId(node)).got.iter().map(|g| g.2).collect()
    }

    #[test]
    fn send_delivers_after_latency() {
        let mut r = tiny();
        send(&mut r, 0, 1, "hi", 100);
        r.run_to_quiescence();
        assert_eq!(
            r.node(NodeId(1)).got,
            vec![(SimTime::from_micros(10_000), NodeId(0), "hi")]
        );
        assert_eq!(r.stats().delivered, 1);
        assert_eq!(r.stats().bytes_sent, 100);
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut r = tiny();
        r.net_mut().set_partition(vec![0, 0, 1, 1]);
        send(&mut r, 0, 2, "blocked", 10);
        send(&mut r, 0, 1, "ok", 10);
        assert_eq!(r.stats().partitioned, 1);
        r.run_to_quiescence();
        assert_eq!(msgs(&r, 1), vec!["ok"]);
        assert!(msgs(&r, 2).is_empty());

        r.net_mut().heal_partition();
        send(&mut r, 0, 2, "now ok", 10);
        r.run_to_quiescence();
        assert_eq!(msgs(&r, 2), vec!["now ok"]);
    }

    #[test]
    fn drops_are_probabilistic_and_counted() {
        let mut r = runner(LatencyModel::Constant(SimDuration::ZERO), 0.5, None);
        r.with_ctx(NodeId(0), |_, ctx| {
            for _ in 0..1000 {
                ctx.send(NodeId(1), "x", 1);
            }
        });
        let dropped = r.stats().dropped;
        assert!(dropped > 350 && dropped < 650, "dropped {dropped}");
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        let latency = LatencyModel::Constant(SimDuration::from_millis(10));
        let mut r = runner(latency, 0.0, Some(1_000_000)); // 1 MB/s
                                                           // 500 KB message → 0.5 s serialization + 10 ms latency.
        send(&mut r, 0, 1, "big", 500_000);
        r.run_to_quiescence();
        assert_eq!(r.node(NodeId(1)).got[0].0.as_millis(), 510);
    }

    #[test]
    fn tracer_records_send_partition_and_delivery() {
        let mut r = tiny();
        r.net_mut().set_tracing(&TraceConfig::full());
        r.net_mut().set_partition(vec![0, 0, 1, 1]);
        send(&mut r, 0, 2, "blocked", 5);
        send(&mut r, 0, 1, "ok", 7);
        r.run_to_quiescence();
        // The sender's fabric tracer sees its sends and the partition drop.
        let sender: Vec<_> = r.net().node_tracers()[0]
            .records()
            .map(|r| r.event)
            .collect();
        assert_eq!(
            sender,
            vec![
                TraceEvent::MsgSent { to: 2, bytes: 5 },
                TraceEvent::MsgPartitioned { to: 2 },
                TraceEvent::MsgSent { to: 1, bytes: 7 },
            ]
        );
        // Deliveries are attributed to the receiver at delivery time, in
        // the receiver's own tracer.
        let recv: Vec<_> = r.net().node_tracers()[1].records().copied().collect();
        assert_eq!(recv.len(), 1);
        assert_eq!(recv[0].event, TraceEvent::MsgDelivered { from: 0 });
        assert_eq!(recv[0].node, 1);
        assert_eq!(recv[0].at_us, 10_000);
    }

    #[test]
    fn dispatch_tracer_records_source_keys() {
        let mut r = tiny();
        r.net_mut().set_tracing(&TraceConfig::full());
        send(&mut r, 0, 1, "a", 1);
        send(&mut r, 2, 1, "b", 1);
        r.run_to_quiescence();
        let disp: Vec<_> = r.net().dispatch_tracers()[1]
            .records()
            .map(|r| r.event)
            .collect();
        assert_eq!(
            disp,
            vec![
                TraceEvent::EngineDispatch { src: 0, seq: 0 },
                TraceEvent::EngineDispatch { src: 2, seq: 0 },
            ]
        );
        assert!(r.net().dispatch_tracers()[0].records().next().is_none());
    }

    #[test]
    fn inject_accounts_bytes_and_traces_like_send() {
        let mut r = tiny();
        r.net_mut().set_tracing(&TraceConfig::full());
        let at = SimTime::ZERO + SimDuration::from_millis(25);
        r.net_mut().inject(at, NodeId(1), "tx", 64);
        assert_eq!(r.stats().sent, 1);
        assert_eq!(r.stats().bytes_sent, 64, "inject accounts payload bytes");
        let first = *r.net().node_tracers()[1].records().next().unwrap();
        assert_eq!(first.at_us, 25_000);
        assert_eq!(first.node, 1, "attributed to the point-of-contact peer");
        assert_eq!(first.event, TraceEvent::MsgSent { to: 1, bytes: 64 });
        r.run_to_quiescence();
        assert_eq!(r.node(NodeId(1)).got, vec![(at, NodeId(1), "tx")]);
        assert_eq!(r.stats().delivered, 1);
    }

    #[test]
    fn crashed_node_suppresses_deliveries_and_timers_until_restart() {
        let mut r = tiny();
        send(&mut r, 0, 1, "pre", 1);
        r.with_ctx(NodeId(1), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 9)
        });
        r.net_mut().crash(NodeId(1));
        assert!(!r.net().is_alive(NodeId(1)));
        r.net_mut().crash(NodeId(1)); // idempotent
        assert_eq!(r.run_to_quiescence(), 0, "both events suppressed");
        assert_eq!(r.stats().crashes, 1);
        assert_eq!(r.stats().suppressed_deliveries, 1);
        assert_eq!(r.stats().suppressed_timers, 1);

        r.net_mut().restart(NodeId(1));
        assert!(r.net().is_alive(NodeId(1)));
        send(&mut r, 0, 1, "post", 1);
        r.run_to_quiescence();
        assert_eq!(msgs(&r, 1), vec!["post"]);
        assert!(r.node(NodeId(1)).timers.is_empty());
        assert_eq!(r.stats().restarts, 1);
    }

    #[test]
    fn in_flight_message_reaches_node_restarted_before_delivery() {
        let mut r = tiny();
        r.net_mut().crash(NodeId(2));
        // 10 ms constant latency; the node is back up at delivery time.
        send(&mut r, 0, 2, "inflight", 1);
        r.net_mut().restart(NodeId(2));
        r.run_to_quiescence();
        assert_eq!(msgs(&r, 2), vec!["inflight"]);
        assert_eq!(r.stats().suppressed_deliveries, 0);
    }

    #[test]
    fn downed_link_drops_both_directions_until_up() {
        let mut r = tiny();
        r.net_mut().set_link_down(NodeId(0), NodeId(1));
        send(&mut r, 0, 1, "a", 1);
        send(&mut r, 1, 0, "b", 1);
        send(&mut r, 0, 2, "c", 1);
        assert_eq!(r.stats().link_dropped, 2);
        r.run_to_quiescence();
        assert!(msgs(&r, 0).is_empty() && msgs(&r, 1).is_empty());
        assert_eq!(msgs(&r, 2), vec!["c"]);

        r.net_mut().set_link_up(NodeId(0), NodeId(1));
        send(&mut r, 0, 1, "again", 1);
        r.run_to_quiescence();
        assert_eq!(msgs(&r, 1), vec!["again"]);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut r = tiny();
        r.net_mut().set_duplication(1.0);
        send(&mut r, 0, 1, "twice", 1);
        assert_eq!(r.stats().duplicated, 1);
        r.run_to_quiescence();
        assert_eq!(msgs(&r, 1), vec!["twice", "twice"]);
        assert_eq!(r.stats().delivered, 2);
    }

    #[test]
    fn corruption_discards_and_counts() {
        let mut r = tiny();
        r.net_mut().set_corruption(1.0);
        send(&mut r, 0, 1, "garbled", 1);
        assert_eq!(r.stats().corrupted, 1);
        r.net_mut().set_corruption(0.0);
        send(&mut r, 0, 1, "clean", 1);
        r.run_to_quiescence();
        assert_eq!(msgs(&r, 1), vec!["clean"]);
    }

    #[test]
    fn timers_fire_after_their_delay_with_their_tag() {
        let mut r = tiny();
        r.with_ctx(NodeId(2), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 77)
        });
        r.with_ctx(NodeId(3), |_, ctx| {
            ctx.set_timer(SimDuration::from_millis(6), 88)
        });
        assert_eq!(r.run_to_quiescence(), 2);
        let ms = SimTime::from_micros;
        assert_eq!(r.node(NodeId(2)).timers, vec![(ms(5_000), 77)]);
        assert_eq!(r.node(NodeId(3)).timers, vec![(ms(6_000), 88)]);
    }

    #[test]
    fn per_node_link_streams_are_send_order_independent() {
        // Node 0's draw sequence must not depend on when *other* nodes
        // send — the property that makes sharding invisible.
        let run = |interleave: bool| {
            let mut r = runner(LatencyModel::wan(), 0.0, None);
            if interleave {
                send(&mut r, 3, 2, "other", 1);
            }
            send(&mut r, 0, 1, "mine", 1);
            r.run_to_quiescence();
            r.node(NodeId(1)).got.clone()
        };
        assert_eq!(run(false), run(true));
    }
}
