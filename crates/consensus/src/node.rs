//! The peer core shared by every consensus protocol: a [`Chain`] replica, a
//! [`Mempool`], gossip dedup tables, block assembly, and the bookkeeping
//! that returns reverted transactions to the pool after reorgs — plus the
//! whole non-consensus wire protocol (tx gossip and its announcements here;
//! body pulls, body serving and block sync in the `sync` module), written
//! once behind [`NodeCore::on_message`] and [`NodeCore::on_timer`]. An
//! engine file (`pow`, `pos`, …) wraps a
//! `NodeCore`, implements [`LedgerNode`], and adds only its block rule, its
//! own timers and its proposal rule.

use crate::marks::IdMarks;
use crate::mempool::{InsertOutcome, Mempool};
use crate::pbft::PbftMsg;
use crate::sync::{Pull, SyncAttempt, Want, SYNC_BATCH, TAG_FLUSH};
use crate::{approx_tx_size, wire_size, WireMsg};
use dcs_chain::{Chain, ChainEvent, StateMachine};
use dcs_crypto::{Address, Hash256};
use dcs_net::{Ctx, NodeId, Protocol};
use dcs_primitives::{Block, BlockHeader, ChainConfig, Seal, SealedTx, Transaction};
use dcs_sim::{SimDuration, SimTime};
use dcs_trace::{
    EntityKind, Id as TraceId, ImportOutcome, RejectReason, TraceConfig, TraceEvent, Tracer, ORIGIN,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Mempool capacity of every peer core.
const MEMPOOL_CAP: usize = 100_000;
/// A gossiped body at least this large (by [`approx_tx_size`]) is announced
/// and pulled rather than pushed on each hop: every witnessed body is, an
/// unsigned transfer is not.
const ANNOUNCE_MIN_BYTES: usize = 1_024;
/// How long a large body waits at most for its peer's next announcement.
const ANNOUNCE_EVERY_US: u64 = 100_000;

/// A consensus peer: one engine rule around one [`NodeCore`]. Metrics,
/// tracing, experiments and the fault driver are written once against this
/// trait; every engine implements it, so every engine can crash and restart.
pub trait LedgerNode: Protocol<Msg = WireMsg> {
    /// The application state machine type.
    type Machine: StateMachine;

    /// Read access to the peer core.
    fn core(&self) -> &NodeCore<Self::Machine>;

    /// Mutable access to the peer core.
    fn core_mut(&mut self) -> &mut NodeCore<Self::Machine>;

    /// Simulated hash attempts (or analogous consensus work) expended — a
    /// measurement (E5's energy axis) that no consensus decision reads.
    // dcs-lint: allow(float-consensus)
    fn work_expended(&self) -> f64 {
        0.0 // dcs-lint: allow(float-consensus)
    }

    /// The node fail-stops: settle any in-progress accounting. No actions
    /// the implementation emits will be delivered to the node itself (the
    /// fabric suppresses them), but sends to peers still go out, so
    /// implementations should emit nothing.
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, WireMsg>) {}

    /// First step of [`LedgerNode::on_restart`]: drops the engine state a
    /// crash loses (votes, views) and makes any timer armed before the
    /// crash stale, where the engine's own epochs do not already.
    fn reset_volatile(&mut self) {}

    /// The node restarts: drop engine-volatile state, cold-rebuild the core
    /// from its durable block store (replaying onto the machine's genesis
    /// state), re-arm the engine's timers exactly as at start, and begin
    /// catch-up sync.
    fn on_restart(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        self.reset_volatile();
        self.core_mut().rebuild_from_store();
        self.on_start(ctx);
        self.core_mut().begin_catchup(ctx);
    }
}

/// A reader of one peer's event stream: every event the peer reports, in
/// the order it reports them, plus the pool depth after each operation that
/// changes the pool (the one value no event carries). Installed with
/// [`NodeCore::set_observer`]. It sees decisions only after they are taken,
/// so a peer behaves bit-identically with or without one.
pub trait PeerObserver: core::fmt::Debug + Send {
    /// One reported event.
    fn observe(&mut self, event: &TraceEvent);

    /// The pool's transaction count after an operation that changed it.
    fn pool_depth(&mut self, len: usize);
}

/// What [`NodeCore::on_message`] leaves for the engine once the shared wire
/// protocol has run.
#[derive(Debug)]
pub enum Inbound {
    /// Served or absorbed by the core; nothing for the engine.
    Handled,
    /// A transaction was gossiped in; `fresh` if this peer had not seen it.
    Tx {
        /// First sight of this transaction id.
        fresh: bool,
        /// Held blocks this body completed, for the engine to take before
        /// the transaction.
        completed: Vec<Arc<Block>>,
    },
    /// A catch-up batch moved the canonical tip: whatever the engine was
    /// building on the old tip is stale.
    TipMoved,
    /// A block announcement. Whether to accept it is the engine's rule;
    /// accepted blocks go to [`NodeCore::handle_block`].
    Block(Arc<Block>),
    /// A PBFT protocol message.
    Pbft(PbftMsg),
}

impl Inbound {
    /// Every block this message hands the engine, in order.
    pub fn blocks(self) -> Vec<Arc<Block>> {
        match self {
            Inbound::Block(block) => vec![block],
            Inbound::Tx { completed, .. } => completed,
            _ => Vec::new(),
        }
    }
}

/// What a peer forwards of what reaches it. An engine picks its rule at
/// construction; it is not a run option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Relay {
    /// Gossip: every block the peer imports (in compact form) and every
    /// transaction its pool keeps goes on to every neighbor but the sender.
    /// A body under 1 KiB is pushed; a larger one only by the peer a client
    /// handed it to (none of its neighbors can hold it yet), and on later
    /// hops announced by id and pulled by whoever lacks it, so it crosses
    /// each link about once.
    Flood,
    /// A fully connected consortium: the peer a client hands a transaction
    /// to sends it to every peer, and nothing that came from a peer goes
    /// further. Blocks travel inside the engine's own messages, so the
    /// core relays none.
    Direct,
}

/// Shared per-peer machinery.
#[derive(Debug)]
pub struct NodeCore<M: StateMachine> {
    /// This peer's network identity.
    pub id: NodeId,
    /// This peer's reward address.
    pub address: Address,
    /// The local chain replica.
    pub chain: Chain<M>,
    /// Pending client transactions.
    pub mempool: Mempool,
    /// Blocks produced by this peer.
    pub blocks_produced: u64,
    /// Gossiped blocks this peer rejected at import (bad seal, height,
    /// root, …). A spike across peers is an invalid-block storm.
    pub rejected_blocks: u64,
    /// Broken internal invariants survived at runtime (e.g. a reorg walk
    /// hitting a missing stored block). Always 0 in a healthy run; counted
    /// instead of panicking so a bad peer input can never abort the peer.
    pub internal_errors: u64,
    /// Sync requests re-sent to the next neighbor: a retry timer fired on
    /// a lost request or reply, or a page or body reply fell short (see
    /// [`NodeCore::on_timer`]). Zero on a loss-free network whose peers
    /// serve what they are asked.
    pub sync_retries: u64,
    /// Pages of blocks asked for: one per [`NodeCore::begin_catchup`]
    /// call and per orphan whose missing ancestry starts a page request,
    /// plus each follow-up page of a multi-page fetch.
    pub catchup_rounds: u64,
    /// This peer's one trace stream. Disabled by default; install with
    /// [`NodeCore::set_tracing`].
    tracer: Tracer,
    observer: Option<Box<dyn PeerObserver>>,
    /// Highest finalized height reported, so each [`TraceEvent::Finalized`]
    /// height is emitted once.
    reported_finalized: u64,
    /// Gossip dedup and the canonical-chain index, one mark byte per id.
    pub(crate) marks: IdMarks,
    /// Sync requests awaiting a reply: the page of blocks, each pull of
    /// announced bodies and each held block's bodies, each with its own
    /// retry timer.
    pub(crate) requests: BTreeMap<Want, SyncAttempt>,
    /// Monotonic epoch distinguishing live sync timers from stale ones.
    pub(crate) sync_epoch: u64,
    /// What this peer forwards ([`Relay::Flood`] unless the engine says
    /// otherwise).
    pub(crate) relay: Relay,
    /// Large bodies pooled since the last announcement, each with the
    /// neighbor it came from and then, in the entries that follow it, the
    /// other neighbors that announced it here. A flush timer is armed
    /// whenever this is non-empty.
    pub(crate) announce: Vec<(Hash256, NodeId)>,
    /// Announced ids asked for and not yet received.
    pub(crate) pulls: dcs_crypto::IdMap<Pull>, // dcs-lint: allow(hash-collections) — probed by id, never iterated
}

impl<M: StateMachine> NodeCore<M> {
    /// Builds a peer core over a fresh archival chain replica.
    pub fn new(
        id: NodeId,
        address: Address,
        genesis: Block,
        config: ChainConfig,
        machine: M,
    ) -> Self {
        NodeCore {
            id,
            address,
            chain: Chain::new(genesis, config, machine),
            mempool: Mempool::new(MEMPOOL_CAP),
            blocks_produced: 0,
            rejected_blocks: 0,
            internal_errors: 0,
            sync_retries: 0,
            catchup_rounds: 0,
            tracer: Tracer::disabled(),
            observer: None,
            reported_finalized: 0,
            marks: IdMarks::default(),
            requests: BTreeMap::new(),
            sync_epoch: 0,
            relay: Relay::Flood,
            announce: Vec::new(),
            pulls: Default::default(),
        }
    }

    /// Installs tracing on this peer: one stream, emitting as this peer's
    /// id, for everything the peer reports — gossip sightings, admissions,
    /// proposals, protocol phases, and the chain's imports, reorgs and
    /// finality.
    pub fn set_tracing(&mut self, cfg: &TraceConfig) {
        self.tracer = Tracer::new(self.id.0 as u32, cfg);
    }

    /// This peer's trace stream.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Hands every event this peer reports from now on to `observer`,
    /// starting it with the current pool depth.
    pub fn set_observer(&mut self, mut observer: Box<dyn PeerObserver>) {
        observer.pool_depth(self.mempool.len());
        self.observer = Some(observer);
    }

    /// Whether anything reads this peer's events. Emit sites check this
    /// before computing a payload (hashes, per-transaction loops).
    fn observed(&self) -> bool {
        self.tracer.is_enabled() || self.observer.is_some()
    }

    /// Reports one event at sim time `at_us`: recorded on the tracer and
    /// handed to the observer. Every event a peer reports passes here once.
    pub(crate) fn emit(&mut self, at_us: u64, event: TraceEvent) {
        self.tracer.emit(at_us, event);
        if let Some(observer) = &mut self.observer {
            observer.observe(&event);
        }
    }

    /// Tells the observer the pool's depth after an operation that may
    /// have changed it.
    fn report_pool(&mut self) {
        if let Some(observer) = &mut self.observer {
            observer.pool_depth(self.mempool.len());
        }
    }

    /// True if transaction `id` is on this peer's canonical chain.
    pub fn is_included(&self, id: &Hash256) -> bool {
        self.marks.is_included(id)
    }

    /// Every transaction id on this peer's canonical chain, sorted. A scan
    /// of the whole id table: for tests and diagnostics, not hot paths.
    pub fn included_ids(&self) -> BTreeSet<Hash256> {
        self.marks.included()
    }

    /// The one message entry point: runs the non-consensus wire protocol
    /// (tx gossip and pulls, body and range serving, page ingestion) and reports
    /// back only what an engine can react to.
    pub fn on_message(
        &mut self,
        from: NodeId,
        msg: WireMsg,
        ctx: &mut Ctx<'_, WireMsg>,
    ) -> Inbound {
        self.on_message_sealed(from, msg, ctx, &mut |_| true)
    }

    /// [`NodeCore::on_message`] for an engine whose blocks carry a seal
    /// only it can judge: every block a peer hands over, relayed or inside
    /// a page, meets `seal_ok` here, before the engine or the chain sees
    /// it. A refused block is dropped (the closure does the counting). A
    /// relayed compact block is held until its bodies arrive
    /// (`NodeCore::complete`); a page no request asked for is dropped.
    pub fn on_message_sealed(
        &mut self,
        from: NodeId,
        msg: WireMsg,
        ctx: &mut Ctx<'_, WireMsg>,
        seal_ok: &mut dyn FnMut(&Block) -> bool,
    ) -> Inbound {
        match msg {
            WireMsg::Tx(tx) => {
                let id = tx.id();
                let fresh = self.handle_tx(tx, from, ctx);
                let completed = if fresh { self.pooled(&id) } else { vec![] };
                Inbound::Tx { fresh, completed }
            }
            WireMsg::CompactBlock(block) if seal_ok(&block) => {
                let block = self.complete(block, from, ctx);
                block.map_or(Inbound::Handled, Inbound::Block)
            }
            WireMsg::CompactBlock(_) => Inbound::Handled,
            WireMsg::Pbft(pbft) => Inbound::Pbft(pbft),
            WireMsg::TxAnnounce { ids } => {
                self.handle_announce(&ids, from, ctx);
                Inbound::Handled
            }
            WireMsg::TxRequest { key, ids } => {
                self.handle_tx_request(key, &ids, from, ctx);
                Inbound::Handled
            }
            WireMsg::BlockTxs { key, txs } => self.receive_bodies(key, txs, from, ctx),
            WireMsg::SyncRequest { locator } => {
                // A bounded batch of canonical blocks above the best
                // locator match.
                let (blocks, tip_height) = self.chain.blocks_after(&locator, SYNC_BATCH);
                let msg = WireMsg::SyncResponse { blocks, tip_height };
                let size = wire_size(&msg);
                ctx.send(from, msg, size);
                Inbound::Handled
            }
            WireMsg::SyncResponse { blocks, tip_height }
                if self.requests.contains_key(&Want::Range) =>
            {
                if self.handle_sync_response(blocks, tip_height, from, ctx, seal_ok) {
                    Inbound::TipMoved
                } else {
                    Inbound::Handled
                }
            }
            WireMsg::SyncResponse { .. } => Inbound::Handled,
        }
    }

    /// Imports a block into the local replica and performs the
    /// mempool/`included` maintenance for the resulting event. Errors are
    /// counted in [`NodeCore::rejected_blocks`] rather than silently
    /// dropped. This is [`NodeCore::handle_block`] minus the network I/O,
    /// usable without a live simulation context.
    pub fn ingest_block(&mut self, block: Arc<Block>) -> Option<ChainEvent> {
        self.ingest_block_at(block, SimTime::ZERO)
    }

    /// [`NodeCore::ingest_block`] with an explicit sim time, so chain and
    /// inclusion trace events carry the real timestamp (unobserved, the
    /// time is unused).
    pub fn ingest_block_at(&mut self, block: Arc<Block>, now: SimTime) -> Option<ChainEvent> {
        let old_tip = self.chain.tip_hash();
        let imported = self
            .observed()
            .then(|| (TraceId(block.hash().into_bytes()), block.header.height));
        let event = match self.chain.import(block) {
            Ok(ev) => ev,
            Err(_) => {
                self.rejected_blocks += 1;
                return None;
            }
        };
        if let Some((block, height)) = imported {
            self.report_import(&event, block, height, now.as_micros());
        }
        self.after_event(&event, old_tip, now);
        Some(event)
    }

    /// Reports an import's outcome, then the finalized height if it
    /// advanced. A reorg is reported as the switch followed by the
    /// imported block's extension.
    fn report_import(&mut self, event: &ChainEvent, block: TraceId, height: u64, at_us: u64) {
        let imported = |outcome| TraceEvent::BlockImported {
            block,
            height,
            outcome,
        };
        match event {
            ChainEvent::Extended { .. } => self.emit(at_us, imported(ImportOutcome::Extended)),
            ChainEvent::SideChain { .. } => self.emit(at_us, imported(ImportOutcome::SideChain)),
            ChainEvent::Orphaned => self.emit(at_us, TraceEvent::BlockOrphaned { block }),
            ChainEvent::Reorg {
                reverted, applied, ..
            } => {
                self.emit(
                    at_us,
                    TraceEvent::Reorg {
                        reverted: *reverted,
                        applied: *applied,
                    },
                );
                self.emit(at_us, imported(ImportOutcome::Extended));
            }
        }
        let finalized = self.chain.finalized_height();
        if finalized > self.reported_finalized {
            self.reported_finalized = finalized;
            self.emit(at_us, TraceEvent::Finalized { height: finalized });
        }
    }

    /// Handles an incoming (or self-produced) block: dedup, import,
    /// mempool/included maintenance, then relay. `from` is `None` for blocks
    /// this peer produced itself. Returns the chain event if the block was
    /// new and imported. The `Arc` is shared with the chain's store — the
    /// block is never deep-copied on this path.
    ///
    /// A gossip peer relays what it imports, in compact form
    /// ([`WireMsg::CompactBlock`]): a block the chain refused, or one that
    /// failed state validation (it is then in the chain's invalid set),
    /// goes no further. An orphan, which cannot be judged yet, is relayed.
    /// A consortium replica (PBFT), whose blocks travel inside its engine's
    /// own messages, relays no block, its own included.
    pub fn handle_block(
        &mut self,
        block: Arc<Block>,
        from: Option<NodeId>,
        ctx: &mut Ctx<'_, WireMsg>,
    ) -> Option<ChainEvent> {
        let hash = block.hash();
        // A repeat is dropped.
        self.marks.first_sight(hash)?;
        self.emit(
            ctx.now.as_micros(),
            TraceEvent::FirstSeen {
                kind: EntityKind::Block,
                id: TraceId(hash.into_bytes()),
                from: from.map_or(ORIGIN, |n| n.0 as u32),
            },
        );
        let parent = block.header.parent;
        // However the block arrived, it needs no bodies asked for.
        self.requests.remove(&Want::Bodies(hash));
        let event = self.ingest_block_at(Arc::clone(&block), ctx.now)?;
        if self.relay == Relay::Flood && !self.chain.invalid().contains(&hash) {
            let msg = WireMsg::CompactBlock(block);
            let size = wire_size(&msg);
            match from {
                Some(sender) => ctx.broadcast_except(sender, msg, size),
                None => ctx.broadcast(msg, size),
            }
        }
        if let (ChainEvent::Orphaned, Some(sender)) = (&event, from) {
            // Missing ancestry (e.g. after a healed partition): page it in
            // from whoever showed us the descendant. A page on its way, or
            // a parent held for its bodies, will bring it already.
            let asked = self.requests.contains_key(&Want::Range)
                || self.requests.contains_key(&Want::Bodies(parent));
            if !asked {
                self.catch_up_from(sender, ctx);
            }
        }
        Some(event)
    }

    /// Cold-rebuilds this peer from its durable block store — the restart
    /// path after a crash. The chain resets its machine to genesis state,
    /// re-runs fork choice over the stored tree and replays the winner; the
    /// mempool contents, gossip dedup tables, and inclusion index are
    /// volatile and re-derived, and so are the announcements not yet sent
    /// and the bodies asked for: the timer that would have sent or re-asked
    /// them may have fired while the peer was down, and a retry timer that
    /// fires after the restart finds no request of its epoch. Every stored
    /// block, side branches included, is marked seen, so a re-gossiped copy
    /// of one is dropped as a repeat rather than imported again and counted
    /// rejected; canonical transactions are marked seen and included, so
    /// catch-up traffic does not re-gossip old history. The pool keeps its
    /// capacity and admission pipeline; lifetime counters survive. Rebuild
    /// errors land in [`NodeCore::internal_errors`] rather than aborting.
    pub fn rebuild_from_store(&mut self) {
        if self.chain.rebuild_from_store().is_err() {
            self.internal_errors += 1;
        }
        self.mempool.clear();
        self.report_pool();
        self.requests.clear();
        self.announce.clear();
        self.pulls.clear();
        let mut tx_ids = Vec::new();
        for hash in &self.chain.canonical()[1..] {
            if let Some(body) = self.chain.tree().get(hash).and_then(|sb| sb.body()) {
                tx_ids.extend(client_txs(body).map(|(_, id)| *id));
            }
        }
        self.marks
            .rebuild(self.chain.tree().iter().map(|sb| sb.hash()), tx_ids);
    }

    /// Handles an incoming transaction: dedup, mempool admission, then
    /// relay of what admission kept. Returns true if the tx was new.
    ///
    /// Admission decides relay. The body goes on to every neighbor but the
    /// sender only if this peer's pool took it (`Added`), already held it
    /// (`Duplicate`), or the id is already on the canonical chain. A `Full`
    /// pool or a refused witness ends the transaction at this peer, and its
    /// `TxRejected` event counts the withheld relay: a peer forwards nothing
    /// it would not pool, as a Bitcoin node relays only what its mempool
    /// accepted. Late copies of committed transactions keep flowing, so a
    /// run whose pools never fill and that carries no forged witness relays
    /// every first-seen body.
    ///
    /// How a [`Relay::Flood`] peer relays depends on who handed it the body
    /// and its size. The peer a client handed it to pushes it to every
    /// neighbor, as does any peer with a body under 1 KiB. A larger body
    /// from a neighbor is queued and announced by id
    /// ([`WireMsg::TxAnnounce`]) on the next flush, at most 100 ms later,
    /// to every neighbor but the one it came from and those that announced
    /// it here; a neighbor that lacks it pulls it. A queued id that has
    /// left the pool by the flush (a block took it) is not announced.
    ///
    /// A [`Relay::Direct`] peer forwards only what a client handed it (the
    /// fabric delivers a client's transaction as if from the peer itself),
    /// and admission still decides that relay; a body from another peer is
    /// pooled and goes no further.
    ///
    /// The sealed transaction carries its content id, so this hot path —
    /// run once per peer per gossiped tx — never hashes the body.
    pub(crate) fn handle_tx(
        &mut self,
        tx: SealedTx,
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
    ) -> bool {
        let id = tx.id();
        let Some(included) = self.marks.first_sight(id) else {
            return false;
        };
        let announcers = self.arrived(&id);
        self.emit(
            ctx.now.as_micros(),
            TraceEvent::FirstSeen {
                kind: EntityKind::Tx,
                id: TraceId(id.into_bytes()),
                from: from.0 as u32,
            },
        );
        let relay = included || {
            let outcome = self.mempool.insert_outcome(tx.clone());
            if self.observed() {
                let tx = TraceId(id.into_bytes());
                let event = match outcome {
                    InsertOutcome::Added => TraceEvent::TxAdmitted { tx },
                    InsertOutcome::Duplicate => TraceEvent::TxRejected {
                        tx,
                        reason: RejectReason::Duplicate,
                    },
                    InsertOutcome::Full => TraceEvent::TxRejected {
                        tx,
                        reason: RejectReason::Full,
                    },
                    InsertOutcome::BadWitness => TraceEvent::TxRejected {
                        tx,
                        reason: RejectReason::BadWitness,
                    },
                };
                self.emit(ctx.now.as_micros(), event);
                if outcome == InsertOutcome::Added {
                    self.report_pool();
                }
            }
            matches!(outcome, InsertOutcome::Added | InsertOutcome::Duplicate)
        };
        let push = match self.relay {
            Relay::Flood => from == self.id || approx_tx_size(&tx) < ANNOUNCE_MIN_BYTES,
            Relay::Direct => from == self.id,
        };
        if relay && push {
            let msg = WireMsg::Tx(tx);
            let size = wire_size(&msg);
            ctx.broadcast_except(from, msg, size);
        } else if relay && self.relay == Relay::Flood {
            if self.announce.is_empty() {
                let every = SimDuration::from_micros(ANNOUNCE_EVERY_US);
                ctx.set_timer(every, TAG_FLUSH);
            }
            self.announce.push((id, from));
            let others = announcers.into_iter().filter(|&peer| peer != from);
            self.announce.extend(others.map(|peer| (id, peer)));
        }
        true
    }

    /// Sends the queued announcements: to each neighbor one
    /// [`WireMsg::TxAnnounce`] naming every queued id still pooled but
    /// those that neighbor sent or announced here.
    pub(crate) fn flush_announcements(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let mut queue = std::mem::take(&mut self.announce);
        queue.retain(|(id, _)| self.mempool.contains(id));
        // An id's entries are adjacent: the queue takes them at once.
        let per_id: Vec<&[(Hash256, NodeId)]> = queue.chunk_by(|a, b| a.0 == b.0).collect();
        for &to in ctx.neighbors {
            let ids: Vec<Hash256> = per_id
                .iter()
                .filter(|holders| holders.iter().all(|(_, from)| *from != to))
                .map(|holders| holders[0].0)
                .collect();
            if !ids.is_empty() {
                let msg = WireMsg::TxAnnounce { ids };
                let size = wire_size(&msg);
                ctx.send(to, msg, size);
            }
        }
    }

    /// Moves the pool and the canonical marks with the chain. An extension
    /// is the reorg that reverts nothing and applies one block: the reverted
    /// blocks' client transactions lose their marks, the applied blocks are
    /// noted in chain order, and what the new branch did not re-include
    /// returns to the pool. O(reverted + applied), not O(chain).
    fn after_event(&mut self, event: &ChainEvent, old_tip: Hash256, now: SimTime) {
        let (reverted, applied, new_tip) = match *event {
            ChainEvent::Extended { block } => (0, 1, block),
            ChainEvent::Reorg {
                reverted,
                applied,
                new_tip,
            } => (reverted, applied, new_tip),
            ChainEvent::SideChain { .. } | ChainEvent::Orphaned => return,
        };
        // Both branches must be stored; a short walk is a broken invariant,
        // counted, and the rest is salvaged.
        let walk = |chain: &Chain<M>, tip: Hash256, n: u64| -> Vec<Arc<Block>> {
            let blocks = chain.tree().ancestors(tip).take(n as usize);
            blocks.map(|sb| Arc::clone(sb.block())).collect()
        };
        let old_branch = walk(&self.chain, old_tip, reverted);
        let new_branch = walk(&self.chain, new_tip, applied);
        self.internal_errors += u64::from(old_branch.len() as u64 != reverted);
        self.internal_errors += u64::from(new_branch.len() as u64 != applied);
        let mut abandoned: Vec<SealedTx> = Vec::new();
        for block in &old_branch {
            for (tx, id) in client_txs(block) {
                self.marks.exclude(id);
                abandoned.push(SealedTx::from_parts(Arc::new(tx.clone()), *id));
            }
        }
        for block in new_branch.iter().rev() {
            self.note_included(block, now);
        }
        if let ChainEvent::Reorg { .. } = event {
            // Abandoned transactions not re-included on the new branch go
            // back to the mempool.
            for tx in abandoned {
                if !self.marks.is_included(&tx.id()) {
                    self.mempool.insert(tx);
                }
            }
            self.report_pool();
        }
    }

    /// Notes one newly canonical block: its client transactions leave the
    /// pool and are marked included.
    fn note_included(&mut self, block: &Block, now: SimTime) {
        // The id slice is cached in the block, and the `Arc` behind it is
        // shared network-wide by gossip: across all peers these ids are
        // computed once, not once per peer per commit.
        if self.observed() {
            let block_id = TraceId(block.hash().into_bytes());
            for (_, id) in client_txs(block) {
                self.emit(
                    now.as_micros(),
                    TraceEvent::TxIncluded {
                        tx: TraceId(id.into_bytes()),
                        block: block_id,
                    },
                );
            }
        }
        self.mempool.remove_all(client_txs(block));
        self.report_pool();
        for (_, id) in client_txs(block) {
            self.marks.include(*id);
        }
    }

    /// Assembles a new block on the current tip: selects mempool
    /// transactions, prepends a coinbase claiming the block reward plus
    /// offered fees, and stamps the given seal and time.
    pub fn build_block(&mut self, seal: Seal, now: SimTime) -> Arc<Block> {
        self.build_block_with(seal, now, true)
    }

    /// Like [`NodeCore::build_block`], but can skip mempool transactions
    /// entirely (`include_txs = false`) — Bitcoin-NG key blocks carry only
    /// their coinbase.
    pub fn build_block_with(&mut self, seal: Seal, now: SimTime, include_txs: bool) -> Arc<Block> {
        let parent = self.chain.tip_hash();
        let height = self.chain.height() + 1;
        let limit = self.chain.config().block_tx_limit;
        let selected = if include_txs {
            let marks = &self.marks;
            self.mempool
                .select_unless(limit.saturating_sub(1), |id| marks.is_included(id))
        } else {
            Vec::new()
        };
        let fees: u64 = selected.iter().map(|t| t.offered_fee()).sum();
        let reward = self.chain.config().block_reward;
        // Selected transactions carry their ids from admission; only the
        // fresh coinbase is hashed here, and the assembled block starts
        // life with its id cache seeded — importers never re-hash bodies.
        let mut body = Vec::with_capacity(selected.len() + 1);
        let mut ids = Vec::with_capacity(selected.len() + 1);
        let coinbase = Transaction::Coinbase {
            to: self.address,
            value: reward + fees,
            height,
        };
        ids.push(coinbase.id());
        body.push(coinbase);
        for tx in selected {
            ids.push(tx.id());
            body.push((**tx.tx()).clone());
        }
        let header = BlockHeader::new(parent, height, now.as_micros(), self.address, seal);
        self.blocks_produced += 1;
        let block = Arc::new(Block::with_ids(header, body, ids));
        if self.observed() {
            self.emit(
                now.as_micros(),
                TraceEvent::BlockProposed {
                    block: TraceId(block.hash().into_bytes()),
                    height,
                    txs: (block.txs.len().saturating_sub(1)).min(u32::MAX as usize) as u32,
                },
            );
        }
        block
    }

    /// Transactions committed on the canonical chain (excluding coinbases) —
    /// the numerator of every throughput metric. O(1): maintained
    /// incrementally by the chain on every apply/revert.
    pub fn committed_tx_count(&self) -> u64 {
        self.chain.canon_stats().committed_txs
    }
}

/// A block's client transactions, with their cached ids: every
/// transaction but the coinbase. The one rule for what a block puts on, or
/// takes off, the canonical marks and the pool.
pub(crate) fn client_txs(block: &Block) -> impl Iterator<Item = (&Transaction, &Hash256)> {
    let txs = block.txs.iter().zip(block.tx_ids());
    txs.filter(|(tx, _)| !matches!(tx, Transaction::Coinbase { .. }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dcs_chain::NullMachine;
    use dcs_primitives::AccountTx;

    pub(crate) fn tx(v: u64) -> Transaction {
        Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            v,
            v, // nonce: make each tx unique
        ))
    }

    /// A transfer carrying a 1 KiB payload: as large on the wire as a
    /// witnessed one, so gossip announces it rather than pushing it.
    pub(crate) fn large(v: u64) -> Transaction {
        let mut transfer =
            AccountTx::transfer(Address::from_index(3), Address::from_index(4), v, v);
        transfer.payload = dcs_primitives::TxPayload::Data(vec![0; ANNOUNCE_MIN_BYTES]);
        Transaction::Account(transfer)
    }

    pub(crate) fn block_on(parent: &Block, salt: u64, txs: Vec<Transaction>) -> Arc<Block> {
        Arc::new(Block::new(
            BlockHeader::new(
                parent.hash(),
                parent.header.height + 1,
                salt,
                Address::from_index(salt),
                Seal::None,
            ),
            txs,
        ))
    }

    pub(crate) fn new_node() -> (NodeCore<NullMachine>, Block) {
        let cfg = ChainConfig::bitcoin_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let node = NodeCore::new(
            NodeId(0),
            Address::from_index(0),
            genesis.clone(),
            cfg,
            NullMachine,
        );
        (node, genesis)
    }

    /// The canonical chain's client transactions above genesis, recomputed
    /// the slow way.
    fn included_recomputed(node: &NodeCore<NullMachine>) -> BTreeSet<Hash256> {
        node.chain
            .canonical()
            .iter()
            .skip(1)
            .flat_map(|h| {
                let block = node.chain.tree().get(h).unwrap().block();
                client_txs(block).map(|(_, id)| *id).collect::<Vec<_>>()
            })
            .collect()
    }

    /// Runs `f` on `node` with neighbors 1 and 2; returns what it asked for.
    pub(crate) fn step(
        node: &mut NodeCore<NullMachine>,
        f: impl FnOnce(&mut NodeCore<NullMachine>, &mut Ctx<'_, WireMsg>),
    ) -> Vec<dcs_net::Action<WireMsg>> {
        step_at(node, SimTime::ZERO, f)
    }

    /// [`step`] at sim time `now`.
    pub(crate) fn step_at(
        node: &mut NodeCore<NullMachine>,
        now: SimTime,
        f: impl FnOnce(&mut NodeCore<NullMachine>, &mut Ctx<'_, WireMsg>),
    ) -> Vec<dcs_net::Action<WireMsg>> {
        let neighbors = [NodeId(1), NodeId(2)];
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        f(
            node,
            &mut Ctx::new(NodeId(0), now, &neighbors, &mut rng, &mut actions),
        );
        actions
    }

    /// A coinbase is never gossiped or pooled, so it never carries a mark:
    /// not when its block is connected, not after its block is reverted,
    /// and not after a restart rebuilds the table.
    #[test]
    fn coinbase_ids_are_never_marked_included() {
        let (mut node, g) = new_node();
        let transfer = SealedTx::new(Arc::new(tx(1)));
        node.mempool.insert(transfer.clone());
        let a1 = node.build_block(Seal::None, SimTime::ZERO);
        let coinbase = a1.tx_ids()[0];
        node.ingest_block(Arc::clone(&a1)).unwrap();
        assert_eq!(node.included_ids(), BTreeSet::from([transfer.id()]));
        assert_eq!(node.included_ids(), included_recomputed(&node));

        // A two-block sibling branch reorgs a1 out.
        let b1 = block_on(&g, 10, vec![]);
        let b2 = block_on(&b1, 11, vec![]);
        node.ingest_block(b1).unwrap();
        let ev = node.ingest_block(b2).unwrap();
        assert!(matches!(ev, ChainEvent::Reorg { reverted: 1, .. }));
        assert!(
            !node.is_included(&coinbase),
            "a reverted coinbase is unmarked"
        );
        assert!(node.included_ids().is_empty());
        assert!(
            node.mempool.contains(&transfer.id()),
            "the transfer is back"
        );

        // Back onto a1's branch, then a restart: the same one id.
        let a2 = block_on(&a1, 2, vec![]);
        let a3 = block_on(&a2, 3, vec![]);
        node.ingest_block(a2).unwrap();
        node.ingest_block(a3).unwrap();
        assert_eq!(node.included_ids(), BTreeSet::from([transfer.id()]));
        node.rebuild_from_store();
        assert_eq!(node.included_ids(), BTreeSet::from([transfer.id()]));
        assert_eq!(node.included_ids(), included_recomputed(&node));
    }

    /// Where a block was relayed by `handle_block`, handed over by peer 1.
    fn relayed_blocks(node: &mut NodeCore<NullMachine>, block: &Arc<Block>) -> Vec<NodeId> {
        let actions = step(node, |n, ctx| {
            n.handle_block(Arc::clone(block), Some(NodeId(1)), ctx);
        });
        actions
            .iter()
            .filter_map(|a| match a {
                dcs_net::Action::Send {
                    to,
                    msg: WireMsg::CompactBlock(b),
                    ..
                } if b.hash() == block.hash() => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_peer_relays_what_it_imports_and_orphans_but_no_refused_block() {
        let (mut node, g) = new_node();
        let mut header = block_on(&g, 1, vec![]).header.clone();
        header.state_root = dcs_crypto::sha256(b"not the state this block leads to");
        let bad_root = Arc::new(Block::new(header, vec![]));
        let mut header = block_on(&g, 2, vec![]).header.clone();
        header.height = 7;
        let bad_height = Arc::new(Block::new(header, vec![]));
        let orphan = block_on(&block_on(&g, 3, vec![]), 4, vec![]);
        let good = block_on(&g, 5, vec![]);

        assert_eq!(relayed_blocks(&mut node, &bad_root), vec![]);
        assert!(node.chain.invalid().contains(&bad_root.hash()));
        assert_eq!(relayed_blocks(&mut node, &bad_height), vec![]);
        assert_eq!(node.rejected_blocks, 1);
        assert_eq!(relayed_blocks(&mut node, &orphan), vec![NodeId(2)]);
        assert_eq!(relayed_blocks(&mut node, &good), vec![NodeId(2)]);
        assert_eq!(node.chain.tip_hash(), good.hash());
    }

    #[test]
    fn reorg_returns_abandoned_txs_to_mempool_exactly_when_absent_from_new_branch() {
        let (mut node, g) = new_node();
        let shared = tx(1); // ends up on both branches
        let only_old = tx(2); // only on the abandoned branch
        let only_new = tx(3); // only on the winning branch

        // Old branch: g → a1 carrying {shared, only_old}.
        let a1 = block_on(&g, 1, vec![shared.clone(), only_old.clone()]);
        assert!(matches!(
            node.ingest_block(Arc::clone(&a1)),
            Some(ChainEvent::Extended { .. })
        ));
        assert!(node.is_included(&shared.id()));

        // New branch: g → b1 {shared} → b2 {only_new} wins by length.
        let b1 = block_on(&g, 10, vec![shared.clone()]);
        let b2 = block_on(&b1, 11, vec![only_new.clone()]);
        node.ingest_block(Arc::clone(&b1)).unwrap();
        let ev = node.ingest_block(Arc::clone(&b2)).unwrap();
        assert!(matches!(
            ev,
            ChainEvent::Reorg {
                reverted: 1,
                applied: 2,
                ..
            }
        ));

        // `only_old` was abandoned and is absent from the new branch → back
        // in the mempool. `shared` is on the new branch → not restored.
        assert!(
            node.mempool.contains(&only_old.id()),
            "abandoned tx restored"
        );
        assert!(
            !node.mempool.contains(&shared.id()),
            "re-included tx not restored"
        );
        assert!(!node.mempool.contains(&only_new.id()));
        assert_eq!(node.included_ids(), included_recomputed(&node));
        assert_eq!(node.committed_tx_count(), 2); // shared + only_new
    }

    #[test]
    fn included_matches_canonical_after_multi_block_reorg() {
        let (mut node, g) = new_node();
        // Old branch of depth 3 with distinct txs per block.
        let a1 = block_on(&g, 1, vec![tx(10)]);
        let a2 = block_on(&a1, 2, vec![tx(11), tx(12)]);
        let a3 = block_on(&a2, 3, vec![tx(13)]);
        for b in [&a1, &a2, &a3] {
            node.ingest_block(Arc::clone(b)).unwrap();
        }
        assert_eq!(node.committed_tx_count(), 4);

        // New branch of depth 4 sharing one tx with the old branch.
        let b1 = block_on(&g, 20, vec![tx(11)]);
        let b2 = block_on(&b1, 21, vec![tx(20)]);
        let b3 = block_on(&b2, 22, vec![]);
        let b4 = block_on(&b3, 23, vec![tx(21)]);
        for b in [&b1, &b2, &b3] {
            node.ingest_block(Arc::clone(b)).unwrap();
        }
        let ev = node.ingest_block(Arc::clone(&b4)).unwrap();
        assert!(matches!(
            ev,
            ChainEvent::Reorg {
                reverted: 3,
                applied: 4,
                ..
            }
        ));

        assert_eq!(
            node.included_ids(),
            included_recomputed(&node),
            "included ≡ canonical"
        );
        assert_eq!(node.committed_tx_count(), 3); // 11, 20, 21
                                                  // Abandoned-only txs restored; the shared one (11) not.
        for v in [10, 12, 13] {
            assert!(node.mempool.contains(&tx(v).id()), "tx {v} restored");
        }
        assert!(!node.mempool.contains(&tx(11).id()));
    }

    #[test]
    fn rejected_blocks_are_counted() {
        let (mut node, g) = new_node();
        let mut bad = (*block_on(&g, 1, vec![])).clone();
        bad.header.height = 7; // wrong height for a child of genesis
        let bad = Arc::new(Block::new(bad.header, vec![]));
        assert!(node.ingest_block(bad).is_none());
        assert_eq!(node.rejected_blocks, 1);
        // Duplicates count too: gossip dedup normally filters them, but a
        // direct re-ingest is an import error.
        let a1 = block_on(&g, 1, vec![]);
        node.ingest_block(Arc::clone(&a1)).unwrap();
        assert!(node.ingest_block(a1).is_none());
        assert_eq!(node.rejected_blocks, 2);
    }

    #[test]
    fn ingest_shares_the_arc_with_the_store() {
        let (mut node, g) = new_node();
        let a1 = block_on(&g, 1, vec![tx(1)]);
        node.ingest_block(Arc::clone(&a1)).unwrap();
        assert!(Arc::ptr_eq(
            node.chain.tree().get(&a1.hash()).unwrap().block(),
            &a1
        ));
    }

    #[test]
    fn ingest_traces_imports_reorgs_and_finality_once() {
        let (mut node, g) = new_node();
        node.set_tracing(&TraceConfig::full());
        let depth = node.chain.config().confirmation_depth;
        let at = SimTime::from_micros;

        // An a-branch of 2, then a b-branch of 3 forces a reorg.
        let a1 = block_on(&g, 1, vec![]);
        let a2 = block_on(&a1, 2, vec![]);
        let b1 = block_on(&g, 10, vec![]);
        let b2 = block_on(&b1, 11, vec![]);
        let b3 = block_on(&b2, 12, vec![]);
        for (i, b) in [&a1, &a2, &b1, &b2, &b3].into_iter().enumerate() {
            node.ingest_block_at(Arc::clone(b), at(100 * (i as u64 + 1)));
        }
        let evs: Vec<TraceEvent> = node.tracer().records().map(|r| r.event).collect();
        let reorg = evs
            .iter()
            .position(|e| {
                *e == TraceEvent::Reorg {
                    reverted: 2,
                    applied: 3,
                }
            })
            .unwrap();
        assert_eq!(
            evs[reorg + 1],
            TraceEvent::BlockImported {
                block: TraceId(b3.hash().into_bytes()),
                height: 3,
                outcome: ImportOutcome::Extended,
            },
            "a reorg is followed by the imported block's extension"
        );
        assert!(evs.contains(&TraceEvent::BlockImported {
            block: TraceId(b1.hash().into_bytes()),
            height: 1,
            outcome: ImportOutcome::SideChain,
        }));
        // An orphan is traced as such.
        let orphan = block_on(&block_on(&b3, 99, vec![]), 100, vec![]);
        node.ingest_block_at(Arc::clone(&orphan), at(600));
        assert!(node.tracer().records().any(|r| r.event
            == TraceEvent::BlockOrphaned {
                block: TraceId(orphan.hash().into_bytes())
            }));

        // Extend past the confirmation depth: each finalized height is
        // emitted exactly once.
        let mut tip = b3;
        for i in 0..depth + 2 {
            tip = block_on(&tip, 200 + i, vec![]);
            node.ingest_block_at(Arc::clone(&tip), at(1_000 + i));
        }
        let finals: Vec<u64> = node
            .tracer()
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::Finalized { height } => Some(height),
                _ => None,
            })
            .collect();
        let expect: Vec<u64> = (1..=node.chain.finalized_height()).collect();
        assert_eq!(finals, expect, "each height finalized exactly once");
    }

    fn relayed(actions: &[dcs_net::Action<WireMsg>]) -> Vec<(NodeId, Hash256)> {
        actions
            .iter()
            .filter_map(|a| match a {
                dcs_net::Action::Send {
                    to,
                    msg: WireMsg::Tx(tx),
                    ..
                } => Some((*to, tx.id())),
                _ => None,
            })
            .collect()
    }

    /// Runs `f` on `node` with neighbors 1, 2 and 3; returns what it asked
    /// for.
    fn among_three(
        node: &mut NodeCore<NullMachine>,
        f: impl FnOnce(&mut NodeCore<NullMachine>, &mut Ctx<'_, WireMsg>),
    ) -> Vec<dcs_net::Action<WireMsg>> {
        let neighbors = [NodeId(1), NodeId(2), NodeId(3)];
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        f(
            node,
            &mut Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions),
        );
        actions
    }

    /// Hands `tx` to `node` from peer `from` of neighbors 1, 2 and 3 (0 is
    /// a client); returns whether it was fresh and what `node` did.
    fn hand(
        node: &mut NodeCore<NullMachine>,
        from: usize,
        tx: SealedTx,
    ) -> (bool, Vec<dcs_net::Action<WireMsg>>) {
        let mut fresh = false;
        let actions = among_three(node, |n, ctx| fresh = n.handle_tx(tx, NodeId(from), ctx));
        (fresh, actions)
    }

    /// Hands `tx` to `node` from peer 1 of neighbors 1, 2 and 3; returns
    /// whether it was fresh and where it was relayed.
    fn offer(node: &mut NodeCore<NullMachine>, tx: SealedTx) -> (bool, Vec<(NodeId, Hash256)>) {
        let (fresh, actions) = hand(node, 1, tx);
        (fresh, relayed(&actions))
    }

    #[test]
    fn a_pooled_transaction_is_relayed_to_every_neighbor_but_the_sender() {
        let (mut node, _) = new_node();
        let t = SealedTx::new(Arc::new(tx(1)));
        let id = t.id();
        assert_eq!(
            offer(&mut node, t.clone()),
            (true, vec![(NodeId(2), id), (NodeId(3), id)])
        );
        assert!(node.mempool.contains(&id));
        assert_eq!(offer(&mut node, t), (false, vec![]), "a repeat is dropped");
    }

    /// A large body from a neighbor is not pushed: it waits for the flush,
    /// which announces its id to every neighbor but the sender, unless a
    /// block took it out of the pool meanwhile. A small one from a neighbor
    /// is pushed, and so is a large one a client handed over: no neighbor
    /// can hold it yet.
    #[test]
    fn a_large_body_is_announced_unless_a_client_handed_it_over() {
        let (mut node, g) = new_node();
        let flush_armed = |actions: &[dcs_net::Action<WireMsg>]| {
            let flush =
                |a: &_| matches!(a, dcs_net::Action::Timer { tag, .. } if *tag == TAG_FLUSH);
            actions.iter().any(flush)
        };
        let announced = |node: &mut NodeCore<NullMachine>| -> Vec<(NodeId, Vec<Hash256>)> {
            let actions = among_three(node, |n, ctx| assert!(n.on_timer(TAG_FLUSH, ctx)));
            let notice = |a| match a {
                dcs_net::Action::Send {
                    to,
                    msg: WireMsg::TxAnnounce { ids },
                    ..
                } => (to, ids),
                other => panic!("expected announcements only, got {other:?}"),
            };
            actions.into_iter().map(notice).collect()
        };
        let sealed = |t: Transaction| SealedTx::new(Arc::new(t));
        let (big, small, later) = (sealed(large(1)), sealed(tx(1)), sealed(large(2)));

        let (fresh, actions) = hand(&mut node, 1, big.clone());
        assert!(fresh && relayed(&actions).is_empty(), "not pushed");
        assert!(flush_armed(&actions));
        let (_, actions) = hand(&mut node, 1, small.clone());
        let pushed = vec![(NodeId(2), small.id()), (NodeId(3), small.id())];
        assert_eq!(relayed(&actions), pushed);
        let (_, actions) = hand(&mut node, 2, later.clone());
        assert!(!flush_armed(&actions), "the armed flush sends it too");
        assert_eq!(
            announced(&mut node),
            vec![
                (NodeId(1), vec![later.id()]),
                (NodeId(2), vec![big.id()]),
                (NodeId(3), vec![big.id(), later.id()]),
            ]
        );

        hand(&mut node, 1, sealed(large(3)));
        node.ingest_block(block_on(&g, 1, vec![large(3)])).unwrap();
        assert_eq!(announced(&mut node), vec![], "a block took it first");

        let handed = sealed(large(4));
        let id = handed.id();
        let (_, actions) = hand(&mut node, 0, handed);
        let pushed = vec![(NodeId(1), id), (NodeId(2), id), (NodeId(3), id)];
        assert_eq!(relayed(&actions), pushed);
    }

    #[test]
    fn a_full_pool_relays_nothing_and_counts_the_refusal() {
        let (mut node, _) = new_node();
        node.set_tracing(&TraceConfig::full());
        node.mempool = Mempool::new(1);
        let first = SealedTx::new(Arc::new(tx(1)));
        assert_eq!(offer(&mut node, first).1.len(), 2);
        let shed = SealedTx::new(Arc::new(tx(2)));
        let id = shed.id();
        assert_eq!(offer(&mut node, shed), (true, vec![]), "shed at the edge");
        assert!(!node.mempool.contains(&id));
        assert!(node.tracer().records().any(|r| r.event
            == TraceEvent::TxRejected {
                tx: TraceId(id.into_bytes()),
                reason: RejectReason::Full,
            }));
    }

    #[test]
    fn a_full_pool_relays_a_body_it_already_holds() {
        // A reorg returned the body to the pool before this peer saw it on
        // the wire, and the pool is now full. The pool holds the body, so
        // it is a `Duplicate`, relayed like every other pooled body.
        let (mut node, _) = new_node();
        node.set_tracing(&TraceConfig::full());
        node.mempool = Mempool::new(1);
        let pooled = SealedTx::new(Arc::new(tx(1)));
        let id = pooled.id();
        assert!(node.mempool.insert(pooled.clone()));
        assert_eq!(
            offer(&mut node, pooled),
            (true, vec![(NodeId(2), id), (NodeId(3), id)])
        );
        assert!(node.tracer().records().any(|r| r.event
            == TraceEvent::TxRejected {
                tx: TraceId(id.into_bytes()),
                reason: RejectReason::Duplicate,
            }));
    }

    #[test]
    fn a_forged_witness_is_relayed_nowhere() {
        use dcs_crypto::{KeyPair, VerifyPipeline};
        use dcs_primitives::TxAuth;
        let (mut node, _) = new_node();
        node.mempool = Mempool::with_admission(16, Arc::new(VerifyPipeline::new(1, 64)));
        let mut alice = KeyPair::generate([1u8; 32], 1);
        let mallory = KeyPair::generate([2u8; 32], 1);
        // Mallory's transfer under mallory's key, carrying alice's signature.
        let mut forged = AccountTx::transfer(mallory.address(), Address::from_index(9), 5, 0);
        let signing_hash = Transaction::Account(forged.clone()).signing_hash();
        forged.auth = Some(TxAuth {
            pubkey: mallory.public_key(),
            signature: alice.sign(&signing_hash).unwrap(),
        });
        let forged = SealedTx::new(Arc::new(Transaction::Account(forged)));
        let id = forged.id();
        assert_eq!(offer(&mut node, forged), (true, vec![]));
        assert!(!node.mempool.contains(&id));
        assert_eq!(node.mempool.rejected_invalid(), 1);
    }

    #[test]
    fn included_and_already_pooled_ids_are_still_relayed() {
        let (mut node, g) = new_node();
        // Even with no room left, an id already on the canonical chain goes
        // on, so a run whose pools never fill relays every first-seen body.
        // Cutting these late copies would change which peers hear a body
        // first, and with it a seeded run's proof-of-work lottery.
        node.mempool = Mempool::new(0);
        let committed = tx(1);
        node.ingest_block(block_on(&g, 1, vec![committed.clone()]))
            .unwrap();
        let id = committed.id();
        assert!(node.is_included(&id));
        assert_eq!(
            offer(&mut node, SealedTx::new(Arc::new(committed))),
            (true, vec![(NodeId(2), id), (NodeId(3), id)])
        );

        // A pooled id this peer has not seen on the wire (a reorg returned
        // it) is a `Duplicate` at admission, and relayed too.
        node.mempool = Mempool::new(2);
        let pooled = SealedTx::new(Arc::new(tx(2)));
        let id = pooled.id();
        assert!(node.mempool.insert(pooled.clone()));
        assert_eq!(
            offer(&mut node, pooled),
            (true, vec![(NodeId(2), id), (NodeId(3), id)])
        );
    }

    #[test]
    fn rebuild_from_store_rederives_volatile_state() {
        let (mut node, g) = new_node();
        let t1 = tx(1);
        let b1 = block_on(&g, 1, vec![t1.clone()]);
        let b2 = block_on(&b1, 2, vec![tx(2)]);
        for b in [&b1, &b2] {
            node.ingest_block(Arc::clone(b)).unwrap();
        }
        // Volatile state that must NOT survive: a pooled tx.
        node.mempool.insert(SealedTx::new(Arc::new(tx(9))));
        node.blocks_produced = 5;
        let tip = node.chain.tip_hash();

        node.rebuild_from_store();

        assert_eq!(node.chain.tip_hash(), tip);
        assert_eq!(node.internal_errors, 0);
        assert!(node.mempool.is_empty(), "mempool is volatile");
        assert_eq!(node.blocks_produced, 5, "lifetime counters survive");
        assert_eq!(node.included_ids(), included_recomputed(&node));
        // Canonical history is marked seen: a re-gossiped old block is
        // deduped, not re-broadcast.
        let neighbors = [NodeId(1)];
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        {
            let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
            assert!(node.handle_block(b1, Some(NodeId(1)), &mut ctx).is_none());
            assert!(
                !node.handle_tx(SealedTx::new(Arc::new(t1)), NodeId(1), &mut ctx),
                "included txs are seen too"
            );
        }
        assert!(actions.is_empty(), "no re-gossip of known history");
    }

    #[test]
    fn a_stored_side_block_is_a_repeat_after_rebuild() {
        let (mut node, g) = new_node();
        let a1 = block_on(&g, 1, vec![]);
        let b1 = block_on(&g, 2, vec![]);
        for b in [&a1, &b1] {
            node.ingest_block(Arc::clone(b)).unwrap();
        }
        let side = if node.chain.tip_hash() == a1.hash() {
            b1
        } else {
            a1
        };

        node.rebuild_from_store();

        let neighbors = [NodeId(1)];
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        assert!(node.handle_block(side, Some(NodeId(1)), &mut ctx).is_none());
        assert_eq!(
            node.rejected_blocks, 0,
            "a held block is a repeat, not a reject"
        );
        assert!(actions.is_empty(), "and it is relayed nowhere");
    }
}
