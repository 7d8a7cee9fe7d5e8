//! The peer core shared by every consensus protocol: a [`Chain`] replica, a
//! [`Mempool`], gossip dedup tables, block assembly, and the bookkeeping
//! that returns reverted transactions to the pool after reorgs — plus the
//! whole non-consensus wire protocol (tx gossip, block serving, catch-up
//! sync), written once behind [`NodeCore::on_message`] and
//! [`NodeCore::on_timer`]. An engine file (`pow`, `pos`, …) wraps a
//! `NodeCore`, implements [`LedgerNode`], and adds only its block rule, its
//! own timers and its proposal rule.

use crate::mempool::{InsertOutcome, Mempool};
use crate::pbft::PbftMsg;
use crate::{wire_size, WireMsg};
use dcs_chain::{Chain, ChainEvent, StateMachine};
use dcs_crypto::{Address, Hash256};
use dcs_net::{Ctx, Gossiper, NodeId, Protocol};
use dcs_primitives::{Block, BlockHeader, ChainConfig, Seal, SealedTx, Transaction};
use dcs_sim::{SimDuration, SimTime};
use dcs_trace::{EntityKind, Id as TraceId, RejectReason, TraceConfig, TraceEvent, Tracer, ORIGIN};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Mempool capacity of every peer core.
const MEMPOOL_CAP: usize = 100_000;

/// Timer-tag namespace for the sync retry timers, in the same
/// `kind << 40` scheme the protocols use. The high byte is `0x5C` so a
/// sync tag can never collide with PBFT/NG kinds (`1 << 40`, `2 << 40`) or
/// with the raw epoch counters PoW and PoET use (small integers).
const TAG_SYNC: u64 = 0x5C << 40;

const TAG_KIND_MASK: u64 = 0xff << 40;

/// True if `tag` belongs to the [`NodeCore`] sync machinery
/// ([`NodeCore::on_timer`] consumes these).
fn is_sync_tag(tag: u64) -> bool {
    tag & TAG_KIND_MASK == TAG_SYNC
}

/// Base retry backoff for lost sync requests (doubles per attempt).
const SYNC_RETRY_BASE_US: u64 = 500_000;
/// Give up on a sync target after this many retries (round-robin over
/// neighbors); normal gossip remains as the recovery path of last resort.
const MAX_SYNC_ATTEMPTS: u32 = 8;
/// Blocks per catch-up response batch.
const SYNC_BATCH: usize = 32;

/// One in-flight sync request: which epoch its retry timer carries and how
/// many times it has been (re)sent.
#[derive(Debug, Clone, Copy)]
struct SyncAttempt {
    epoch: u64,
    attempts: u32,
}

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

    /// Registers this peer's live metrics on `registry` — chain and
    /// mempool series from the core, plus any protocol-specific series
    /// (PBFT view/phase counters override this).
    fn register_metrics(&mut self, registry: &dcs_metrics::Registry) {
        self.core_mut().set_metrics(registry);
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
    /// Sync requests re-sent after a lost request or reply (retry timers
    /// fired, `BlockNotFound` re-targets). Zero on a loss-free network.
    pub sync_retries: u64,
    /// Catch-up rounds started (one per [`NodeCore::begin_catchup`] call,
    /// including the follow-up pages of a multi-batch catch-up).
    pub catchup_rounds: u64,
    /// This peer's tracer (consensus-layer events: gossip sightings,
    /// mempool admissions, proposals). Disabled by default; install with
    /// [`NodeCore::set_tracing`].
    pub tracer: Tracer,
    seen: Gossiper,
    included: BTreeSet<Hash256>,
    /// Missing-ancestor requests awaiting a reply, keyed by block hash.
    pending_blocks: BTreeMap<Hash256, SyncAttempt>,
    /// The in-flight catch-up range request, if any.
    catchup: Option<SyncAttempt>,
    /// Monotonic epoch distinguishing live sync timers from stale ones.
    sync_epoch: u64,
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
            seen: Gossiper::new(),
            included: BTreeSet::new(),
            pending_blocks: BTreeMap::new(),
            catchup: None,
            sync_epoch: 0,
        }
    }

    /// Installs tracing on this peer: one tracer here (consensus events)
    /// and one on the chain replica (import/reorg/finality events), both
    /// emitting as this peer's id.
    pub fn set_tracing(&mut self, cfg: &TraceConfig) {
        let node = self.id.0 as u32;
        self.tracer = Tracer::new(node, cfg);
        self.chain.set_tracer(Tracer::new(node, cfg));
    }

    /// Installs live metrics on this peer: chain head/import series on the
    /// replica and admission/depth series on the mempool, all labeled with
    /// this peer's id. Updates are relaxed atomic bumps beside decisions
    /// that have already been taken, so an instrumented peer behaves
    /// bit-identically to a bare one (asserted in `tests/determinism.rs`).
    pub fn set_metrics(&mut self, registry: &dcs_metrics::Registry) {
        let node = self.id.0.to_string();
        self.chain
            .set_metrics(dcs_chain::ChainMetrics::register(registry, &node));
        self.mempool
            .set_metrics(crate::MempoolMetrics::register(registry, &node));
    }

    /// Transaction ids currently on this peer's canonical chain.
    pub fn included(&self) -> &BTreeSet<Hash256> {
        &self.included
    }

    /// The one message entry point: runs the non-consensus wire protocol
    /// (tx gossip, block and range serving, catch-up ingestion) and reports
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
    /// only it can judge: every block a peer hands over — gossiped, the
    /// reply to a [`WireMsg::BlockRequest`], or inside a catch-up page —
    /// meets `seal_ok` here, before the engine or the chain sees it. A
    /// refused block is dropped (the closure does the counting).
    pub fn on_message_sealed(
        &mut self,
        from: NodeId,
        msg: WireMsg,
        ctx: &mut Ctx<'_, WireMsg>,
        seal_ok: &mut dyn FnMut(&Block) -> bool,
    ) -> Inbound {
        match msg {
            WireMsg::Tx(tx) => Inbound::Tx {
                fresh: self.handle_tx(tx, from, ctx),
            },
            WireMsg::Block(block) if seal_ok(&block) => Inbound::Block(block),
            WireMsg::Block(_) => Inbound::Handled,
            WireMsg::Pbft(pbft) => Inbound::Pbft(pbft),
            WireMsg::BlockRequest(hash) => {
                self.handle_block_request(hash, from, ctx);
                Inbound::Handled
            }
            WireMsg::BlockNotFound(hash) => {
                // Re-target the request at the next neighbor (round-robin)
                // now, instead of waiting out the retry timer.
                if self.pending_blocks.contains_key(&hash) {
                    self.retry_block_request(hash, ctx);
                }
                Inbound::Handled
            }
            WireMsg::SyncRequest { locator } => {
                // A bounded batch of canonical blocks above the best
                // locator match.
                let (blocks, tip_height) = self.chain.blocks_after(&locator, SYNC_BATCH);
                let msg = WireMsg::SyncResponse { blocks, tip_height };
                let size = wire_size(&msg);
                ctx.send(from, msg, size);
                Inbound::Handled
            }
            WireMsg::SyncResponse { blocks, tip_height } => {
                if self.handle_sync_response(blocks, tip_height, from, ctx, seal_ok) {
                    Inbound::TipMoved
                } else {
                    Inbound::Handled
                }
            }
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
    /// inclusion trace events carry the real timestamp (with tracing off
    /// the time is unused).
    pub fn ingest_block_at(&mut self, block: Arc<Block>, now: SimTime) -> Option<ChainEvent> {
        let old_tip = self.chain.tip_hash();
        let event = match self.chain.import_at(block, now.as_micros()) {
            Ok(ev) => ev,
            Err(_) => {
                self.rejected_blocks += 1;
                return None;
            }
        };
        self.after_event(&event, old_tip, now);
        Some(event)
    }

    /// Handles an incoming (or self-produced) block: dedup, re-gossip,
    /// import, mempool/included maintenance. `from` is `None` for blocks
    /// this peer produced itself. Returns the chain event if the block was
    /// new and imported. The `Arc` is shared with the chain's store — the
    /// block is never deep-copied on this path.
    pub fn handle_block(
        &mut self,
        block: Arc<Block>,
        from: Option<NodeId>,
        ctx: &mut Ctx<'_, WireMsg>,
    ) -> Option<ChainEvent> {
        let hash = block.hash();
        if !self.seen.first_sight(hash) {
            return None;
        }
        self.tracer.emit(
            ctx.now.as_micros(),
            TraceEvent::FirstSeen {
                kind: EntityKind::Block,
                id: TraceId(hash.into_bytes()),
                from: from.map_or(ORIGIN, |n| n.0 as u32),
            },
        );
        let msg = WireMsg::Block(Arc::clone(&block));
        let size = wire_size(&msg);
        match from {
            Some(sender) => ctx.broadcast_except(sender, msg, size),
            None => ctx.broadcast(msg, size),
        }
        let parent = block.header.parent;
        // However the block arrived, it satisfies any outstanding request.
        self.pending_blocks.remove(&hash);
        let event = self.ingest_block_at(block, ctx.now)?;
        if let (ChainEvent::Orphaned, Some(sender)) = (&event, from) {
            // Missing ancestry (e.g. after a healed partition): walk it back
            // one hop at a time from whoever showed us the descendant, with
            // a bounded retry timer so a lost request or reply cannot stall
            // this branch forever.
            self.request_block(parent, sender, ctx);
        }
        Some(event)
    }

    /// Sends a [`WireMsg::BlockRequest`] for `hash` to `peer` and arms a
    /// backoff retry timer. No-op if the block is already stored or already
    /// requested.
    fn request_block(&mut self, hash: Hash256, peer: NodeId, ctx: &mut Ctx<'_, WireMsg>) {
        if self.chain.tree().contains(&hash) || self.pending_blocks.contains_key(&hash) {
            return;
        }
        let req = WireMsg::BlockRequest(hash);
        let size = wire_size(&req);
        ctx.send(peer, req, size);
        let epoch = self.arm_sync_timer(0, ctx);
        self.pending_blocks
            .insert(hash, SyncAttempt { epoch, attempts: 0 });
    }

    /// Serves a sync request: if we hold `hash` with its body resident,
    /// send the block straight back to the asker — a refcount bump on the
    /// stored `Arc`, not a copy. Otherwise (unknown hash, or a pruning
    /// node dropped the body) reply [`WireMsg::BlockNotFound`] so the
    /// asker re-targets another peer instead of waiting forever.
    fn handle_block_request(&mut self, hash: Hash256, from: NodeId, ctx: &mut Ctx<'_, WireMsg>) {
        if let Some(body) = self.chain.tree().get(&hash).and_then(|sb| sb.body()) {
            let msg = WireMsg::Block(Arc::clone(body));
            let size = wire_size(&msg);
            ctx.send(from, msg, size);
        } else {
            let msg = WireMsg::BlockNotFound(hash);
            let size = wire_size(&msg);
            ctx.send(from, msg, size);
        }
    }

    /// Starts (or restarts) catch-up sync: sends a locator-based range
    /// request to the first neighbor and arms the retry timer. The reply
    /// handler keeps paging until this replica reaches the responder's
    /// tip.
    pub fn begin_catchup(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let Some(&peer) = ctx.neighbors.first() else {
            return;
        };
        self.send_catchup_request(peer, 0, ctx);
    }

    fn send_catchup_request(&mut self, peer: NodeId, attempts: u32, ctx: &mut Ctx<'_, WireMsg>) {
        self.catchup_rounds += 1;
        let msg = WireMsg::SyncRequest {
            locator: self.chain.locator(),
        };
        let size = wire_size(&msg);
        ctx.send(peer, msg, size);
        let epoch = self.arm_sync_timer(attempts, ctx);
        self.catchup = Some(SyncAttempt { epoch, attempts });
    }

    /// Ingests a catch-up batch. Blocks are imported without re-gossip
    /// (peers already have them) and marked seen so later gossip copies
    /// dedup. Returns true if the canonical tip advanced — protocols use
    /// this to restart mining/leadership on the new tip. Keeps paging from
    /// the same responder while still behind its tip; an empty reply from
    /// a peer that claims more history (it pruned the needed bodies), or a
    /// page with a block `seal_ok` refuses (nothing after it can connect),
    /// re-targets the next neighbor.
    fn handle_sync_response(
        &mut self,
        blocks: Vec<Arc<Block>>,
        tip_height: u64,
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
        seal_ok: &mut dyn FnMut(&Block) -> bool,
    ) -> bool {
        let mut unserved = blocks.is_empty();
        let mut advanced = false;
        for block in blocks {
            if !seal_ok(&block) {
                unserved = true;
                break;
            }
            let hash = block.hash();
            self.pending_blocks.remove(&hash);
            self.seen.first_sight(hash);
            if self.chain.tree().contains(&hash) {
                continue;
            }
            let event = self.ingest_block_at(block, ctx.now);
            advanced |= event.is_some_and(|e| e.moved_tip());
        }
        if self.catchup.is_some() {
            if self.chain.height() >= tip_height {
                self.catchup = None; // caught up to this responder's tip
            } else if unserved {
                // The responder is ahead but served nothing usable (pruned
                // history, forged seal): a failed attempt; re-target.
                self.retry_catchup(ctx);
            } else {
                // Progress: page the next batch from the same responder.
                self.send_catchup_request(from, 0, ctx);
            }
        }
        advanced
    }

    /// The one timer entry point. Returns false for a tag outside the sync
    /// namespace — that timer is the engine's. A sync timer is consumed
    /// here: if the request it guards is still outstanding, re-send with
    /// doubled backoff to the next neighbor; stale epochs (the reply
    /// arrived meanwhile) are ignored.
    pub fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) -> bool {
        if !is_sync_tag(tag) {
            return false;
        }
        let epoch = tag & !TAG_KIND_MASK;
        if let Some(c) = self.catchup {
            if c.epoch == epoch {
                self.retry_catchup(ctx);
                return true;
            }
        }
        let hash = self
            .pending_blocks
            .iter()
            .find(|(_, a)| a.epoch == epoch)
            .map(|(h, _)| *h);
        if let Some(hash) = hash {
            self.retry_block_request(hash, ctx);
        }
        true
    }

    fn retry_block_request(&mut self, hash: Hash256, ctx: &mut Ctx<'_, WireMsg>) {
        if self.chain.tree().contains(&hash) {
            self.pending_blocks.remove(&hash);
            return;
        }
        let Some(attempt) = self.pending_blocks.get(&hash).copied() else {
            return;
        };
        let attempts = attempt.attempts + 1;
        if attempts > MAX_SYNC_ATTEMPTS || ctx.neighbors.is_empty() {
            // Give up; gossip of a later descendant will re-trigger.
            self.pending_blocks.remove(&hash);
            return;
        }
        self.sync_retries += 1;
        let peer = ctx.neighbors[attempts as usize % ctx.neighbors.len()];
        let req = WireMsg::BlockRequest(hash);
        let size = wire_size(&req);
        ctx.send(peer, req, size);
        let epoch = self.arm_sync_timer(attempts, ctx);
        self.pending_blocks
            .insert(hash, SyncAttempt { epoch, attempts });
    }

    fn retry_catchup(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let Some(attempt) = self.catchup else {
            return;
        };
        let attempts = attempt.attempts + 1;
        if attempts > MAX_SYNC_ATTEMPTS || ctx.neighbors.is_empty() {
            self.catchup = None;
            return;
        }
        self.sync_retries += 1;
        let peer = ctx.neighbors[attempts as usize % ctx.neighbors.len()];
        // send_catchup_request counts a round; a retry is the same round.
        self.catchup_rounds -= 1;
        self.send_catchup_request(peer, attempts, ctx);
    }

    /// Arms a sync retry timer with exponential backoff and returns its
    /// epoch.
    fn arm_sync_timer(&mut self, attempts: u32, ctx: &mut Ctx<'_, WireMsg>) -> u64 {
        self.sync_epoch += 1;
        let delay = SYNC_RETRY_BASE_US << attempts.min(6);
        ctx.set_timer(SimDuration::from_micros(delay), TAG_SYNC | self.sync_epoch);
        self.sync_epoch
    }

    /// Cold-rebuilds this peer from its durable block store — the restart
    /// path after a crash. The chain rolls its machine back to genesis
    /// state and re-runs fork choice over the stored tree; the mempool
    /// contents, gossip dedup tables, and inclusion index are volatile and
    /// re-derived (canonical blocks and their transactions are marked seen
    /// so catch-up traffic does not re-gossip old history). The pool keeps
    /// its capacity, admission pipeline and metrics; lifetime counters
    /// survive. Rebuild errors land in [`NodeCore::internal_errors`] rather
    /// than aborting.
    pub fn rebuild_from_store(&mut self) {
        if self.chain.rebuild_from_store().is_err() {
            self.internal_errors += 1;
        }
        self.mempool.clear();
        self.seen = Gossiper::new();
        self.included.clear();
        self.pending_blocks.clear();
        self.catchup = None;
        let canonical: Vec<Hash256> = self.chain.canonical().to_vec();
        let mut tx_ids = Vec::new();
        for hash in canonical.iter().skip(1) {
            if let Some(body) = self.chain.tree().get(hash).and_then(|sb| sb.body()) {
                for (tx, id) in body.txs.iter().zip(body.tx_ids()) {
                    if !matches!(tx, Transaction::Coinbase { .. }) {
                        tx_ids.push(*id);
                    }
                }
            }
        }
        for hash in canonical.iter().skip(1) {
            self.seen.first_sight(*hash);
        }
        for id in tx_ids {
            self.seen.first_sight(id);
            self.included.insert(id);
        }
    }

    /// Handles an incoming transaction: dedup, re-gossip, mempool
    /// insertion. Returns true if the tx was new. The sealed transaction
    /// carries its content id, so this hot path — run once per peer per
    /// gossiped tx — never hashes the body.
    fn handle_tx(&mut self, tx: SealedTx, from: NodeId, ctx: &mut Ctx<'_, WireMsg>) -> bool {
        let id = tx.id();
        if !self.seen.first_sight(id) {
            return false;
        }
        self.tracer.emit(
            ctx.now.as_micros(),
            TraceEvent::FirstSeen {
                kind: EntityKind::Tx,
                id: TraceId(id.into_bytes()),
                from: from.0 as u32,
            },
        );
        let msg = WireMsg::Tx(tx.clone());
        let size = wire_size(&msg);
        ctx.broadcast_except(from, msg, size);
        if !self.included.contains(&id) {
            let outcome = self.mempool.insert_outcome(tx);
            if self.tracer.is_enabled() {
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
                self.tracer.emit(ctx.now.as_micros(), event);
            }
        }
        true
    }

    fn after_event(&mut self, event: &ChainEvent, old_tip: Hash256, now: SimTime) {
        match event {
            ChainEvent::Extended { block } => {
                self.note_included(block, now);
            }
            ChainEvent::Reorg {
                reverted,
                applied,
                new_tip,
            } => {
                // Shed the abandoned branch: collect its transactions so
                // they can return to the mempool, and drop their ids from
                // `included`. O(reverted), not O(chain).
                let mut abandoned: Vec<SealedTx> = Vec::new();
                let mut cur = old_tip;
                for _ in 0..*reverted {
                    let Some(stored) = self.chain.tree().get(&cur) else {
                        // The reverted branch must be stored; a miss is a
                        // broken invariant — count it and salvage the rest.
                        self.internal_errors += 1;
                        break;
                    };
                    let block = Arc::clone(stored.block());
                    cur = block.header.parent;
                    for (tx, id) in block.txs.iter().zip(block.tx_ids()) {
                        if !matches!(tx, Transaction::Coinbase { .. }) {
                            self.included.remove(id);
                            abandoned.push(SealedTx::from_parts(Arc::new(tx.clone()), *id));
                        }
                    }
                }
                // Absorb the new branch (walked tip-backwards, noted in
                // chain order).
                let mut new_blocks = Vec::with_capacity(*applied as usize);
                let mut cur = *new_tip;
                for _ in 0..*applied {
                    new_blocks.push(cur);
                    match self.chain.tree().get(&cur) {
                        Some(stored) => cur = stored.header().parent,
                        None => {
                            self.internal_errors += 1;
                            break;
                        }
                    }
                }
                for hash in new_blocks.iter().rev() {
                    self.note_included(hash, now);
                }
                // Abandoned transactions not re-included on the new branch
                // go back to the mempool.
                for tx in abandoned {
                    let id = tx.id();
                    if !self.included.contains(&id) {
                        self.mempool.insert(tx);
                    }
                }
            }
            ChainEvent::SideChain { .. } | ChainEvent::Orphaned => {}
        }
    }

    fn note_included(&mut self, block_hash: &Hash256, now: SimTime) {
        let Some(stored) = self.chain.tree().get(block_hash) else {
            self.internal_errors += 1;
            return;
        };
        // The id slice is cached in the block, and the `Arc` behind it is
        // shared network-wide by gossip: across all peers these ids are
        // computed once, not once per peer per commit.
        let block = Arc::clone(stored.block());
        let ids = block.tx_ids();
        if self.tracer.is_enabled() {
            let block_id = TraceId(block_hash.into_bytes());
            for (tx, id) in block.txs.iter().zip(ids) {
                if !matches!(tx, Transaction::Coinbase { .. }) {
                    self.tracer.emit(
                        now.as_micros(),
                        TraceEvent::TxIncluded {
                            tx: TraceId(id.into_bytes()),
                            block: block_id,
                        },
                    );
                }
            }
        }
        self.mempool.remove_all(block.txs.iter().zip(ids));
        self.included.extend(ids.iter().copied());
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
            let included = &self.included;
            self.mempool.select(limit.saturating_sub(1), included)
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
        if self.tracer.is_enabled() {
            self.tracer.emit(
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

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_chain::NullMachine;
    use dcs_primitives::AccountTx;

    fn tx(v: u64) -> Transaction {
        Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            v,
            v, // nonce: make each tx unique
        ))
    }

    fn block_on(parent: &Block, salt: u64, txs: Vec<Transaction>) -> Arc<Block> {
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

    fn new_node() -> (NodeCore<NullMachine>, Block) {
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

    /// The canonical-chain tx set above genesis, recomputed the slow way.
    fn included_recomputed(node: &NodeCore<NullMachine>) -> BTreeSet<Hash256> {
        node.chain
            .canonical()
            .iter()
            .skip(1)
            .flat_map(|h| {
                node.chain
                    .tree()
                    .get(h)
                    .unwrap()
                    .block()
                    .txs
                    .iter()
                    .map(Transaction::id)
                    .collect::<Vec<_>>()
            })
            .collect()
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
        assert!(node.included().contains(&shared.id()));

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
        assert_eq!(node.included(), &included_recomputed(&node));
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
            node.included(),
            &included_recomputed(&node),
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

    fn sent_requests(actions: &[dcs_net::Action<WireMsg>]) -> Vec<(NodeId, Hash256)> {
        actions
            .iter()
            .filter_map(|a| match a {
                dcs_net::Action::Send {
                    to,
                    msg: WireMsg::BlockRequest(h),
                    ..
                } => Some((*to, *h)),
                _ => None,
            })
            .collect()
    }

    fn sync_timer_tags(actions: &[dcs_net::Action<WireMsg>]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                dcs_net::Action::Timer { tag, .. } if is_sync_tag(*tag) => Some(*tag),
                _ => None,
            })
            .collect()
    }

    /// Regression (sync-stall #1): the orphan-parent request used to be
    /// fire-and-forget — if it was lost, the node stalled on that branch
    /// forever. Now a backoff timer re-sends it and the node converges.
    #[test]
    fn orphan_parent_request_retries_after_loss_and_converges() {
        let (mut node, g) = new_node();
        let b1 = block_on(&g, 1, vec![]);
        let b2 = block_on(&b1, 2, vec![]);
        let neighbors = [NodeId(1), NodeId(2)];
        let mut rng = dcs_sim::Rng::seed_from(1);

        // b2 arrives first: orphaned, parent requested from the sender.
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.handle_block(Arc::clone(&b2), Some(NodeId(1)), &mut ctx);
        assert_eq!(sent_requests(&actions), vec![(NodeId(1), b1.hash())]);
        let timers = sync_timer_tags(&actions);
        assert_eq!(timers.len(), 1, "a retry timer guards the request");

        // The request (or its reply) is lost; the timer fires.
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.on_timer(timers[0], &mut ctx);
        let retries = sent_requests(&actions);
        assert_eq!(retries.len(), 1, "the request was re-sent");
        assert_eq!(retries[0].1, b1.hash());
        assert_eq!(node.sync_retries, 1);
        let retry_tag = sync_timer_tags(&actions)[0];

        // The retried request is answered: the node converges on b2.
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.handle_block(Arc::clone(&b1), Some(retries[0].0), &mut ctx);
        assert_eq!(node.chain.tip_hash(), b2.hash(), "converged");
        assert_eq!(node.chain.height(), 2);

        // The stale timer is inert: no further requests go out.
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.on_timer(retry_tag, &mut ctx);
        assert!(sent_requests(&actions).is_empty());
        assert_eq!(node.sync_retries, 1);
    }

    #[test]
    fn sync_retries_are_bounded() {
        let (mut node, g) = new_node();
        let b1 = block_on(&g, 1, vec![]);
        let b2 = block_on(&b1, 2, vec![]);
        let neighbors = [NodeId(1), NodeId(2)];
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.handle_block(b2, Some(NodeId(1)), &mut ctx);
        let mut tag = sync_timer_tags(&actions)[0];
        for _ in 0..64 {
            let mut actions = Vec::new();
            let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
            node.on_timer(tag, &mut ctx);
            match sync_timer_tags(&actions).first() {
                Some(t) => tag = *t,
                None => break,
            }
        }
        assert_eq!(
            node.sync_retries,
            u64::from(super::MAX_SYNC_ATTEMPTS),
            "gives up after the retry budget"
        );
    }

    /// Regression (sync-stall #2): a peer asked for an unknown or pruned
    /// body used to stay silent, leaving the asker waiting forever. Now it
    /// answers `BlockNotFound`.
    #[test]
    fn block_request_for_unknown_or_pruned_body_answers_not_found() {
        use dcs_chain::PrunedStore;
        let mut cfg = ChainConfig::bitcoin_like();
        cfg.confirmation_depth = 2;
        let genesis = dcs_chain::genesis_block(&cfg);
        let mut node = NodeCore::new(
            NodeId(0),
            Address::from_index(0),
            genesis.clone(),
            cfg.clone(),
            NullMachine,
        );
        node.chain = Chain::with_store(genesis.clone(), cfg, NullMachine, PrunedStore::new(0));
        let mut tip = Arc::new(genesis);
        let mut hashes = Vec::new();
        for i in 0..10 {
            tip = block_on(&tip, i, vec![]);
            hashes.push(tip.hash());
            node.ingest_block(Arc::clone(&tip)).unwrap();
        }
        let pruned = hashes[0];
        assert!(
            node.chain.tree().get(&pruned).unwrap().body().is_none(),
            "the early body must be pruned for this test"
        );

        let neighbors = [NodeId(1)];
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.handle_block_request(pruned, NodeId(1), &mut ctx);
        node.handle_block_request(Hash256::ZERO, NodeId(1), &mut ctx); // unknown
        let not_found: Vec<Hash256> = actions
            .iter()
            .filter_map(|a| match a {
                dcs_net::Action::Send {
                    to: NodeId(1),
                    msg: WireMsg::BlockNotFound(h),
                    ..
                } => Some(*h),
                _ => None,
            })
            .collect();
        assert_eq!(not_found, vec![pruned, Hash256::ZERO]);

        // A resident body is still served as a full block.
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.handle_block_request(tip.hash(), NodeId(1), &mut ctx);
        assert!(matches!(
            actions.as_slice(),
            [dcs_net::Action::Send {
                msg: WireMsg::Block(_),
                ..
            }]
        ));
    }

    #[test]
    fn block_not_found_retargets_the_next_neighbor() {
        let (mut node, g) = new_node();
        let b1 = block_on(&g, 1, vec![]);
        let b2 = block_on(&b1, 2, vec![]);
        let neighbors = [NodeId(1), NodeId(2)];
        let mut rng = dcs_sim::Rng::seed_from(1);
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.handle_block(b2, Some(NodeId(1)), &mut ctx);
        assert_eq!(sent_requests(&actions), vec![(NodeId(1), b1.hash())]);

        // Peer 1 cannot serve it: the request immediately moves to peer 2.
        let mut actions = Vec::new();
        let mut ctx = Ctx::new(NodeId(0), SimTime::ZERO, &neighbors, &mut rng, &mut actions);
        node.on_message(NodeId(1), WireMsg::BlockNotFound(b1.hash()), &mut ctx);
        assert_eq!(sent_requests(&actions), vec![(NodeId(2), b1.hash())]);
        assert_eq!(node.sync_retries, 1);
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
        assert_eq!(node.included(), &included_recomputed(&node));
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
}
