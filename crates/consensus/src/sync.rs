//! Sync between peers: one table of in-flight requests — the catch-up
//! page ([`Want::Range`]), orphan-parent requests ([`Want::Block`]) and
//! the missing bodies of a held block named by ids ([`Want::Bodies`]: a
//! relayed compact block or a PBFT proposal, the only place either waits
//! for bodies) — each with its own retry timer; and the serving side, which
//! answers a block request from the store and a request for a held block's
//! bodies from the pool or the store, in one reply.
//! [`NodeCore`] reaches it through [`NodeCore::on_message`] and
//! [`NodeCore::on_timer`].

use crate::node::{client_txs, Inbound, NodeCore};
use crate::{wire_size, WireMsg};
use dcs_chain::StateMachine;
use dcs_crypto::Hash256;
use dcs_net::{Ctx, NodeId};
use dcs_primitives::{Block, SealedTx};
use dcs_sim::SimDuration;
use std::sync::Arc;

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
pub(crate) const SYNC_BATCH: usize = 32;
/// Blocks held at once for their missing bodies. A relayed one that
/// arrives beyond it is dropped unseen: a later copy, or a descendant's
/// parent request, brings it again. A PBFT proposal beyond it is never
/// prepared here; its view times out.
const MAX_HELD_BLOCKS: usize = 64;

/// What a sync request asks a neighbor for; the key of
/// [`NodeCore`]'s one request table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Want {
    /// A page of canonical blocks above this replica's locator (catch-up).
    Range,
    /// One block by hash: an orphan's missing parent.
    Block(Hash256),
    /// The client bodies a held block names that this peer lacks.
    Bodies(Hash256),
}

/// One in-flight sync request: which epoch its retry timer carries, how
/// many times it has been (re)sent, and, for [`Want::Bodies`], the block
/// it holds and the ids it still lacks, in block order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SyncAttempt {
    epoch: u64,
    attempts: u32,
    held: Option<Arc<Block>>,
    missing: Vec<Hash256>,
}

impl<M: StateMachine> NodeCore<M> {
    /// Serves a sync request: if we hold `hash` with its body resident,
    /// send the block straight back to the asker — a refcount bump on the
    /// stored `Arc`, not a copy. Otherwise (unknown hash, or a pruning
    /// node dropped the body) reply [`WireMsg::BlockNotFound`] so the
    /// asker re-targets another peer instead of waiting forever.
    pub(crate) fn handle_block_request(
        &mut self,
        hash: Hash256,
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
    ) {
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

    /// Serves a [`WireMsg::TxRequest`] with one [`WireMsg::BlockTxs`]: each
    /// body asked for, taken from the pool (a refcount bump) or, once the
    /// block has been imported here and its bodies left the pool, from the
    /// stored block. A body held in neither is left out; the asker moves
    /// on to another neighbor at once (see [`NodeCore::receive_bodies`]).
    pub(crate) fn handle_tx_request(
        &self,
        block: Hash256,
        ids: &[Hash256],
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
    ) {
        let stored = self.chain.tree().get(&block).and_then(|sb| sb.body());
        // Ids are asked in block order, so one forward walk of the stored
        // body serves every id the pool lacks.
        let mut in_block = stored.into_iter().flat_map(|body| client_txs(body));
        let txs = ids
            .iter()
            .filter_map(|id| {
                let pooled = self.mempool.get(id).cloned();
                pooled.or_else(|| {
                    let (tx, _) = in_block.find(|(_, stored_id)| *stored_id == id)?;
                    Some(SealedTx::from_parts(Arc::new(tx.clone()), *id))
                })
            })
            .collect();
        let msg = WireMsg::BlockTxs { block, txs };
        let size = wire_size(&msg);
        ctx.send(from, msg, size);
    }

    /// A block named by ids (a relayed [`WireMsg::CompactBlock`] or a PBFT
    /// proposal) from `from`. One seen or held already is dropped; one
    /// whose every client body this peer holds is returned whole. Any other
    /// is held (unless [`MAX_HELD_BLOCKS`] are) and its missing bodies asked
    /// of `from` with one [`WireMsg::TxRequest`], retried like a block
    /// request; it reaches the engine once complete, as [`Inbound::Block`]
    /// when a reply completes it, inside [`Inbound::Tx`] when a pooled body
    /// does. The block in memory carries every body (DESIGN.md §14's
    /// modeling rule): this peer uses only what it holds or is sent.
    pub(crate) fn complete(
        &mut self,
        block: Arc<Block>,
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
    ) -> Option<Arc<Block>> {
        let want = Want::Bodies(block.hash());
        if self.marks.is_seen(&block.hash()) || self.requests.contains_key(&want) {
            return None;
        }
        let ids = client_txs(&block).map(|(_, id)| *id);
        let missing: Vec<Hash256> = ids.filter(|id| !self.holds(id)).collect();
        if missing.is_empty() {
            return Some(block);
        }
        if self.held().count() < MAX_HELD_BLOCKS {
            let attempt = self.requests.entry(want).or_default();
            (attempt.held, attempt.missing) = (Some(block), missing);
            self.ask(want, from, 0, ctx);
        }
        None
    }

    /// True if this peer holds body `id`: it is pooled, or it is on the
    /// canonical chain and the store still keeps its block's body (every
    /// body, until a pruning store has dropped one). The one rule for what
    /// a block named by ids lacks.
    fn holds(&self, id: &Hash256) -> bool {
        self.mempool.contains(id)
            || (self.marks.is_included(id) && self.chain.tree().store_stats().bodies_pruned == 0)
    }

    /// The requests of the held blocks.
    fn held(&mut self) -> impl Iterator<Item = (&Want, &mut SyncAttempt)> {
        self.requests.range_mut(Want::Bodies(Hash256::ZERO)..)
    }

    /// A body first seen on its own: if this peer now holds it, it is
    /// struck off every held block, and each block left lacking nothing
    /// ends its request and is returned for the engine.
    pub(crate) fn pooled(&mut self, id: &Hash256) -> Vec<Arc<Block>> {
        // `Want::Bodies` sorts last: the table's last key says whether any
        // block is held, without a range search on every fresh body.
        let any_held = matches!(self.requests.keys().next_back(), Some(Want::Bodies(_)));
        if !any_held || !self.holds(id) {
            return Vec::new();
        }
        let mut done = Vec::new();
        for (want, attempt) in self.held() {
            attempt.missing.retain(|m| m != id);
            done.extend(attempt.missing.is_empty().then_some(*want));
        }
        let mut take = |want| self.requests.remove(want)?.held;
        done.iter().filter_map(&mut take).collect()
    }

    /// A [`WireMsg::BlockTxs`] reply. If it answers a held block, the
    /// bodies it carries are struck off the block's missing list: with none
    /// left, the block goes to the engine as [`Inbound::Block`]; with some
    /// left out, the request moves to the next neighbor at once. A reply
    /// for no held block is late and dropped; no reply is pooled.
    pub(crate) fn receive_bodies(
        &mut self,
        block: Hash256,
        txs: Vec<SealedTx>,
        ctx: &mut Ctx<'_, WireMsg>,
    ) -> Inbound {
        let want = Want::Bodies(block);
        let Some(attempt) = self.requests.get_mut(&want) else {
            return Inbound::Handled;
        };
        // The reply keeps the asked order: one merge walk strikes it off.
        let mut sent = txs.iter().map(SealedTx::id).peekable();
        attempt.missing.retain(|id| sent.next_if_eq(id).is_none());
        if !attempt.missing.is_empty() {
            self.retry(want, ctx);
            return Inbound::Handled;
        }
        let held = self.requests.remove(&want).and_then(|a| a.held);
        held.map_or(Inbound::Handled, Inbound::Block)
    }

    /// Starts (or restarts) catch-up sync: sends a locator-based range
    /// request to the first neighbor and arms the retry timer. The reply
    /// handler keeps paging until this replica reaches the responder's
    /// tip.
    pub fn begin_catchup(&mut self, ctx: &mut Ctx<'_, WireMsg>) {
        let Some(&peer) = ctx.neighbors.first() else {
            return;
        };
        self.catch_up_from(peer, ctx);
    }

    /// [`NodeCore::begin_catchup`] from `peer` rather than the first
    /// neighbor.
    pub(crate) fn catch_up_from(&mut self, peer: NodeId, ctx: &mut Ctx<'_, WireMsg>) {
        self.catchup_rounds += 1;
        self.ask(Want::Range, peer, 0, ctx);
    }

    /// Sends the request for `want` to `peer` and arms its retry timer,
    /// whose backoff doubles with `attempts`.
    pub(crate) fn ask(
        &mut self,
        want: Want,
        peer: NodeId,
        attempts: u32,
        ctx: &mut Ctx<'_, WireMsg>,
    ) {
        self.sync_epoch += 1;
        let attempt = self.requests.entry(want).or_default();
        (attempt.epoch, attempt.attempts) = (self.sync_epoch, attempts);
        let msg = match want {
            Want::Range => WireMsg::SyncRequest {
                locator: self.chain.locator(),
            },
            Want::Block(hash) => WireMsg::BlockRequest(hash),
            Want::Bodies(block) => WireMsg::TxRequest {
                block,
                ids: attempt.missing.clone(),
            },
        };
        let size = wire_size(&msg);
        ctx.send(peer, msg, size);
        let delay = SYNC_RETRY_BASE_US << attempts.min(6);
        ctx.set_timer(SimDuration::from_micros(delay), TAG_SYNC | self.sync_epoch);
    }

    /// Re-sends an outstanding request to the next neighbor (round-robin),
    /// or gives up: when the block it wants is already stored, after
    /// [`MAX_SYNC_ATTEMPTS`] retries, or with no neighbor to ask. A retry is
    /// not a new catch-up round. Gossip of a later descendant re-triggers a
    /// request given up on.
    pub(crate) fn retry(&mut self, want: Want, ctx: &mut Ctx<'_, WireMsg>) {
        let Some(attempt) = self.requests.get(&want) else {
            return;
        };
        let attempts = attempt.attempts + 1;
        let stored = match want {
            Want::Range => false,
            Want::Block(hash) | Want::Bodies(hash) => self.chain.tree().contains(&hash),
        };
        if stored || attempts > MAX_SYNC_ATTEMPTS || ctx.neighbors.is_empty() {
            self.requests.remove(&want);
            return;
        }
        self.sync_retries += 1;
        let peer = ctx.neighbors[attempts as usize % ctx.neighbors.len()];
        self.ask(want, peer, attempts, ctx);
    }

    /// Ingests a catch-up batch. Blocks are imported without re-gossip
    /// (peers already have them) and marked seen so later gossip copies
    /// dedup. Returns true if the canonical tip advanced — protocols use
    /// this to restart mining/leadership on the new tip. Keeps paging from
    /// the same responder while still behind its tip; an empty reply from
    /// a peer that claims more history (it pruned the needed bodies), or a
    /// page with a block `seal_ok` refuses (nothing after it can connect),
    /// re-targets the next neighbor.
    pub(crate) fn handle_sync_response(
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
            self.requests.remove(&Want::Block(hash));
            self.marks.first_sight(hash);
            if self.chain.tree().contains(&hash) {
                continue;
            }
            let event = self.ingest_block_at(block, ctx.now);
            advanced |= event.is_some_and(|e| e.moved_tip());
        }
        if self.requests.contains_key(&Want::Range) {
            if self.chain.height() >= tip_height {
                // Caught up to this responder's tip.
                self.requests.remove(&Want::Range);
            } else if unserved {
                // The responder is ahead but served nothing usable (pruned
                // history, forged seal): a failed attempt; re-target.
                self.retry(Want::Range, ctx);
            } else {
                // Progress: page the next batch from the same responder.
                self.catchup_rounds += 1;
                self.ask(Want::Range, from, 0, ctx);
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
        let want = self
            .requests
            .iter()
            .find(|(_, a)| a.epoch == epoch)
            .map(|(want, _)| *want);
        if let Some(want) = want {
            self.retry(want, ctx);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{block_on, new_node, step, tx};
    use dcs_chain::{Chain, ChainEvent, NullMachine};
    use dcs_crypto::Address;
    use dcs_net::Action;
    use dcs_primitives::{ChainConfig, Transaction};
    use dcs_sim::SimTime;
    use proptest::prelude::*;

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

    fn sent_ranges(actions: &[dcs_net::Action<WireMsg>]) -> Vec<NodeId> {
        actions
            .iter()
            .filter_map(|a| match a {
                dcs_net::Action::Send {
                    to,
                    msg: WireMsg::SyncRequest { .. },
                    ..
                } => Some(*to),
                _ => None,
            })
            .collect()
    }

    /// The catch-up page and an orphan-parent request share one table, not
    /// one timer: each retries on its own, and a block ends only the
    /// request that wants it.
    #[test]
    fn a_catch_up_page_and_an_orphan_request_retry_and_end_apart() {
        let (mut node, g) = new_node();
        let b1 = block_on(&g, 1, vec![]);
        let b2 = block_on(&b1, 2, vec![]);

        let actions = step(&mut node, |n, ctx| n.begin_catchup(ctx));
        assert_eq!(sent_ranges(&actions), vec![NodeId(1)]);
        let range = sync_timer_tags(&actions)[0];
        let actions = step(&mut node, |n, ctx| {
            n.handle_block(Arc::clone(&b2), Some(NodeId(2)), ctx);
        });
        assert_eq!(sent_requests(&actions), vec![(NodeId(2), b1.hash())]);
        let block = sync_timer_tags(&actions)[0];
        assert_eq!(node.requests.len(), 2, "both in flight");

        // Each timer re-sends only its own request, to the next neighbor.
        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(block, ctx)));
        assert_eq!(sent_requests(&actions), vec![(NodeId(2), b1.hash())]);
        assert!(sent_ranges(&actions).is_empty());
        let block = sync_timer_tags(&actions)[0];
        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(range, ctx)));
        assert_eq!(sent_ranges(&actions), vec![NodeId(2)]);
        assert!(sent_requests(&actions).is_empty());
        let range = sync_timer_tags(&actions)[0];
        assert_eq!(node.sync_retries, 2);
        assert_eq!(node.catchup_rounds, 1, "a retry is not a new round");

        // The parent arrives: it ends the block request, not the page.
        step(&mut node, |n, ctx| {
            n.handle_block(Arc::clone(&b1), Some(NodeId(2)), ctx);
        });
        assert_eq!(node.chain.tip_hash(), b2.hash());
        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(block, ctx)));
        assert!(actions.is_empty(), "the block request ended");
        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(range, ctx)));
        assert_eq!(sent_ranges(&actions), vec![NodeId(1)]);
        assert_eq!(node.sync_retries, 3);
        assert_eq!(node.catchup_rounds, 1);
    }

    /// What a PoW engine does with a message: the core's wire protocol,
    /// then each block that reaches the engine is imported (and relayed).
    /// Returns the last import's outcome, if a block reached the engine,
    /// and every action taken.
    fn engine(
        node: &mut NodeCore<NullMachine>,
        from: usize,
        msg: WireMsg,
    ) -> (Option<Option<ChainEvent>>, Vec<Action<WireMsg>>) {
        let mut verdict = None;
        let actions = step(node, |n, ctx| {
            for block in n.on_message(NodeId(from), msg, ctx).blocks() {
                verdict = Some(n.handle_block(block, Some(NodeId(from)), ctx));
            }
        });
        (verdict, actions)
    }

    /// The sends among `actions`, as (destination, message).
    fn sends(actions: Vec<Action<WireMsg>>) -> Vec<(NodeId, WireMsg)> {
        actions
            .into_iter()
            .filter_map(|a| match a {
                Action::Send { to, msg, .. } => Some((to, msg)),
                Action::Timer { .. } => None,
            })
            .collect()
    }

    fn sealed(t: &Transaction) -> SealedTx {
        SealedTx::new(Arc::new(t.clone()))
    }

    fn compact(block: &Arc<Block>) -> WireMsg {
        WireMsg::CompactBlock(Arc::clone(block))
    }

    /// A relayed block whose bodies the peer pools is imported at once and
    /// relayed on in compact form; one it lacks a body of is held, asked
    /// for once, and a copy from another neighbor meanwhile is dropped.
    /// The one reply completes it: imported and relayed as if it had
    /// arrived whole.
    #[test]
    fn a_compact_block_with_a_miss_is_held_until_the_one_reply() {
        let (mut node, g) = new_node();
        let (a, b) = (tx(1), tx(2));
        node.mempool.insert(sealed(&a));
        let whole = block_on(&g, 1, vec![a.clone()]);
        let (verdict, actions) = engine(&mut node, 1, compact(&whole));
        assert!(matches!(verdict, Some(Some(ChainEvent::Extended { .. }))));
        let relayed = sends(actions);
        assert!(matches!(
            relayed.as_slice(),
            [(NodeId(2), WireMsg::CompactBlock(_))]
        ));
        assert!(wire_size(&relayed[0].1) < wire_size(&WireMsg::Block(Arc::clone(&whole))));

        let lacking = block_on(&whole, 2, vec![b.clone()]);
        let (verdict, actions) = engine(&mut node, 1, compact(&lacking));
        assert_eq!(verdict, None, "held, not imported");
        let asked = sends(actions);
        let [(NodeId(1), WireMsg::TxRequest { block, ids })] = asked.as_slice() else {
            panic!("expected one TxRequest to the sender, got {asked:?}");
        };
        assert_eq!((*block, ids.clone()), (lacking.hash(), vec![b.id()]));
        let (verdict, actions) = engine(&mut node, 2, compact(&lacking));
        assert_eq!(
            (verdict, sends(actions).len()),
            (None, 0),
            "a held copy is dropped"
        );

        let reply = WireMsg::BlockTxs {
            block: lacking.hash(),
            txs: vec![sealed(&b)],
        };
        let (verdict, actions) = engine(&mut node, 1, reply.clone());
        assert!(matches!(verdict, Some(Some(ChainEvent::Extended { .. }))));
        assert_eq!(node.chain.tip_hash(), lacking.hash());
        assert!(node.requests.is_empty(), "the request ended");
        let relayed = sends(actions);
        assert!(matches!(
            relayed.as_slice(),
            [(NodeId(2), WireMsg::CompactBlock(_))]
        ));
        // A late duplicate reply is dropped, and the body is not pooled.
        let (verdict, actions) = engine(&mut node, 2, reply);
        assert_eq!((verdict, sends(actions).len()), (None, 0));
        assert!(!node.mempool.contains(&b.id()));
    }

    /// The bodies of a compact block are served in one reply: from the
    /// pool, or from the stored block once the block took them out of the
    /// pool, in the order asked.
    #[test]
    fn a_body_request_is_served_in_one_reply_from_pool_or_store() {
        let (mut node, g) = new_node();
        let (a, b, c) = (tx(1), tx(2), tx(3));
        let stored = block_on(&g, 1, vec![a.clone(), b.clone()]);
        node.ingest_block(Arc::clone(&stored)).unwrap();
        node.mempool.insert(sealed(&c));
        let ask = |block: Hash256, ids: Vec<Hash256>| WireMsg::TxRequest { block, ids };

        let (_, actions) = engine(&mut node, 1, ask(stored.hash(), vec![a.id(), b.id()]));
        let served = sends(actions);
        let [(NodeId(1), WireMsg::BlockTxs { block, txs })] = served.as_slice() else {
            panic!("expected one reply, got {served:?}");
        };
        let ids: Vec<Hash256> = txs.iter().map(SealedTx::id).collect();
        assert_eq!((*block, ids), (stored.hash(), vec![a.id(), b.id()]));

        // A pooled body and one held nowhere: the reply leaves that one out.
        let unknown = Hash256::ZERO;
        let (_, actions) = engine(&mut node, 1, ask(unknown, vec![c.id(), tx(4).id()]));
        let served = sends(actions);
        let [(NodeId(1), WireMsg::BlockTxs { txs, .. })] = served.as_slice() else {
            panic!("expected one reply, got {served:?}");
        };
        assert_eq!(
            txs.iter().map(SealedTx::id).collect::<Vec<_>>(),
            vec![c.id()]
        );
    }

    /// A held block's request re-targets like a block request: on its
    /// timer, and at once on a reply that left a body out; it ends when the
    /// block arrives whole some other way.
    #[test]
    fn a_held_block_retargets_and_ends_when_the_block_arrives() {
        let (mut node, g) = new_node();
        let lacking = block_on(&g, 1, vec![tx(1), tx(2)]);
        let (_, actions) = engine(&mut node, 1, compact(&lacking));
        let tag = sync_timer_tags(&actions)[0];

        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(tag, ctx)));
        let retried = sends(actions);
        assert!(matches!(
            retried.as_slice(),
            [(NodeId(2), WireMsg::TxRequest { .. })]
        ));
        let short = WireMsg::BlockTxs {
            block: lacking.hash(),
            txs: vec![sealed(&tx(1))],
        };
        let (verdict, actions) = engine(&mut node, 2, short);
        assert_eq!(verdict, None);
        let retried = sends(actions);
        let [(NodeId(1), WireMsg::TxRequest { ids, .. })] = retried.as_slice() else {
            panic!("expected a re-target for the one body left, got {retried:?}");
        };
        assert_eq!(ids, &vec![tx(2).id()]);
        assert_eq!(node.sync_retries, 2);

        // The full block, served to some other request, ends the wait.
        let (verdict, _) = engine(&mut node, 2, WireMsg::Block(Arc::clone(&lacking)));
        assert!(matches!(verdict, Some(Some(ChainEvent::Extended { .. }))));
        assert!(node.requests.is_empty());
    }

    /// A held block completes when the transaction flood pools its last
    /// body: imported and relayed at once, with no reply needed; the reply
    /// that lands later is dropped.
    #[test]
    fn a_held_block_is_imported_when_the_flood_pools_its_last_body() {
        let (mut node, g) = new_node();
        let lacking = block_on(&g, 1, vec![tx(1), tx(2)]);
        engine(&mut node, 1, compact(&lacking));
        let (verdict, _) = engine(&mut node, 2, WireMsg::Tx(sealed(&tx(1))));
        assert_eq!(verdict, None, "one body still missing");
        let (verdict, actions) = engine(&mut node, 2, WireMsg::Tx(sealed(&tx(2))));
        assert!(matches!(verdict, Some(Some(ChainEvent::Extended { .. }))));
        assert!(node.requests.is_empty(), "the request ended");
        let relayed = sends(actions);
        assert!(relayed.iter().any(|(to, m)| *to == NodeId(1)
            && matches!(m, WireMsg::CompactBlock(b) if b.hash() == lacking.hash())));
        let late = WireMsg::BlockTxs {
            block: lacking.hash(),
            txs: vec![sealed(&tx(1)), sealed(&tx(2))],
        };
        let (verdict, actions) = engine(&mut node, 1, late);
        assert_eq!((verdict, sends(actions).len()), (None, 0));
    }

    /// One body that completes two held blocks hands both to the engine
    /// in the same message: neither waits on a retry timer.
    #[test]
    fn one_body_completes_every_held_block_that_lacks_it() {
        let (mut node, g) = new_node();
        let (a, b) = (block_on(&g, 1, vec![tx(1)]), block_on(&g, 2, vec![tx(1)]));
        for block in [&a, &b] {
            let (verdict, _) = engine(&mut node, 1, compact(block));
            assert_eq!(verdict, None, "held");
        }
        assert_eq!(node.requests.len(), 2);
        engine(&mut node, 2, WireMsg::Tx(sealed(&tx(1))));
        assert!(node.requests.is_empty(), "both requests ended");
        for block in [&a, &b] {
            assert!(node.chain.tree().contains(&block.hash()), "both imported");
        }
    }

    /// At most [`MAX_HELD_BLOCKS`] blocks wait at once; one beyond is
    /// dropped unseen, so a later copy is taken.
    #[test]
    fn held_blocks_are_bounded_and_one_beyond_is_not_marked_seen() {
        let (mut node, g) = new_node();
        for salt in 0..MAX_HELD_BLOCKS as u64 {
            let block = block_on(&g, salt, vec![tx(salt)]);
            let (_, actions) = engine(&mut node, 1, compact(&block));
            assert_eq!(sends(actions).len(), 1);
        }
        let extra = block_on(&g, 1_000, vec![tx(1_000)]);
        let (_, actions) = engine(&mut node, 1, compact(&extra));
        assert!(actions.is_empty(), "nothing asked beyond the bound");
        assert!(!node.marks.is_seen(&extra.hash()));
        node.mempool.insert(sealed(&tx(1_000)));
        let (verdict, _) = engine(&mut node, 2, compact(&extra));
        assert!(
            verdict.is_some_and(|v| v.is_some()),
            "a later copy is imported"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A compact block plus the receiver's pool is the full block. Two
        /// identical peers — each with a canonical block `c` of `included`
        /// and a pool of `pooled` — are handed the same block, one whole and
        /// one compact. The compact one asks the sender, whose pool holds
        /// every body, for exactly the bodies it holds nowhere, and on the
        /// one reply the engine gets the same block: same hash, same ids,
        /// same import verdict (extension, side chain or refusal) and the
        /// same chain after.
        #[test]
        fn compact_block_plus_pool_is_the_full_block(
            included in proptest::collection::vec(0u64..12, 0..6),
            pooled in proptest::collection::vec(0u64..12, 0..12),
            body in proptest::collection::vec(0u64..12, 0..10),
            on_c in any::<bool>(),
            bad_height in any::<bool>(),
        ) {
            let peer = || {
                let (mut node, g) = new_node();
                let mut on_chain: Vec<Transaction> = included.iter().map(|&v| tx(v)).collect();
                on_chain.dedup_by_key(|t| t.id());
                let c = block_on(&g, 99, on_chain);
                node.ingest_block(Arc::clone(&c)).unwrap();
                for &v in &pooled {
                    node.mempool.insert(sealed(&tx(v)));
                }
                (node, Arc::new(g), c)
            };
            let (mut full, g, c) = peer();
            let (mut receiver, ..) = peer();
            let mut txs: Vec<Transaction> = Vec::new();
            for &v in &body {
                if !txs.iter().any(|t| t.id() == tx(v).id()) {
                    txs.push(tx(v));
                }
            }
            let block = block_on(if on_c { &c } else { &g }, 7, txs);
            let block = if bad_height {
                let mut header = block.header.clone();
                header.height += 5;
                Arc::new(Block::new(header, block.txs.clone()))
            } else {
                block
            };
            let (mut sender, _) = new_node();
            for v in 0..12 {
                sender.mempool.insert(sealed(&tx(v)));
            }

            let (expect, _) = engine(&mut full, 1, WireMsg::Block(Arc::clone(&block)));
            let (mut verdict, actions) = engine(&mut receiver, 1, compact(&block));
            let lacking: Vec<Hash256> = client_txs(&block)
                .map(|(_, id)| *id)
                .filter(|id| !receiver.mempool.contains(id) && !receiver.is_included(id))
                .collect();
            let asked: Vec<Vec<Hash256>> = sends(actions)
                .into_iter()
                .filter_map(|(_, m)| match m {
                    WireMsg::TxRequest { ids, .. } => Some(ids),
                    _ => None,
                })
                .collect();
            if lacking.is_empty() {
                prop_assert!(asked.is_empty());
            } else {
                prop_assert_eq!(&asked, &vec![lacking]);
                prop_assert_eq!(verdict, None);
                let request = WireMsg::TxRequest { block: block.hash(), ids: asked[0].clone() };
                let (_, served) = engine(&mut sender, 0, request);
                let replies = sends(served);
                prop_assert_eq!(replies.len(), 1);
                let reply = replies.into_iter().next().unwrap().1;
                verdict = engine(&mut receiver, 1, reply).0;
            }
            prop_assert_eq!(verdict, expect);
            prop_assert_eq!(receiver.chain.tip_hash(), full.chain.tip_hash());
            prop_assert_eq!(receiver.rejected_blocks, full.rejected_blocks);
            let stored = |n: &NodeCore<NullMachine>| {
                n.chain.tree().get(&block.hash()).map(|sb| (sb.hash(), sb.block().tx_ids().to_vec()))
            };
            prop_assert_eq!(stored(&receiver), stored(&full));
            prop_assert_eq!(receiver.included_ids(), full.included_ids());
        }
    }
}
