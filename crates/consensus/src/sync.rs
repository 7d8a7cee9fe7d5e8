//! Sync between peers: one table of in-flight requests, the catch-up
//! page ([`Want::Range`]) and orphan-parent requests ([`Want::Block`]),
//! each with its own retry timer; and the serving side, which answers a
//! block request from the store and a PBFT replica's request for the
//! bodies of a compact proposal from the pool or the store. [`NodeCore`]
//! reaches it through [`NodeCore::on_message`] and [`NodeCore::on_timer`].

use crate::node::{client_txs, NodeCore};
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

/// What a sync request asks a neighbor for; the key of
/// [`NodeCore`]'s one request table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Want {
    /// A page of canonical blocks above this replica's locator (catch-up).
    Range,
    /// One block by hash: an orphan's missing parent.
    Block(Hash256),
}

/// One in-flight sync request: which epoch its retry timer carries and how
/// many times it has been (re)sent.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SyncAttempt {
    epoch: u64,
    attempts: u32,
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

    /// Serves a [`WireMsg::TxRequest`]: each body asked for goes back to
    /// the asker as one [`WireMsg::Tx`], taken from the pool (a refcount
    /// bump) or, once the proposal has committed here and left the pool,
    /// from the stored block. A body held in neither is not answered; the
    /// asker's view timer is the backstop.
    pub(crate) fn handle_tx_request(
        &self,
        block: Hash256,
        ids: &[Hash256],
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
    ) {
        let stored = self.chain.tree().get(&block).and_then(|sb| sb.body());
        for id in ids {
            let pooled = self.mempool.get(id).cloned();
            let tx = pooled.or_else(|| {
                let (tx, _) = client_txs(stored?).find(|(_, stored_id)| *stored_id == id)?;
                Some(SealedTx::from_parts(Arc::new(tx.clone()), *id))
            });
            if let Some(tx) = tx {
                let msg = WireMsg::Tx(tx);
                let size = wire_size(&msg);
                ctx.send(from, msg, size);
            }
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
        self.catch_up_from(peer, ctx);
    }

    /// [`NodeCore::begin_catchup`] from `peer` rather than the first
    /// neighbor.
    pub(crate) fn catch_up_from(&mut self, peer: NodeId, ctx: &mut Ctx<'_, WireMsg>) {
        self.catchup_rounds += 1;
        self.ask(Want::Range, peer, 0, ctx);
    }

    /// Sends the request for `want` to `peer` and arms its retry timer,
    /// whose backoff grows with `attempts`.
    pub(crate) fn ask(
        &mut self,
        want: Want,
        peer: NodeId,
        attempts: u32,
        ctx: &mut Ctx<'_, WireMsg>,
    ) {
        let msg = match want {
            Want::Range => WireMsg::SyncRequest {
                locator: self.chain.locator(),
            },
            Want::Block(hash) => WireMsg::BlockRequest(hash),
        };
        let size = wire_size(&msg);
        ctx.send(peer, msg, size);
        let epoch = self.arm_sync_timer(attempts, ctx);
        self.requests.insert(want, SyncAttempt { epoch, attempts });
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
        let stored = matches!(want, Want::Block(hash) if self.chain.tree().contains(&hash));
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

    /// Arms a sync retry timer with exponential backoff and returns its
    /// epoch.
    fn arm_sync_timer(&mut self, attempts: u32, ctx: &mut Ctx<'_, WireMsg>) -> u64 {
        self.sync_epoch += 1;
        let delay = SYNC_RETRY_BASE_US << attempts.min(6);
        ctx.set_timer(SimDuration::from_micros(delay), TAG_SYNC | self.sync_epoch);
        self.sync_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{block_on, new_node, step};
    use dcs_chain::{Chain, NullMachine};
    use dcs_crypto::Address;
    use dcs_primitives::ChainConfig;
    use dcs_sim::SimTime;

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
}
