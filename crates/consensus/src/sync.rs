//! Sync between peers: one table of in-flight requests — the page of
//! blocks above this replica's locator ([`Want::Range`], the one way a
//! peer fetches blocks it lacks: catch-up after a restart or a stall, and
//! the missing ancestry of an orphan) and the missing bodies of a held
//! block named by ids ([`Want::Bodies`]: a relayed compact block or a PBFT
//! proposal, the only place either waits for bodies) — each with its own
//! retry timer; and the serving side, which answers a request for a held
//! block's bodies from the pool or the store, in one reply.
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
/// arrives beyond it is dropped unseen: a later copy, or the page an
/// orphaned descendant asks for, brings it again. A PBFT proposal beyond
/// it is never prepared here; its view times out.
const MAX_HELD_BLOCKS: usize = 64;

/// What a sync request asks a neighbor for; the key of
/// [`NodeCore`]'s one request table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Want {
    /// A page of canonical blocks above this replica's locator: catch-up,
    /// or an orphan's missing ancestry.
    Range,
    /// The client bodies a held block names that this peer lacks.
    Bodies(Hash256),
}

/// One in-flight sync request: which epoch its retry timer carries, how
/// many times it has been (re)sent; for [`Want::Range`], the last block
/// of the page it stored, which leads the next locator; and for
/// [`Want::Bodies`], the block it holds and the ids it still lacks, in
/// block order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SyncAttempt {
    epoch: u64,
    attempts: u32,
    anchor: Option<Hash256>,
    held: Option<Arc<Block>>,
    missing: Vec<Hash256>,
}

impl<M: StateMachine> NodeCore<M> {
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
    /// of `from` with one [`WireMsg::TxRequest`], retried like a page
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
    /// tip. An orphan starts the same request at the peer that sent it.
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
    fn ask(&mut self, want: Want, peer: NodeId, attempts: u32, ctx: &mut Ctx<'_, WireMsg>) {
        self.sync_epoch += 1;
        let attempt = self.requests.entry(want).or_default();
        (attempt.epoch, attempt.attempts) = (self.sync_epoch, attempts);
        let msg = match want {
            Want::Range => WireMsg::SyncRequest {
                locator: attempt
                    .anchor
                    .into_iter()
                    .chain(self.chain.locator())
                    .collect(),
            },
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
    /// or gives up: when the held block it wants bodies for is already
    /// stored, after [`MAX_SYNC_ATTEMPTS`] retries, or with no neighbor to
    /// ask. A retry is not a new catch-up round. Gossip of a later
    /// descendant re-triggers a request given up on.
    fn retry(&mut self, want: Want, ctx: &mut Ctx<'_, WireMsg>) {
        let Some(attempt) = self.requests.get(&want) else {
            return;
        };
        let attempts = attempt.attempts + 1;
        let stored = matches!(want, Want::Bodies(hash) if self.chain.tree().contains(&hash));
        if stored || attempts > MAX_SYNC_ATTEMPTS || ctx.neighbors.is_empty() {
            self.requests.remove(&want);
            return;
        }
        self.sync_retries += 1;
        let peer = ctx.neighbors[attempts as usize % ctx.neighbors.len()];
        self.ask(want, peer, attempts, ctx);
    }

    /// Ingests the page an outstanding [`Want::Range`] asked for. Blocks
    /// are imported without re-gossip (peers already have them) and marked
    /// seen so later gossip copies dedup. Returns true if the canonical tip
    /// advanced — protocols use this to restart mining/leadership on the
    /// new tip. While still behind the responder's tip, a page whose last
    /// block is now stored is paged on from that block, at the same
    /// responder: a fork deeper than a page is fetched as a side branch
    /// the canonical locator never names. A page that leaves its last block
    /// unstored — empty (the responder pruned the needed bodies), cut short
    /// by a seal `seal_ok` refuses, or ending on a refused or orphaned
    /// block — is a failed attempt and re-targets the next neighbor.
    pub(crate) fn handle_sync_response(
        &mut self,
        blocks: Vec<Arc<Block>>,
        tip_height: u64,
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
        seal_ok: &mut dyn FnMut(&Block) -> bool,
    ) -> bool {
        let last = blocks.last().map(|b| b.hash());
        let mut advanced = false;
        for block in blocks {
            if !seal_ok(&block) {
                break;
            }
            let hash = block.hash();
            self.marks.first_sight(hash);
            if self.chain.tree().contains(&hash) {
                continue;
            }
            let event = self.ingest_block_at(block, ctx.now);
            advanced |= event.is_some_and(|e| e.moved_tip());
        }
        let anchor = last.filter(|hash| self.chain.tree().contains(hash));
        if self.chain.height() >= tip_height {
            // Caught up to this responder's tip.
            self.requests.remove(&Want::Range);
        } else if anchor.is_none() {
            self.retry(Want::Range, ctx);
        } else {
            self.requests.entry(Want::Range).or_default().anchor = anchor;
            self.catchup_rounds += 1;
            self.ask(Want::Range, from, 0, ctx);
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
    use dcs_net::Action;
    use dcs_primitives::{ChainConfig, Transaction};
    use proptest::prelude::*;

    /// The page requests among `actions`, as (destination, locator).
    fn ranges(actions: &[Action<WireMsg>]) -> Vec<(NodeId, Vec<Hash256>)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: WireMsg::SyncRequest { locator },
                    ..
                } => Some((*to, locator.clone())),
                _ => None,
            })
            .collect()
    }

    /// Where the page requests among `actions` went.
    fn asked(actions: &[Action<WireMsg>]) -> Vec<NodeId> {
        ranges(actions).into_iter().map(|(to, _)| to).collect()
    }

    fn sync_timer_tags(actions: &[Action<WireMsg>]) -> Vec<u64> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Timer { tag, .. } if is_sync_tag(*tag) => Some(*tag),
                _ => None,
            })
            .collect()
    }

    /// A page of `blocks` from a responder whose tip is at `tip_height`.
    fn page(blocks: &[&Arc<Block>], tip_height: u64) -> WireMsg {
        let blocks = blocks.iter().map(|b| Arc::clone(b)).collect();
        WireMsg::SyncResponse { blocks, tip_height }
    }

    /// Regression (sync-stall #1): the request an orphan makes for its
    /// missing ancestry used to be fire-and-forget — if it was lost, the
    /// node stalled on that branch forever. Now a backoff timer re-sends it
    /// to the next neighbor, and the page that answers converges the node.
    #[test]
    fn an_orphans_page_request_retries_after_loss_and_converges() {
        let (mut node, g) = new_node();
        let b1 = block_on(&g, 1, vec![]);
        let b2 = block_on(&b1, 2, vec![]);

        // b2 arrives first: orphaned, a page asked of the sender.
        let actions = step(&mut node, |n, ctx| {
            n.handle_block(Arc::clone(&b2), Some(NodeId(1)), ctx);
        });
        assert_eq!(asked(&actions), vec![NodeId(1)]);
        let timers = sync_timer_tags(&actions);
        assert_eq!(timers.len(), 1, "a retry timer guards the request");

        // The request (or its reply) is lost; the timer fires.
        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(timers[0], ctx)));
        assert_eq!(
            asked(&actions),
            vec![NodeId(2)],
            "re-sent to the next neighbor"
        );
        assert_eq!(node.sync_retries, 1);
        let retry_tag = sync_timer_tags(&actions)[0];

        // The retried request is answered: the node converges on b2.
        step(&mut node, |n, ctx| {
            n.on_message(NodeId(2), page(&[&b1, &b2], 2), ctx);
        });
        assert_eq!(node.chain.tip_hash(), b2.hash(), "converged");
        assert!(node.requests.is_empty(), "caught up: the request ended");

        // The stale timer is inert: no further requests go out.
        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(retry_tag, ctx)));
        assert!(actions.is_empty());
        assert_eq!(node.sync_retries, 1);
    }

    #[test]
    fn sync_retries_are_bounded() {
        let (mut node, g) = new_node();
        let b1 = block_on(&g, 1, vec![]);
        let b2 = block_on(&b1, 2, vec![]);
        let actions = step(&mut node, |n, ctx| {
            n.handle_block(b2, Some(NodeId(1)), ctx);
        });
        let mut tag = sync_timer_tags(&actions)[0];
        for _ in 0..64 {
            let actions = step(&mut node, |n, ctx| assert!(n.on_timer(tag, ctx)));
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

    /// Regression (sync-stall #2): a page that leaves its last block
    /// unstored is a failed attempt, re-targeted at the next neighbor at
    /// once rather than paged again from the same responder (which would
    /// serve the same page forever): the empty page of a pruning peer that
    /// no longer holds the bodies asked for, a page ending on a block the
    /// chain refuses, and one ending on an orphan.
    #[test]
    fn an_unserved_page_retargets_the_next_neighbor() {
        use dcs_chain::PrunedStore;
        let (mut node, g) = new_node();
        let mut cfg = ChainConfig::bitcoin_like();
        cfg.confirmation_depth = 2;
        let mut pruning = new_node().0;
        pruning.chain = Chain::with_store(g.clone(), cfg, NullMachine, PrunedStore::new(0));
        let mut tip = Arc::new(g.clone());
        for salt in 0..10 {
            tip = block_on(&tip, salt, vec![]);
            pruning.ingest_block(Arc::clone(&tip)).unwrap();
        }
        let actions = step(&mut node, |n, ctx| {
            n.handle_block(block_on(&tip, 10, vec![]), Some(NodeId(1)), ctx);
        });
        let [(NodeId(1), locator)] = &ranges(&actions)[..] else {
            panic!("expected one page request, to the sender");
        };
        let request = WireMsg::SyncRequest {
            locator: locator.clone(),
        };
        let served = sends(step(&mut pruning, |n, ctx| {
            n.on_message(NodeId(0), request, ctx);
        }));
        let [(NodeId(0), empty @ WireMsg::SyncResponse { blocks, .. })] = served.as_slice() else {
            panic!("expected one page back, got {served:?}");
        };
        assert!(blocks.is_empty(), "the pruned bodies are not served");

        let b1 = block_on(&g, 20, vec![]);
        let mut refused = (*block_on(&b1, 21, vec![])).clone();
        refused.header.height = 7;
        let refused = Arc::new(Block::new(refused.header, vec![]));
        let orphan = block_on(&block_on(&b1, 22, vec![]), 23, vec![]);
        let pages = [
            (1, empty.clone(), NodeId(2)),
            (2, page(&[&b1, &refused], 10), NodeId(1)),
            (1, page(&[&b1, &orphan], 10), NodeId(2)),
        ];
        for (from, reply, next) in pages {
            let actions = step(&mut node, |n, ctx| {
                n.on_message(NodeId(from), reply, ctx);
            });
            assert_eq!(asked(&actions), vec![next]);
        }
        assert_eq!(node.sync_retries, 3);
        assert_eq!(node.catchup_rounds, 1, "a re-target is not a new round");
    }

    /// An orphan and a catch-up share the one page request: an orphan that
    /// arrives while a page is outstanding, or whose parent is held for its
    /// bodies, asks for nothing more; the one request retries on its own
    /// timer, and the page that answers it brings the orphan's parent.
    #[test]
    fn an_orphan_and_a_catch_up_share_the_one_page_request() {
        let (mut node, g) = new_node();
        let b1 = block_on(&g, 1, vec![]);
        let b2 = block_on(&b1, 2, vec![]);

        let actions = step(&mut node, |n, ctx| n.begin_catchup(ctx));
        assert_eq!(asked(&actions), vec![NodeId(1)]);
        let range = sync_timer_tags(&actions)[0];
        let actions = step(&mut node, |n, ctx| {
            n.handle_block(Arc::clone(&b2), Some(NodeId(2)), ctx);
        });
        assert!(asked(&actions).is_empty(), "the page on its way will do");
        assert_eq!(node.requests.len(), 1);

        // The one timer re-sends the one request, to the next neighbor.
        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(range, ctx)));
        assert_eq!(asked(&actions), vec![NodeId(2)]);
        assert_eq!(node.sync_retries, 1);
        assert_eq!(node.catchup_rounds, 1, "a retry is not a new round");
        let range = sync_timer_tags(&actions)[0];

        // The page brings the parent: the orphan connects and the request
        // ends.
        step(&mut node, |n, ctx| {
            n.on_message(NodeId(2), page(&[&b1, &b2], 2), ctx);
        });
        assert_eq!(node.chain.tip_hash(), b2.hash());
        let actions = step(&mut node, |n, ctx| assert!(n.on_timer(range, ctx)));
        assert!(actions.is_empty(), "the request ended");

        // A parent held for its bodies is on its way already.
        let held = block_on(&b2, 3, vec![tx(1)]);
        engine(&mut node, 1, compact(&held));
        let actions = step(&mut node, |n, ctx| {
            n.handle_block(block_on(&held, 4, vec![]), Some(NodeId(1)), ctx);
        });
        assert!(asked(&actions).is_empty());
        assert_eq!(node.catchup_rounds, 1);
    }

    /// A fork deeper than a page heals page by page: the first page of the
    /// responder's branch is stored as a side branch, which the canonical
    /// locator does not name, so the follow-up asks the same responder for
    /// what lies above that page's last block, put first in the locator.
    #[test]
    fn a_follow_up_page_is_asked_from_the_last_block_stored() {
        let (mut node, g) = new_node();
        let mut tip = Arc::new(g.clone());
        for salt in 0..3 {
            tip = block_on(&tip, salt, vec![]);
            node.ingest_block(Arc::clone(&tip)).unwrap();
        }
        let b1 = block_on(&g, 10, vec![]);
        let b2 = block_on(&b1, 11, vec![]);
        step(&mut node, |n, ctx| n.catch_up_from(NodeId(2), ctx));
        let actions = step(&mut node, |n, ctx| {
            n.on_message(NodeId(2), page(&[&b1, &b2], 40), ctx);
        });
        assert_eq!(node.chain.tip_hash(), tip.hash(), "a side branch");
        assert!(node.chain.tree().contains(&b2.hash()));
        let locator = [vec![b2.hash()], node.chain.locator()].concat();
        assert_eq!(ranges(&actions), vec![(NodeId(2), locator)]);
        assert_eq!(node.catchup_rounds, 2);
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
        assert!(wire_size(&relayed[0].1) < wire_size(&page(&[&whole], 1)));

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

    /// A held block's request re-targets like a page request: on its
    /// timer, and at once on a reply that left a body out; it ends when the
    /// block is imported some other way.
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

        // The whole block, handed to the engine some other way, ends the
        // wait.
        step(&mut node, |n, ctx| {
            let verdict = n.handle_block(Arc::clone(&lacking), Some(NodeId(2)), ctx);
            assert!(matches!(verdict, Some(ChainEvent::Extended { .. })));
        });
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
        /// and a pool of `pooled` — are handed the same block, one whole
        /// (straight to the engine) and one compact. The compact one asks
        /// the sender, whose pool holds every body, for exactly the bodies
        /// it holds nowhere, and on the one reply the engine gets the same
        /// block: same hash, same ids, same import verdict (extension, side
        /// chain or refusal) and the same chain after.
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

            let mut expect = None;
            step(&mut full, |n, ctx| {
                expect = Some(n.handle_block(Arc::clone(&block), Some(NodeId(1)), ctx));
            });
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
