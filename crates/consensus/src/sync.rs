//! Sync between peers: one table of in-flight requests — the page of
//! blocks above this replica's locator ([`Want::Range`], the one way a
//! peer fetches blocks it lacks: catch-up after a restart or a stall, and
//! the missing ancestry of an orphan), the announced bodies a peer pulls
//! ([`Want::Announced`]) and the missing bodies of a held block named by
//! ids ([`Want::Bodies`]: a relayed compact block or a PBFT proposal, the
//! only place either waits for bodies) — each retried on its own timer;
//! and the serving side, which answers a request for bodies from the pool
//! or the store, in one reply. [`NodeCore`] reaches it through
//! [`NodeCore::on_message`] and [`NodeCore::on_timer`].

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
/// Timer tag of the announcement flush ([`NodeCore::flush_announcements`]),
/// one kind above the sync retries.
pub(crate) const TAG_FLUSH: u64 = 0x5D << 40;

const TAG_KIND_MASK: u64 = 0xff << 40;

/// Base retry backoff for lost sync requests (doubles per attempt).
const SYNC_RETRY_BASE_US: u64 = 500_000;
/// Give up on a sync target after this many retries (round-robin over
/// neighbors); normal gossip remains as the recovery path of last resort.
const MAX_SYNC_ATTEMPTS: u32 = 8;
/// Blocks per catch-up response batch.
pub(crate) const SYNC_BATCH: usize = 32;
/// Announced ids a peer asks for at once. An announcement beyond it is not
/// pulled; a later one, or the block that carries the body, brings it.
const MAX_PULLS: usize = 4_096;
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
    /// Announced bodies this peer lacks, keyed by the first id asked.
    Announced(Hash256),
    /// The client bodies a held block names that this peer lacks. It sorts
    /// last: [`NodeCore::pooled`] reads the table's last key to learn
    /// whether any block is held, and the held blocks are one range.
    Bodies(Hash256),
}

/// One in-flight sync request: which epoch its retry timer carries, how
/// many times it has been (re)sent; for [`Want::Range`], the last
/// block of the page it stored, which leads the next locator; for
/// [`Want::Bodies`], the block it holds; and for both body requests, the
/// ids it still lacks, in block (or announced) order.
#[derive(Debug, Clone, Default)]
pub(crate) struct SyncAttempt {
    epoch: u64,
    attempts: u32,
    anchor: Option<Hash256>,
    held: Option<Arc<Block>>,
    missing: Vec<Hash256>,
}

/// An announced id asked for and not yet received: the key of the
/// [`Want::Announced`] request that asks for it, and the neighbors that
/// announced it here, the first asked first and none that answered short.
#[derive(Debug, Clone)]
pub(crate) struct Pull {
    key: Hash256,
    announcers: Vec<NodeId>,
}

/// The ids a request for `want` asks for, of those it lacks: a held
/// block leaves out the bodies pulled after an announcement, whose replies
/// are on their way; a pull asks for every one.
fn askable<'a>(
    want: Want,
    missing: &'a [Hash256],
    pulls: &'a dcs_crypto::IdMap<Pull>, // dcs-lint: allow(hash-collections) — probed by id, never iterated
) -> impl Iterator<Item = &'a Hash256> {
    let pulling = matches!(want, Want::Announced(_));
    missing
        .iter()
        .filter(move |id| pulling || !pulls.contains_key(*id))
}

impl<M: StateMachine> NodeCore<M> {
    /// Serves a [`WireMsg::TxRequest`] with one [`WireMsg::BlockTxs`]: each
    /// body asked for, taken from the pool (a refcount bump) or, once the
    /// block `key` names has been imported here and its bodies left the
    /// pool, from the stored block. Announced bodies, whose key names no
    /// block, are served from the pool or, once on the canonical chain,
    /// from the tip block: an announced body leaves the pool for a block,
    /// most often the newest, before all its neighbors have pulled it. A
    /// body held nowhere so is left out; the asker moves on to another
    /// neighbor at once (see [`NodeCore::receive_bodies`]).
    pub(crate) fn handle_tx_request(
        &self,
        key: Hash256,
        ids: &[Hash256],
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
    ) {
        let body = |hash: &Hash256| self.chain.tree().get(hash).and_then(|sb| sb.body());
        let stored = body(&key);
        // Ids are asked in block order, so one forward walk of the stored
        // body serves every id the pool lacks.
        let mut in_block = stored.into_iter().flat_map(|body| client_txs(body));
        let tip = if stored.is_none() {
            body(&self.chain.tip_hash())
        } else {
            None
        };
        let txs = ids
            .iter()
            .filter_map(|id| {
                let pooled = self.mempool.get(id).cloned();
                pooled.or_else(|| {
                    let (tx, _) = match tip {
                        Some(tip) if self.marks.is_included(id) => {
                            client_txs(tip).find(|(_, stored_id)| *stored_id == id)
                        }
                        _ => in_block.find(|(_, stored_id)| *stored_id == id),
                    }?;
                    Some(SealedTx::from_parts(Arc::new(tx.clone()), *id))
                })
            })
            .collect();
        let msg = WireMsg::BlockTxs { key, txs };
        let size = wire_size(&msg);
        ctx.send(from, msg, size);
    }

    /// A [`WireMsg::TxAnnounce`] from `from`. The ids this peer has not
    /// seen and does not hold are asked of `from` in one
    /// [`WireMsg::TxRequest`] while the pool has room for every body in
    /// flight and fewer than [`MAX_PULLS`] are. The request is keyed by
    /// the first of them no live request is keyed by, so each is new (with
    /// none free, nothing is asked; a later announcement asks). An id
    /// already asked of another announcer is not asked twice; `from` is
    /// noted as a further place to ask.
    pub(crate) fn handle_announce(
        &mut self,
        ids: &[Hash256],
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
    ) {
        let mut asked: Vec<Hash256> = Vec::new();
        for &id in ids {
            if !self.lacks(&id) {
                continue;
            }
            if let Some(pull) = self.pulls.get_mut(&id) {
                if !pull.announcers.contains(&from) {
                    pull.announcers.push(from);
                }
                continue;
            }
            let in_flight = self.pulls.len() + asked.len();
            if in_flight >= MAX_PULLS || in_flight >= self.mempool.room() {
                break;
            }
            asked.push(id);
        }
        let free = |id: &&Hash256| !self.requests.contains_key(&Want::Announced(**id));
        let Some(&key) = asked.iter().find(free) else {
            return;
        };
        for &id in &asked {
            let announcers = vec![from];
            self.pulls.insert(id, Pull { key, announcers });
        }
        let want = Want::Announced(key);
        self.requests.entry(want).or_default().missing = asked;
        self.ask(want, from, 0, ctx);
    }

    /// True if body `id` is worth asking for: this peer has not seen it on
    /// the wire and does not hold it.
    fn lacks(&self, id: &Hash256) -> bool {
        !self.marks.is_seen(id) && !self.holds(id)
    }

    /// A body first seen, by whatever path: if it was asked for after an
    /// announcement, it is struck off that request, which ends once it
    /// lacks nothing. Returns the neighbors that announced it here (none
    /// if it was not asked for): they hold it.
    pub(crate) fn arrived(&mut self, id: &Hash256) -> Vec<NodeId> {
        if self.pulls.is_empty() {
            return Vec::new();
        }
        let Some(pull) = self.pulls.remove(id) else {
            return Vec::new();
        };
        let want = Want::Announced(pull.key);
        if let Some(attempt) = self.requests.get_mut(&want) {
            attempt.missing.retain(|m| m != id);
            if attempt.missing.is_empty() {
                self.requests.remove(&want);
            }
        }
        pull.announcers
    }

    /// A block named by ids (a relayed [`WireMsg::CompactBlock`] or a PBFT
    /// proposal) from `from`. One seen or held already is dropped; one
    /// whose every client body this peer holds is returned whole. Any other
    /// is held (unless [`MAX_HELD_BLOCKS`] are) and its missing bodies asked
    /// of `from` with one [`WireMsg::TxRequest`] (less those pulled after
    /// an announcement: their replies are on the way), retried like a page
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

    /// A [`WireMsg::BlockTxs`] reply. The bodies it carries are struck off
    /// the request it answers by id, so one that reached the pool between
    /// request and reply (and left the list then) does not make the reply
    /// look short. If it answers a held block: with nothing left missing,
    /// the block goes to the engine as [`Inbound::Block`]; with some left
    /// out that no pull brings, the request moves to the next neighbor at
    /// once. Those bodies are not pooled. If it answers announced bodies,
    /// each is handled as if gossiped in by `from` (pooled, announced on,
    /// completing held blocks), and the request ends, or on a short reply
    /// moves to the next announcer. A reply for no request in flight is
    /// late and dropped.
    pub(crate) fn receive_bodies(
        &mut self,
        key: Hash256,
        txs: Vec<SealedTx>,
        from: NodeId,
        ctx: &mut Ctx<'_, WireMsg>,
    ) -> Inbound {
        let want = if self.requests.contains_key(&Want::Bodies(key)) {
            Want::Bodies(key)
        } else {
            Want::Announced(key)
        };
        let Some(attempt) = self.requests.get_mut(&want) else {
            return Inbound::Handled;
        };
        let mut sent: Vec<Hash256> = txs.iter().map(SealedTx::id).collect();
        sent.sort_unstable();
        attempt.missing.retain(|id| sent.binary_search(id).is_err());
        if askable(want, &attempt.missing, &self.pulls)
            .next()
            .is_some()
        {
            if let Want::Announced(_) = want {
                // An announcer that answered short holds no more of them.
                for id in &attempt.missing {
                    if let Some(pull) = self.pulls.get_mut(id) {
                        pull.announcers.retain(|&peer| peer != from);
                    }
                }
            }
            self.retry(want, ctx);
        } else if attempt.missing.is_empty() {
            if let Some(block) = self.requests.remove(&want).and_then(|a| a.held) {
                return Inbound::Block(block);
            }
        }
        if let Want::Bodies(_) = want {
            return Inbound::Handled;
        }
        let (mut fresh, mut completed) = (false, Vec::new());
        for tx in txs {
            let id = tx.id();
            if self.handle_tx(tx, from, ctx) {
                fresh = true;
                completed.extend(self.pooled(&id));
            }
        }
        Inbound::Tx { fresh, completed }
    }

    /// Ends a request: the table forgets it, and an [`Want::Announced`]
    /// one's ids are free to be asked again.
    fn end(&mut self, want: Want) {
        let Some(attempt) = self.requests.remove(&want) else {
            return;
        };
        if let Want::Announced(_) = want {
            for id in &attempt.missing {
                self.pulls.remove(id);
            }
        }
    }

    /// Strikes off a pull the ids this peer no longer lacks (a block
    /// brought them, or the pool took them back), freeing them.
    fn prune_pull(&mut self, want: Want) {
        let Some(attempt) = self.requests.get_mut(&want) else {
            return;
        };
        let missing = std::mem::take(&mut attempt.missing);
        let (kept, gone): (Vec<Hash256>, Vec<Hash256>) =
            missing.into_iter().partition(|id| self.lacks(id));
        for id in &gone {
            self.pulls.remove(id);
        }
        if let Some(attempt) = self.requests.get_mut(&want) {
            attempt.missing = kept;
        }
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
            Want::Announced(key) | Want::Bodies(key) => WireMsg::TxRequest {
                key,
                ids: askable(want, &attempt.missing, &self.pulls)
                    .copied()
                    .collect(),
            },
        };
        if !matches!(&msg, WireMsg::TxRequest { ids, .. } if ids.is_empty()) {
            let size = wire_size(&msg);
            ctx.send(peer, msg, size);
        }
        let delay = SYNC_RETRY_BASE_US << attempts.min(6);
        ctx.set_timer(SimDuration::from_micros(delay), TAG_SYNC | self.sync_epoch);
    }

    /// Re-sends an outstanding request to the next neighbor (round-robin;
    /// for announced bodies, the next announcer that has not answered
    /// short, asking only for what this peer still lacks), or gives up:
    /// when the held block it wants bodies for is already stored, when no
    /// announced body is still lacked, after [`MAX_SYNC_ATTEMPTS`] retries,
    /// or with no one left to ask. A retry is not a new catch-up round.
    /// Gossip of a later descendant, or a later announcement, re-triggers a
    /// request given up on.
    fn retry(&mut self, want: Want, ctx: &mut Ctx<'_, WireMsg>) {
        if let Want::Announced(_) = want {
            self.prune_pull(want);
        }
        let Some(attempt) = self.requests.get(&want) else {
            return;
        };
        let attempts = attempt.attempts + 1;
        let announcers;
        let peers = match want {
            Want::Announced(_) => {
                announcers = self.announcers_of(&attempt.missing);
                &announcers[..]
            }
            _ => ctx.neighbors,
        };
        let done = match want {
            Want::Bodies(hash) => self.chain.tree().contains(&hash),
            Want::Announced(_) => attempt.missing.is_empty(),
            Want::Range => false,
        };
        if done || attempts > MAX_SYNC_ATTEMPTS || peers.is_empty() {
            self.end(want);
            return;
        }
        self.sync_retries += 1;
        let peer = peers[attempts as usize % peers.len()];
        self.ask(want, peer, attempts, ctx);
    }

    /// The neighbors that announced any of `ids` and have not answered
    /// short, in the order they announced.
    fn announcers_of(&self, ids: &[Hash256]) -> Vec<NodeId> {
        let mut peers = Vec::new();
        for pull in ids.iter().filter_map(|id| self.pulls.get(id)) {
            for &peer in &pull.announcers {
                if !peers.contains(&peer) {
                    peers.push(peer);
                }
            }
        }
        peers
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
    /// and announcement namespaces — that timer is the engine's. These are
    /// consumed here: the flush sends the queued announcements; a sync
    /// timer whose request is still outstanding re-sends it with doubled
    /// backoff to the next neighbor (for announced bodies, the next
    /// announcer). Stale epochs are ignored.
    pub fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, WireMsg>) -> bool {
        let epoch = tag & !TAG_KIND_MASK;
        match tag & TAG_KIND_MASK {
            TAG_FLUSH => self.flush_announcements(ctx),
            TAG_SYNC => {
                let want = self
                    .requests
                    .iter()
                    .find(|(_, a)| a.epoch == epoch)
                    .map(|(want, _)| *want);
                if let Some(want) = want {
                    self.retry(want, ctx);
                }
            }
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{block_on, large, new_node, step, step_at, tx};
    use dcs_chain::{Chain, ChainEvent, NullMachine};
    use dcs_net::Action;
    use dcs_primitives::{ChainConfig, Transaction};
    use dcs_sim::SimTime;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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
                Action::Timer { tag, .. } if tag & TAG_KIND_MASK == TAG_SYNC => Some(*tag),
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
        let [(NodeId(1), WireMsg::TxRequest { key: block, ids })] = asked.as_slice() else {
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
            key: lacking.hash(),
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
        let ask = |block: Hash256, ids: Vec<Hash256>| WireMsg::TxRequest { key: block, ids };

        let (_, actions) = engine(&mut node, 1, ask(stored.hash(), vec![a.id(), b.id()]));
        let served = sends(actions);
        let [(NodeId(1), WireMsg::BlockTxs { key: block, txs })] = served.as_slice() else {
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
            key: lacking.hash(),
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
            key: lacking.hash(),
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

    /// A body that reaches the pool between a held block's request and its
    /// reply is struck off already; the full reply completes the block and
    /// is not taken for a short one, so nobody else is asked for it.
    #[test]
    fn a_body_pooled_before_the_reply_does_not_make_it_short() {
        let (mut node, g) = new_node();
        let lacking = block_on(&g, 1, vec![tx(1), tx(2)]);
        engine(&mut node, 1, compact(&lacking));
        let (verdict, _) = engine(&mut node, 2, WireMsg::Tx(sealed(&tx(1))));
        assert_eq!(verdict, None, "one body still missing");
        let reply = WireMsg::BlockTxs {
            key: lacking.hash(),
            txs: vec![sealed(&tx(1)), sealed(&tx(2))],
        };
        let (verdict, actions) = engine(&mut node, 1, reply);
        let retried: Vec<(NodeId, WireMsg)> = sends(actions)
            .into_iter()
            .filter(|(_, m)| matches!(m, WireMsg::TxRequest { .. }))
            .collect();
        assert!(retried.is_empty(), "retried: {retried:?}");
        assert!(matches!(verdict, Some(Some(ChainEvent::Extended { .. }))));
        assert_eq!(node.sync_retries, 0);
    }

    /// The requests among `actions`, as (destination, key, ids).
    fn requests(actions: Vec<Action<WireMsg>>) -> Vec<(NodeId, Hash256, Vec<Hash256>)> {
        sends(actions)
            .into_iter()
            .filter_map(|(to, m)| match m {
                WireMsg::TxRequest { key, ids } => Some((to, key, ids)),
                _ => None,
            })
            .collect()
    }

    fn announce(ids: &[&Transaction]) -> WireMsg {
        WireMsg::TxAnnounce {
            ids: ids.iter().map(|t| t.id()).collect(),
        }
    }

    /// Announced bodies the peer lacks are asked of the first announcer in
    /// one request, and an id in flight is not asked again of a later
    /// announcer; one pooled already is not asked at all. The one
    /// reply pools them as if gossiped in by the announcer: a held block
    /// they complete reaches the engine, and they are announced on to every
    /// neighbor but those that announced them here.
    #[test]
    fn announced_bodies_are_pulled_once_from_the_first_announcer() {
        let (mut node, g) = new_node();
        let (a, b, c, d, pooled) = (large(1), large(2), large(3), large(5), large(4));
        node.mempool.insert(sealed(&pooled));
        let (_, actions) = engine(&mut node, 1, announce(&[&a, &b, &d, &pooled]));
        assert_eq!(
            requests(actions),
            vec![(NodeId(1), a.id(), vec![a.id(), b.id(), d.id()])]
        );
        let (_, actions) = engine(&mut node, 2, announce(&[&b, &c]));
        assert_eq!(
            requests(actions),
            vec![(NodeId(2), c.id(), vec![c.id()])],
            "b is on its way already"
        );
        let held = block_on(&g, 1, vec![a.clone()]);
        let (verdict, _) = engine(&mut node, 2, compact(&held));
        assert_eq!(verdict, None, "held for a");

        let reply = WireMsg::BlockTxs {
            key: a.id(),
            txs: vec![sealed(&a), sealed(&b), sealed(&d)],
        };
        let (verdict, actions) = engine(&mut node, 1, reply);
        assert!(matches!(verdict, Some(Some(ChainEvent::Extended { .. }))));
        assert!(node.mempool.contains(&b.id()));
        let flush = actions
            .iter()
            .any(|a| matches!(a, Action::Timer { tag, .. } if *tag == TAG_FLUSH));
        assert!(flush, "pulled bodies are announced on");
        let announced = sends(step(
            &mut node,
            |n, ctx| assert!(n.on_timer(TAG_FLUSH, ctx)),
        ));
        let [(NodeId(2), WireMsg::TxAnnounce { ids })] = announced.as_slice() else {
            panic!("expected one announcement, to the other neighbor, got {announced:?}");
        };
        assert_eq!(ids, &vec![d.id()], "a left the pool, and 2 announced b");
        assert_eq!(node.requests.len(), 1, "only c is still asked for");
        assert_eq!(node.sync_retries, 0);
    }

    /// A pull whose reply is lost is re-asked of the next announcer when
    /// its retry timer fires; one answered short moves on at once, to an
    /// announcer that has not answered short, and only for what the peer
    /// still lacks. With nothing left lacking, the request ends quietly.
    #[test]
    fn a_lost_or_short_pull_re_asks_another_announcer() {
        let (mut node, g) = new_node();
        let (a, b) = (large(1), large(2));
        let (_, actions) = engine(&mut node, 1, announce(&[&a, &b]));
        let timers = sync_timer_tags(&actions);
        assert_eq!(timers.len(), 1, "one retry timer guards the pull");
        engine(&mut node, 2, announce(&[&a, &b]));

        let retried = step(&mut node, |n, ctx| assert!(n.on_timer(timers[0], ctx)));
        assert_eq!(
            requests(retried),
            vec![(NodeId(2), a.id(), vec![a.id(), b.id()])]
        );

        // b reaches the chain some other way; 2 answers with neither.
        node.ingest_block(block_on(&g, 1, vec![b.clone()])).unwrap();
        let short = WireMsg::BlockTxs {
            key: a.id(),
            txs: vec![],
        };
        let (_, actions) = engine(&mut node, 2, short.clone());
        assert_eq!(
            requests(actions),
            vec![(NodeId(1), a.id(), vec![a.id()])],
            "back to 1, for a alone"
        );
        assert_eq!(node.sync_retries, 2);

        // 1 answers short too: nobody is left to ask.
        let (_, actions) = engine(&mut node, 1, short);
        assert!(requests(actions).is_empty());
        assert!(node.requests.is_empty() && node.pulls.is_empty());
        // A later announcement asks again.
        let (_, actions) = engine(&mut node, 2, announce(&[&a]));
        assert_eq!(requests(actions), vec![(NodeId(2), a.id(), vec![a.id()])]);
    }

    /// A held block does not ask again for a body already pulled after an
    /// announcement: its request names the rest, a reply with the rest
    /// is not short, and the pulled body completes the block. With every
    /// missing body pulled, the block asks nothing and waits on its timer.
    #[test]
    fn a_held_block_leaves_a_pulled_body_to_its_pull() {
        let (mut node, g) = new_node();
        let (a, b) = (large(1), large(2));
        engine(&mut node, 1, announce(&[&a]));
        let held = block_on(&g, 1, vec![a.clone(), b.clone()]);
        let (_, actions) = engine(&mut node, 2, compact(&held));
        assert_eq!(
            requests(actions),
            vec![(NodeId(2), held.hash(), vec![b.id()])]
        );
        let rest = WireMsg::BlockTxs {
            key: held.hash(),
            txs: vec![sealed(&b)],
        };
        let (verdict, actions) = engine(&mut node, 2, rest);
        assert_eq!(verdict, None, "a is still on its way");
        assert!(requests(actions).is_empty(), "not short");
        let pulled = WireMsg::BlockTxs {
            key: a.id(),
            txs: vec![sealed(&a)],
        };
        let (verdict, _) = engine(&mut node, 1, pulled);
        assert!(matches!(verdict, Some(Some(ChainEvent::Extended { .. }))));
        assert!(node.requests.is_empty() && node.pulls.is_empty());

        let (mut node, g) = new_node();
        engine(&mut node, 1, announce(&[&a]));
        let (_, actions) = engine(&mut node, 2, compact(&block_on(&g, 1, vec![a.clone()])));
        assert_eq!(sync_timer_tags(&actions).len(), 1);
        assert!(requests(actions).is_empty());
        assert_eq!(node.sync_retries, 0);
    }

    /// An announced body that left the pool for the tip block since it was
    /// announced is still served; one held nowhere is left out.
    #[test]
    fn an_announced_body_in_the_tip_block_is_still_served() {
        let (mut node, g) = new_node();
        let (a, never) = (large(1), large(2));
        node.mempool.insert(sealed(&a));
        node.ingest_block(block_on(&g, 1, vec![a.clone()])).unwrap();
        assert!(!node.mempool.contains(&a.id()));
        let request = WireMsg::TxRequest {
            key: a.id(),
            ids: vec![a.id(), never.id()],
        };
        let (_, actions) = engine(&mut node, 1, request);
        let replies = sends(actions);
        let [(NodeId(1), WireMsg::BlockTxs { key, txs })] = replies.as_slice() else {
            panic!("expected one reply, got {replies:?}");
        };
        assert_eq!(*key, a.id());
        assert_eq!(
            txs.iter().map(SealedTx::id).collect::<Vec<_>>(),
            vec![a.id()]
        );
    }

    /// A pool without room asks for nothing; an id a block brought is not
    /// lacked.
    #[test]
    fn a_full_pool_pulls_nothing() {
        let (mut node, _) = new_node();
        node.mempool = crate::Mempool::new(1);
        node.mempool.insert(sealed(&tx(9)));
        let (_, actions) = engine(&mut node, 1, announce(&[&large(1)]));
        assert!(requests(actions).is_empty());
        assert!(node.pulls.is_empty());
    }

    /// A restart forgets queued announcements and pulls: a flush or retry
    /// timer that fired while the peer was down is lost, so the peer arms
    /// fresh ones for what it takes after the restart, and a retry timer
    /// armed before the crash is stale.
    #[test]
    fn a_restart_forgets_announcements_and_pulls_and_arms_afresh() {
        let (mut node, _) = new_node();
        engine(&mut node, 1, WireMsg::Tx(sealed(&large(1))));
        let (_, actions) = engine(&mut node, 1, announce(&[&large(2)]));
        let old_retry = sync_timer_tags(&actions)[0];
        assert_eq!(requests(actions).len(), 1);

        node.rebuild_from_store();
        assert!(node.announce.is_empty() && node.pulls.is_empty() && node.requests.is_empty());
        let (_, actions) = engine(&mut node, 1, WireMsg::Tx(sealed(&large(3))));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Timer { tag, .. } if *tag == TAG_FLUSH)),
            "a fresh flush"
        );
        let (_, actions) = engine(&mut node, 2, announce(&[&large(2)]));
        assert_eq!(requests(actions).len(), 1, "asked again");
        let late = SimTime::ZERO + SimDuration::from_secs(60);
        let stale = step_at(
            &mut node,
            late,
            |n, ctx| assert!(n.on_timer(old_retry, ctx)),
        );
        assert!(stale.is_empty(), "the pre-crash retry timer is stale");
    }

    /// A few peer cores wired as a ring plus `chords`, with the messages
    /// and timers their steps left in flight, and a tally of the bodies
    /// handed to each peer.
    struct Mesh {
        peers: Vec<NodeCore<NullMachine>>,
        neighbors: Vec<Vec<NodeId>>,
        /// (to, from, message).
        wire: Vec<(usize, usize, WireMsg)>,
        /// (peer, tag).
        timers: Vec<(usize, u64)>,
        bodies_in: BTreeMap<(usize, Hash256), u32>,
    }

    impl Mesh {
        fn new(n: usize, chords: &[(usize, usize)]) -> Self {
            let mut links = BTreeSet::new();
            let ring = (0..n).map(|i| (i, (i + 1) % n));
            for (a, b) in ring.chain(chords.iter().map(|&(a, b)| (a % n, b % n))) {
                if a != b {
                    links.insert((a.min(b), a.max(b)));
                }
            }
            let mut neighbors = vec![Vec::new(); n];
            for &(a, b) in &links {
                neighbors[a].push(NodeId(b));
                neighbors[b].push(NodeId(a));
            }
            let peers = (0..n)
                .map(|i| {
                    let (mut node, _) = new_node();
                    node.id = NodeId(i);
                    node
                })
                .collect();
            Mesh {
                peers,
                neighbors,
                wire: Vec::new(),
                timers: Vec::new(),
                bodies_in: BTreeMap::new(),
            }
        }

        /// Runs `f` on peer `at`, putting what it sends and arms in flight.
        fn act(
            &mut self,
            at: usize,
            f: impl FnOnce(&mut NodeCore<NullMachine>, &mut Ctx<'_, WireMsg>),
        ) {
            let mut rng = dcs_sim::Rng::seed_from(1);
            let mut actions = Vec::new();
            let neighbors = &self.neighbors[at];
            let mut ctx = Ctx::new(NodeId(at), SimTime::ZERO, neighbors, &mut rng, &mut actions);
            f(&mut self.peers[at], &mut ctx);
            for action in actions {
                match action {
                    Action::Send { to, msg, .. } => self.wire.push((to.0, at, msg)),
                    Action::Timer { tag, .. } => self.timers.push((at, tag)),
                }
            }
        }

        /// Delivers one message as a gossip engine takes it.
        fn deliver(&mut self, to: usize, from: usize, msg: WireMsg) {
            let bodies = match &msg {
                WireMsg::Tx(tx) => vec![tx.id()],
                WireMsg::BlockTxs { txs, .. } => txs.iter().map(SealedTx::id).collect(),
                _ => vec![],
            };
            for id in bodies {
                *self.bodies_in.entry((to, id)).or_default() += 1;
            }
            self.act(to, |n, ctx| {
                for block in n.on_message(NodeId(from), msg, ctx).blocks() {
                    n.handle_block(block, Some(NodeId(from)), ctx);
                }
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Announce-and-pull leaves every pool holding what a flood would.
        /// A few peers on a ring with chords, unbounded pools, bodies large
        /// and small handed to random peers, and messages and flushes taken
        /// in a random order: a flood over a connected overlay pools every
        /// body at every peer, and so does this. On a loss-free run every
        /// pull ends, and a large body reaches a peer once, or twice when a
        /// pull outran the push from the peer a client handed it to.
        #[test]
        fn announce_and_pull_pools_what_a_flood_pools(
            peers in 3usize..7,
            chords in proptest::collection::vec((0usize..7, 0usize..7), 0..4),
            bodies in proptest::collection::vec((any::<bool>(), 0usize..7), 1..10),
            order in proptest::collection::vec(0usize..1_000, 1..64),
        ) {
            let mut mesh = Mesh::new(peers, &chords);
            let mut all = BTreeSet::new();
            for (i, &(big, contact)) in bodies.iter().enumerate() {
                let body = if big { large(i as u64) } else { tx(i as u64) };
                all.insert(body.id());
                let at = contact % peers;
                mesh.wire.push((at, at, WireMsg::Tx(sealed(&body))));
            }
            for &turn in order.iter().cycle().take(100_000) {
                // A flush may fire while messages wait; a retry timer only
                // once none does: on a loss-free run every reply beats it.
                let flush = mesh.timers.iter().position(|&(_, tag)| tag == TAG_FLUSH);
                let fire = match flush {
                    Some(i) if turn % 4 == 0 || mesh.wire.is_empty() => Some(i),
                    _ if mesh.wire.is_empty() => (!mesh.timers.is_empty()).then_some(0),
                    _ => None,
                };
                if let Some(i) = fire {
                    let (at, tag) = mesh.timers.remove(i);
                    mesh.act(at, |n, ctx| assert!(n.on_timer(tag, ctx)));
                } else if mesh.wire.is_empty() {
                    break;
                } else {
                    let (to, from, msg) = mesh.wire.remove(turn % mesh.wire.len());
                    mesh.deliver(to, from, msg);
                }
            }
            prop_assert!(mesh.wire.is_empty() && mesh.timers.is_empty(), "a pull never ended");
            for (i, peer) in mesh.peers.iter().enumerate() {
                let pooled: BTreeSet<Hash256> =
                    all.iter().copied().filter(|id| peer.mempool.contains(id)).collect();
                prop_assert_eq!(&pooled, &all, "peer {}", i);
                prop_assert!(peer.requests.is_empty() && peer.pulls.is_empty());
                prop_assert_eq!(peer.sync_retries, 0);
            }
            // A neighbor of the peer a client handed a large body to may
            // pull it before the push arrives; nobody else gets it twice.
            for (i, &(big, contact)) in bodies.iter().enumerate() {
                let id = if big { large(i as u64) } else { tx(i as u64) }.id();
                let pushed_to = &mesh.neighbors[contact % peers];
                for peer in 0..peers {
                    let got = mesh.bodies_in.get(&(peer, id)).copied().unwrap_or(0);
                    let most = 1 + u32::from(pushed_to.contains(&NodeId(peer)));
                    prop_assert!(got >= 1);
                    prop_assert!(!big || got <= most, "peer {} got a large body {} times", peer, got);
                }
            }
        }

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
                let request = WireMsg::TxRequest { key: block.hash(), ids: asked[0].clone() };
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
