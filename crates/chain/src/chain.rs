//! The chain manager: owns the block tree, a fork-choice rule, and an
//! application [`StateMachine`], and keeps the machine's state exactly in
//! sync with the currently selected branch — reverting and re-applying
//! blocks across reorgs. This is the component that delivers the paper's
//! consistency property ("the blockchain data should be exactly identical at
//! all peers", §2.7): every peer running the same rule over the same block
//! set lands on the same canonical chain and state root.

use crate::forkchoice::best_tip_with;
use crate::store::{BlockStore, BlockTree, StoredBlock};
use crate::ChainError;
use dcs_crypto::Hash256;
use dcs_primitives::{Block, ChainConfig, Receipt, Transaction};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// The application layer beneath the chain: applies blocks to mutable state
/// and can revert them. This is the platform's equivalent of the ABCI
/// interface the paper cites for blockchain middleware (§5.2, \[29\]).
pub trait StateMachine: core::fmt::Debug {
    /// Opaque undo token for one applied block.
    type Undo: core::fmt::Debug;

    /// Applies all transactions of `block`, returning receipts and an undo
    /// token.
    ///
    /// # Errors
    ///
    /// A human-readable reason if any transaction is invalid; the machine
    /// must be left unchanged in that case.
    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, Self::Undo), String>;

    /// Reverts a previously applied block given its undo token. Undo tokens
    /// are always presented in exact LIFO order.
    fn revert_block(&mut self, undo: Self::Undo);

    /// Returns the machine to its state before its first
    /// [`StateMachine::apply_block`] — the base a replay of stored blocks
    /// starts from, when a revert reaches below the undo records the chain
    /// keeps. Undo tokens issued before the reset are never presented again.
    fn reset(&mut self);

    /// The authenticated root of the current state, compared against header
    /// commitments when they are present.
    fn state_root(&self) -> Hash256;
}

/// A state machine that accepts everything and keeps no state; used for
/// consensus-only experiments where transaction semantics don't matter.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMachine;

impl StateMachine for NullMachine {
    type Undo = ();

    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, ()), String> {
        let receipts = block
            .tx_ids()
            .iter()
            .copied()
            .map(Receipt::success)
            .collect();
        Ok((receipts, ()))
    }

    fn revert_block(&mut self, _undo: ()) {}

    fn reset(&mut self) {}

    fn state_root(&self) -> Hash256 {
        Hash256::ZERO
    }
}

/// What happened as a result of importing a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainEvent {
    /// The canonical chain grew by exactly this block.
    Extended {
        /// Hash of the new tip.
        block: Hash256,
    },
    /// The canonical chain switched branches.
    Reorg {
        /// Blocks reverted from the old branch.
        reverted: u64,
        /// Blocks applied from the new branch.
        applied: u64,
        /// New tip hash.
        new_tip: Hash256,
    },
    /// The block joined a non-canonical branch (a "stale"/"uncle" block).
    SideChain {
        /// Hash of the side-chain block.
        block: Hash256,
    },
    /// The block's parent is unknown; it waits in the orphan pool.
    Orphaned,
}

impl ChainEvent {
    /// True if the canonical tip changed — whatever a peer was building on
    /// the old tip is stale.
    pub fn moved_tip(&self) -> bool {
        matches!(self, ChainEvent::Extended { .. } | ChainEvent::Reorg { .. })
    }
}

/// Cumulative consistency statistics — the raw material of experiments E2,
/// E4, and E13.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Branch switches observed.
    pub reorgs: u64,
    /// Deepest revert observed.
    pub max_reorg_depth: u64,
    /// Total blocks reverted across all reorgs.
    pub blocks_reverted: u64,
    /// Blocks that failed state validation.
    pub invalid_blocks: u64,
    /// Orphans evicted by the pool cap (see
    /// [`BlockTree::set_orphan_cap`](crate::BlockTree::set_orphan_cap)).
    pub orphans_evicted: u64,
    /// Unblocked orphans rejected by structural checks.
    pub orphans_rejected: u64,
    /// Histogram of revert depths: `reorg_depth_hist[d]` counts reorgs that
    /// reverted exactly `d` blocks (depth ≥ 15 lands in the last bucket).
    pub reorg_depth_hist: [u64; 16],
    /// Broken internal invariants survived at runtime (e.g. a canonical
    /// hash missing from the store). Always 0 in a healthy run; the
    /// determinism harness asserts it stays that way.
    pub internal_errors: u64,
}

/// Incrementally maintained statistics about the *current* canonical chain,
/// updated by O(delta) work on every apply/revert instead of a full-chain
/// walk at query time. Genesis is excluded (it carries only a zero-value
/// coinbase).
///
/// Invariant: after every import, these totals are exactly what a fresh
/// walk of [`Chain::canonical`] would produce — reorgs shed the abandoned
/// branch's contribution and absorb the new branch's, and the invalid-block
/// recovery path restores the old branch's contribution along with its
/// state. The store proptests pin this equivalence across retention settings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CanonStats {
    /// Canonical blocks above genesis.
    pub blocks: u64,
    /// Committed transactions on the canonical chain, coinbases excluded —
    /// the numerator of every throughput metric.
    pub committed_txs: u64,
    /// Total fees offered by canonical transactions.
    pub total_fees: u128,
    /// Per-canonical-block contribution, so a revert can subtract exactly
    /// what the apply added without re-reading the body.
    per_block: dcs_crypto::IdMap<BlockDelta>, // dcs-lint: allow(hash-collections) — probed by hash, never iterated
}

/// One canonical block's contribution to [`CanonStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockDelta {
    txs: u32,
    fees: u128,
}

impl CanonStats {
    fn absorb(&mut self, hash: Hash256, block: &Block) {
        let delta = BlockDelta {
            txs: block
                .txs
                .iter()
                .filter(|t| !matches!(t, Transaction::Coinbase { .. }))
                .count() as u32,
            fees: u128::from(block.offered_fees()),
        };
        self.blocks += 1;
        self.committed_txs += u64::from(delta.txs);
        self.total_fees += delta.fees;
        self.per_block.insert(hash, delta);
    }

    /// Removes one block's contribution; `false` if it was never absorbed
    /// (a broken invariant the caller counts instead of panicking on).
    fn shed(&mut self, hash: &Hash256) -> bool {
        let Some(delta) = self.per_block.remove(hash) else {
            return false;
        };
        self.blocks -= 1;
        self.committed_txs -= u64::from(delta.txs);
        self.total_fees -= delta.fees;
        true
    }

    /// Committed (non-coinbase) transactions in the given canonical block;
    /// `None` if the block is not canonical (or is genesis).
    pub fn block_txs(&self, hash: &Hash256) -> Option<u32> {
        self.per_block.get(hash).map(|d| d.txs)
    }
}

/// The chain manager. See the crate docs for an example.
#[derive(Debug)]
pub struct Chain<M: StateMachine> {
    tree: BlockTree,
    config: ChainConfig,
    machine: M,
    canonical: Vec<Hash256>,
    /// Undo records of the top `undos.len()` canonical blocks, oldest
    /// first. A block's record goes once the block is `confirmation_depth`
    /// deep; a revert below the records resets the machine and replays the
    /// canonical prefix from stored bodies.
    undos: VecDeque<M::Undo>,
    receipts: Vec<(Hash256, Vec<Receipt>)>,
    /// Blocks that failed state validation and every stored block under
    /// one: closed under descent, so viability is a single probe.
    invalid: BTreeSet<Hash256>,
    stats: ChainStats,
    canon_stats: CanonStats,
    /// When true, `Seal::Work` headers must actually hash below their
    /// difficulty target (real grinding; used by low-difficulty tests).
    pub check_pow_hash: bool,
    /// When true, blocks exceeding the local `block_tx_limit` are rejected —
    /// the node-version-dependent rule behind hard forks (§3.1).
    pub enforce_block_limit: bool,
}

impl<M: StateMachine> Chain<M> {
    /// Creates an archival chain at `genesis` with the given config and
    /// machine.
    pub fn new(genesis: impl Into<Arc<Block>>, config: ChainConfig, machine: M) -> Self {
        Self::with_store(genesis, config, machine, BlockStore::default())
    }

    /// Creates a chain over the given store — e.g.
    /// [`PrunedStore::new`](crate::PrunedStore::new) for a body-pruning
    /// node.
    pub fn with_store(
        genesis: impl Into<Arc<Block>>,
        config: ChainConfig,
        machine: M,
        store: BlockStore,
    ) -> Self {
        let tree = BlockTree::with_store(genesis, store);
        let gh = tree.genesis();
        Chain {
            tree,
            config,
            machine,
            canonical: vec![gh],
            undos: VecDeque::new(),
            receipts: Vec::new(),
            invalid: BTreeSet::new(),
            stats: ChainStats::default(),
            canon_stats: CanonStats::default(),
            check_pow_hash: false,
            enforce_block_limit: false,
        }
    }

    /// The underlying block tree.
    pub fn tree(&self) -> &BlockTree {
        &self.tree
    }

    /// The chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// The application state machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Mutable access to the application state machine (read-only queries
    /// that need `&mut` internally, test setup).
    pub fn machine_mut(&mut self) -> &mut M {
        &mut self.machine
    }

    /// Current tip hash.
    pub fn tip_hash(&self) -> Hash256 {
        // `canonical` starts at genesis and pops never reach below it.
        self.canonical
            .last()
            .copied()
            .unwrap_or_else(|| self.tree.genesis())
    }

    /// Current tip block.
    pub fn tip(&self) -> &Block {
        // Genesis is always stored, and `tip_hash` falls back to it.
        self.tree.get(&self.tip_hash()).expect("tip stored").block() // dcs-lint: allow(panic-path)
    }

    /// Height of the canonical tip.
    pub fn height(&self) -> u64 {
        self.canonical.len() as u64 - 1
    }

    /// The finalized height: the tip height less `confirmation_depth`,
    /// never below genesis. Blocks at or under it are final — their undo
    /// records are gone and a pruning store may drop their bodies.
    pub fn finalized_height(&self) -> u64 {
        self.height().saturating_sub(self.config.confirmation_depth)
    }

    /// The canonical hash at `height`, if within the chain.
    pub fn canonical_at(&self, height: u64) -> Option<Hash256> {
        self.canonical.get(height as usize).copied()
    }

    /// The full canonical chain, genesis first.
    pub fn canonical(&self) -> &[Hash256] {
        &self.canonical
    }

    /// True if `hash` is on the canonical chain.
    pub fn is_canonical(&self, hash: &Hash256) -> bool {
        self.tree
            .get(hash)
            .is_some_and(|sb| self.canonical_at(sb.height()) == Some(*hash))
    }

    /// Consistency statistics so far (orphan-pool counters folded in from
    /// the tree).
    pub fn stats(&self) -> ChainStats {
        let mut stats = self.stats;
        stats.orphans_evicted = self.tree.orphans_evicted();
        stats.orphans_rejected = self.tree.orphans_rejected();
        stats
    }

    /// Incremental statistics about the current canonical chain — O(1) at
    /// query time where a naive implementation walks every canonical body.
    pub fn canon_stats(&self) -> &CanonStats {
        &self.canon_stats
    }

    /// The non-viable blocks: every block that failed state validation and
    /// every stored descendant of one. Fork choice never selects these.
    pub fn invalid(&self) -> &BTreeSet<Hash256> {
        &self.invalid
    }

    /// Blocks in the tree that are not on the canonical chain (the paper's
    /// "branches"; Ethereum's uncles). Orphans are not counted.
    pub fn stale_blocks(&self) -> u64 {
        self.tree.len() as u64 - self.canonical.len() as u64
    }

    /// Receipts for every canonical block applied so far, in application
    /// order, drained by the caller (the middleware event bus consumes
    /// these).
    pub fn drain_receipts(&mut self) -> Vec<(Hash256, Vec<Receipt>)> {
        std::mem::take(&mut self.receipts)
    }

    /// A Bitcoin-style block locator: canonical hashes sampled newest
    /// first, dense for the most recent ten then at exponentially growing
    /// gaps, always ending at genesis. A peer receiving this finds the
    /// highest entry on its own canonical chain — the sync common ancestor —
    /// in O(log chain) entries regardless of how far the asker is behind.
    pub fn locator(&self) -> Vec<Hash256> {
        let mut locator = Vec::new();
        let mut step = 1u64;
        let mut h = self.height();
        loop {
            if let Some(hash) = self.canonical_at(h) {
                locator.push(hash);
            }
            if h == 0 {
                break;
            }
            if locator.len() >= 10 {
                step = step.saturating_mul(2);
            }
            h = h.saturating_sub(step);
        }
        locator
    }

    /// Serves a locator-based range request: finds the highest locator
    /// entry on this chain's canonical branch (falling back to genesis)
    /// and returns up to `max` consecutive canonical blocks above it,
    /// oldest first, plus this chain's tip height. Stops early at a body a
    /// pruning store dropped — an empty reply with a higher tip height
    /// tells the asker to re-target an archival peer.
    pub fn blocks_after(&self, locator: &[Hash256], max: usize) -> (Vec<Arc<Block>>, u64) {
        let start = locator
            .iter()
            .find(|h| self.is_canonical(h))
            .and_then(|h| self.tree.get(h).map(|sb| sb.height()))
            .unwrap_or(0);
        let mut blocks = Vec::new();
        for h in (start + 1)..=self.height() {
            if blocks.len() >= max {
                break;
            }
            let Some(body) = self
                .canonical_at(h)
                .and_then(|hash| self.tree.get(&hash).and_then(|sb| sb.body().cloned()))
            else {
                break;
            };
            blocks.push(body);
        }
        (blocks, self.height())
    }

    /// Cold-rebuilds the canonical state from the block store — the
    /// restart path after a crash: the store (headers, work, bodies) is
    /// the durable part of a node, while the state machine, undo records,
    /// and canonical index are in-memory and lost. Resets the machine to
    /// its state before its first block (a fresh `M::default()` would drop
    /// a genesis allocation), then re-runs fork choice over the stored tree
    /// and replays the winning branch. Consistency counters survive;
    /// receipts replayed here are discarded (they were delivered before
    /// the crash). The winning branch's bodies must be resident, which
    /// holds for archival stores.
    ///
    /// # Errors
    ///
    /// [`ChainError::Internal`] if the stored tree is inconsistent or a
    /// body to replay was pruned.
    pub fn rebuild_from_store(&mut self) -> Result<(), ChainError> {
        self.reset_to(0)?;
        // The one-shot genesis→tip apply below is replay, not new history:
        // keep the lifetime consistency stats as they were.
        let saved = self.stats;
        let result = self.update_head();
        self.stats = saved;
        self.receipts.clear();
        result.map(|_| ())
    }

    fn check_seal(&self, block: &Block) -> Result<(), ChainError> {
        if self.check_pow_hash && !block.header.meets_pow_target() {
            return Err(ChainError::BadSeal(
                "header hash does not meet its difficulty target".into(),
            ));
        }
        Ok(())
    }

    /// Node-local consensus-rule validation. This is where hard forks live
    /// (paper §3.1: "hard forks when new versions of blockchain code are
    /// incompatible with previous ones"): a node running an older rule set
    /// (e.g. a smaller `block_tx_limit`, cf. Segwit2x \[42\]) rejects blocks
    /// its peers accept, and the user base divides.
    fn check_rules(&self, block: &Block) -> Result<(), ChainError> {
        if self.enforce_block_limit && block.txs.len() > self.config.block_tx_limit + 1 {
            // +1: the coinbase rides on top of the client-tx limit.
            return Err(ChainError::BadTransaction(format!(
                "block carries {} transactions, local rule allows {}",
                block.txs.len(),
                self.config.block_tx_limit + 1
            )));
        }
        Ok(())
    }

    /// Imports a block: stores it, recomputes fork choice, and applies or
    /// reorgs the state machine as needed. Accepts either an owned
    /// [`Block`] or an [`Arc<Block>`]; in the latter case the block is
    /// shared with the tree at zero copies — gossip, storage, and serving
    /// all bump the same refcount.
    ///
    /// # Errors
    ///
    /// Structural errors ([`ChainError::Duplicate`], bad height/root/seal).
    /// `UnknownParent` is *not* an error here — the block is parked and
    /// [`ChainEvent::Orphaned`] is returned.
    pub fn import(&mut self, block: impl Into<Arc<Block>>) -> Result<ChainEvent, ChainError> {
        let block = block.into();
        self.check_seal(&block)?;
        self.check_rules(&block)?;
        let inserted = self.tree.insert_or_orphan(block)?;
        if inserted.is_empty() {
            return Ok(ChainEvent::Orphaned);
        }
        // A block stored under a non-viable parent is non-viable (parents
        // precede children in `inserted`).
        if !self.invalid.is_empty() {
            for hash in &inserted {
                let parent = self.tree.get(hash).map(|sb| sb.header().parent);
                if parent.is_some_and(|p| self.invalid.contains(&p)) {
                    self.invalid.insert(*hash);
                }
            }
        }
        let old_tip = self.tip_hash();
        let event = self.update_head()?;
        // If nothing changed, the imported block landed on a side branch.
        Ok(match event {
            Some(ev) => ev,
            None => {
                debug_assert_eq!(self.tip_hash(), old_tip);
                ChainEvent::SideChain { block: inserted[0] }
            }
        })
    }

    /// Pops the canonical tip, reverting the machine and shedding its stats
    /// contribution. Does not touch the block body, so reverts work even
    /// across bodies a pruning store has dropped.
    ///
    /// # Errors
    ///
    /// [`ChainError::Internal`] if the canonical/undo stacks are out of
    /// sync — a broken invariant that is reported, not panicked on.
    fn pop_canonical(&mut self) -> Result<(), ChainError> {
        let Some(hash) = self.canonical.pop() else {
            return Err(ChainError::Internal("revert reached below genesis"));
        };
        let Some(undo) = self.undos.pop_back() else {
            return Err(ChainError::Internal("canonical block without an undo"));
        };
        self.machine.revert_block(undo);
        if !self.canon_stats.shed(&hash) {
            self.stats.internal_errors += 1;
        }
        Ok(())
    }

    /// Reverts the canonical chain to `height`: block by block through the
    /// undo records where they reach that far, else by [`Chain::reset_to`].
    fn rewind_to(&mut self, height: u64) -> Result<(), ChainError> {
        if self.height().saturating_sub(self.undos.len() as u64) > height {
            return self.reset_to(height);
        }
        while self.height() > height {
            self.pop_canonical()?;
        }
        Ok(())
    }

    /// The cold path of a revert: drops the canonical blocks above `height`
    /// with their stats contribution, resets the machine, and replays the
    /// canonical blocks up to `height` from stored bodies. Replayed receipts
    /// are dropped (they were delivered when the blocks were first applied),
    /// and only the last `confirmation_depth` undo records are kept.
    ///
    /// # Errors
    ///
    /// [`ChainError::Internal`] if a body to replay was pruned, or a block
    /// that applied before fails now.
    fn reset_to(&mut self, height: u64) -> Result<(), ChainError> {
        for hash in self.canonical.split_off(height as usize + 1) {
            if !self.canon_stats.shed(&hash) {
                self.stats.internal_errors += 1;
            }
        }
        self.undos.clear();
        self.machine.reset();
        let window = usize::try_from(self.config.confirmation_depth).unwrap_or(usize::MAX);
        for hash in &self.canonical[1..] {
            let block = self
                .tree
                .get(hash)
                .and_then(StoredBlock::body)
                .ok_or(ChainError::Internal("replay needs a pruned body"))?;
            let (_, undo) = self
                .machine
                .apply_block(block)
                .map_err(|_| ChainError::Internal("a canonical block failed on replay"))?;
            self.undos.push_back(undo);
            if self.undos.len() > window {
                self.undos.pop_front();
            }
        }
        Ok(())
    }

    /// The hand-off at finality: a canonical block `confirmation_depth`
    /// deep loses its undo record, so the records cover the unfinalized
    /// window only.
    fn drop_final_undos(&mut self) {
        let window = self.height().min(self.config.confirmation_depth) as usize;
        let excess = self.undos.len().saturating_sub(window);
        self.undos.drain(..excess);
    }

    /// Marks `bad` and every stored descendant non-viable.
    fn poison(&mut self, bad: Hash256) {
        let mut stack = vec![bad];
        while let Some(hash) = stack.pop() {
            self.invalid.insert(hash);
            if let Some(sb) = self.tree.get(&hash) {
                stack.extend(&sb.children);
            }
        }
    }

    /// Applies `branch` (oldest first) on top of the canonical tip. A
    /// `fresh` branch is new history: its receipts are delivered, and the
    /// first block that fails (a refused transaction, or a state root that
    /// does not match its header) is returned with the machine left on its
    /// parent. A restored branch (`fresh = false`) applied before, delivers
    /// no receipts, and failing again is a broken invariant.
    ///
    /// # Errors
    ///
    /// [`ChainError::Internal`] if a block or its body is not stored, or a
    /// restored block fails.
    fn apply_branch(
        &mut self,
        branch: &[Hash256],
        fresh: bool,
    ) -> Result<Option<Hash256>, ChainError> {
        for hash in branch {
            // Refcount bump, not a body copy: applying a 10k-tx block costs
            // the same as a 0-tx block on this line.
            let block = Arc::clone(
                self.tree
                    .get(hash)
                    .ok_or(ChainError::Internal("branch block not stored"))?
                    .body()
                    .ok_or(ChainError::Internal("branch body pruned"))?,
            );
            // The header's state commitment is checked when present: a root
            // nothing reads is never computed.
            let root = block.header.state_root;
            let applied = match self.machine.apply_block(&block) {
                Ok(ok) if root == Hash256::ZERO || self.machine.state_root() == root => Some(ok),
                Ok((_, undo)) => {
                    self.machine.revert_block(undo);
                    None
                }
                Err(_) => None,
            };
            let Some((receipts, undo)) = applied else {
                if !fresh {
                    return Err(ChainError::Internal("a restored block failed again"));
                }
                return Ok(Some(*hash));
            };
            self.canonical.push(*hash);
            self.undos.push_back(undo);
            if fresh {
                self.receipts.push((*hash, receipts));
            }
            self.canon_stats.absorb(*hash, &block);
        }
        Ok(None)
    }

    /// Recomputes the best tip and moves the state machine onto it.
    /// Returns `None` if the head did not move. Fork choice walks nothing
    /// (the candidates are the tree's leaf set and viability is a probe of
    /// `invalid`, which [`Chain::import`] and [`Chain::poison`] keep closed
    /// under descent, and empty in every healthy run); the move walks only
    /// the branches it switches.
    fn update_head(&mut self) -> Result<Option<ChainEvent>, ChainError> {
        loop {
            let invalid = &self.invalid;
            let new_tip = best_tip_with(&self.tree, self.config.fork_choice, |h| {
                !invalid.contains(h)
            });
            let old_tip = self.tip_hash();
            if new_tip == old_tip {
                self.drop_final_undos();
                return Ok(None);
            }
            // The new branch: the new tip's ancestors above the first one on
            // the canonical chain (the common ancestor), walked tip-backwards.
            let mut branch = Vec::new();
            let anc_height = self
                .tree
                .ancestors(new_tip)
                .find_map(|sb| {
                    let on_chain = self.canonical_at(sb.height()) == Some(sb.hash());
                    if !on_chain {
                        branch.push(sb.hash());
                    }
                    on_chain.then(|| sb.height())
                })
                .ok_or(ChainError::Internal("new-branch block not stored"))?;
            branch.reverse();

            // Revert the old branch down to the ancestor, apply the new one.
            let reverted = self.height() - anc_height;
            self.rewind_to(anc_height)?;
            if let Some(bad) = self.apply_branch(&branch, true)? {
                // Poison the failing block and what is stored under it, roll
                // everything back to the ancestor, restore the old branch,
                // and retry fork choice.
                self.poison(bad);
                self.stats.invalid_blocks += 1;
                self.rewind_to(anc_height)?;
                let mut old_branch: Vec<Hash256> = self
                    .tree
                    .ancestors(old_tip)
                    .take(reverted as usize)
                    .map(StoredBlock::hash)
                    .collect();
                if old_branch.len() as u64 != reverted {
                    return Err(ChainError::Internal("old-branch block not stored"));
                }
                old_branch.reverse();
                self.apply_branch(&old_branch, false)?;
                continue; // re-run fork choice without the poisoned block
            }
            let applied = branch.len() as u64;

            let event = if reverted == 0 && applied == 1 {
                ChainEvent::Extended { block: new_tip }
            } else {
                self.stats.reorgs += 1;
                self.stats.max_reorg_depth = self.stats.max_reorg_depth.max(reverted);
                self.stats.blocks_reverted += reverted;
                self.stats.reorg_depth_hist[(reverted as usize).min(15)] += 1;
                ChainEvent::Reorg {
                    reverted,
                    applied,
                    new_tip,
                }
            };
            // The head moved: advance the store's finality horizon so a
            // pruning store can drop bodies `confirmation_depth` behind it,
            // and hand the blocks that became final off with their undos.
            self.tree.note_finalized(self.finalized_height());
            self.drop_final_undos();
            return Ok(Some(event));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PrunedStore;
    use dcs_crypto::Address;
    use dcs_primitives::{AccountTx, BlockHeader, Seal, Transaction};

    fn cfg() -> ChainConfig {
        ChainConfig::bitcoin_like()
    }

    fn child(parent: &Block, salt: u64) -> Block {
        Block::new(
            BlockHeader::new(
                parent.hash(),
                parent.header.height + 1,
                salt,
                Address::from_index(salt),
                Seal::None,
            ),
            vec![],
        )
    }

    fn new_chain() -> (Chain<NullMachine>, Block) {
        let g = crate::genesis_block(&cfg());
        (Chain::new(g.clone(), cfg(), NullMachine), g)
    }

    /// Recomputes [`CanonStats`] the slow way, for equivalence checks.
    fn recompute<M: StateMachine>(chain: &Chain<M>) -> CanonStats {
        let mut stats = CanonStats::default();
        for hash in chain.canonical().iter().skip(1) {
            let block = chain.tree().get(hash).unwrap().block();
            stats.absorb(*hash, block);
        }
        stats
    }

    #[test]
    fn extension_and_receipts() {
        let (mut chain, g) = new_chain();
        let b1 = child(&g, 1);
        let ev = chain.import(b1.clone()).unwrap();
        assert_eq!(ev, ChainEvent::Extended { block: b1.hash() });
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.tip_hash(), b1.hash());
        let receipts = chain.drain_receipts();
        assert_eq!(receipts.len(), 1);
        assert_eq!(receipts[0].0, b1.hash());
        assert!(chain.drain_receipts().is_empty(), "drained");
    }

    #[test]
    fn import_shares_the_arc() {
        let (mut chain, g) = new_chain();
        let b1 = Arc::new(child(&g, 1));
        chain.import(Arc::clone(&b1)).unwrap();
        assert!(Arc::ptr_eq(
            chain.tree().get(&b1.hash()).unwrap().block(),
            &b1
        ));
    }

    #[test]
    fn side_chain_then_reorg() {
        let (mut chain, g) = new_chain();
        let a1 = child(&g, 1);
        let b1 = child(&g, 10);
        let b2 = child(&b1, 11);
        chain.import(a1.clone()).unwrap();
        let ev = chain.import(b1.clone()).unwrap();
        assert_eq!(ev, ChainEvent::SideChain { block: b1.hash() });
        assert_eq!(chain.tip_hash(), a1.hash());

        // b2 makes the b-branch longer → reorg of depth 1.
        let ev = chain.import(b2.clone()).unwrap();
        assert_eq!(
            ev,
            ChainEvent::Reorg {
                reverted: 1,
                applied: 2,
                new_tip: b2.hash()
            }
        );
        assert_eq!(chain.canonical(), &[g.hash(), b1.hash(), b2.hash()]);
        assert_eq!(chain.stats().reorgs, 1);
        assert_eq!(chain.stats().max_reorg_depth, 1);
        assert_eq!(chain.stale_blocks(), 1); // a1
        assert!(chain.is_canonical(&b1.hash()));
        assert!(!chain.is_canonical(&a1.hash()));
    }

    #[test]
    fn orphan_import_then_connect() {
        let (mut chain, g) = new_chain();
        let b1 = child(&g, 1);
        let b2 = child(&b1, 2);
        assert_eq!(chain.import(b2.clone()).unwrap(), ChainEvent::Orphaned);
        assert_eq!(chain.height(), 0);
        let ev = chain.import(b1.clone()).unwrap();
        // b1 connects and pulls in b2 → head jumps two blocks.
        assert!(matches!(
            ev,
            ChainEvent::Reorg {
                reverted: 0,
                applied: 2,
                ..
            }
        ));
        assert_eq!(chain.tip_hash(), b2.hash());
    }

    #[test]
    fn duplicate_rejected() {
        let (mut chain, g) = new_chain();
        let b1 = child(&g, 1);
        chain.import(b1.clone()).unwrap();
        assert_eq!(chain.import(b1), Err(ChainError::Duplicate));
    }

    #[test]
    fn canon_stats_track_extensions_and_reorgs() {
        let (mut chain, g) = new_chain();
        let tx = |v| {
            Transaction::Account(AccountTx::transfer(
                Address::from_index(1),
                Address::from_index(2),
                v,
                0,
            ))
        };
        let with_txs = |parent: &Block, salt: u64, n: u64| {
            Block::new(
                BlockHeader::new(
                    parent.hash(),
                    parent.header.height + 1,
                    salt,
                    Address::from_index(salt),
                    Seal::None,
                ),
                (0..n).map(|i| tx(salt * 100 + i)).collect(),
            )
        };
        let a1 = with_txs(&g, 1, 3);
        let b1 = with_txs(&g, 10, 2);
        let b2 = with_txs(&b1, 11, 5);
        chain.import(a1.clone()).unwrap();
        assert_eq!(chain.canon_stats().committed_txs, 3);
        assert_eq!(chain.canon_stats().block_txs(&a1.hash()), Some(3));

        chain.import(b1.clone()).unwrap(); // side chain: stats unchanged
        assert_eq!(chain.canon_stats().committed_txs, 3);

        chain.import(b2.clone()).unwrap(); // reorg onto the b-branch
        assert_eq!(chain.canon_stats().committed_txs, 7);
        assert_eq!(chain.canon_stats().blocks, 2);
        assert_eq!(chain.canon_stats().block_txs(&a1.hash()), None, "shed");
        assert_eq!(chain.canon_stats().block_txs(&b2.hash()), Some(5));
        assert_eq!(
            *chain.canon_stats(),
            recompute(&chain),
            "incremental ≡ walk"
        );
        assert!(chain.canon_stats().total_fees > 0);
    }

    #[test]
    fn pruned_backend_matches_archival_decisions() {
        let g = crate::genesis_block(&cfg());
        let mut archival = Chain::new(g.clone(), cfg(), NullMachine);
        let mut pruned = Chain::with_store(g.clone(), cfg(), NullMachine, PrunedStore::new(2));
        let mut parent = g.clone();
        for h in 1..=20u64 {
            let b = child(&parent, h);
            assert_eq!(
                archival.import(b.clone()).unwrap(),
                pruned.import(b.clone()).unwrap()
            );
            parent = b;
        }
        assert_eq!(archival.tip_hash(), pruned.tip_hash());
        assert_eq!(archival.canonical(), pruned.canonical());
        assert_eq!(archival.canon_stats(), pruned.canon_stats());
        // confirmation_depth 6 + keep_depth 2: bodies below 20-6-2=12 pruned.
        let stats = pruned.tree().store_stats();
        assert_eq!(stats.bodies_pruned, 12);
        assert!(stats.resident_body_bytes < archival.tree().store_stats().resident_body_bytes);
    }

    /// A state machine that rejects blocks containing any account tx whose
    /// value is 666, to exercise the invalid-branch recovery path.
    #[derive(Debug, Default)]
    struct Picky {
        applied: Vec<Hash256>,
    }

    impl StateMachine for Picky {
        type Undo = Hash256;

        fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, Hash256), String> {
            for tx in &block.txs {
                if let Transaction::Account(a) = tx {
                    if a.value == 666 {
                        return Err("cursed value".into());
                    }
                }
            }
            let h = block.hash();
            self.applied.push(h);
            Ok((vec![], h))
        }

        fn revert_block(&mut self, undo: Hash256) {
            assert_eq!(self.applied.pop(), Some(undo), "LIFO revert order");
        }

        fn reset(&mut self) {
            self.applied.clear();
        }

        fn state_root(&self) -> Hash256 {
            Hash256::ZERO
        }
    }

    #[test]
    fn invalid_branch_is_poisoned_and_old_branch_restored() {
        let g = crate::genesis_block(&cfg());
        let mut chain = Chain::new(g.clone(), cfg(), Picky::default());
        let a1 = child(&g, 1);
        chain.import(a1.clone()).unwrap();

        // Build a longer branch whose middle block is invalid.
        let b1 = child(&g, 10);
        let cursed = Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            666,
            0,
        ));
        let b2 = Block::new(
            BlockHeader::new(b1.hash(), 2, 11, Address::from_index(11), Seal::None),
            vec![cursed],
        );
        let b3 = child(&b2, 12);

        chain.import(b1.clone()).unwrap();
        chain.import(b2.clone()).unwrap();
        let _ = chain.import(b3.clone()).unwrap();

        // The cursed branch must not win; a1 remains the tip.
        assert_eq!(chain.tip_hash(), a1.hash());
        assert_eq!(chain.stats().invalid_blocks, 1);
        assert_eq!(chain.machine().applied, vec![a1.hash()]);
        // Stats restored along with the old branch.
        assert_eq!(*chain.canon_stats(), recompute(&chain));
    }

    fn cursed_child(parent: &Block, salt: u64) -> Block {
        let cursed = Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            666,
            0,
        ));
        let header = child(parent, salt).header;
        Block::new(header, vec![cursed])
    }

    #[test]
    fn invalid_child_of_the_tip_never_demotes_valid_history() {
        for rule in [
            dcs_primitives::ForkChoice::LongestChain,
            dcs_primitives::ForkChoice::HeaviestWork,
        ] {
            let mut config = cfg();
            config.fork_choice = rule;
            let g = crate::genesis_block(&config);
            let mut chain = Chain::new(g.clone(), config, Picky::default());
            let a1 = child(&g, 1);
            let a2 = child(&a1, 2);
            let b1 = child(&g, 10); // a stale leaf, shorter than the tip
            for b in [&a1, &a2, &b1] {
                chain.import(b.clone()).unwrap();
            }
            let applied = vec![a1.hash(), a2.hash()];

            // (a) A cursed child of the tip: the tip stays where it is —
            // no reorg backwards onto the stale leaf.
            let x = cursed_child(&a2, 3);
            let ev = chain.import(x.clone()).unwrap();
            assert_eq!(ev, ChainEvent::SideChain { block: x.hash() }, "{rule:?}");
            assert_eq!(chain.tip_hash(), a2.hash(), "{rule:?}");
            assert_eq!(chain.stats().invalid_blocks, 1);
            assert_eq!(chain.stats().reorgs, 0);
            assert_eq!(chain.machine().applied, applied);
            assert_eq!(*chain.canon_stats(), recompute(&chain));

            // (c) Blocks arriving later under x — directly, and through
            // the orphan pool — are never applied and never selected,
            // however long their branch grows.
            let y1 = child(&x, 4);
            let y2 = child(&y1, 5);
            let y3 = child(&y2, 6);
            chain.import(y1.clone()).unwrap();
            assert_eq!(chain.import(y3.clone()).unwrap(), ChainEvent::Orphaned);
            chain.import(y2.clone()).unwrap();
            assert_eq!(chain.tip_hash(), a2.hash(), "{rule:?}");
            assert_eq!(chain.machine().applied, applied);
            assert_eq!(chain.stats().invalid_blocks, 1, "x failed once");
            let poisoned: BTreeSet<Hash256> = [&x, &y1, &y2, &y3].map(Block::hash).into();
            assert_eq!(chain.invalid(), &poisoned);

            // (b) A valid a3 on a2 extends normally.
            let a3 = child(&a2, 7);
            let ev = chain.import(a3.clone()).unwrap();
            assert_eq!(ev, ChainEvent::Extended { block: a3.hash() }, "{rule:?}");
            assert_eq!(chain.height(), 3);
            assert_eq!(*chain.canon_stats(), recompute(&chain));
        }
    }

    #[test]
    fn pow_hash_check_enforced_when_enabled() {
        let g = crate::genesis_block(&cfg());
        let mut chain = Chain::new(g.clone(), cfg(), NullMachine);
        chain.check_pow_hash = true;
        // A block claiming 16 difficulty bits without grinding will
        // essentially always fail the check.
        let block = Block::new(
            BlockHeader::new(
                g.hash(),
                1,
                1,
                Address::ZERO,
                Seal::Work {
                    nonce: 12345,
                    difficulty: 1 << 16,
                },
            ),
            vec![],
        );
        assert!(matches!(chain.import(block), Err(ChainError::BadSeal(_))));
    }

    #[test]
    fn ghost_rule_reorgs_toward_heavy_subtree() {
        let g = crate::genesis_block(&cfg());
        let mut config = cfg();
        config.fork_choice = dcs_primitives::ForkChoice::Ghost;
        let mut chain = Chain::new(g.clone(), config, NullMachine);
        let a1 = child(&g, 1);
        let a2 = child(&a1, 2);
        let b1 = child(&g, 10);
        let u1 = child(&b1, 11);
        let u2 = child(&b1, 12);
        let u3 = child(&b1, 13);
        chain.import(a1.clone()).unwrap();
        chain.import(a2.clone()).unwrap();
        chain.import(b1.clone()).unwrap();
        assert_eq!(chain.tip_hash(), a2.hash());
        chain.import(u1.clone()).unwrap();
        chain.import(u2.clone()).unwrap();
        chain.import(u3.clone()).unwrap();
        // Subtree under b1 now has 4 blocks vs 2 under a1 → GHOST switches.
        let tip = chain.tip_hash();
        assert!(
            [u1.hash(), u2.hash(), u3.hash()].contains(&tip),
            "tip should be inside the b-subtree"
        );
        assert_eq!(tip, u1.hash(), "first-seen tie-break among uncles");
    }

    #[test]
    fn locator_is_dense_then_exponential_and_ends_at_genesis() {
        let (mut chain, g) = new_chain();
        let mut tip = g.clone();
        for i in 0..100 {
            tip = child(&tip, i);
            chain.import(tip.clone()).unwrap();
        }
        let locator = chain.locator();
        assert_eq!(locator[0], chain.tip_hash());
        assert_eq!(*locator.last().unwrap(), g.hash());
        // Dense for the first ten entries: heights 100, 99, ..., 91.
        for (i, hash) in locator.iter().take(10).enumerate() {
            assert_eq!(chain.canonical_at(100 - i as u64), Some(*hash));
        }
        // O(log n) total: far fewer entries than blocks.
        assert!(locator.len() < 20, "locator has {} entries", locator.len());
        // Every entry is canonical.
        assert!(locator.iter().all(|h| chain.is_canonical(h)));

        // A fresh chain's locator is just genesis.
        let (fresh, g2) = new_chain();
        assert_eq!(fresh.locator(), vec![g2.hash()]);
    }

    #[test]
    fn blocks_after_serves_from_common_ancestor_in_batches() {
        let (mut chain, _g) = new_chain();
        let (mut behind, _) = new_chain();
        let mut tip = _g.clone();
        for i in 0..30 {
            tip = child(&tip, i);
            chain.import(tip.clone()).unwrap();
            if i < 12 {
                behind.import(tip.clone()).unwrap();
            }
        }
        let (blocks, tip_height) = chain.blocks_after(&behind.locator(), 8);
        assert_eq!(tip_height, 30);
        assert_eq!(blocks.len(), 8, "bounded batch");
        assert_eq!(blocks[0].header.height, 13, "starts above the asker's tip");
        for w in blocks.windows(2) {
            assert_eq!(w[1].header.parent, w[0].hash(), "consecutive canonical");
        }
        // An unknown locator falls back to genesis.
        let (from_genesis, _) = chain.blocks_after(&[], 5);
        assert_eq!(from_genesis[0].header.height, 1);
    }

    #[test]
    fn blocks_after_stops_at_pruned_bodies() {
        let mut config = cfg();
        config.confirmation_depth = 2;
        let g = crate::genesis_block(&config);
        let mut chain = Chain::with_store(g.clone(), config, NullMachine, PrunedStore::new(0));
        let mut tip = g;
        for i in 0..20 {
            tip = child(&tip, i);
            chain.import(tip.clone()).unwrap();
        }
        // Deep bodies are gone: a from-genesis request cannot be served.
        let (blocks, tip_height) = chain.blocks_after(&[], 50);
        assert_eq!(tip_height, 20);
        assert!(
            blocks.is_empty(),
            "pruned responder cannot serve deep history"
        );
    }

    /// `n` plain blocks in a line on `parent`, salted from `salt`.
    fn branch(parent: &Block, salt: u64, n: u64) -> Vec<Block> {
        let mut blocks: Vec<Block> = Vec::new();
        for i in 0..n {
            let next = child(blocks.last().unwrap_or(parent), salt + i);
            blocks.push(next);
        }
        blocks
    }

    #[test]
    fn undo_records_end_at_finality_and_a_deeper_reorg_replays() {
        let mut config = cfg();
        config.confirmation_depth = 3;
        let g = crate::genesis_block(&config);
        let mut windowed = Chain::new(g.clone(), config.clone(), Picky::default());
        config.confirmation_depth = u64::MAX; // finalizes nothing
        let mut reference = Chain::new(g.clone(), config, Picky::default());

        // A fork off height 2 outgrows a ten-block main chain: the reorg's
        // ancestor is five blocks below the three-block window.
        let main = branch(&g, 1, 10);
        let fork = branch(&main[1], 100, 12);
        for b in main.iter().chain(&fork) {
            assert_eq!(windowed.import(b.clone()), reference.import(b.clone()));
            let final_height = windowed.height().saturating_sub(3);
            assert_eq!(
                windowed.undos.len() as u64,
                windowed.height() - final_height,
                "an undo record survived below height {final_height}"
            );
            assert_eq!(windowed.machine().applied, &windowed.canonical()[1..]);
        }
        assert_eq!(windowed.stats().max_reorg_depth, 8);
        assert_eq!(windowed.canonical(), reference.canonical());
        assert_eq!(windowed.stats(), reference.stats());
        assert_eq!(windowed.canon_stats(), reference.canon_stats());
        assert_eq!(windowed.drain_receipts(), reference.drain_receipts());
    }

    /// [`Picky`] that also refuses any block it applied before: its old
    /// branch cannot be restored.
    #[derive(Debug, Default)]
    struct Forgetful {
        picky: Picky,
        seen: BTreeSet<Hash256>,
    }

    impl StateMachine for Forgetful {
        type Undo = Hash256;

        fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, Hash256), String> {
            if !self.seen.insert(block.hash()) {
                return Err("applied before".into());
            }
            self.picky.apply_block(block)
        }

        fn revert_block(&mut self, undo: Hash256) {
            self.picky.revert_block(undo);
        }

        fn reset(&mut self) {
            self.picky.reset();
        }

        fn state_root(&self) -> Hash256 {
            Hash256::ZERO
        }
    }

    #[test]
    fn a_restored_block_that_fails_again_is_an_internal_error() {
        let g = crate::genesis_block(&cfg());
        let mut chain = Chain::new(g.clone(), cfg(), Forgetful::default());
        let a1 = child(&g, 1);
        let b1 = child(&g, 10);
        chain.import(a1).unwrap();
        chain.import(b1.clone()).unwrap();
        // The b-branch outgrows a1, fails at b2, and a1 will not re-apply.
        assert_eq!(
            chain.import(cursed_child(&b1, 11)),
            Err(ChainError::Internal("a restored block failed again"))
        );
    }

    /// Counts the state roots read: a root is a whole-trie hash on a real
    /// machine, so an import reads one only where a header commits to it.
    #[derive(Debug, Default)]
    struct RootCounter {
        reads: std::cell::Cell<u32>,
    }

    impl StateMachine for RootCounter {
        type Undo = ();

        fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, ()), String> {
            NullMachine.apply_block(block)
        }

        fn revert_block(&mut self, _undo: ()) {}

        fn reset(&mut self) {}

        fn state_root(&self) -> Hash256 {
            self.reads.set(self.reads.get() + 1);
            Hash256::ZERO
        }
    }

    #[test]
    fn import_reads_a_state_root_only_where_a_header_commits_to_one() {
        let g = crate::genesis_block(&cfg());
        let mut chain = Chain::new(g.clone(), cfg(), RootCounter::default());
        let main = branch(&g, 1, 3);
        for b in &main {
            chain.import(b.clone()).unwrap();
        }
        assert_eq!(chain.machine().reads.get(), 0);
        let mut committed = child(&main[2], 4);
        committed.header.state_root = dcs_crypto::sha256(b"some state");
        let committed = Block::new(committed.header, vec![]);
        assert_eq!(
            chain.import(committed.clone()),
            Ok(ChainEvent::SideChain {
                block: committed.hash()
            })
        );
        assert_eq!(chain.machine().reads.get(), 1);
    }

    #[test]
    fn a_replay_that_needs_a_pruned_body_is_an_internal_error() {
        let mut config = cfg();
        config.confirmation_depth = 2;
        let g = crate::genesis_block(&config);
        let mut chain = Chain::with_store(g.clone(), config, NullMachine, PrunedStore::new(0));
        let main = branch(&g, 1, 10);
        for b in &main {
            chain.import(b.clone()).unwrap();
        }
        assert!(chain.tree().get(&main[0].hash()).unwrap().body().is_none());

        // A fork off height 1 outgrows the main chain; replaying height 1
        // needs the body the store dropped.
        let fork = branch(&main[0], 100, 11);
        let first_error = fork.iter().find_map(|b| chain.import(b.clone()).err());
        assert_eq!(
            first_error,
            Some(ChainError::Internal("replay needs a pruned body"))
        );
    }

    #[test]
    fn rebuild_from_store_restores_canonical_state_and_keeps_stats() {
        let (mut chain, g) = new_chain();
        let coinbase = |height| Transaction::Coinbase {
            to: Address::from_index(9),
            value: 50,
            height,
        };
        let pay = |nonce| {
            Transaction::Account(AccountTx::transfer(
                Address::from_index(1),
                Address::from_index(2),
                5,
                nonce,
            ))
        };
        // A short fork so the reorg counter is non-zero before the crash.
        let a1 = child(&g, 1);
        let mut b1 = child(&g, 10);
        b1.txs = vec![coinbase(1), pay(0)];
        let b1 = Block::new(b1.header, b1.txs);
        let mut b2 = child(&b1, 11);
        b2.txs = vec![coinbase(2), pay(1)];
        let b2 = Block::new(b2.header, b2.txs);
        chain.import(a1).unwrap();
        chain.import(b1).unwrap();
        chain.import(b2).unwrap();
        chain.drain_receipts();

        let tip = chain.tip_hash();
        let canonical = chain.canonical().to_vec();
        let stats = chain.stats();
        let canon_stats = chain.canon_stats().clone();
        assert_eq!(stats.reorgs, 1);
        assert_eq!(canon_stats.committed_txs, 2);

        chain.rebuild_from_store().unwrap();

        assert_eq!(chain.tip_hash(), tip, "fork choice re-picks the same tip");
        assert_eq!(chain.canonical(), canonical.as_slice());
        assert_eq!(chain.stats(), stats, "consistency counters survive");
        assert_eq!(chain.canon_stats(), &canon_stats);
        assert!(
            chain.drain_receipts().is_empty(),
            "replayed receipts are not re-delivered"
        );
        // The rebuilt replica keeps working: it can extend its tip.
        let next = child(chain.tip(), 99);
        assert!(matches!(
            chain.import(next).unwrap(),
            ChainEvent::Extended { .. }
        ));
    }
}
