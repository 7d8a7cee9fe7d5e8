//! The chain manager: owns the block tree, a fork-choice rule, and an
//! application [`StateMachine`], and keeps the machine's state exactly in
//! sync with the currently selected branch — reverting and re-applying
//! blocks across reorgs. This is the component that delivers the paper's
//! consistency property ("the blockchain data should be exactly identical at
//! all peers", §2.7): every peer running the same rule over the same block
//! set lands on the same canonical chain and state root.

use crate::forkchoice::best_tip_with;
use crate::store::{BlockStore, BlockTree};
use crate::ChainError;
use dcs_crypto::{Hash256, VerifyPipeline};
use dcs_primitives::{Block, ChainConfig, Receipt, Transaction};
use dcs_trace::{Id as TraceId, ImportOutcome, TraceEvent, Tracer};
use std::collections::{BTreeMap, BTreeSet};
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
    per_block: BTreeMap<Hash256, BlockDelta>,
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
    undos: Vec<M::Undo>,
    receipts: Vec<(Hash256, Vec<Receipt>)>,
    /// Blocks that failed state validation and every stored block under
    /// one: closed under descent, so viability is a single probe.
    invalid: BTreeSet<Hash256>,
    stats: ChainStats,
    canon_stats: CanonStats,
    pipeline: Option<Arc<VerifyPipeline>>,
    tracer: Tracer,
    metrics: Option<crate::ChainMetrics>,
    /// Highest finalized height already traced, so [`Chain::import_at`]
    /// emits each [`TraceEvent::Finalized`] height exactly once.
    traced_finalized: u64,
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
            undos: Vec::new(),
            receipts: Vec::new(),
            invalid: BTreeSet::new(),
            stats: ChainStats::default(),
            canon_stats: CanonStats::default(),
            pipeline: None,
            tracer: Tracer::disabled(),
            metrics: None,
            traced_finalized: 0,
            check_pow_hash: false,
            enforce_block_limit: false,
        }
    }

    /// Installs a tracer; [`Chain::import_at`] emits import, orphan, reorg,
    /// and finality events through it. Disabled by default.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The chain tracer (disabled unless [`Chain::set_tracer`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Installs live metrics; [`Chain::import`] bumps import-outcome
    /// counters and head-position gauges through them. Updates are relaxed
    /// atomic stores off the acceptance logic — installing metrics never
    /// changes which blocks are accepted (DESIGN.md §16).
    pub fn set_metrics(&mut self, metrics: crate::ChainMetrics) {
        self.metrics = Some(metrics);
    }

    /// The installed chain metrics, if any.
    pub fn metrics(&self) -> Option<&crate::ChainMetrics> {
        self.metrics.as_ref()
    }

    /// Routes the per-import body check (transaction ids + Merkle root)
    /// through a verification pipeline: ids are computed on the pipeline's
    /// worker pool and the root via parallel level hashing. The accepted
    /// block set is unchanged — the same root comparison gates the same
    /// [`ChainError::BadTxRoot`] — and the tree's serial recomputation is
    /// skipped so each body is hashed exactly once.
    pub fn with_pipeline(mut self, pipeline: Arc<VerifyPipeline>) -> Self {
        self.pipeline = Some(pipeline);
        self.tree.check_tx_roots = false;
        self
    }

    /// The verification pipeline, if one is attached.
    pub fn pipeline(&self) -> Option<&Arc<VerifyPipeline>> {
        self.pipeline.as_ref()
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
    /// the durable part of a node, while the state machine, undo stack,
    /// and canonical index are in-memory and lost. Rolls the machine back
    /// to its genesis state through the undo stack (a fresh `M::default()`
    /// would drop a genesis allocation), then re-runs fork choice over the
    /// stored tree and re-applies the winning branch. Consistency counters
    /// survive;
    /// receipts replayed here are discarded (they were delivered before
    /// the crash). The winning branch's bodies must be resident, which
    /// holds for archival stores and for pruning stores above the finality
    /// horizon.
    ///
    /// # Errors
    ///
    /// [`ChainError::Internal`] if the stored tree is inconsistent (e.g. a
    /// canonical-path body is missing).
    pub fn rebuild_from_store(&mut self) -> Result<(), ChainError> {
        while self.height() > 0 {
            self.pop_canonical()?;
        }
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

    /// Parallel replacement for the tree's serial transaction-root check,
    /// active when a pipeline is attached: the block's (cached, multi-lane
    /// batch-hashed) ids feed Merkle levels that hash in parallel — once per
    /// block instance, the root being memoised beside the ids.
    /// Bit-identical decision to `Block::verify_tx_root`.
    fn check_body(&self, block: &Block) -> Result<(), ChainError> {
        let Some(pipeline) = &self.pipeline else {
            return Ok(()); // BlockTree::insert performs the serial check
        };
        if block.body_root_with(pipeline.pool()) != block.header.tx_root {
            return Err(ChainError::BadTxRoot);
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
        self.check_body(&block)?;
        let inserted = self.tree.insert_or_orphan(block)?;
        if inserted.is_empty() {
            if let Some(m) = &self.metrics {
                m.record(
                    &ChainEvent::Orphaned,
                    self.height(),
                    self.config.confirmation_depth,
                );
            }
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
        let event = match event {
            Some(ev) => ev,
            None => {
                debug_assert_eq!(self.tip_hash(), old_tip);
                ChainEvent::SideChain { block: inserted[0] }
            }
        };
        if let Some(m) = &self.metrics {
            m.record(&event, self.height(), self.config.confirmation_depth);
        }
        Ok(event)
    }

    /// [`Chain::import`] plus trace emission: records import, orphan,
    /// reorg, and finality-advance events at sim time `at_us` through the
    /// installed tracer. With no tracer installed this is exactly
    /// `import` — the hash/height pre-computation is skipped too.
    ///
    /// # Errors
    ///
    /// Same as [`Chain::import`].
    pub fn import_at(
        &mut self,
        block: impl Into<Arc<Block>>,
        at_us: u64,
    ) -> Result<ChainEvent, ChainError> {
        let block = block.into();
        if !self.tracer.is_enabled() {
            return self.import(block);
        }
        let id = TraceId(block.hash().into_bytes());
        let height = block.header.height;
        let event = self.import(block)?;
        match &event {
            ChainEvent::Extended { .. } => self.tracer.emit(
                at_us,
                TraceEvent::BlockImported {
                    block: id,
                    height,
                    outcome: ImportOutcome::Extended,
                },
            ),
            ChainEvent::SideChain { .. } => self.tracer.emit(
                at_us,
                TraceEvent::BlockImported {
                    block: id,
                    height,
                    outcome: ImportOutcome::SideChain,
                },
            ),
            ChainEvent::Orphaned => self
                .tracer
                .emit(at_us, TraceEvent::BlockOrphaned { block: id }),
            ChainEvent::Reorg {
                reverted, applied, ..
            } => {
                self.tracer.emit(
                    at_us,
                    TraceEvent::Reorg {
                        reverted: *reverted,
                        applied: *applied,
                    },
                );
                self.tracer.emit(
                    at_us,
                    TraceEvent::BlockImported {
                        block: id,
                        height,
                        outcome: ImportOutcome::Extended,
                    },
                );
            }
        }
        let finalized = self.height().saturating_sub(self.config.confirmation_depth);
        if finalized > self.traced_finalized {
            self.traced_finalized = finalized;
            self.tracer
                .emit(at_us, TraceEvent::Finalized { height: finalized });
        }
        Ok(event)
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
        let Some(undo) = self.undos.pop() else {
            return Err(ChainError::Internal("canonical block without an undo"));
        };
        self.machine.revert_block(undo);
        if !self.canon_stats.shed(&hash) {
            self.stats.internal_errors += 1;
        }
        Ok(())
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

    /// Recomputes the best tip and moves the state machine onto it.
    /// Returns `None` if the head did not move. Walks nothing: the
    /// candidates are the tree's leaf set and viability is a probe of
    /// `invalid`, which [`Chain::import`] and [`Chain::poison`] keep closed
    /// under descent (and which is empty in every healthy run).
    fn update_head(&mut self) -> Result<Option<ChainEvent>, ChainError> {
        loop {
            let invalid = &self.invalid;
            let new_tip = best_tip_with(&self.tree, self.config.fork_choice, |h| {
                !invalid.contains(h)
            });
            let old_tip = self.tip_hash();
            if new_tip == old_tip {
                return Ok(None);
            }
            let ancestor = self.tree.common_ancestor(&old_tip, &new_tip);
            let anc_height = self
                .tree
                .get(&ancestor)
                .ok_or(ChainError::Internal("common ancestor not stored"))?
                .height();

            // Revert the old branch down to the ancestor.
            let mut reverted = 0u64;
            while self.height() > anc_height {
                self.pop_canonical()?;
                reverted += 1;
            }

            // Apply the new branch upward from the ancestor.
            let mut to_apply = Vec::new();
            let mut cur = new_tip;
            while cur != ancestor {
                to_apply.push(cur);
                cur = self
                    .tree
                    .get(&cur)
                    .ok_or(ChainError::Internal("new-branch block not stored"))?
                    .header()
                    .parent;
            }
            to_apply.reverse();

            let mut applied = 0u64;
            let mut failure: Option<Hash256> = None;
            for hash in &to_apply {
                // Refcount bump, not a body copy: applying a 10k-tx block
                // costs the same as a 0-tx block on this line.
                let block = Arc::clone(
                    self.tree
                        .get(hash)
                        .ok_or(ChainError::Internal("apply-path block not stored"))?
                        .block(),
                );
                match self.machine.apply_block(&block) {
                    Ok((receipts, undo)) => {
                        // Verify the header's state commitment when present.
                        if block.header.state_root != Hash256::ZERO
                            && self.machine.state_root() != block.header.state_root
                        {
                            self.machine.revert_block(undo);
                            failure = Some(*hash);
                            break;
                        }
                        self.canonical.push(*hash);
                        self.undos.push(undo);
                        self.receipts.push((*hash, receipts));
                        self.canon_stats.absorb(*hash, &block);
                        applied += 1;
                    }
                    Err(_reason) => {
                        failure = Some(*hash);
                        break;
                    }
                }
            }

            if let Some(bad) = failure {
                // Poison the failing block and what is stored under it, roll
                // everything back to the ancestor, restore the old branch,
                // and retry fork choice.
                self.poison(bad);
                self.stats.invalid_blocks += 1;
                while self.height() > anc_height {
                    self.pop_canonical()?;
                }
                // Restore the old branch exactly as it was.
                let mut old_branch = Vec::new();
                let mut cur = old_tip;
                while cur != ancestor {
                    old_branch.push(cur);
                    cur = self
                        .tree
                        .get(&cur)
                        .ok_or(ChainError::Internal("old-branch block not stored"))?
                        .header()
                        .parent;
                }
                old_branch.reverse();
                for hash in old_branch {
                    let block = Arc::clone(
                        self.tree
                            .get(&hash)
                            .ok_or(ChainError::Internal("old-branch block not stored"))?
                            .block(),
                    );
                    let (receipts, undo) = self
                        .machine
                        .apply_block(&block)
                        .map_err(ChainError::BadTransaction)?;
                    let _ = receipts; // already delivered the first time
                    self.canonical.push(hash);
                    self.undos.push(undo);
                    self.canon_stats.absorb(hash, &block);
                }
                continue; // re-run fork choice without the poisoned block
            }

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
            // pruning store can drop bodies `confirmation_depth` behind it.
            let finalized = self.height().saturating_sub(self.config.confirmation_depth);
            self.tree.note_finalized(finalized);
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
    fn import_at_traces_imports_reorgs_and_finality_once() {
        use dcs_trace::TraceConfig;
        let (mut chain, g) = new_chain();
        chain.set_tracer(Tracer::new(0, &TraceConfig::full()));
        let depth = chain.config().confirmation_depth;

        // a-branch of 2, then a b-branch of 3 forces a reorg.
        let a1 = child(&g, 1);
        let a2 = child(&a1, 2);
        let b1 = child(&g, 10);
        let b2 = child(&b1, 11);
        let b3 = child(&b2, 12);
        chain.import_at(a1, 100).unwrap();
        chain.import_at(a2, 200).unwrap();
        chain.import_at(b1.clone(), 300).unwrap();
        chain.import_at(b2, 400).unwrap();
        chain.import_at(b3.clone(), 500).unwrap();

        let evs: Vec<TraceEvent> = chain.tracer().records().map(|r| r.event).collect();
        assert!(evs.contains(&TraceEvent::Reorg {
            reverted: 2,
            applied: 3
        }));
        assert!(evs.contains(&TraceEvent::BlockImported {
            block: TraceId(b1.hash().into_bytes()),
            height: 1,
            outcome: ImportOutcome::SideChain,
        }));
        // An orphan is traced as such.
        let far = child(&b3, 99);
        let orphan = child(&far, 100);
        chain.import_at(orphan.clone(), 600).unwrap();
        assert!(chain.tracer().records().any(|r| r.event
            == TraceEvent::BlockOrphaned {
                block: TraceId(orphan.hash().into_bytes())
            }));

        // Extend past the confirmation depth: each finalized height is
        // emitted exactly once.
        let mut tip = b3;
        for i in 0..depth + 2 {
            tip = child(&tip, 200 + i);
            chain.import_at(tip.clone(), 1_000 + i).unwrap();
        }
        let finals: Vec<u64> = chain
            .tracer()
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::Finalized { height } => Some(height),
                _ => None,
            })
            .collect();
        let expect: Vec<u64> = (1..=chain.height() - depth).collect();
        assert_eq!(finals, expect, "each height finalized exactly once");
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
    fn pipelined_body_check_matches_serial_decisions() {
        // Serial chain and pipelined chain must accept and reject the same
        // blocks, and land on identical canonical chains.
        let g = crate::genesis_block(&cfg());
        let mut serial = Chain::new(g.clone(), cfg(), NullMachine);
        let mut piped = Chain::new(g.clone(), cfg(), NullMachine)
            .with_pipeline(std::sync::Arc::new(VerifyPipeline::new(4, 0)));

        let tx = |v| {
            Transaction::Account(AccountTx::transfer(
                Address::from_index(1),
                Address::from_index(2),
                v,
                0,
            ))
        };
        let b1 = Block::new(
            BlockHeader::new(g.hash(), 1, 1, Address::from_index(1), Seal::None),
            (0..10).map(tx).collect(),
        );
        assert_eq!(
            serial.import(b1.clone()).unwrap(),
            piped.import(b1.clone()).unwrap()
        );

        // A body/header mismatch is rejected by both, with the same error.
        // (Edited on a clone: a block from `Block::new` is warm from birth.)
        let mut tampered = Block::new(
            BlockHeader::new(b1.hash(), 2, 2, Address::from_index(2), Seal::None),
            (10..14).map(tx).collect(),
        )
        .clone();
        tampered.txs.push(tx(99)); // body no longer matches the committed root
        assert_eq!(serial.import(tampered.clone()), Err(ChainError::BadTxRoot));
        assert_eq!(piped.import(tampered), Err(ChainError::BadTxRoot));

        let b2 = Block::new(
            BlockHeader::new(b1.hash(), 2, 2, Address::from_index(2), Seal::None),
            (10..14).map(tx).collect(),
        );
        serial.import(b2.clone()).unwrap();
        piped.import(b2).unwrap();
        assert_eq!(serial.canonical(), piped.canonical());
    }

    #[test]
    fn pipelined_chain_rejects_tampered_orphan_at_import() {
        // With a pipeline the body check runs at import even for orphans.
        let g = crate::genesis_block(&cfg());
        let mut chain = Chain::new(g.clone(), cfg(), NullMachine)
            .with_pipeline(std::sync::Arc::new(VerifyPipeline::serial()));
        let b1 = child(&g, 1);
        let mut orphan = child(&b1, 2).clone(); // cold ids: edited below
        orphan.txs.push(Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            5,
            0,
        )));
        assert_eq!(chain.import(orphan), Err(ChainError::BadTxRoot));
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
