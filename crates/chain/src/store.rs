//! The block tree: every valid block ever seen, indexed by hash, with
//! parent/child links, cumulative work, and an orphan pool for blocks that
//! arrive before their parents (routine under gossip reordering).
//!
//! Storage is **zero-copy**: blocks enter the tree as [`Arc<Block>`] and
//! are never deep-copied again — gossip re-broadcast, import, state
//! application, and block-request serving all share the same allocation
//! through refcount bumps. Records live in one [`BlockStore`], whose
//! retention is a value, not a type: by default it keeps every body forever
//! (what every simulated full node historically did); built with
//! [`PrunedStore::new`] it drops bodies a configurable depth behind the
//! finalized tip while retaining headers, cumulative work, and child links,
//! so fork choice, ancestor walks, and light-client header sync keep
//! working on a fraction of the memory (the paper's §5.4 "full download of
//! the blockchain … will continue to grow" concern).
//!
//! The tree keeps its own **leaf set** — `insert` takes the parent out and
//! puts the child in — so fork choice reads the candidate tips instead of
//! scanning every record for one without children (DESIGN.md §9).

use crate::ChainError;
use dcs_crypto::Hash256;
use dcs_primitives::{Block, BlockHeader};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Default bound on blocks parked in the orphan pool; beyond it the oldest
/// orphans are evicted in arrival order (the page of blocks a later orphan
/// asks for brings back any that are canonical at its sender).
pub const DEFAULT_ORPHAN_CAP: usize = 512;

/// What a [`StoredBlock`] currently retains: the full body, or — after
/// pruning — only the header.
#[derive(Debug, Clone)]
enum StoredData {
    /// The full block, shared with gossip/serving paths.
    Full(Arc<Block>),
    /// Header-only: the body was pruned below the finality horizon. Boxed,
    /// so a record is one pointer wide here whichever variant it holds.
    HeaderOnly(Box<BlockHeader>),
}

/// A block plus the tree metadata maintained for it.
#[derive(Debug, Clone)]
pub struct StoredBlock {
    hash: Hash256,
    data: StoredData,
    /// Sum of `header.work()` from genesis to this block.
    pub total_work: u128,
    /// Hashes of known children.
    pub children: Vec<Hash256>,
    /// Import order (used for first-seen tie-breaking, as Bitcoin does).
    pub arrival: u64,
}

impl StoredBlock {
    fn new(block: Arc<Block>, total_work: u128, arrival: u64) -> Self {
        StoredBlock {
            hash: block.hash(),
            data: StoredData::Full(block),
            total_work,
            children: Vec::new(),
            arrival,
        }
    }

    /// The block hash, computed once at insertion.
    pub fn hash(&self) -> Hash256 {
        self.hash
    }

    /// The header — always retained, even after the body is pruned.
    pub fn header(&self) -> &BlockHeader {
        match &self.data {
            StoredData::Full(b) => &b.header,
            StoredData::HeaderOnly(h) => h,
        }
    }

    /// Height shorthand.
    pub fn height(&self) -> u64 {
        self.header().height
    }

    /// The full block, if the body is still resident (`None` once pruned).
    pub fn body(&self) -> Option<&Arc<Block>> {
        match &self.data {
            StoredData::Full(b) => Some(b),
            StoredData::HeaderOnly(_) => None,
        }
    }

    /// The full block.
    ///
    /// # Panics
    ///
    /// Panics if the body was pruned. Hot paths (state apply/revert, tip
    /// access) only touch blocks above the finality horizon, where bodies
    /// are guaranteed resident whatever the retention.
    pub fn block(&self) -> &Arc<Block> {
        // The panic is this accessor's documented contract (see above).
        self.body()
            .expect("block body pruned below the finality horizon") // dcs-lint: allow(panic-path)
    }

    /// Drops the body, keeping the header. Returns the approximate bytes
    /// released (0 if already pruned).
    fn prune_body(&mut self) -> u64 {
        if let StoredData::Full(b) = &self.data {
            let freed = approx_body_bytes(b);
            let header = Box::new(b.header.clone());
            self.data = StoredData::HeaderOnly(header);
            freed
        } else {
            0
        }
    }
}

/// Cheap estimate of a block body's resident size in bytes (struct sizes,
/// no encoding pass — this feeds accounting on the import hot path, not an
/// exact allocator census).
fn approx_body_bytes(block: &Block) -> u64 {
    let per_tx = std::mem::size_of::<dcs_primitives::Transaction>() as u64 + 48;
    std::mem::size_of::<Block>() as u64 + per_tx * block.txs.len() as u64
}

/// Counters describing what a [`BlockStore`] currently holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Blocks stored (headers always resident).
    pub blocks: u64,
    /// Blocks whose bodies are still resident.
    pub bodies_resident: u64,
    /// Bodies dropped by pruning since genesis.
    pub bodies_pruned: u64,
    /// Approximate bytes of resident bodies.
    pub resident_body_bytes: u64,
}

/// Record storage behind [`BlockTree`], and the one place retention is
/// decided: with no `keep_depth` every body is kept forever (the default —
/// an archival full node); with `keep_depth = k`, bodies more than `k`
/// blocks below the finalized height are dropped while headers, cumulative
/// work, and child links remain, so fork choice and ancestor walks are
/// unaffected. The latter is the paper's pruned-node archetype:
/// consensus-complete, history-light. Structural invariants (linkage,
/// heights, children) are enforced by the tree.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    /// Every stored record by hash. Ordered, unlike the pool's id index:
    /// hashed, it made the peak RSS of a process that builds chain after
    /// chain step up by up to 10 MB with the count (DESIGN.md §10).
    blocks: BTreeMap<Hash256, StoredBlock>,
    keep_depth: Option<u64>,
    /// Heights that still have resident bodies → the blocks at that height.
    /// Maintained only when pruning; an archival store never reads it.
    resident_by_height: BTreeMap<u64, Vec<Hash256>>,
    resident_bytes: u64,
    bodies_pruned: u64,
}

/// The name a pruning node constructs its store by:
/// `PrunedStore::new(keep_depth)`.
pub type PrunedStore = BlockStore;

impl BlockStore {
    /// A store that keeps bodies for blocks within `keep_depth` of the
    /// finalized height and drops everything older. (`BlockStore::default()`
    /// is the archival store.)
    pub fn new(keep_depth: u64) -> Self {
        BlockStore {
            keep_depth: Some(keep_depth),
            ..BlockStore::default()
        }
    }

    /// Inserts a record (the tree guarantees the hash is fresh).
    fn insert(&mut self, record: StoredBlock) {
        if let Some(body) = record.body() {
            self.resident_bytes += approx_body_bytes(body);
            if self.keep_depth.is_some() {
                self.resident_by_height
                    .entry(record.height())
                    .or_default()
                    .push(record.hash());
            }
        }
        self.blocks.insert(record.hash(), record);
    }

    /// The finalized height advanced: drop the bodies that fell out of
    /// retention (nothing, on an archival store).
    fn note_finalized(&mut self, finalized_height: u64) {
        let Some(keep_depth) = self.keep_depth else {
            return;
        };
        let horizon = finalized_height.saturating_sub(keep_depth);
        // Split off the heights still within retention; what remains in
        // `self.resident_by_height` is exactly the prune set.
        let keep = self.resident_by_height.split_off(&horizon);
        let prune = std::mem::replace(&mut self.resident_by_height, keep);
        for hash in prune.into_values().flatten() {
            if let Some(record) = self.blocks.get_mut(&hash) {
                let freed = record.prune_body();
                if freed > 0 {
                    self.resident_bytes = self.resident_bytes.saturating_sub(freed);
                    self.bodies_pruned += 1;
                }
            }
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            blocks: self.blocks.len() as u64,
            bodies_resident: self.blocks.len() as u64 - self.bodies_pruned,
            bodies_pruned: self.bodies_pruned,
            resident_body_bytes: self.resident_bytes,
        }
    }
}

/// An in-memory tree of blocks rooted at genesis.
#[derive(Debug, Clone)]
pub struct BlockTree {
    store: BlockStore,
    genesis: Hash256,
    /// Stored blocks with no children, maintained by [`BlockTree::insert`].
    /// Ordered: fork choice walks it, and the walk order is part of its
    /// tie-break.
    leaves: BTreeSet<Hash256>,
    /// parent hash → orphans waiting on it, each with its precomputed hash.
    orphans: BTreeMap<Hash256, Vec<(Hash256, Arc<Block>)>>,
    /// Orphans in arrival order (for cap eviction); entries may be stale
    /// after a connect and are skipped lazily.
    orphan_order: VecDeque<(Hash256, Hash256)>, // (parent, orphan hash)
    orphan_cap: usize,
    orphans_evicted: u64,
    orphans_rejected: u64,
    arrivals: u64,
}

impl BlockTree {
    /// Creates an archival tree holding only `genesis`.
    pub fn new(genesis: impl Into<Arc<Block>>) -> Self {
        Self::with_store(genesis, BlockStore::default())
    }

    /// Creates a tree over the given store, holding only `genesis`.
    pub fn with_store(genesis: impl Into<Arc<Block>>, mut store: BlockStore) -> Self {
        let genesis = genesis.into();
        let gh = genesis.hash();
        let work = genesis.header.work();
        store.insert(StoredBlock::new(genesis, work, 0));
        BlockTree {
            store,
            genesis: gh,
            leaves: BTreeSet::from([gh]),
            orphans: BTreeMap::new(),
            orphan_order: VecDeque::new(),
            orphan_cap: DEFAULT_ORPHAN_CAP,
            orphans_evicted: 0,
            orphans_rejected: 0,
            arrivals: 1,
        }
    }

    /// Retention counters from the store.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The genesis hash.
    pub fn genesis(&self) -> Hash256 {
        self.genesis
    }

    /// Total blocks stored (excluding orphans awaiting parents).
    pub fn len(&self) -> usize {
        self.store.blocks.len()
    }

    /// Always false: a tree at least contains genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of blocks parked in the orphan pool.
    pub fn orphan_count(&self) -> usize {
        self.orphans.values().map(Vec::len).sum()
    }

    /// Orphans evicted by the pool cap since genesis.
    pub fn orphans_evicted(&self) -> u64 {
        self.orphans_evicted
    }

    /// Unblocked orphans that then failed structural checks (bad height or
    /// transaction root) — surfaced instead of silently dropped.
    pub fn orphans_rejected(&self) -> u64 {
        self.orphans_rejected
    }

    /// Bounds the orphan pool; the oldest orphans are evicted first once
    /// the cap is hit.
    pub fn set_orphan_cap(&mut self, cap: usize) {
        self.orphan_cap = cap.max(1);
        self.evict_orphans_to_cap(self.orphan_cap);
    }

    /// Forwards the finalized height to the store so it can prune.
    pub fn note_finalized(&mut self, finalized_height: u64) {
        self.store.note_finalized(finalized_height);
    }

    /// Looks up a stored block by hash.
    #[inline]
    pub fn get(&self, hash: &Hash256) -> Option<&StoredBlock> {
        self.store.blocks.get(hash)
    }

    /// True if the block is in the tree.
    #[inline]
    pub fn contains(&self, hash: &Hash256) -> bool {
        self.store.blocks.contains_key(hash)
    }

    /// Inserts a block whose parent is present, after structural checks
    /// (height linkage and transaction root). The block is stored as-is —
    /// callers holding an `Arc` share it with the tree at zero copies.
    ///
    /// # Errors
    ///
    /// * [`ChainError::UnknownParent`] — caller should use
    ///   [`BlockTree::insert_or_orphan`] under gossip.
    /// * [`ChainError::Duplicate`], [`ChainError::BadHeight`],
    ///   [`ChainError::BadTxRoot`].
    pub fn insert(&mut self, block: impl Into<Arc<Block>>) -> Result<Hash256, ChainError> {
        let block = block.into();
        let hash = block.hash();
        if self.contains(&hash) {
            return Err(ChainError::Duplicate);
        }
        let parent = self
            .get(&block.header.parent)
            .ok_or(ChainError::UnknownParent(block.header.parent))?;
        let expected = parent.height() + 1;
        if block.header.height != expected {
            return Err(ChainError::BadHeight {
                got: block.header.height,
                expected,
            });
        }
        if !block.verify_tx_root() {
            return Err(ChainError::BadTxRoot);
        }
        let total_work = parent.total_work + block.header.work();
        let parent_hash = block.header.parent;
        let arrival = self.arrivals;
        self.arrivals += 1;
        self.store
            .insert(StoredBlock::new(block, total_work, arrival));
        self.store
            .blocks
            .get_mut(&parent_hash)
            .ok_or(ChainError::Internal("parent vanished during insert"))?
            .children
            .push(hash);
        self.leaves.remove(&parent_hash);
        self.leaves.insert(hash);
        Ok(hash)
    }

    /// Inserts a block, parking it as an orphan if the parent is missing.
    /// Returns all hashes actually inserted (the block plus any orphans it
    /// unblocked), in insertion order; empty if the block was orphaned.
    /// Unblocked orphans that fail structural checks are counted in
    /// [`BlockTree::orphans_rejected`] rather than silently dropped.
    ///
    /// # Errors
    ///
    /// Structural errors other than `UnknownParent` are returned as-is.
    pub fn insert_or_orphan(
        &mut self,
        block: impl Into<Arc<Block>>,
    ) -> Result<Vec<Hash256>, ChainError> {
        let block = block.into();
        if !self.contains(&block.header.parent) {
            self.park_orphan(block);
            return Ok(vec![]);
        }
        let hash = self.insert(block)?;
        let mut inserted = vec![hash];
        let mut frontier = vec![hash];
        while let Some(parent) = frontier.pop() {
            if let Some(waiting) = self.orphans.remove(&parent) {
                for (_, orphan) in waiting {
                    match self.insert(orphan) {
                        Ok(h) => {
                            inserted.push(h);
                            frontier.push(h);
                        }
                        Err(_) => self.orphans_rejected += 1,
                    }
                }
            }
        }
        Ok(inserted)
    }

    fn park_orphan(&mut self, block: Arc<Block>) {
        let hash = block.hash();
        let parent = block.header.parent;
        let bucket = self.orphans.entry(parent).or_default();
        if bucket.iter().any(|(h, _)| *h == hash) {
            return; // already parked
        }
        bucket.push((hash, block));
        self.orphan_order.push_back((parent, hash));
        self.evict_orphans_to_cap(self.orphan_cap);
    }

    fn evict_orphans_to_cap(&mut self, cap: usize) {
        while self.orphan_count() > cap {
            let Some((parent, hash)) = self.orphan_order.pop_front() else {
                break;
            };
            if let Some(bucket) = self.orphans.get_mut(&parent) {
                if let Some(pos) = bucket.iter().position(|(h, _)| *h == hash) {
                    bucket.remove(pos);
                    if bucket.is_empty() {
                        self.orphans.remove(&parent);
                    }
                    self.orphans_evicted += 1;
                }
            }
            // Stale entry (orphan already connected): skip without counting.
        }
    }

    /// The record of `hash`, then its stored parents, newest first: the one
    /// walk up the tree. It ends after genesis, or at the first hash not
    /// stored, so a caller that needs `n` steps checks that it got `n`.
    /// Headers only: it works across pruned history.
    pub fn ancestors(&self, hash: Hash256) -> impl Iterator<Item = &StoredBlock> + '_ {
        std::iter::successors(self.get(&hash), |sb| self.get(&sb.header().parent))
    }

    /// Iterates over all stored blocks in unspecified order. Sort, or
    /// compare as sets, wherever the order could reach a result.
    pub fn iter(&self) -> impl Iterator<Item = &StoredBlock> {
        self.store.blocks.values()
    }

    /// Leaf blocks (no children): the candidate tips, read from the
    /// maintained leaf set — O(leaves), not a scan of every record.
    pub fn tips(&self) -> Vec<Hash256> {
        self.leaves.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::Address;
    use dcs_primitives::{BlockHeader, ChainConfig, Seal};

    fn genesis() -> Block {
        crate::genesis_block(&ChainConfig::bitcoin_like())
    }

    fn child_of(parent: &Block, salt: u64) -> Block {
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

    #[test]
    fn insert_and_lookup() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let b1 = child_of(&g, 1);
        let h1 = tree.insert(b1.clone()).unwrap();
        assert_eq!(h1, b1.hash());
        assert!(tree.contains(&h1));
        assert_eq!(tree.len(), 2);
        assert_eq!(**tree.get(&h1).unwrap().block(), b1);
        assert_eq!(tree.get(&h1).unwrap().hash(), h1);
        assert_eq!(tree.get(&tree.genesis()).unwrap().children, vec![h1]);
    }

    #[test]
    fn insert_shares_the_arc_zero_copy() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let b1 = Arc::new(child_of(&g, 1));
        let h1 = tree.insert(Arc::clone(&b1)).unwrap();
        // The tree holds the same allocation the caller does.
        assert!(Arc::ptr_eq(tree.get(&h1).unwrap().block(), &b1));
    }

    #[test]
    fn duplicate_rejected() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let b1 = child_of(&g, 1);
        tree.insert(b1.clone()).unwrap();
        assert_eq!(tree.insert(b1), Err(ChainError::Duplicate));
    }

    #[test]
    fn unknown_parent_rejected() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let b1 = child_of(&g, 1);
        let b2 = child_of(&b1, 2); // parent not inserted
        assert!(matches!(tree.insert(b2), Err(ChainError::UnknownParent(_))));
    }

    #[test]
    fn bad_height_rejected() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let mut b1 = child_of(&g, 1);
        b1.header.height = 5;
        assert_eq!(
            tree.insert(b1),
            Err(ChainError::BadHeight {
                got: 5,
                expected: 1
            })
        );
    }

    #[test]
    fn bad_tx_root_rejected() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let mut b1 = child_of(&g, 1);
        b1.header.tx_root = dcs_crypto::sha256(b"lies");
        assert_eq!(tree.insert(b1), Err(ChainError::BadTxRoot));
    }

    #[test]
    fn total_work_accumulates() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let mut b1 = child_of(&g, 1);
        b1.header.seal = Seal::Work {
            nonce: 0,
            difficulty: 1024,
        };
        let b1 = Block::new(b1.header, vec![]);
        let h1 = tree.insert(b1.clone()).unwrap();
        assert_eq!(tree.get(&h1).unwrap().total_work, 1 + 1024);
    }

    #[test]
    fn ancestors_walk_back_to_genesis_and_stop_at_a_miss() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let a1 = child_of(&g, 1);
        let a2 = child_of(&a1, 2);
        let b1 = child_of(&g, 10);
        for b in [&a1, &a2, &b1] {
            tree.insert(b.clone()).unwrap();
        }
        let walk =
            |h: Hash256| -> Vec<Hash256> { tree.ancestors(h).map(StoredBlock::hash).collect() };
        assert_eq!(walk(a2.hash()), vec![a2.hash(), a1.hash(), g.hash()]);
        assert_eq!(walk(b1.hash()), vec![b1.hash(), g.hash()]);
        assert_eq!(walk(g.hash()), vec![g.hash()]);
        assert!(walk(child_of(&a2, 3).hash()).is_empty(), "not stored");
    }

    #[test]
    fn orphans_connect_when_parent_arrives() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let b1 = child_of(&g, 1);
        let b2 = child_of(&b1, 2);
        let b3 = child_of(&b2, 3);
        // Deliver out of order: 3, 2, then 1.
        assert_eq!(tree.insert_or_orphan(b3.clone()).unwrap(), vec![]);
        assert_eq!(tree.insert_or_orphan(b2.clone()).unwrap(), vec![]);
        assert_eq!(tree.orphan_count(), 2);
        let inserted = tree.insert_or_orphan(b1.clone()).unwrap();
        assert_eq!(inserted, vec![b1.hash(), b2.hash(), b3.hash()]);
        assert_eq!(tree.orphan_count(), 0);
        assert_eq!(tree.len(), 4);
    }

    #[test]
    fn orphan_pool_caps_and_evicts_oldest() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        tree.set_orphan_cap(3);
        let missing = child_of(&g, 99); // never inserted
        let orphans: Vec<Block> = (0..5).map(|i| child_of(&missing, i)).collect();
        for o in &orphans {
            tree.insert_or_orphan(o.clone()).unwrap();
        }
        assert_eq!(tree.orphan_count(), 3, "capped");
        assert_eq!(tree.orphans_evicted(), 2, "two oldest evicted");
        // The survivors are the three most recent arrivals.
        let inserted = tree.insert_or_orphan(missing.clone()).unwrap();
        assert_eq!(inserted.len(), 4); // missing + 3 surviving orphans
        assert!(!inserted.contains(&orphans[0].hash()));
        assert!(!inserted.contains(&orphans[1].hash()));
    }

    #[test]
    fn duplicate_orphans_parked_once() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let b1 = child_of(&g, 1);
        let b2 = child_of(&b1, 2);
        tree.insert_or_orphan(b2.clone()).unwrap();
        tree.insert_or_orphan(b2.clone()).unwrap();
        assert_eq!(tree.orphan_count(), 1);
    }

    #[test]
    fn rejected_unblocked_orphans_are_counted() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let b1 = child_of(&g, 1);
        // An orphan whose height is wrong relative to its claimed parent:
        // it parks fine, but fails structural checks once unblocked.
        let mut bad = child_of(&b1, 2);
        bad.header.height = 9;
        let bad = Block::new(bad.header, vec![]);
        assert_eq!(tree.insert_or_orphan(bad).unwrap(), vec![]);
        assert_eq!(tree.orphans_rejected(), 0);
        let inserted = tree.insert_or_orphan(b1.clone()).unwrap();
        assert_eq!(inserted, vec![b1.hash()], "bad orphan not inserted");
        assert_eq!(tree.orphans_rejected(), 1, "rejection surfaced");
    }

    #[test]
    fn tips_are_the_leaves() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        assert_eq!(tree.tips(), vec![g.hash()]);
        let a1 = child_of(&g, 1);
        let a2 = child_of(&a1, 2);
        let b1 = child_of(&g, 10);
        for b in [&a1, &a2, &b1] {
            tree.insert(b.clone()).unwrap();
        }
        assert!(tree.insert(a1.clone()).is_err(), "a refused insert");
        let mut tips = tree.tips();
        tips.sort();
        let mut expect = vec![a2.hash(), b1.hash()];
        expect.sort();
        assert_eq!(tips, expect, "moves no leaf");
    }

    /// Every replica keeps one record per block for the life of a run, so
    /// the record's size is resident memory × chain length × peers. The
    /// pruned header is boxed, and non-viability is a set in `Chain`, not a
    /// flag here, to hold this line.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn stored_block_record_stays_within_96_bytes() {
        assert!(std::mem::size_of::<StoredBlock>() <= 96);
    }

    #[test]
    fn pruned_store_drops_bodies_keeps_headers() {
        let g = genesis();
        let mut tree = BlockTree::with_store(g.clone(), PrunedStore::new(2));
        let mut parent = g.clone();
        let mut hashes = vec![g.hash()];
        for h in 1..=10u64 {
            let b = child_of(&parent, h);
            hashes.push(tree.insert(b.clone()).unwrap());
            parent = b;
        }
        // Finalize height 8: bodies below 8 - 2 = 6 are dropped.
        tree.note_finalized(8);
        let stats = tree.store_stats();
        assert_eq!(stats.blocks, 11);
        assert_eq!(stats.bodies_pruned, 6, "genesis..height 5 pruned");
        for (height, hash) in hashes.iter().enumerate() {
            let sb = tree.get(hash).unwrap();
            assert_eq!(sb.height(), height as u64, "headers retained");
            assert_eq!(sb.body().is_some(), height >= 6, "bodies split at horizon");
        }
        // Ancestor walks still work across pruned history.
        assert_eq!(tree.ancestors(hashes[10]).count(), 11);
        // Pruning is idempotent and monotone.
        tree.note_finalized(8);
        assert_eq!(tree.store_stats().bodies_pruned, 6);
        assert!(tree.store_stats().resident_body_bytes < 11 * 200);
    }

    #[test]
    fn archival_store_retains_everything() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let mut parent = g.clone();
        for h in 1..=5u64 {
            let b = child_of(&parent, h);
            tree.insert(b.clone()).unwrap();
            parent = b;
        }
        tree.note_finalized(5);
        let stats = tree.store_stats();
        assert_eq!(stats.bodies_pruned, 0);
        assert_eq!(stats.bodies_resident, 6);
    }
}
