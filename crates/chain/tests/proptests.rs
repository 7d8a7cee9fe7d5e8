//! Property-based tests for the chain layer: arbitrary block trees must
//! leave the chain manager in a consistent state — the canonical chain is
//! a valid path, fork choice is insensitive to delivery order (up to
//! first-seen tie-breaking), and reorgs never corrupt state. The last
//! property holds the incremental fork choice (leaf set, descent-closed
//! poison set) to a from-scratch reference after every single import.

use dcs_chain::{BlockTree, Chain, NullMachine, PrunedStore, StateMachine, StoredBlock};
use dcs_crypto::{Address, Hash256};
use dcs_primitives::{
    AccountTx, Block, BlockHeader, ChainConfig, ForkChoice, Receipt, Seal, Transaction,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The stored records by hash. [`BlockTree::iter`] promises no order (the
/// records sit in a hash table), so every walk of it here goes through
/// this sorted view and no verdict depends on table order.
fn records(tree: &BlockTree) -> BTreeMap<Hash256, &StoredBlock> {
    tree.iter().map(|sb| (sb.hash(), sb)).collect()
}

/// Builds a random tree description: each entry is (parent index into the
/// list of already-created blocks, salt).
fn arb_tree(max: usize) -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((any::<usize>(), any::<u64>()), 1..max)
}

fn make_blocks(spec: &[(usize, u64)], genesis: &Block) -> Vec<Block> {
    let mut blocks: Vec<Block> = vec![genesis.clone()];
    for (parent_raw, salt) in spec {
        let parent = &blocks[parent_raw % blocks.len()];
        let block = Block::new(
            BlockHeader::new(
                parent.hash(),
                parent.header.height + 1,
                *salt,
                Address::from_index(*salt % 16),
                Seal::Work {
                    nonce: *salt,
                    difficulty: 1 + salt % 1_000,
                },
            ),
            vec![Transaction::Coinbase {
                to: Address::from_index(*salt % 16),
                value: 1,
                height: parent.header.height + 1,
            }],
        );
        blocks.push(block);
    }
    blocks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_chain_is_always_a_valid_path(
        spec in arb_tree(40),
        rule_pick in 0usize..3,
    ) {
        let rule = [ForkChoice::LongestChain, ForkChoice::HeaviestWork, ForkChoice::Ghost][rule_pick];
        let mut cfg = ChainConfig::bitcoin_like();
        cfg.fork_choice = rule;
        let genesis = dcs_chain::genesis_block(&cfg);
        let blocks = make_blocks(&spec, &genesis);
        let mut chain = Chain::new(genesis.clone(), cfg, NullMachine);
        for b in &blocks[1..] {
            let _ = chain.import(b.clone()); // duplicates allowed to error
        }
        // Invariant 1: canonical[i] links to canonical[i-1].
        let canonical = chain.canonical().to_vec();
        prop_assert_eq!(canonical[0], genesis.hash());
        for w in canonical.windows(2) {
            let child = chain.tree().get(&w[1]).unwrap().header();
            prop_assert_eq!(child.parent, w[0]);
        }
        // Invariant 2: heights are consecutive.
        for (h, hash) in canonical.iter().enumerate() {
            prop_assert_eq!(chain.tree().get(hash).unwrap().height(), h as u64);
            prop_assert!(chain.is_canonical(hash));
        }
        // Invariant 3: the tip is a leaf under the rule's own scoring (no
        // canonical child exists beyond it).
        prop_assert_eq!(*canonical.last().unwrap(), chain.tip_hash());
    }

    #[test]
    fn delivery_order_does_not_change_the_final_tip_score(
        spec in arb_tree(30),
        shuffle_seed in any::<u64>(),
    ) {
        // Different delivery orders may pick different first-seen
        // tie-break winners, but the *score* of the selected tip (height
        // for longest-chain) must match.
        let cfg = ChainConfig::bitcoin_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let blocks = make_blocks(&spec, &genesis);

        let run = |order: &[Block]| {
            let mut chain = Chain::new(genesis.clone(), cfg.clone(), NullMachine);
            for b in order {
                let _ = chain.import(b.clone());
            }
            chain.height()
        };
        let in_order = run(&blocks[1..]);

        let mut shuffled: Vec<Block> = blocks[1..].to_vec();
        let mut rng = dcs_sim::Rng::seed_from(shuffle_seed);
        rng.shuffle(&mut shuffled);
        let out_of_order = run(&shuffled);
        prop_assert_eq!(in_order, out_of_order);
    }

    #[test]
    fn archival_and_pruned_backends_agree(
        main_len in 10usize..40,
        forks in proptest::collection::vec(
            // (main height offset at which the fork starts counting from the
            //  delivery cursor, blocks back from there, fork length, salt,
            //  deliver the fork children-first to exercise the orphan pool)
            (0usize..8, 0u64..3, 1usize..4, any::<u64>(), any::<bool>()),
            0..10,
        ),
        rule_pick in 0usize..3,
        keep_depth in 0u64..8,
    ) {
        // The retention policy must be invisible to consensus: over the same
        // randomized import sequence (near-tip forks that force reorgs and
        // out-of-order deliveries that exercise the orphan pool), an
        // archival node and a pruning node must land on identical tips,
        // canonical chains, and incremental stats. Forks stay within the
        // finality window — a pruned node's contract does not cover reorgs
        // past its horizon. Blocks are shared `Arc`s, so the two chains
        // also exercise the zero-copy path.
        let rule = [ForkChoice::LongestChain, ForkChoice::HeaviestWork, ForkChoice::Ghost][rule_pick];
        let mut cfg = ChainConfig::bitcoin_like();
        cfg.fork_choice = rule;
        let genesis = dcs_chain::genesis_block(&cfg);

        // Uniform-work child so every rule reorgs only near the tip.
        let child = |parent: &Block, salt: u64| {
            Arc::new(Block::new(
                BlockHeader::new(
                    parent.hash(),
                    parent.header.height + 1,
                    salt,
                    Address::from_index(salt % 16),
                    Seal::Work { nonce: salt, difficulty: 1 },
                ),
                vec![Transaction::Coinbase {
                    to: Address::from_index(salt % 16),
                    value: 1,
                    height: parent.header.height + 1,
                }],
            ))
        };
        let mut main: Vec<Arc<Block>> = vec![Arc::new(genesis.clone())];
        for i in 0..main_len {
            let b = child(main.last().unwrap(), i as u64);
            main.push(b);
        }

        let mut archival = Chain::new(genesis.clone(), cfg.clone(), NullMachine);
        let mut pruned =
            Chain::with_store(genesis.clone(), cfg, NullMachine, PrunedStore::new(keep_depth));
        let deliver = |a: &mut Chain<NullMachine>,
                           p: &mut Chain<NullMachine>,
                           b: &Arc<Block>|
         -> Result<(), TestCaseError> {
            prop_assert_eq!(a.import(Arc::clone(b)), p.import(Arc::clone(b)));
            Ok(())
        };

        let mut cursor = 1usize; // next undelivered main block
        for (at, back, len, salt, children_first) in forks {
            // Advance the main chain to the fork's start point.
            let stop = (cursor + at).min(main.len());
            while cursor < stop {
                deliver(&mut archival, &mut pruned, &main[cursor])?;
                cursor += 1;
            }
            // Build a short fork rooted near the delivered tip.
            let delivered_tip = cursor - 1;
            let root = &main[delivered_tip.saturating_sub(back as usize)];
            let mut fork = Vec::with_capacity(len);
            let mut parent = Arc::clone(root);
            for i in 0..len {
                let b = child(&parent, salt.wrapping_add(1_000_000 + i as u64));
                parent = Arc::clone(&b);
                fork.push(b);
            }
            // Children-first delivery parks the tail as orphans until the
            // fork's first block connects them all at once.
            if children_first {
                fork.reverse();
            }
            for b in &fork {
                deliver(&mut archival, &mut pruned, b)?;
            }
        }
        while cursor < main.len() {
            deliver(&mut archival, &mut pruned, &main[cursor])?;
            cursor += 1;
        }

        prop_assert_eq!(archival.tip_hash(), pruned.tip_hash());
        prop_assert_eq!(archival.canonical(), pruned.canonical());
        prop_assert_eq!(archival.canon_stats(), pruned.canon_stats());
        prop_assert_eq!(archival.stats(), pruned.stats());
        prop_assert_eq!(archival.tree().len(), pruned.tree().len());
        // The pruned store never holds more body bytes than the archival one.
        prop_assert!(
            pruned.tree().store_stats().resident_body_bytes
                <= archival.tree().store_stats().resident_body_bytes
        );
        // Headers and work metadata survive pruning for every stored block.
        let (kept, pruned_records) = (records(archival.tree()), records(pruned.tree()));
        prop_assert!(kept.keys().eq(pruned_records.keys()), "same block set");
        for (sb, other) in kept.values().zip(pruned_records.values()) {
            prop_assert_eq!(sb.header(), other.header());
            prop_assert_eq!(sb.total_work, other.total_work);
        }
    }

    #[test]
    fn stats_are_consistent(spec in arb_tree(40)) {
        let cfg = ChainConfig::bitcoin_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let blocks = make_blocks(&spec, &genesis);
        let mut chain = Chain::new(genesis, cfg, NullMachine);
        for b in &blocks[1..] {
            let _ = chain.import(b.clone());
        }
        let stats = chain.stats();
        let hist_total: u64 = stats.reorg_depth_hist.iter().sum();
        prop_assert_eq!(hist_total, stats.reorgs);
        prop_assert!(stats.max_reorg_depth <= stats.blocks_reverted);
        prop_assert_eq!(
            chain.stale_blocks(),
            chain.tree().len() as u64 - chain.canonical().len() as u64
        );
    }
}

/// Rejects any block carrying an account transaction of value 666, and
/// remembers which blocks it rejected — the reference's poison roots.
#[derive(Debug, Default)]
struct Picky {
    applied: Vec<Hash256>,
    rejected: BTreeSet<Hash256>,
}

const CURSED: u64 = 666;

impl StateMachine for Picky {
    type Undo = Hash256;

    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, Hash256), String> {
        let cursed = |t: &Transaction| matches!(t, Transaction::Account(a) if a.value == CURSED);
        if block.txs.iter().any(cursed) {
            self.rejected.insert(block.hash());
            return Err("cursed value".into());
        }
        self.applied.push(block.hash());
        Ok((vec![], block.hash()))
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

/// The from-scratch fork choice the incremental one is held to. It keeps
/// nothing between imports: every answer is recomputed from the stored
/// records' parent links, own work and arrival numbers by walking to
/// genesis — the quadratic way the chain manager no longer does it.
struct Reference {
    /// hash → (parent, this block's own work, arrival).
    records: BTreeMap<Hash256, (Hash256, u128, u64)>,
    genesis: Hash256,
}

impl Reference {
    fn of(tree: &BlockTree) -> Self {
        let record = |(hash, sb): (Hash256, &StoredBlock)| {
            let header = sb.header();
            (hash, (header.parent, header.work(), sb.arrival))
        };
        Reference {
            records: records(tree).into_iter().map(record).collect(),
            genesis: tree.genesis(),
        }
    }

    /// `hash`, its parent, … down to genesis.
    fn lineage(&self, hash: Hash256) -> Vec<Hash256> {
        let mut path = vec![hash];
        while *path.last().unwrap() != self.genesis {
            path.push(self.records[path.last().unwrap()].0);
        }
        path
    }

    fn arrival(&self, hash: &Hash256) -> u64 {
        self.records[hash].2
    }

    fn viable(&self, hash: Hash256, rejected: &BTreeSet<Hash256>) -> bool {
        self.lineage(hash).iter().all(|h| !rejected.contains(h))
    }

    fn children(&self, hash: Hash256) -> Vec<Hash256> {
        let is_child = |(h, r): (&Hash256, &(Hash256, u128, u64))| {
            (r.0 == hash && *h != self.genesis).then_some(*h)
        };
        self.records.iter().filter_map(is_child).collect()
    }

    fn subtree_size(&self, root: Hash256) -> usize {
        let under = |h: &&Hash256| self.lineage(**h).contains(&root);
        self.records.keys().filter(under).count()
    }

    fn leaves(&self) -> BTreeSet<Hash256> {
        let childless = |h: &&Hash256| self.children(**h).is_empty();
        self.records.keys().filter(childless).copied().collect()
    }

    fn non_viable(&self, rejected: &BTreeSet<Hash256>) -> BTreeSet<Hash256> {
        let poisoned = |h: &&Hash256| !self.viable(**h, rejected);
        self.records.keys().filter(poisoned).copied().collect()
    }

    /// Best viable block by (score, earliest arrival); GHOST descends from
    /// genesis through viable children by (subtree size, earliest arrival).
    fn best_tip(&self, rule: ForkChoice, rejected: &BTreeSet<Hash256>) -> Hash256 {
        let score = |h: Hash256| -> u128 {
            let lineage = self.lineage(h);
            match rule {
                ForkChoice::LongestChain => lineage.len() as u128,
                _ => lineage.iter().map(|a| self.records[a].1).sum(),
            }
        };
        if rule != ForkChoice::Ghost {
            let viable = self.records.keys().filter(|h| self.viable(**h, rejected));
            let best = viable.max_by_key(|h| (score(**h), Reverse(self.arrival(h))));
            return best.copied().unwrap_or(self.genesis);
        }
        let mut cur = self.genesis;
        loop {
            let children = self.children(cur);
            let viable = children.iter().filter(|c| self.viable(**c, rejected));
            match viable.max_by_key(|c| (self.subtree_size(**c), Reverse(self.arrival(c)))) {
                Some(next) => cur = *next,
                None => return cur,
            }
        }
    }
}

/// Everything the differential property asserts about one chain after one
/// import. `bodies` is the test's own copy of every block, so the stats
/// recomputation does not depend on what a pruning store still holds.
fn assert_matches_reference(
    chain: &Chain<Picky>,
    bodies: &BTreeMap<Hash256, Arc<Block>>,
) -> Result<(), TestCaseError> {
    let reference = Reference::of(chain.tree());
    let rejected = &chain.machine().rejected;
    let rule = chain.config().fork_choice;
    prop_assert_eq!(chain.tip_hash(), reference.best_tip(rule, rejected));
    let tips: BTreeSet<Hash256> = chain.tree().tips().into_iter().collect();
    prop_assert_eq!(tips, reference.leaves());
    prop_assert_eq!(chain.invalid(), &reference.non_viable(rejected));
    prop_assert_eq!(chain.stats().invalid_blocks, rejected.len() as u64);
    prop_assert_eq!(chain.stats().internal_errors, 0);

    // The machine sits exactly on the canonical chain, and the incremental
    // canonical statistics equal a fresh walk of it.
    let canonical = &chain.canonical()[1..];
    prop_assert_eq!(&chain.machine().applied[..], canonical);
    let stats = chain.canon_stats();
    let client_txs = |h: &Hash256| {
        let is_client = |t: &&Transaction| !matches!(t, Transaction::Coinbase { .. });
        bodies[h].txs.iter().filter(is_client).count() as u32
    };
    let fees = canonical
        .iter()
        .map(|h| u128::from(bodies[h].offered_fees()));
    prop_assert_eq!(stats.blocks, canonical.len() as u64);
    prop_assert_eq!(stats.total_fees, fees.sum::<u128>());
    let txs = canonical.iter().map(|h| u64::from(client_txs(h)));
    prop_assert_eq!(stats.committed_txs, txs.sum::<u64>());
    for hash in records(chain.tree()).into_keys() {
        let expect = canonical.contains(&hash).then(|| client_txs(&hash));
        prop_assert_eq!(stats.block_txs(&hash), expect);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

    #[test]
    fn incremental_fork_choice_matches_a_from_scratch_reference(
        trunk_len in 0usize..12,
        cursed_trunk in 0usize..48,
        // (parent index into the blocks created so far, salt, cursed if 0)
        spec in proptest::collection::vec((any::<usize>(), any::<u64>(), 0u8..8), 1..28),
        swaps in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..16),
        rule_pick in 0usize..3,
        keep_depth in 0u64..4,
    ) {
        let rule = [ForkChoice::LongestChain, ForkChoice::HeaviestWork, ForkChoice::Ghost][rule_pick];
        let mut cfg = ChainConfig::bitcoin_like();
        cfg.fork_choice = rule;
        let genesis = Arc::new(dcs_chain::genesis_block(&cfg));

        let child = |parent: &Block, index: usize, salt: u64, cursed: bool| {
            let value = if cursed { CURSED } else { 1 + salt % 500 };
            let pay = AccountTx::transfer(Address::from_index(1), Address::from_index(2), value, 0);
            let mut txs = vec![Transaction::Coinbase {
                to: Address::from_index(salt % 16),
                value: 1,
                height: parent.header.height + 1,
            }];
            txs.extend((cursed || !salt.is_multiple_of(3)).then_some(Transaction::Account(pay)));
            let seal = Seal::Work { nonce: salt, difficulty: 1 + salt % 4 };
            let header = BlockHeader::new(
                parent.hash(),
                parent.header.height + 1,
                index as u64, // unique per block, so no two blocks collide
                Address::from_index(salt % 16),
                seal,
            );
            Arc::new(Block::new(header, txs))
        };

        // A linear trunk delivered in order (the part a pruning store gets
        // to drop), then a random tree over it delivered in scrambled order:
        // forks anywhere, children before parents, one block in eight
        // rejected by the machine — sometimes a trunk block, which poisons
        // everything.
        let mut blocks: Vec<Arc<Block>> = vec![Arc::clone(&genesis)];
        for i in 0..trunk_len {
            blocks.push(child(&blocks[i], i, i as u64, i == cursed_trunk));
        }
        let trunk_tip_height = trunk_len as u64;
        for (i, (parent_raw, salt, cursed)) in spec.iter().enumerate() {
            // Parents come from the trunk tip and the random section only,
            // so no fork roots inside history a pruning store may drop.
            let parent = trunk_len + parent_raw % (blocks.len() - trunk_len);
            blocks.push(child(&blocks[parent], trunk_len + i, *salt, *cursed == 0));
        }
        let mut order: Vec<usize> = (trunk_len + 1..blocks.len()).collect();
        for (a, b) in swaps {
            let (a, b) = (a % order.len(), b % order.len());
            order.swap(a, b);
        }
        let delivery = (1..=trunk_len).chain(order);
        let bodies: BTreeMap<Hash256, Arc<Block>> =
            blocks.iter().map(|b| (b.hash(), Arc::clone(b))).collect();

        // The pruning node finalizes just far enough behind the tip that
        // the whole random section stays resident (a pruned node's contract
        // does not cover reorgs past its horizon); the trunk is pruned as
        // the head climbs.
        let top = blocks.iter().map(|b| b.header.height).max().unwrap();
        cfg.confirmation_depth = top - trunk_tip_height;
        let mut archival = Chain::new(Arc::clone(&genesis), cfg.clone(), Picky::default());
        let store = PrunedStore::new(keep_depth);
        let mut pruned = Chain::with_store(Arc::clone(&genesis), cfg, Picky::default(), store);

        for i in delivery {
            let a = archival.import(Arc::clone(&blocks[i]));
            prop_assert!(a.is_ok(), "import failed: {:?}", a);
            prop_assert_eq!(a, pruned.import(Arc::clone(&blocks[i])));
            assert_matches_reference(&archival, &bodies)?;
            assert_matches_reference(&pruned, &bodies)?;
        }
        prop_assert_eq!(archival.tree().orphan_count(), 0);
        prop_assert_eq!(archival.tree().len(), blocks.len());
    }
}
