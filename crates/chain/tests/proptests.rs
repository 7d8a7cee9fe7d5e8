//! Property-based tests for the chain layer: arbitrary block trees must
//! leave the chain manager in a consistent state — the canonical chain is
//! a valid path, fork choice is insensitive to delivery order (up to
//! first-seen tie-breaking), and reorgs never corrupt state.

use dcs_chain::{Chain, NullMachine, PrunedStore};
use dcs_crypto::Address;
use dcs_primitives::{Block, BlockHeader, ChainConfig, ForkChoice, Seal, Transaction};
use proptest::prelude::*;
use std::sync::Arc;

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
        for sb in archival.tree().iter() {
            let other = pruned.tree().get(&sb.hash()).expect("same block set");
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
