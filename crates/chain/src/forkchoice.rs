//! Branch selection algorithms (§2.4 of the paper): given the block tree,
//! pick the tip every honest peer should build on. All three rules break
//! ties by earliest arrival (first-seen, as Bitcoin does), which keeps the
//! choice deterministic in the simulator.
//!
//! Selection is incremental (DESIGN.md §9): the candidates are the tree's
//! maintained leaf set, and viability is one probe per candidate because the
//! caller's predicate is closed under descent. Longest-chain and
//! heaviest-work pick the **best viable block** — each leaf stands for its
//! first viable ancestor-or-self, which is the leaf itself unless it was
//! poisoned — so an invalid block can stop a branch but never demote valid
//! history behind it. Per import that is O(leaves); GHOST adds its one O(n)
//! subtree-size pass.

use crate::store::{BlockTree, StoredBlock};
use dcs_crypto::Hash256;
use dcs_primitives::ForkChoice;
use std::collections::BTreeMap;

/// Selects the best tip under the given rule.
///
/// # Examples
///
/// ```
/// use dcs_chain::{best_tip, BlockTree};
/// use dcs_primitives::{ChainConfig, ForkChoice};
///
/// let tree = BlockTree::new(dcs_chain::genesis_block(&ChainConfig::bitcoin_like()));
/// let tip = best_tip(&tree, ForkChoice::LongestChain);
/// assert_eq!(tip, tree.genesis());
/// ```
pub fn best_tip(tree: &BlockTree, rule: ForkChoice) -> Hash256 {
    best_tip_with(tree, rule, |_| true)
}

/// Like [`best_tip`], but only considers blocks accepted by `viable` —
/// used by the chain manager to route around blocks that failed state
/// validation. `viable` must be closed under descent: a block under a
/// non-viable one is non-viable. Operates on headers and tree metadata
/// only, so it works unchanged over a body-pruning store.
pub fn best_tip_with(
    tree: &BlockTree,
    rule: ForkChoice,
    viable: impl Fn(&Hash256) -> bool,
) -> Hash256 {
    match rule {
        ForkChoice::LongestChain => extremal_tip(tree, |sb| u128::from(sb.header().height), viable),
        ForkChoice::HeaviestWork => extremal_tip(tree, |sb| sb.total_work, viable),
        ForkChoice::Ghost => ghost_tip(tree, viable),
    }
}

/// Higher score wins; on ties, earlier arrival wins.
fn keep_better<S: PartialOrd + Copy>(best: &mut Option<(S, u64, Hash256)>, key: (S, u64, Hash256)) {
    if best.is_none_or(|(s, a, _)| key.0 > s || (key.0 == s && key.1 < a)) {
        *best = Some(key);
    }
}

fn extremal_tip(
    tree: &BlockTree,
    score: impl Fn(&StoredBlock) -> u128,
    viable: impl Fn(&Hash256) -> bool,
) -> Hash256 {
    let mut best = None;
    for mut hash in tree.tips() {
        // Each leaf stands for its first viable ancestor-or-self: zero steps
        // unless the leaf is poisoned. Scores grow along every branch, so
        // the best of these is the best viable block in the whole tree. (A
        // miss ends the walk: candidates come from the tree itself, so it
        // would be a broken invariant — skip rather than panic.)
        while let Some(sb) = tree.get(&hash) {
            if viable(&hash) {
                keep_better(&mut best, (score(sb), sb.arrival, hash));
                break;
            }
            hash = sb.header().parent;
        }
    }
    best.map_or_else(|| tree.genesis(), |b| b.2)
}

/// GHOST: starting from genesis, repeatedly step into the child whose
/// *subtree* carries the most blocks (not the longest path), until reaching
/// a leaf. Uncle blocks thus still contribute security even though they are
/// off the selected chain — which is why Ethereum tolerates 10–40 s blocks
/// (paper §2.7).
fn ghost_tip(tree: &BlockTree, viable: impl Fn(&Hash256) -> bool) -> Hash256 {
    // Precompute subtree sizes in one bottom-up pass to stay O(n).
    let mut sizes: BTreeMap<Hash256, u64> = BTreeMap::new();
    // Post-order traversal with an explicit stack.
    let mut stack = vec![(tree.genesis(), false)];
    while let Some((hash, expanded)) = stack.pop() {
        // Child links only point at stored blocks; skip on a broken link.
        let Some(sb) = tree.get(&hash) else {
            continue;
        };
        if expanded || sb.children.is_empty() {
            let size = 1 + sb
                .children
                .iter()
                .map(|c| sizes.get(c).copied().unwrap_or(0))
                .sum::<u64>();
            sizes.insert(hash, size);
        } else {
            stack.push((hash, true));
            for c in &sb.children {
                stack.push((*c, false));
            }
        }
    }
    let mut cur = tree.genesis();
    loop {
        let Some(sb) = tree.get(&cur) else {
            return cur;
        };
        if sb.children.is_empty() {
            return cur;
        }
        let mut best = None;
        for &c in &sb.children {
            if !viable(&c) {
                continue;
            }
            let Some(child_sb) = tree.get(&c) else {
                continue;
            };
            let size = sizes.get(&c).copied().unwrap_or(0);
            keep_better(&mut best, (size, child_sb.arrival, c));
        }
        // All children non-viable: stop here.
        match best {
            Some((_, _, next)) => cur = next,
            None => return cur,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::Address;
    use dcs_primitives::{Block, BlockHeader, ChainConfig, Seal};

    fn genesis() -> Block {
        crate::genesis_block(&ChainConfig::bitcoin_like())
    }

    fn child(parent: &Block, salt: u64, difficulty: u64) -> Block {
        Block::new(
            BlockHeader::new(
                parent.hash(),
                parent.header.height + 1,
                salt,
                Address::from_index(salt),
                Seal::Work {
                    nonce: salt,
                    difficulty,
                },
            ),
            vec![],
        )
    }

    /// Builds the classic GHOST example: a short branch with many siblings
    /// ("uncles") versus a longer but lighter branch.
    ///
    /// genesis ── a1 ── a2 ── a3          (longest chain, 3 deep)
    ///        └── b1 ── b2
    ///              ├── u1
    ///              ├── u2
    ///              └── u3                 (heavier subtree under b1)
    fn ghost_tree() -> (BlockTree, Block, Block) {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let a1 = child(&g, 1, 1);
        let a2 = child(&a1, 2, 1);
        let a3 = child(&a2, 3, 1);
        let b1 = child(&g, 10, 1);
        let b2 = child(&b1, 11, 1);
        let u1 = child(&b1, 12, 1);
        let u2 = child(&b1, 13, 1);
        let u3 = child(&b1, 14, 1);
        for b in [&a1, &a2, &a3, &b1, &b2, &u1, &u2, &u3] {
            tree.insert(b.clone()).unwrap();
        }
        (tree, a3, b2)
    }

    #[test]
    fn genesis_only_tree_returns_genesis() {
        let tree = BlockTree::new(genesis());
        for rule in [
            ForkChoice::LongestChain,
            ForkChoice::HeaviestWork,
            ForkChoice::Ghost,
        ] {
            assert_eq!(best_tip(&tree, rule), tree.genesis());
        }
    }

    #[test]
    fn longest_chain_picks_deepest() {
        let (tree, a3, _) = ghost_tree();
        assert_eq!(best_tip(&tree, ForkChoice::LongestChain), a3.hash());
    }

    #[test]
    fn ghost_picks_heaviest_subtree_over_longest_path() {
        let (tree, a3, b2) = ghost_tree();
        // The b-branch subtree has 5 blocks vs 3 for the a-branch; GHOST
        // descends into b1, then to the earliest-arrival child b2.
        let tip = best_tip(&tree, ForkChoice::Ghost);
        assert_eq!(tip, b2.hash());
        assert_ne!(tip, a3.hash());
    }

    #[test]
    fn heaviest_work_beats_length() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        // Long branch of trivial work.
        let a1 = child(&g, 1, 1);
        let a2 = child(&a1, 2, 1);
        let a3 = child(&a2, 3, 1);
        // Short branch with one very heavy block.
        let b1 = child(&g, 10, 1 << 20);
        for b in [&a1, &a2, &a3, &b1] {
            tree.insert(b.clone()).unwrap();
        }
        assert_eq!(best_tip(&tree, ForkChoice::LongestChain), a3.hash());
        assert_eq!(best_tip(&tree, ForkChoice::HeaviestWork), b1.hash());
    }

    #[test]
    fn first_seen_tie_break() {
        let g = genesis();
        let mut tree = BlockTree::new(g.clone());
        let first = child(&g, 1, 1);
        let second = child(&g, 2, 1);
        tree.insert(first.clone()).unwrap();
        tree.insert(second.clone()).unwrap();
        // Equal height, equal work, equal subtree size → first arrival wins.
        for rule in [
            ForkChoice::LongestChain,
            ForkChoice::HeaviestWork,
            ForkChoice::Ghost,
        ] {
            assert_eq!(best_tip(&tree, rule), first.hash(), "{rule:?}");
        }
    }
}
