//! Merkle trees and inclusion proofs.
//!
//! Block bodies commit to their transactions through a Merkle root (paper
//! §2.2, Fig. 2), enabling the Simple Payment Verification protocol for
//! lightweight clients: a client holding only block headers can verify that a
//! transaction is included given an `O(log n)` [`MerkleProof`].
//!
//! Interior nodes are domain-separated from leaves (prefix byte `0x01`) so a
//! leaf value can never be reinterpreted as an interior node (second-preimage
//! hardening). Odd levels duplicate the last node, as in Bitcoin.

use crate::batch::VerifyPool;
use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::hash::Hash256;
use crate::sha256::{sha256_pair, MultiHasher};
use serde::{Deserialize, Serialize};

const NODE_PREFIX: u8 = 0x01;

/// Minimum number of parent nodes in a level before hashing it is worth
/// fanning out to the pool; below this the spawn/join overhead dominates.
const PARALLEL_PAIR_THRESHOLD: usize = 128;

/// Hashes two child digests into their parent node.
pub fn merkle_node(left: &Hash256, right: &Hash256) -> Hash256 {
    sha256_pair(NODE_PREFIX, left, right)
}

/// Pads an odd level by duplicating its last node (Bitcoin style).
fn pad_level(level: &mut Vec<Hash256>) {
    if level.len() % 2 == 1 {
        level.push(*level.last().expect("non-empty level"));
    }
}

/// Hashes one (already padded) level into its parents, fanning the pairs out
/// to `pool` when the level is large enough to amortize the spawn cost.
/// Both paths go through the multi-lane hasher — each worker of the pooled
/// path lanes its own chunk — and every parent digest is bit-identical to a
/// serial `merkle_node` fold for any thread or lane count.
fn hash_level(level: &[Hash256], pool: &VerifyPool) -> Vec<Hash256> {
    debug_assert_eq!(level.len() % 2, 0, "levels are padded before hashing");
    if pool.threads() > 1 && level.len() / 2 >= PARALLEL_PAIR_THRESHOLD {
        let pairs: Vec<&[Hash256]> = level.chunks_exact(2).collect();
        pool.map(&pairs, |pair| merkle_node(&pair[0], &pair[1]))
    } else {
        let mut out = Vec::new();
        MultiHasher::wide().hash_pairs_into(NODE_PREFIX, level, &mut out);
        out
    }
}

/// Computes just the root of a list of leaf digests without materializing the
/// tree. The root of an empty list is [`Hash256::ZERO`].
pub fn merkle_root(leaves: &[Hash256]) -> Hash256 {
    merkle_root_with(leaves, &VerifyPool::serial())
}

/// [`merkle_root`] with level hashing fanned out to `pool` for large levels.
/// Bit-identical to the serial result for any thread count.
pub fn merkle_root_with(leaves: &[Hash256], pool: &VerifyPool) -> Hash256 {
    if leaves.is_empty() {
        return Hash256::ZERO;
    }
    let mut level: Vec<Hash256> = leaves.to_vec();
    while level.len() > 1 {
        pad_level(&mut level);
        level = hash_level(&level, pool);
    }
    level[0]
}

/// A fully materialized Merkle tree supporting proof generation.
///
/// # Examples
///
/// ```
/// use dcs_crypto::{sha256, MerkleTree};
///
/// let leaves: Vec<_> = (0u8..5).map(|i| sha256(&[i])).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone());
/// for (i, leaf) in leaves.iter().enumerate() {
///     let proof = tree.prove(i).unwrap();
///     assert!(proof.verify(leaf, &tree.root()));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    // levels[0] is the (padded) leaf level; the last level is the root.
    levels: Vec<Vec<Hash256>>,
    leaf_count: usize,
}

impl MerkleTree {
    /// Builds a tree over the given leaf digests.
    pub fn from_leaves(leaves: Vec<Hash256>) -> Self {
        Self::from_leaves_with(leaves, &VerifyPool::serial())
    }

    /// [`MerkleTree::from_leaves`] with level hashing fanned out to `pool`
    /// for large levels. The resulting tree (every level, root, and proof)
    /// is bit-identical to the serial build for any thread count.
    pub fn from_leaves_with(leaves: Vec<Hash256>, pool: &VerifyPool) -> Self {
        let leaf_count = leaves.len();
        if leaves.is_empty() {
            return MerkleTree {
                levels: vec![vec![Hash256::ZERO]],
                leaf_count,
            };
        }
        let mut levels = vec![leaves];
        while levels.last().expect("at least one level").len() > 1 {
            let prev = levels.last_mut().expect("at least one level");
            pad_level(prev);
            let next = hash_level(prev, pool);
            levels.push(next);
        }
        MerkleTree { levels, leaf_count }
    }

    /// The root digest committing to all leaves.
    pub fn root(&self) -> Hash256 {
        self.levels.last().expect("at least one level")[0]
    }

    /// The number of leaves the tree was built over (before padding).
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The leaf digests the tree was built over, in order (without padding).
    pub fn leaves(&self) -> &[Hash256] {
        &self.levels[0][..self.leaf_count]
    }

    /// Produces an inclusion proof for the leaf at `index`, or `None` if the
    /// index is out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count {
            return None;
        }
        let mut siblings = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if i.is_multiple_of(2) {
                // Padded levels always have the right sibling present.
                level.get(i + 1).copied().unwrap_or(level[i])
            } else {
                level[i - 1]
            };
            siblings.push(sibling);
            i /= 2;
        }
        Some(MerkleProof {
            index: index as u64,
            siblings,
        })
    }
}

/// An `O(log n)` proof that a leaf is included under a Merkle root.
///
/// This is the object a light client downloads instead of a full block
/// (paper §2.2: "fast lookups of transaction inclusion for lightweight
/// clients").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    index: u64,
    siblings: Vec<Hash256>,
}

impl MerkleProof {
    /// The leaf position this proof speaks for.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The sibling digests from leaf level to just below the root.
    pub fn siblings(&self) -> &[Hash256] {
        &self.siblings
    }

    /// Size of the proof in bytes when encoded (used by experiment E10 to
    /// compare SPV download cost against full blocks).
    pub fn encoded_len(&self) -> usize {
        // index (u64) + sibling count (u32) + the siblings.
        8 + 4 + 32 * self.siblings.len()
    }

    /// Checks that `leaf` hashes up to `root` along this proof's path.
    pub fn verify(&self, leaf: &Hash256, root: &Hash256) -> bool {
        let mut acc = *leaf;
        let mut i = self.index;
        for sibling in &self.siblings {
            acc = if i.is_multiple_of(2) {
                merkle_node(&acc, sibling)
            } else {
                merkle_node(sibling, &acc)
            };
            i /= 2;
        }
        acc == *root
    }

    /// [`MerkleProof::verify`] for many `(proof, leaf, root)` claims at once:
    /// `out[i]` is exactly `claims[i].0.verify(&leaf, &root)`, forged,
    /// truncated and over-long proofs included. The claims climb together —
    /// at each depth every proof that still has a sibling puts its ordered
    /// pair into one multi-lane level hash — so proofs of different depths
    /// simply drop out when they end.
    pub fn verify_many(claims: &[(&MerkleProof, Hash256, Hash256)]) -> Vec<bool> {
        let mut acc: Vec<Hash256> = claims.iter().map(|(_, leaf, _)| *leaf).collect();
        let mut index: Vec<u64> = claims.iter().map(|(proof, ..)| proof.index).collect();
        let mut climbing: Vec<usize> = (0..claims.len()).collect();
        let (mut level, mut parents) = (Vec::new(), Vec::new());
        let hasher = MultiHasher::wide();
        for depth in 0.. {
            climbing.retain(|&c| depth < claims[c].0.siblings.len());
            if climbing.is_empty() {
                break;
            }
            level.clear();
            for &c in &climbing {
                let sibling = claims[c].0.siblings[depth];
                if index[c].is_multiple_of(2) {
                    level.extend([acc[c], sibling]);
                } else {
                    level.extend([sibling, acc[c]]);
                }
                index[c] /= 2;
            }
            parents.clear();
            hasher.hash_pairs_into(NODE_PREFIX, &level, &mut parents);
            for (&c, parent) in climbing.iter().zip(&parents) {
                acc[c] = *parent;
            }
        }
        claims
            .iter()
            .zip(acc)
            .map(|((.., root), acc)| acc == *root)
            .collect()
    }
}

impl Encode for MerkleProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index.encode(out);
        self.siblings.encode(out);
    }
}

impl Decode for MerkleProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MerkleProof {
            index: u64::decode(r)?,
            siblings: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    fn leaves(n: usize) -> Vec<Hash256> {
        (0..n).map(|i| sha256(&(i as u64).to_be_bytes())).collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        assert_eq!(merkle_root(&[]), Hash256::ZERO);
        let t = MerkleTree::from_leaves(vec![]);
        assert_eq!(t.root(), Hash256::ZERO);
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        assert_eq!(merkle_root(&l), l[0]);
    }

    #[test]
    fn tree_root_matches_streaming_root() {
        for n in 1..=33 {
            let l = leaves(n);
            assert_eq!(
                MerkleTree::from_leaves(l.clone()).root(),
                merkle_root(&l),
                "n={n}"
            );
            assert_eq!(MerkleTree::from_leaves(l.clone()).leaves(), l, "n={n}");
        }
    }

    #[test]
    fn proofs_verify_for_all_indices_and_sizes() {
        for n in 1..=17 {
            let l = leaves(n);
            let t = MerkleTree::from_leaves(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let p = t.prove(i).expect("index in range");
                assert!(p.verify(leaf, &t.root()), "n={n} i={i}");
            }
            assert!(t.prove(n).is_none());
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf_and_wrong_root() {
        let l = leaves(8);
        let t = MerkleTree::from_leaves(l.clone());
        let p = t.prove(3).unwrap();
        assert!(!p.verify(&l[4], &t.root()));
        assert!(!p.verify(&l[3], &sha256(b"not the root")));
    }

    #[test]
    fn proof_rejects_tampered_sibling() {
        let l = leaves(8);
        let t = MerkleTree::from_leaves(l.clone());
        let mut p = t.prove(2).unwrap();
        p.siblings[1] = sha256(b"tampered");
        assert!(!p.verify(&l[2], &t.root()));
    }

    #[test]
    fn domain_separation_differs_from_plain_concat() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_ne!(
            merkle_node(&a, &b),
            crate::sha256_concat(a.as_ref(), b.as_ref())
        );
    }

    #[test]
    fn order_matters() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert_ne!(merkle_node(&a, &b), merkle_node(&b, &a));
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Sizes straddling PARALLEL_PAIR_THRESHOLD, including odd counts.
        for n in [1usize, 2, 7, 255, 256, 257, 300, 513, 1000] {
            let l = leaves(n);
            let serial = MerkleTree::from_leaves(l.clone());
            for threads in [2, 4, 8] {
                let pool = VerifyPool::new(threads);
                assert_eq!(
                    merkle_root_with(&l, &pool),
                    serial.root(),
                    "n={n} t={threads}"
                );
                let par = MerkleTree::from_leaves_with(l.clone(), &pool);
                assert_eq!(par.root(), serial.root(), "n={n} t={threads}");
                assert_eq!(par.leaf_count(), serial.leaf_count());
                // Proofs from the parallel tree verify against the serial root.
                for i in [0, n / 2, n - 1] {
                    let p = par.prove(i).expect("index in range");
                    assert!(p.verify(&l[i], &serial.root()), "n={n} t={threads} i={i}");
                }
            }
        }
    }

    /// `verify_many` against the single-proof oracle on a mix of valid and
    /// forged claims over trees of different depths.
    #[test]
    fn verify_many_matches_verify_around_the_lane_width() {
        let trees: Vec<(Vec<Hash256>, MerkleTree)> = [1usize, 2, 5, 8, 33]
            .iter()
            .map(|&n| (leaves(n), MerkleTree::from_leaves(leaves(n))))
            .collect();
        for n in [0usize, 1, 7, 8, 9] {
            let proofs: Vec<(MerkleProof, Hash256, Hash256)> = (0..n)
                .map(|c| {
                    let (l, t) = &trees[c % trees.len()];
                    let i = (c * 3) % l.len();
                    let mut proof = t.prove(i).expect("index in range");
                    // Every third claim is forged a different way.
                    match c % 6 {
                        2 if !proof.siblings.is_empty() => {
                            proof.siblings.pop();
                        }
                        5 => proof.siblings.push(sha256(b"extra")),
                        _ => {}
                    }
                    (proof, l[i], t.root())
                })
                .collect();
            let claims: Vec<_> = proofs.iter().map(|(p, l, r)| (p, *l, *r)).collect();
            let serial: Vec<bool> = proofs.iter().map(|(p, l, r)| p.verify(l, r)).collect();
            assert_eq!(MerkleProof::verify_many(&claims), serial, "n={n}");
            if n >= 7 {
                assert!(serial.contains(&true) && serial.contains(&false), "n={n}");
            }
        }
    }

    #[test]
    fn encoded_len_is_the_encoders() {
        for depth in 0..=20usize {
            let proof = MerkleProof {
                index: depth as u64,
                siblings: leaves(depth),
            };
            assert_eq!(proof.encoded_len(), proof.encoded().len(), "depth {depth}");
        }
    }

    #[test]
    fn proof_codec_round_trip() {
        let l = leaves(10);
        let t = MerkleTree::from_leaves(l);
        let p = t.prove(7).unwrap();
        let decoded = crate::codec::decode_all::<MerkleProof>(&p.encoded()).unwrap();
        assert_eq!(decoded, p);
    }
}
