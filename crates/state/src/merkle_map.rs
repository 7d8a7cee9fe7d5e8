//! A canonical binary Merkle trie: an authenticated key→value map whose root
//! hash is a pure function of its contents (independent of insertion order),
//! with `O(log n)` inclusion proofs.
//!
//! Keys are routed by the bits of their SHA-256, so the trie is balanced in
//! expectation without rotations. The structure is kept canonical — every
//! branch has at least two leaves below it, and removals collapse chains — so
//! two maps with equal contents always have equal roots, which is what makes
//! the root usable as the header `state_root`.
//!
//! The map keeps its entries once, in an ordered `key → value` index that
//! every read goes to: a lookup by key hashes nothing. The trie beside it
//! holds only digests — a leaf is its key hash and its leaf digest — in an
//! index arena (`Vec<Node>`, `u32` children, a free list), so a node can be
//! addressed by level without re-walking from the root. A block's writes go
//! through [`MerkleMap::write_batch`], which edits the structure first and
//! hashes afterwards, level by level, through the multi-lane hasher.
//!
//! The map is generic over its key type: anything ordered that is a byte
//! string (`K: Ord + AsRef<[u8]>`). The key's bytes are what the trie hashes
//! and proves, so the root depends on them alone; `K`'s order only has to be
//! the byte order of those bytes for [`MerkleMap::iter`] to be key-ordered.
//! The default, `Vec<u8>`, takes any byte string; the account database keys
//! its map by the fixed-size, non-allocating [`crate::StateKey`].

use dcs_crypto::codec::{Decode, DecodeError, Encode, Reader};
use dcs_crypto::{sha256, Hash256, MultiHasher, Sha256};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Domain prefix of a leaf digest: `sha256(0x10 ‖ key_hash ‖ sha256(value))`.
const LEAF_PREFIX: u8 = 0x10;
/// Domain prefix of a branch digest: `sha256(0x11 ‖ left ‖ right)`.
const BRANCH_PREFIX: u8 = 0x11;

fn leaf_hash(key_hash: &Hash256, value: &[u8]) -> Hash256 {
    let mut ctx = Sha256::new();
    ctx.update(&[LEAF_PREFIX]);
    ctx.update(key_hash.as_ref());
    ctx.update(sha256(value).as_ref());
    ctx.finalize()
}

fn branch_hash(left: &Hash256, right: &Hash256) -> Hash256 {
    let mut ctx = Sha256::new();
    ctx.update(&[BRANCH_PREFIX]);
    ctx.update(left.as_ref());
    ctx.update(right.as_ref());
    ctx.finalize()
}

/// Extracts bit `i` (0 = most significant) of a key hash.
fn bit(h: &Hash256, i: usize) -> bool {
    (h.as_bytes()[i / 8] >> (7 - i % 8)) & 1 == 1
}

/// Arena index of "no child".
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Node {
    Leaf {
        key_hash: Hash256,
        hash: Hash256,
    },
    Branch {
        left: u32,
        right: u32,
        hash: Hash256,
    },
}

/// One write of a [`MerkleMap::write_batch`] call after deduplication,
/// routed by the hash of its key.
#[derive(Clone, Copy)]
struct Write {
    kh: Hash256,
    /// The digest of the leaf to place; `None` removes the key.
    leaf: Option<Hash256>,
}

/// A branch whose children changed during a batch's structural pass and
/// whose digest is therefore stale, with the depth it sits at.
type Dirty = (u32, u32);

/// An authenticated map with a Merkle root and inclusion proofs.
///
/// # Examples
///
/// ```
/// use dcs_state::MerkleMap;
///
/// let mut m = MerkleMap::new();
/// m.insert(b"k".to_vec(), b"v1".to_vec());
/// let r1 = m.root();
/// m.insert(b"k".to_vec(), b"v2".to_vec());
/// assert_ne!(m.root(), r1);
/// assert_eq!(m.get(&b"k"[..]), Some(&b"v2"[..]));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleMap<K = Vec<u8>> {
    /// The contents. Reads never touch the trie.
    entries: BTreeMap<K, Vec<u8>>,
    nodes: Vec<Node>,
    /// Arena slots released by removals and collapses, reused before the
    /// arena grows.
    free: Vec<u32>,
    root: u32,
}

impl<K> Default for MerkleMap<K> {
    fn default() -> Self {
        MerkleMap {
            entries: BTreeMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
        }
    }
}

impl MerkleMap {
    /// Creates an empty map over byte-string keys (root =
    /// [`Hash256::ZERO`]); `MerkleMap::<K>::default()` for any other key.
    pub fn new() -> Self {
        MerkleMap::default()
    }
}

impl<K: Ord + AsRef<[u8]>> MerkleMap<K> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The root digest committing to the full contents.
    pub fn root(&self) -> Hash256 {
        self.hash_of(self.root)
    }

    /// Looks up the value stored under `key`.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&[u8]>
    where
        K: Borrow<Q>,
    {
        self.entries.get(key).map(Vec::as_slice)
    }

    fn hash_of(&self, id: u32) -> Hash256 {
        if id == NIL {
            return Hash256::ZERO;
        }
        match self.nodes[id as usize] {
            Node::Leaf { hash, .. } | Node::Branch { hash, .. } => hash,
        }
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = node;
            return id;
        }
        let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 trie nodes");
        assert_ne!(id, NIL, "fewer than 2^32 trie nodes");
        self.nodes.push(node);
        id
    }

    fn release(&mut self, id: u32) {
        self.free.push(id);
    }

    /// What a branch left with these children collapses to, if it does:
    /// nothing when both are gone, and a lone *leaf* child itself, which
    /// rises to the shallowest depth where its path is unique. A lone
    /// *branch* child stays put — its subtree's leaves still diverge at
    /// their original depths, so the unary chain above them is part of the
    /// canonical shape.
    fn collapsed(&self, left: u32, right: u32) -> Option<u32> {
        let only = match (left, right) {
            (NIL, only) | (only, NIL) => only,
            _ => return None,
        };
        (only == NIL || matches!(self.nodes[only as usize], Node::Leaf { .. })).then_some(only)
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn insert(&mut self, key: K, value: Vec<u8>) -> Option<Vec<u8>> {
        let kh = sha256(key.as_ref());
        let leaf = leaf_hash(&kh, &value);
        self.root = self.insert_at(self.root, kh, leaf, 0);
        self.entries.insert(key, value)
    }

    fn insert_at(&mut self, node: u32, kh: Hash256, leaf: Hash256, depth: usize) -> u32 {
        let new_leaf = Node::Leaf {
            key_hash: kh,
            hash: leaf,
        };
        if node == NIL {
            return self.alloc(new_leaf);
        }
        match self.nodes[node as usize] {
            Node::Leaf { key_hash, .. } if key_hash == kh => {
                self.nodes[node as usize] = new_leaf;
                node
            }
            Node::Leaf { key_hash, .. } => {
                // Split: push the existing leaf down until the paths of the
                // two key hashes diverge.
                let new_bit = bit(&kh, depth);
                let (left, right) = if bit(&key_hash, depth) == new_bit {
                    let child = self.insert_at(node, kh, leaf, depth + 1);
                    if new_bit {
                        (NIL, child)
                    } else {
                        (child, NIL)
                    }
                } else {
                    let fresh = self.alloc(new_leaf);
                    if new_bit {
                        (node, fresh)
                    } else {
                        (fresh, node)
                    }
                };
                let hash = branch_hash(&self.hash_of(left), &self.hash_of(right));
                self.alloc(Node::Branch { left, right, hash })
            }
            Node::Branch { left, right, .. } => {
                let (left, right) = if bit(&kh, depth) {
                    (left, self.insert_at(right, kh, leaf, depth + 1))
                } else {
                    (self.insert_at(left, kh, leaf, depth + 1), right)
                };
                let hash = branch_hash(&self.hash_of(left), &self.hash_of(right));
                self.nodes[node as usize] = Node::Branch { left, right, hash };
                node
            }
        }
    }

    /// Removes `key`, returning its value if present. Collapses now-unary
    /// branches to keep the structure (and root) canonical.
    pub fn remove<Q: Ord + AsRef<[u8]> + ?Sized>(&mut self, key: &Q) -> Option<Vec<u8>>
    where
        K: Borrow<Q>,
    {
        let old = self.entries.remove(key)?;
        self.root = self.remove_at(self.root, &sha256(key.as_ref()), 0);
        Some(old)
    }

    /// Removes the leaf of a key the index held, so the walk ends on it.
    fn remove_at(&mut self, node: u32, kh: &Hash256, depth: usize) -> u32 {
        match self.nodes[node as usize] {
            Node::Leaf { key_hash, .. } => {
                debug_assert_eq!(key_hash, *kh, "index and trie hold the same keys");
                self.release(node);
                NIL
            }
            Node::Branch { left, right, .. } => {
                let (left, right) = if bit(kh, depth) {
                    (left, self.remove_at(right, kh, depth + 1))
                } else {
                    (self.remove_at(left, kh, depth + 1), right)
                };
                if let Some(leaf) = self.collapsed(left, right) {
                    self.release(node);
                    return leaf;
                }
                let hash = branch_hash(&self.hash_of(left), &self.hash_of(right));
                self.nodes[node as usize] = Node::Branch { left, right, hash };
                node
            }
        }
    }

    /// Applies a whole batch of writes (`Some` = insert/replace, `None` =
    /// remove) in two phases. The structural pass inserts, replaces, removes,
    /// splits and collapses without hashing a node, noting each branch it
    /// leaves stale with its depth; then the stale branches are hashed
    /// deepest level first, a level at a time through the multi-lane hasher —
    /// as are the key hashes, the value digests and the leaf digests before
    /// the pass. Every touched node is hashed exactly once per batch, against
    /// once per write on the serial path, which rehashes the full root path
    /// each time. Later writes to the same key override earlier ones, exactly
    /// as serial application would. Because the trie is content-addressed,
    /// the resulting root is bit-identical to replaying the batch through
    /// [`MerkleMap::insert`] / [`MerkleMap::remove`] in order.
    pub fn write_batch(&mut self, entries: Vec<(K, Option<Vec<u8>>)>) {
        let dirty = self.restructure(entries);
        self.rehash(dirty);
    }

    /// The first phase of [`MerkleMap::write_batch`]: updates the index,
    /// places the new leaves (their digests computed here, batched) and
    /// returns the branches left with a stale digest.
    fn restructure(&mut self, entries: Vec<(K, Option<Vec<u8>>)>) -> Vec<Dirty> {
        let hasher = MultiHasher::wide();
        let keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_ref()).collect();
        let key_hashes = hasher.hash_many(&keys);
        let mut items: Vec<(Hash256, K, Option<Vec<u8>>)> = entries
            .into_iter()
            .zip(key_hashes)
            .map(|((key, value), kh)| (kh, key, value))
            .collect();
        // Byte order of the key hash IS the routing path order (MSB-first
        // bits), so one sort gives every recursion level its partition.
        // The sort is stable: later writes to the same key stay later, and
        // the last of each run survives.
        items.sort_by_key(|e| e.0);
        items.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });

        let (live, values): (Vec<Hash256>, Vec<&[u8]>) = items
            .iter()
            .filter_map(|(kh, _, value)| Some((*kh, value.as_deref()?)))
            .unzip();
        let value_hashes = hasher.hash_many(&values);
        let pairs: Vec<Hash256> = live
            .into_iter()
            .zip(value_hashes)
            .flat_map(|(kh, value_hash)| [kh, value_hash])
            .collect();
        let mut leaves = Vec::with_capacity(pairs.len() / 2);
        hasher.hash_pairs_into(LEAF_PREFIX, &pairs, &mut leaves);

        // A removal of a key the index does not hold changes nothing and is
        // dropped here, so every write the trie sees changes a leaf and every
        // branch on its path is really stale.
        let mut leaves = leaves.into_iter();
        let mut writes = Vec::with_capacity(items.len());
        for (kh, key, value) in items {
            let leaf = match value {
                Some(value) => {
                    self.entries.insert(key, value);
                    Some(leaves.next().expect("one leaf digest per live write"))
                }
                None if self.entries.remove(&key).is_some() => None,
                None => continue,
            };
            writes.push(Write { kh, leaf });
        }
        let mut dirty = Vec::new();
        self.root = self.write_at(self.root, &writes, 0, &mut dirty);
        dirty
    }

    fn write_at(&mut self, node: u32, writes: &[Write], depth: u32, dirty: &mut Vec<Dirty>) -> u32 {
        if writes.is_empty() {
            return node;
        }
        if node == NIL {
            return self.build(writes, depth, dirty);
        }
        match self.nodes[node as usize] {
            Node::Leaf { key_hash, hash } => {
                // Rebuild this subtree from the writes and the leaf that was
                // here — unless the batch writes its key, which overrides it.
                // The leaf keeps the digest it has.
                self.release(node);
                let at = writes.partition_point(|w| w.kh < key_hash);
                if writes.get(at).is_some_and(|w| w.kh == key_hash) {
                    return self.build(writes, depth, dirty);
                }
                let mut merged = Vec::with_capacity(writes.len() + 1);
                merged.extend_from_slice(&writes[..at]);
                merged.push(Write {
                    kh: key_hash,
                    leaf: Some(hash),
                });
                merged.extend_from_slice(&writes[at..]);
                self.build(&merged, depth, dirty)
            }
            Node::Branch { left, right, hash } => {
                let split = writes.partition_point(|w| !bit(&w.kh, depth as usize));
                let left = self.write_at(left, &writes[..split], depth + 1, dirty);
                let right = self.write_at(right, &writes[split..], depth + 1, dirty);
                if let Some(replacement) = self.collapsed(left, right) {
                    self.release(node);
                    return replacement;
                }
                self.nodes[node as usize] = Node::Branch { left, right, hash };
                dirty.push((depth, node));
                node
            }
        }
    }

    /// Builds a canonical subtree from sorted writes (removals place
    /// nothing).
    fn build(&mut self, writes: &[Write], depth: u32, dirty: &mut Vec<Dirty>) -> u32 {
        let mut live = writes.iter().filter_map(|w| Some((w.kh, w.leaf?)));
        match (live.next(), live.next()) {
            (None, _) => NIL,
            (Some((key_hash, hash)), None) => self.alloc(Node::Leaf { key_hash, hash }),
            _ => {
                let split = writes.partition_point(|w| !bit(&w.kh, depth as usize));
                let left = self.build(&writes[..split], depth + 1, dirty);
                let right = self.build(&writes[split..], depth + 1, dirty);
                let hash = Hash256::ZERO;
                let node = self.alloc(Node::Branch { left, right, hash });
                dirty.push((depth, node));
                node
            }
        }
    }

    /// The second phase of [`MerkleMap::write_batch`]: hashes the stale
    /// branches, deepest level first so a level's children are final when it
    /// is hashed, each level in one multi-lane call.
    fn rehash(&mut self, mut dirty: Vec<Dirty>) {
        let hasher = MultiHasher::wide();
        dirty.sort_unstable_by_key(|&(depth, _)| std::cmp::Reverse(depth));
        let (mut children, mut digests) = (Vec::new(), Vec::new());
        for level in dirty.chunk_by(|a, b| a.0 == b.0) {
            children.clear();
            digests.clear();
            for &(_, id) in level {
                if let Node::Branch { left, right, .. } = self.nodes[id as usize] {
                    children.push(self.hash_of(left));
                    children.push(self.hash_of(right));
                }
            }
            hasher.hash_pairs_into(BRANCH_PREFIX, &children, &mut digests);
            for (&(_, id), digest) in level.iter().zip(&digests) {
                if let Node::Branch { hash, .. } = &mut self.nodes[id as usize] {
                    *hash = *digest;
                }
            }
        }
    }

    /// Produces an inclusion proof for `key`, or `None` if absent.
    pub fn prove<Q: Ord + AsRef<[u8]> + ?Sized>(&self, key: &Q) -> Option<MapProof>
    where
        K: Borrow<Q>,
    {
        let value = self.entries.get(key)?;
        let kh = sha256(key.as_ref());
        let mut siblings = Vec::new();
        let mut node = self.root;
        while let Node::Branch { left, right, .. } = self.nodes[node as usize] {
            let (child, sibling) = if bit(&kh, siblings.len()) {
                (right, left)
            } else {
                (left, right)
            };
            siblings.push(self.hash_of(sibling));
            node = child;
        }
        siblings.reverse(); // leaf-upward order for verification
        Some(MapProof {
            key: key.as_ref().to_vec(),
            value: value.clone(),
            siblings,
        })
    }

    /// Iterates over all `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.entries.iter().map(|(k, v)| (k.as_ref(), v.as_slice()))
    }
}

impl<K: Ord + AsRef<[u8]>> FromIterator<(K, Vec<u8>)> for MerkleMap<K> {
    fn from_iter<I: IntoIterator<Item = (K, Vec<u8>)>>(iter: I) -> Self {
        let mut m = MerkleMap::default();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// An inclusion proof binding a key/value pair to a [`MerkleMap`] root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MapProof {
    key: Vec<u8>,
    value: Vec<u8>,
    /// Sibling hashes from the leaf's parent up to the root.
    siblings: Vec<Hash256>,
}

impl MapProof {
    /// The proven key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The proven value.
    pub fn value(&self) -> &[u8] {
        &self.value
    }

    /// Encoded byte length (for E10 download-size accounting).
    pub fn encoded_len(&self) -> usize {
        self.encoded().len()
    }

    /// Verifies the proof against a state root. A proof with more siblings
    /// than a key hash has bits describes no path in any trie and is `false`.
    pub fn verify(&self, root: &Hash256) -> bool {
        let depth = self.siblings.len();
        if depth > 8 * std::mem::size_of::<Hash256>() {
            return false;
        }
        let kh = sha256(&self.key);
        let mut acc = leaf_hash(&kh, &self.value);
        for (i, sibling) in self.siblings.iter().enumerate() {
            // Sibling i sits at depth (depth - 1 - i); the key's bit at that
            // depth decides which side our accumulator is on.
            let d = depth - 1 - i;
            acc = if bit(&kh, d) {
                branch_hash(sibling, &acc)
            } else {
                branch_hash(&acc, sibling)
            };
        }
        acc == *root
    }
}

impl Encode for MapProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.value.encode(out);
        self.siblings.encode(out);
    }
}

impl Decode for MapProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MapProof {
            key: Vec::decode(r)?,
            value: Vec::decode(r)?,
            siblings: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn empty_map() {
        let m = MerkleMap::new();
        assert_eq!(m.root(), Hash256::ZERO);
        assert!(m.is_empty());
        assert_eq!(m.get(&b"missing"[..]), None);
        assert!(m.prove(&b"missing"[..]).is_none());
    }

    #[test]
    fn insert_get_update_remove() {
        let mut m = MerkleMap::new();
        assert_eq!(m.insert(b"a".to_vec(), b"1".to_vec()), None);
        assert_eq!(m.insert(b"a".to_vec(), b"2".to_vec()), Some(b"1".to_vec()));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&b"a"[..]), Some(&b"2"[..]));
        assert_eq!(m.remove(&b"a"[..]), Some(b"2".to_vec()));
        assert_eq!(m.remove(&b"a"[..]), None);
        assert!(m.is_empty());
        assert_eq!(m.root(), Hash256::ZERO);
    }

    #[test]
    fn root_is_content_addressed_not_order_addressed() {
        let pairs: Vec<_> = (0..50).map(kv).collect();
        let forward: MerkleMap = pairs.clone().into_iter().collect();
        let backward: MerkleMap = pairs.clone().into_iter().rev().collect();
        assert_eq!(forward.root(), backward.root());

        // Insert-then-remove returns to the same root.
        let mut m: MerkleMap = pairs.clone().into_iter().collect();
        let base = m.root();
        m.insert(b"extra".to_vec(), b"x".to_vec());
        assert_ne!(m.root(), base);
        m.remove(&b"extra"[..]);
        assert_eq!(m.root(), base);
    }

    #[test]
    fn roots_differ_for_different_contents() {
        let a: MerkleMap = (0..10).map(kv).collect();
        let mut b: MerkleMap = (0..10).map(kv).collect();
        b.insert(b"key-3".to_vec(), b"tampered".to_vec());
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn proofs_verify_and_bind() {
        let m: MerkleMap = (0..100).map(kv).collect();
        let root = m.root();
        for i in (0..100).step_by(7) {
            let (k, v) = kv(i);
            let p = m.prove(&k).expect("present key");
            assert_eq!(p.key(), &k[..]);
            assert_eq!(p.value(), &v[..]);
            assert!(p.verify(&root));
            assert!(!p.verify(&sha256(b"wrong root")));
        }
    }

    #[test]
    fn tampered_proof_fails() {
        let m: MerkleMap = (0..20).map(kv).collect();
        let (k, _) = kv(5);
        let root = m.root();
        let mut p = m.prove(&k).unwrap();
        p.value = b"forged".to_vec();
        assert!(!p.verify(&root));
        let mut p2 = m.prove(&k).unwrap();
        if !p2.siblings.is_empty() {
            p2.siblings[0] = sha256(b"forged sibling");
            assert!(!p2.verify(&root));
        }
    }

    #[test]
    fn iter_visits_everything_once_in_key_order() {
        let m: MerkleMap = (0..37).map(kv).collect();
        let keys: Vec<Vec<u8>> = m.iter().map(|(k, _)| k.to_vec()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert_eq!(keys.len(), 37);
        assert_eq!(m.len(), 37);
    }

    #[test]
    fn removal_collapses_to_canonical_structure() {
        // Build {a}, then {a,b}, then remove b: root must equal the {a} root.
        let mut only_a = MerkleMap::new();
        only_a.insert(b"a".to_vec(), b"1".to_vec());
        let root_a = only_a.root();

        let mut m = MerkleMap::new();
        m.insert(b"a".to_vec(), b"1".to_vec());
        for i in 0..20 {
            let (k, v) = kv(i);
            m.insert(k, v);
        }
        for i in 0..20 {
            let (k, _) = kv(i);
            m.remove(&k);
        }
        assert_eq!(m.root(), root_a);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn write_batch_builds_same_root_as_serial_inserts() {
        let pairs: Vec<_> = (0..200).map(kv).collect();
        let serial: MerkleMap = pairs.clone().into_iter().collect();
        let mut batched = MerkleMap::new();
        batched.write_batch(pairs.into_iter().map(|(k, v)| (k, Some(v))).collect());
        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.len(), serial.len());
    }

    #[test]
    fn write_batch_mixed_ops_match_serial_replay() {
        // Start both maps from the same populated base.
        let base: Vec<_> = (0..100).map(kv).collect();
        let mut serial: MerkleMap = base.clone().into_iter().collect();
        let mut batched = serial.clone();

        // Updates, fresh inserts, removes of present and absent keys, and
        // conflicting writes to the same key inside one batch.
        let ops: Vec<(Vec<u8>, Option<Vec<u8>>)> = vec![
            (b"key-3".to_vec(), Some(b"updated".to_vec())),
            (b"brand-new".to_vec(), Some(b"n1".to_vec())),
            (b"key-7".to_vec(), None),
            (b"never-existed".to_vec(), None),
            (b"brand-new".to_vec(), Some(b"n2".to_vec())), // overrides n1
            (b"key-11".to_vec(), Some(b"x".to_vec())),
            (b"key-11".to_vec(), None), // insert then remove, same batch
            (b"only-removed".to_vec(), None),
            (b"key-42".to_vec(), Some(b"f1".to_vec())),
            (b"key-42".to_vec(), Some(b"f2".to_vec())),
            (b"key-42".to_vec(), Some(b"f3".to_vec())), // last write wins
        ];
        for (k, v) in ops.clone() {
            match v {
                Some(v) => {
                    serial.insert(k, v);
                }
                None => {
                    serial.remove(&k);
                }
            }
        }
        batched.write_batch(ops);
        assert_eq!(batched.root(), serial.root());
        assert_eq!(batched.len(), serial.len());
        assert_eq!(batched.get(&b"brand-new"[..]), Some(&b"n2"[..]));
        assert_eq!(batched.get(&b"key-42"[..]), Some(&b"f3"[..]));
        assert_eq!(batched.get(&b"key-11"[..]), None);
    }

    #[test]
    fn write_batch_removals_collapse_to_canonical_shape() {
        let mut m: MerkleMap = (0..50).map(kv).collect();
        m.insert(b"survivor".to_vec(), b"s".to_vec());
        m.write_batch((0..50).map(|i| (kv(i).0, None)).collect());
        let mut expect = MerkleMap::new();
        expect.insert(b"survivor".to_vec(), b"s".to_vec());
        assert_eq!(m.root(), expect.root());
        assert_eq!(m.len(), 1);

        // Proofs still verify against the collapsed structure.
        let p = m.prove(&b"survivor"[..]).unwrap();
        assert!(p.verify(&m.root()));
    }

    #[test]
    fn write_batch_chunked_matches_one_shot() {
        let ops: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..120)
            .map(|i| {
                let (k, v) = kv(i % 80); // plenty of key collisions
                if i % 7 == 3 {
                    (k, None)
                } else {
                    (k, Some(v))
                }
            })
            .collect();
        let mut one_shot = MerkleMap::new();
        one_shot.write_batch(ops.clone());
        let mut chunked = MerkleMap::new();
        for chunk in ops.chunks(13) {
            chunked.write_batch(chunk.to_vec());
        }
        assert_eq!(one_shot.root(), chunked.root());
        assert_eq!(one_shot.len(), chunked.len());
    }

    #[test]
    fn proof_codec_round_trip() {
        let m: MerkleMap = (0..10).map(kv).collect();
        let (k, _) = kv(4);
        let p = m.prove(&k).unwrap();
        let d = dcs_crypto::codec::decode_all::<MapProof>(&p.encoded()).unwrap();
        assert_eq!(d, p);
        assert!(d.verify(&m.root()));
    }

    #[test]
    fn overlong_proof_is_false_not_a_panic() {
        // A decoded proof may claim any number of siblings; a key hash has
        // 256 bits, so nothing deeper can be a path.
        let m: MerkleMap = (0..10).map(kv).collect();
        let mut p = m.prove(&kv(4).0).unwrap();
        p.siblings.resize(300, Hash256::ZERO);
        let decoded = dcs_crypto::codec::decode_all::<MapProof>(&p.encoded()).unwrap();
        assert!(!decoded.verify(&m.root()));
        p.siblings.truncate(256);
        assert!(!p.verify(&m.root()), "the deepest well-formed shape");
    }

    /// The roots the serial, one-node-at-a-time trie of the commit before the
    /// batch rehash produced for these inputs.
    #[test]
    fn roots_are_the_ones_the_scalar_trie_produced() {
        let mut m: MerkleMap = (0..1000).map(kv).collect();
        assert_eq!(
            m.root().to_string(),
            "a317e3f37703cc8d4d2c18ab43b932f41fbe687b8964b32ee106a7b2254de03f"
        );
        m.write_batch(
            (0..200u32)
                .map(|i| {
                    let key = kv(i * 37 % 1300).0;
                    let value = (i % 5 != 0).then(|| format!("v2-{i}").into_bytes());
                    (key, value)
                })
                .collect(),
        );
        assert_eq!(
            m.root().to_string(),
            "f978230c450e2e68c7b3514a459a3f4b3ff09a1a3b67c54aa6800dc71d4bf864"
        );
        assert_eq!(m.len(), 1000);
        let mut rebuilt = MerkleMap::new();
        rebuilt.write_batch(
            m.iter()
                .map(|(k, v)| (k.to_vec(), Some(v.to_vec())))
                .collect(),
        );
        assert_eq!(rebuilt.root(), m.root(), "built in one batch");
    }

    /// The branches on the root paths of `key_hashes` in `m`, by arena id.
    fn branches_on_paths(m: &MerkleMap, key_hashes: &[Hash256]) -> Vec<u32> {
        let mut on_path = Vec::new();
        for kh in key_hashes {
            let (mut node, mut depth) = (m.root, 0);
            while node != NIL {
                let Node::Branch { left, right, .. } = m.nodes[node as usize] else {
                    break;
                };
                on_path.push(node);
                node = if bit(kh, depth) { right } else { left };
                depth += 1;
            }
        }
        on_path.sort_unstable();
        on_path.dedup();
        on_path
    }

    #[test]
    fn a_batch_hashes_each_touched_branch_once_and_no_other() {
        // Inserts, replacements, removals of present and of absent keys, a
        // key written twice: the branches handed to the level hasher are
        // exactly the ones on a changed key's path in the new trie, each
        // once — one digest per stale node, none for a removal that removed
        // nothing.
        let mut m: MerkleMap = (0..500).map(kv).collect();
        let batch: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..120u32)
            .map(|i| match i % 4 {
                0 => (kv(i).0, None),
                1 => (kv(i).0, Some(b"replaced".to_vec())),
                2 => (kv(1000 + i / 8).0, Some(format!("new-{i}").into_bytes())),
                _ => (kv(5000 + i).0, None), // never present
            })
            .collect();
        let changed: Vec<Hash256> = batch
            .iter()
            .filter(|(k, v)| v.is_some() || m.get(k).is_some())
            .map(|(k, _)| sha256(k))
            .collect();
        let mut serial = m.clone();
        for (k, v) in batch.clone() {
            match v {
                Some(v) => serial.insert(k, v),
                None => serial.remove(&k),
            };
        }

        let dirty = m.restructure(batch);
        let mut ids: Vec<u32> = dirty.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, branches_on_paths(&m, &changed));
        m.rehash(dirty);
        assert_eq!(m.root(), serial.root());
        let live = |m: &MerkleMap| m.nodes.len() - m.free.len();
        assert_eq!(live(&m), live(&serial), "same shape, same node count");
    }

    #[test]
    fn node_layout_is_pinned() {
        // A leaf is two digests, a branch two arena ids and one: no key, no
        // value, no pointer. (112 bytes plus a `Box` each, and the key and
        // value inside every leaf, before the arena.)
        assert_eq!(std::mem::size_of::<Node>(), 68);
    }

    #[test]
    fn arena_slots_are_reused_under_churn() {
        let mut m: MerkleMap = (0..200).map(kv).collect();
        let slots = m.nodes.len();
        for round in 0..20u32 {
            m.write_batch((0..100).map(|i| (kv(i).0, None)).collect());
            assert!(m.free.len() >= 100, "round {round}");
            m.write_batch(
                (0..100)
                    .map(|i| {
                        let (k, v) = kv(i);
                        (k, Some(v))
                    })
                    .collect(),
            );
            for i in 100..150 {
                let (k, v) = kv(i);
                m.remove(&k);
                m.insert(k, v);
            }
        }
        assert_eq!(m.nodes.len(), slots, "the arena did not grow");
        let fresh: MerkleMap = (0..200).map(kv).collect();
        assert_eq!(m.root(), fresh.root());
    }

    #[test]
    fn large_map_stays_logarithmic() {
        let m: MerkleMap = (0..2000).map(kv).collect();
        let (k, _) = kv(1234);
        let p = m.prove(&k).unwrap();
        // Expected depth ~ log2(2000) ≈ 11; allow generous slack.
        assert!(p.siblings.len() < 40, "depth {}", p.siblings.len());
    }
}
