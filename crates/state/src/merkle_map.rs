//! A canonical binary Merkle trie: an authenticated key→value map whose root
//! hash is a pure function of its contents (independent of insertion order),
//! with `O(log n)` inclusion proofs.
//!
//! Keys are routed by the bits of their SHA-256, so the trie is balanced in
//! expectation without rotations. The trie is defined by the entries alone:
//! over their `(key hash, leaf digest)` pairs sorted by key hash, no entries
//! is [`Hash256::ZERO`], one entry is its leaf digest, and two or more are
//! the branch digest of the entries whose key hash has the next bit clear and
//! of those that have it set. Two maps with equal contents therefore always
//! have equal roots, which is what makes the root usable as the header
//! `state_root`.
//!
//! The map keeps its entries once, in an ordered `key → value` index that
//! every lookup goes to, and beside it a memo of the trie. A write
//! ([`MerkleMap::insert`], [`MerkleMap::remove`], [`MerkleMap::write_batch`])
//! updates the index and drops the memo; it hashes nothing. The first read
//! of a digest after a write ([`MerkleMap::root`], [`MerkleMap::prove`])
//! builds the whole trie from the definition — key, value and leaf digests
//! in multi-lane calls, one sort, one recursive build — and keeps it until
//! the next write, so a read with no write since hashes nothing. A workload
//! that never reads a root never builds one.
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
use std::cell::OnceCell;
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

/// A node of a built trie: its digest and, for a branch, the indices of its
/// two children. A leaf, and the empty side of a branch, have none.
#[derive(Debug, Clone, Copy)]
struct Node {
    hash: Hash256,
    children: Option<(u32, u32)>,
}

/// A trie built from the definition: its nodes, children before parents,
/// so the root is the last.
#[derive(Debug, Clone)]
struct Trie {
    nodes: Vec<Node>,
}

impl Trie {
    /// Builds the trie of `entries`.
    fn build<'a>(entries: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> Trie {
        let (keys, values): (Vec<&[u8]>, Vec<&[u8]>) = entries.unzip();
        let hasher = MultiHasher::wide();
        let key_hashes = hasher.hash_many(&keys);
        let pairs: Vec<Hash256> = key_hashes
            .iter()
            .zip(hasher.hash_many(&values))
            .flat_map(|(&kh, value_hash)| [kh, value_hash])
            .collect();
        let mut leaves = Vec::with_capacity(keys.len());
        hasher.hash_pairs_into(LEAF_PREFIX, &pairs, &mut leaves);
        let mut leaves: Vec<(Hash256, Hash256)> = key_hashes.into_iter().zip(leaves).collect();
        // Byte order of the key hash IS the routing path order (MSB-first
        // bits), so one sort gives every level its partition.
        leaves.sort_unstable_by_key(|&(kh, _)| kh);
        let mut trie = Trie {
            nodes: Vec::with_capacity(2 * leaves.len() + 1),
        };
        trie.add(&leaves, 0);
        trie
    }

    /// Adds the subtree of `leaves`, sorted by key hash and sharing their
    /// first `depth` bits, and returns its index.
    fn add(&mut self, leaves: &[(Hash256, Hash256)], depth: usize) -> u32 {
        let node = match leaves {
            [] => Node {
                hash: Hash256::ZERO,
                children: None,
            },
            [(_, leaf)] => Node {
                hash: *leaf,
                children: None,
            },
            _ => {
                let split = leaves.partition_point(|(kh, _)| !bit(kh, depth));
                let left = self.add(&leaves[..split], depth + 1);
                let right = self.add(&leaves[split..], depth + 1);
                Node {
                    hash: branch_hash(&self.hash_of(left), &self.hash_of(right)),
                    children: Some((left, right)),
                }
            }
        };
        let id = u32::try_from(self.nodes.len()).expect("fewer than 2^32 trie nodes");
        self.nodes.push(node);
        id
    }

    fn hash_of(&self, id: u32) -> Hash256 {
        self.nodes[id as usize].hash
    }

    fn root(&self) -> &Node {
        self.nodes.last().expect("a built trie has a root")
    }
}

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
    /// The contents. Lookups never touch the trie.
    entries: BTreeMap<K, Vec<u8>>,
    /// The trie of `entries`, built by the first read after a write and
    /// dropped by the next write.
    trie: OnceCell<Trie>,
}

impl<K> Default for MerkleMap<K> {
    fn default() -> Self {
        MerkleMap {
            entries: BTreeMap::new(),
            trie: OnceCell::new(),
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

    /// The trie of the current entries, built if a write dropped it.
    fn trie(&self) -> &Trie {
        self.trie.get_or_init(|| Trie::build(self.iter()))
    }

    /// The root digest committing to the full contents. The first read after
    /// a write builds the trie; a read with no write since hashes nothing.
    pub fn root(&self) -> Hash256 {
        self.trie().root().hash
    }

    /// Looks up the value stored under `key`.
    pub fn get<Q: Ord + ?Sized>(&self, key: &Q) -> Option<&[u8]>
    where
        K: Borrow<Q>,
    {
        self.entries.get(key).map(Vec::as_slice)
    }

    /// Inserts or replaces; returns the previous value if any.
    pub fn insert(&mut self, key: K, value: Vec<u8>) -> Option<Vec<u8>> {
        self.trie.take();
        self.entries.insert(key, value)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove<Q: Ord + ?Sized>(&mut self, key: &Q) -> Option<Vec<u8>>
    where
        K: Borrow<Q>,
    {
        let old = self.entries.remove(key)?;
        self.trie.take();
        Some(old)
    }

    /// Applies a batch of writes (`Some` = insert/replace, `None` = remove)
    /// in order, exactly as the same [`MerkleMap::insert`] and
    /// [`MerkleMap::remove`] calls would: later writes to a key override
    /// earlier ones.
    pub fn write_batch(&mut self, entries: Vec<(K, Option<Vec<u8>>)>) {
        for (key, value) in entries {
            match value {
                Some(value) => self.insert(key, value),
                None => self.remove(&key),
            };
        }
    }

    /// Produces an inclusion proof for `key`, or `None` if absent. Builds the
    /// trie first if a write dropped it, as [`MerkleMap::root`] does.
    pub fn prove<Q: Ord + AsRef<[u8]> + ?Sized>(&self, key: &Q) -> Option<MapProof>
    where
        K: Borrow<Q>,
    {
        let value = self.get(key)?;
        let kh = sha256(key.as_ref());
        let trie = self.trie();
        let mut siblings = Vec::new();
        let mut node = trie.root();
        while let Some((left, right)) = node.children {
            let (child, sibling) = if bit(&kh, siblings.len()) {
                (right, left)
            } else {
                (left, right)
            };
            siblings.push(trie.hash_of(sibling));
            node = &trie.nodes[child as usize];
        }
        siblings.reverse(); // leaf-upward order for verification
        Some(MapProof {
            key: key.as_ref().to_vec(),
            value: value.to_vec(),
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
        MerkleMap {
            entries: iter.into_iter().collect(),
            trie: OnceCell::new(),
        }
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

    #[test]
    fn a_read_builds_the_trie_and_a_write_drops_it() {
        let built = |m: &MerkleMap| m.trie.get().map(|t| t.nodes.as_ptr());
        let mut m: MerkleMap = (0..200).map(kv).collect();
        assert_eq!(built(&m), None, "writes build nothing");
        let root = m.root();
        let first = built(&m).expect("a read builds the trie");
        assert_eq!(m.root(), root);
        m.prove(&kv(7).0).expect("present");
        assert_eq!(built(&m), Some(first), "later reads reuse the build");
        assert!(built(&m.clone()).is_some(), "a clone carries it");
        assert_eq!(m.clone().root(), root);

        m.remove(&b"absent"[..]);
        assert_eq!(built(&m), Some(first), "removing nothing keeps it");
        m.insert(kv(7).0, b"changed".to_vec());
        assert_eq!(built(&m), None, "an insert drops it");
        assert_ne!(m.root(), root);
        m.remove(&kv(7).0);
        assert_eq!(built(&m), None, "a removal drops it");
        m.insert(kv(7).0, kv(7).1);
        assert_eq!(m.root(), root);
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
