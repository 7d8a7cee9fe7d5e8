//! Hash-based digital signatures: Winternitz one-time signatures (WOTS)
//! composed into many-time keys with a Merkle tree (an XMSS-style scheme).
//!
//! The platform needs real signatures so transaction authenticity is
//! cryptographically enforced, but the approved dependency set has no
//! elliptic-curve crate — so we build signatures from the one primitive we
//! already trust: SHA-256. WOTS+Merkle is the classical construction
//! (Merkle 1979) and is secure assuming SHA-256 is one-way.
//!
//! A [`KeyPair`] generated with height `h` can produce `2^h` signatures; each
//! [`Signature`] carries the one-time key index, the WOTS chain values, and
//! the Merkle authentication path back to the [`PublicKey`] root.
//!
//! # Examples
//!
//! ```
//! use dcs_crypto::{sha256, KeyPair};
//!
//! let mut kp = KeyPair::generate([7u8; 32], 2); // 4 one-time keys
//! let msg = sha256(b"pay bob 10");
//! let sig = kp.sign(&msg).unwrap();
//! assert!(kp.public_key().verify(&msg, &sig));
//! ```

use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::hash::{Address, Hash256};
use crate::sha256::{MultiHasher, Sha256};
use crate::CryptoError;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Winternitz parameter: digits are 4 bits, chains have length 16.
const W_BITS: u32 = 4;
const W: u32 = 1 << W_BITS;
/// 256-bit digests yield 64 message digits.
const LEN1: usize = 64;
/// Checksum max is 64 * 15 = 960 < 16^3, so 3 checksum digits.
const LEN2: usize = 3;
/// Total chains per one-time key.
const LEN: usize = LEN1 + LEN2;
/// The tallest key tree: `2^16` one-time keys. [`KeyPair::generate`] makes
/// none taller and [`PublicKey::verify`] rejects a decoded key that claims to
/// be.
const MAX_HEIGHT: u8 = 16;

fn prf(seed: &[u8; 32], tag: &[u8], a: u32, b: u32) -> Hash256 {
    let mut ctx = Sha256::new();
    ctx.update(seed);
    ctx.update(tag);
    ctx.update(&a.to_le_bytes());
    ctx.update(&b.to_le_bytes());
    ctx.finalize()
}

/// Domain prefix of the WOTS chain function, separating it from Merkle and
/// leaf hashing.
const CHAIN_PREFIX: u8 = 0x03;

/// Applies the WOTS chain function `x → sha256(0x03 ‖ x)` to `values[i]`
/// `steps[i]` times, all 67 chains in lockstep: one chain is a serial
/// dependency, but the chains are independent, so each round hashes every
/// unfinished chain's 33-byte message through the multi-lane hasher.
fn chains(values: &mut [Hash256; LEN], steps: &[u32; LEN]) {
    let hasher = MultiHasher::wide();
    let mut msgs = [[CHAIN_PREFIX; 33]; LEN];
    let mut active = [0usize; LEN];
    let mut out = [Hash256::ZERO; LEN];
    let rounds = steps.iter().copied().max().unwrap_or(0);
    for round in 0..rounds {
        let mut n = 0;
        for (i, value) in values.iter().enumerate() {
            if steps[i] > round {
                msgs[n][1..].copy_from_slice(value.as_ref());
                active[n] = i;
                n += 1;
            }
        }
        let refs: [&[u8]; LEN] = std::array::from_fn(|k| msgs[k].as_slice());
        hasher.hash_many_into(&refs[..n], &mut out[..n]);
        for (&i, &digest) in active[..n].iter().zip(&out[..n]) {
            values[i] = digest;
        }
    }
}

/// The 67 one-time secret chain starts of key `ots_index`.
fn ots_secrets(seed: &[u8; 32], ots_index: u32) -> [Hash256; LEN] {
    std::array::from_fn(|i| prf(seed, b"wots", ots_index, i as u32))
}

/// Splits a digest into the 67 base-16 digits (64 message + 3 checksum).
fn digits(msg: &Hash256) -> [u8; LEN] {
    let mut out = [0u8; LEN];
    for (i, byte) in msg.as_bytes().iter().enumerate() {
        out[2 * i] = byte >> 4;
        out[2 * i + 1] = byte & 0x0f;
    }
    let checksum: u32 = out[..LEN1].iter().map(|&d| W - 1 - u32::from(d)).sum();
    out[LEN1] = ((checksum >> 8) & 0x0f) as u8;
    out[LEN1 + 1] = ((checksum >> 4) & 0x0f) as u8;
    out[LEN1 + 2] = (checksum & 0x0f) as u8;
    out
}

/// Hashes a full WOTS public key (67 chain ends) into one leaf digest.
fn compress_ots_pk(ends: &[Hash256; LEN]) -> Hash256 {
    let mut ctx = Sha256::new();
    ctx.update(&[0x04]);
    for e in ends.iter() {
        ctx.update(e.as_ref());
    }
    ctx.finalize()
}

/// The verifying half of a [`KeyPair`]: the Merkle root over all one-time
/// public keys, plus the tree height.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey {
    root: Hash256,
    height: u8,
}

impl PublicKey {
    /// The Merkle root committing to every one-time key.
    pub fn root(&self) -> Hash256 {
        self.root
    }

    /// The ledger address derived from this key.
    pub fn address(&self) -> Address {
        Address::from_hash(&self.root)
    }

    /// Verifies `sig` over the message digest `msg`.
    ///
    /// Returns `false` for any forgery: wrong message, reused-but-altered
    /// index, tampered chain values, a bad authentication path, a decoded
    /// signature whose chain list or path has the wrong length, or a decoded
    /// key taller than any [`KeyPair`] makes.
    pub fn verify(&self, msg: &Hash256, sig: &Signature) -> bool {
        if self.height > MAX_HEIGHT || sig.auth_path.len() != self.height as usize {
            return false;
        }
        let Ok(mut ends) = <[Hash256; LEN]>::try_from(sig.chain_values.as_slice()) else {
            return false;
        };
        if u64::from(sig.index) >= (1u64 << self.height) {
            return false;
        }
        chains(&mut ends, &digits(msg).map(|d| W - 1 - u32::from(d)));
        let mut acc = compress_ots_pk(&ends);
        let mut idx = sig.index;
        for sibling in &sig.auth_path {
            acc = if idx.is_multiple_of(2) {
                crate::merkle::merkle_node(&acc, sibling)
            } else {
                crate::merkle::merkle_node(sibling, &acc)
            };
            idx /= 2;
        }
        acc == self.root
    }
}

/// A many-time signing key: a seed expanding to `2^height` WOTS keys under a
/// Merkle root. Signing is stateful — each call consumes the next one-time
/// key.
#[derive(Debug, Clone)]
pub struct KeyPair {
    seed: [u8; 32],
    height: u8,
    next_index: u32,
    tree: crate::merkle::MerkleTree,
}

impl KeyPair {
    /// Generates a key pair from a seed. `height` ≤ 16; capacity is
    /// `2^height` signatures.
    ///
    /// # Panics
    ///
    /// Panics if `height > 16` (the key would take minutes to generate).
    pub fn generate(seed: [u8; 32], height: u8) -> Self {
        assert!(
            height <= MAX_HEIGHT,
            "key height {height} too large (max {MAX_HEIGHT})"
        );
        let n = 1u32 << height;
        let leaves: Vec<Hash256> = (0..n).map(|j| Self::ots_leaf(&seed, j)).collect();
        let tree = crate::merkle::MerkleTree::from_leaves(leaves);
        KeyPair {
            seed,
            height,
            next_index: 0,
            tree,
        }
    }

    fn ots_leaf(seed: &[u8; 32], ots_index: u32) -> Hash256 {
        let mut ends = ots_secrets(seed, ots_index);
        chains(&mut ends, &[W - 1; LEN]);
        compress_ots_pk(&ends)
    }

    /// The verifying key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey {
            root: self.tree.root(),
            height: self.height,
        }
    }

    /// The ledger address of this key.
    pub fn address(&self) -> Address {
        self.public_key().address()
    }

    /// Total one-time keys this pair was generated with.
    pub fn capacity(&self) -> u32 {
        1u32 << self.height
    }

    /// One-time keys not yet consumed by [`KeyPair::sign`].
    pub fn remaining(&self) -> u32 {
        self.capacity() - self.next_index
    }

    /// Signs the message digest `msg` with the next unused one-time key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyExhausted`] once all `2^height` one-time
    /// keys have been used; reusing a WOTS key leaks the secret.
    pub fn sign(&mut self, msg: &Hash256) -> Result<Signature, CryptoError> {
        let index = self.next_index;
        let sig = self.sign_with_index(msg, index)?;
        self.next_index += 1;
        Ok(sig)
    }

    /// Signs with an explicit one-time key index, without advancing the
    /// internal counter. Callers must never sign two distinct messages with
    /// the same index.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::KeyExhausted`] if `index` is out of range.
    pub fn sign_with_index(&self, msg: &Hash256, index: u32) -> Result<Signature, CryptoError> {
        if index >= self.capacity() {
            return Err(CryptoError::KeyExhausted {
                index,
                capacity: self.capacity(),
            });
        }
        let mut chain_values = ots_secrets(&self.seed, index);
        chains(&mut chain_values, &digits(msg).map(u32::from));
        let proof = self
            .tree
            .prove(index as usize)
            .expect("index < capacity implies a valid leaf");
        debug_assert_eq!(
            self.tree.leaves()[index as usize],
            Self::ots_leaf(&self.seed, index)
        );
        Ok(Signature {
            index,
            chain_values: chain_values.to_vec(),
            auth_path: proof.siblings().to_vec(),
            digest: OnceLock::new(),
            key_memo: OnceLock::new(),
        })
    }
}

/// A WOTS+Merkle signature: one-time key index, 67 chain values, and the
/// authentication path to the public root. Roughly 2.2 KiB encoded.
///
/// An instance also remembers two things derived from it, so the ~64 cache
/// lookups a transaction meets across a network hash nothing after the
/// first: the digest of its own encoding, and the signature-cache key of the
/// `(pubkey root, message)` pair it was first looked up under. Neither is
/// part of the value — the codec and equality skip them, a decoded signature
/// starts cold — and the key memo answers only for the pair stored beside it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Signature {
    index: u32,
    chain_values: Vec<Hash256>,
    auth_path: Vec<Hash256>,
    /// `sha256(encoded())`, computed on first use; skipped by the codec and
    /// by equality. `Clone` carries it: the fields are private and nothing
    /// mutates a `Signature` after construction, so it cannot go stale.
    #[serde(skip)]
    digest: OnceLock<Hash256>,
    /// The signature-cache key of the first `(pubkey root, message)` pair
    /// this instance was looked up under, with that pair beside it — see
    /// [`Signature::cache_key`]. Same contract as `digest`.
    #[serde(skip)]
    key_memo: OnceLock<KeyMemo>,
}

/// A cache key and the two inputs, besides the signature itself, it was
/// computed from.
#[derive(Debug, Clone)]
struct KeyMemo {
    root: Hash256,
    msg: Hash256,
    key: Hash256,
}

impl PartialEq for Signature {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
            && self.chain_values == other.chain_values
            && self.auth_path == other.auth_path
    }
}

impl Eq for Signature {}

impl Signature {
    /// The one-time key index used.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// `sha256` of the canonical encoding, hashed once per instance and its
    /// clones — gossip and `Arc<Block>` share one instance network-wide.
    pub fn digest(&self) -> Hash256 {
        *self.digest.get_or_init(|| crate::sha256(&self.encoded()))
    }

    /// The value `compute` yields for `(root, msg)` and this signature,
    /// remembered for the first pair asked. A transaction's signature is only
    /// ever checked under its own key and signing hash, so every later
    /// lookup — at any peer sharing the instance or a clone of it — is two
    /// 32-byte compares. The memo answers *only* a pair equal to the one it
    /// was computed from; any other key or message runs `compute`, so a
    /// signature moved to another body or key can never be served the key —
    /// and through it the cached verdict — of the triple it came from.
    pub(crate) fn cache_key(
        &self,
        root: &Hash256,
        msg: &Hash256,
        compute: impl Fn() -> Hash256,
    ) -> Hash256 {
        let memo = self.key_memo.get_or_init(|| KeyMemo {
            root: *root,
            msg: *msg,
            key: compute(),
        });
        if memo.root == *root && memo.msg == *msg {
            memo.key
        } else {
            compute()
        }
    }

    /// Encoded size in bytes; used in size/throughput experiments.
    pub fn encoded_len(&self) -> usize {
        self.encoded().len()
    }
}

impl Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index.encode(out);
        self.chain_values.encode(out);
        self.auth_path.encode(out);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Signature {
            index: u32::decode(r)?,
            chain_values: Vec::decode(r)?,
            auth_path: Vec::decode(r)?,
            digest: OnceLock::new(),
            key_memo: OnceLock::new(),
        })
    }
}

impl Encode for PublicKey {
    fn encode(&self, out: &mut Vec<u8>) {
        self.root.encode(out);
        self.height.encode(out);
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PublicKey {
            root: Hash256::decode(r)?,
            height: u8::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_all;
    use crate::sha256;
    use crate::sha256::sha256_portable;
    use proptest::prelude::*;

    fn keypair() -> KeyPair {
        KeyPair::generate([1u8; 32], 2)
    }

    /// The WOTS chain function on the portable scalar kernel — the oracle
    /// [`chains`] must equal.
    fn chain(mut x: Hash256, steps: u32) -> Hash256 {
        for _ in 0..steps {
            let mut msg = vec![CHAIN_PREFIX];
            msg.extend_from_slice(x.as_ref());
            x = sha256_portable(&msg);
        }
        x
    }

    /// A copy of `sig` with a cold digest memo — what a peer gets off the
    /// wire. Tests that poke fields start from one: production code never
    /// mutates a `Signature`, which is what lets `Clone` carry the memo.
    fn cold(sig: &Signature) -> Signature {
        decode_all(&sig.encoded()).expect("round trip")
    }

    fn assert_chains_match_scalar(seed: [u8; 32], steps: [u32; LEN]) {
        let starts = ots_secrets(&seed, 0);
        let mut lanes = starts;
        chains(&mut lanes, &steps);
        for i in 0..LEN {
            assert_eq!(lanes[i], chain(starts[i], steps[i]), "chain {i}");
        }
    }

    #[test]
    fn chains_match_scalar_chain_at_the_extremes() {
        assert_chains_match_scalar([4; 32], [0; LEN]);
        assert_chains_match_scalar([4; 32], [W - 1; LEN]);
        // One long chain among finished ones: the active set drops below
        // every lane width on the first round.
        let mut lone = [0; LEN];
        lone[LEN - 1] = W - 1;
        assert_chains_match_scalar([4; 32], lone);
    }

    proptest! {
        // The concurrency-audit lane runs this crate's lib tests under miri,
        // where one case (~500 interpreted SHA-256 blocks) is already slow.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 64 }))]

        #[test]
        fn chains_match_scalar_chain(
            seed in any::<[u8; 32]>(),
            steps in proptest::collection::vec(0u32..W, LEN..LEN + 1),
        ) {
            assert_chains_match_scalar(seed, steps.try_into().expect("LEN steps"));
        }
    }

    /// Key generation and signing are pinned to the values the parent of the
    /// lane-parallel change produced: every dcsbench `run_digest` depends on
    /// them, so they must never drift silently.
    #[test]
    fn known_answer_key_and_signature() {
        let mut kp = KeyPair::generate([7u8; 32], 2);
        assert_eq!(
            kp.public_key().root().to_string(),
            "6bbac6692412aabca098b1c175392fb805134a4e99921ad74568a2ce3a06e0eb"
        );
        let sig = kp.sign(&sha256(b"dcs known-answer message")).unwrap();
        assert_eq!(sig.encoded_len(), 2220);
        assert_eq!(
            sig.digest().to_string(),
            "97bfc93174338b7ce2b3e9b0413b089ec98c8aaf420b31a63b7116cc1ee8e49f"
        );
    }

    #[test]
    fn digest_memo_is_invisible() {
        let mut kp = keypair();
        let msg = sha256(b"m");
        let sig = kp.sign(&msg).unwrap();
        let untouched = cold(&sig);
        let digest = sig.digest();
        assert_eq!(digest, sha256(&sig.encoded()));
        // Equality ignores the memo; a clone and a codec round trip agree.
        assert_eq!(sig, untouched);
        assert_eq!(sig.clone().digest(), digest);
        assert_eq!(untouched.digest(), digest);
    }

    /// Every transaction embeds an `Option<TxAuth>`, signed or not, so this
    /// size is paid per transaction: 4 (index) + 2 × 24 (`Vec`s) + 36 (digest
    /// memo) + 100 (key memo), padded. Growing it is a measured decision
    /// (CHANGES.md, issue 20).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn signature_stays_within_192_bytes() {
        assert!(std::mem::size_of::<Signature>() <= 192);
    }

    #[test]
    fn wrong_chain_count_rejected_not_indexed() {
        let mut kp = keypair();
        let msg = sha256(b"m");
        let good = kp.sign(&msg).unwrap();

        let mut short = cold(&good);
        short.chain_values.pop();
        assert!(!kp.public_key().verify(&msg, &short));

        let mut empty = cold(&good);
        empty.chain_values.clear();
        assert!(!kp.public_key().verify(&msg, &empty));

        let mut long = cold(&good);
        long.chain_values.push(Hash256::ZERO);
        assert!(!kp.public_key().verify(&msg, &long));
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut kp = keypair();
        let msg = sha256(b"message");
        let sig = kp.sign(&msg).unwrap();
        assert!(kp.public_key().verify(&msg, &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut kp = keypair();
        let sig = kp.sign(&sha256(b"m1")).unwrap();
        assert!(!kp.public_key().verify(&sha256(b"m2"), &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut kp1 = keypair();
        let kp2 = KeyPair::generate([2u8; 32], 2);
        let msg = sha256(b"m");
        let sig = kp1.sign(&msg).unwrap();
        assert!(!kp2.public_key().verify(&msg, &sig));
    }

    #[test]
    fn all_one_time_keys_usable_then_exhausted() {
        let mut kp = keypair();
        let msg = sha256(b"m");
        for i in 0..kp.capacity() {
            let sig = kp.sign(&msg).unwrap();
            assert_eq!(sig.index(), i);
            assert!(kp.public_key().verify(&msg, &sig));
        }
        assert!(matches!(
            kp.sign(&msg),
            Err(CryptoError::KeyExhausted {
                index: 4,
                capacity: 4
            })
        ));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut kp = keypair();
        let msg = sha256(b"m");
        let good = kp.sign(&msg).unwrap();

        let mut bad = cold(&good);
        bad.index = (bad.index + 1) % kp.capacity();
        assert!(!kp.public_key().verify(&msg, &bad));

        let mut bad = cold(&good);
        bad.chain_values[0] = sha256(b"tamper");
        assert!(!kp.public_key().verify(&msg, &bad));

        let mut bad = cold(&good);
        bad.auth_path[0] = sha256(b"tamper");
        assert!(!kp.public_key().verify(&msg, &bad));

        let mut bad = cold(&good);
        bad.auth_path.pop();
        assert!(!kp.public_key().verify(&msg, &bad));
    }

    /// A decoded key may claim any height; one taller than 16 is refused
    /// before `1 << height` is taken, which overflows from height 64 on.
    #[test]
    fn hostile_key_height_rejected_not_shifted() {
        let mut kp = keypair();
        let msg = sha256(b"m");
        let mut sig = cold(&kp.sign(&msg).unwrap());
        sig.index = 0;
        for height in [17u8, 63, 64, 255] {
            let mut bytes = kp.public_key().root().encoded();
            bytes.push(height);
            let key: PublicKey = decode_all(&bytes).expect("a key is a root and a height byte");
            sig.auth_path = vec![Hash256::ZERO; usize::from(height)];
            assert!(!key.verify(&msg, &sig), "height {height}");
        }
    }

    #[test]
    fn out_of_range_index_rejected_by_verify() {
        let mut kp = keypair();
        let msg = sha256(b"m");
        let mut sig = cold(&kp.sign(&msg).unwrap());
        sig.index = 1000;
        assert!(!kp.public_key().verify(&msg, &sig));
    }

    #[test]
    fn signature_codec_round_trip() {
        let mut kp = keypair();
        let msg = sha256(b"m");
        let sig = kp.sign(&msg).unwrap();
        let decoded = decode_all::<Signature>(&sig.encoded()).unwrap();
        assert_eq!(decoded, sig);
        assert!(kp.public_key().verify(&msg, &decoded));
    }

    #[test]
    fn deterministic_generation() {
        let a = KeyPair::generate([9u8; 32], 3);
        let b = KeyPair::generate([9u8; 32], 3);
        assert_eq!(a.public_key(), b.public_key());
        let c = KeyPair::generate([10u8; 32], 3);
        assert_ne!(a.public_key(), c.public_key());
    }

    #[test]
    fn checksum_prevents_digit_increase_forgery() {
        // Raising any message digit requires lowering the checksum digits,
        // which would require inverting the chain function. Sanity-check the
        // digit/checksum arithmetic directly.
        let msg = sha256(b"x");
        let d = digits(&msg);
        let sum: u32 = d[..LEN1].iter().map(|&x| W - 1 - u32::from(x)).sum();
        let encoded =
            (u32::from(d[LEN1]) << 8) | (u32::from(d[LEN1 + 1]) << 4) | u32::from(d[LEN1 + 2]);
        assert_eq!(sum, encoded);
    }
}
