//! The [`Hash256`] digest type, the [`IdMap`]/[`IdSet`] tables keyed by it,
//! and the [`Address`] account identifier.

use crate::codec::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A 256-bit digest, the universal identifier in the platform: block hashes,
/// transaction ids, Merkle roots, and state roots are all `Hash256`.
///
/// Displays as lowercase hex.
///
/// # Examples
///
/// ```
/// use dcs_crypto::Hash256;
///
/// let z = Hash256::ZERO;
/// assert_eq!(z.as_bytes(), &[0u8; 32]);
/// assert!(z.to_string().starts_with("00000000"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Hash256([u8; 32]);

impl Hash256 {
    /// The all-zero digest, used as the genesis parent and as a sentinel.
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Wraps raw bytes as a digest.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning the raw bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Interprets the first 8 bytes as a big-endian integer; handy for
    /// difficulty comparisons and pseudo-random derivations.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("slice of length 8"))
    }

    /// The full 64-character lowercase hex form. Equivalent to `to_string`
    /// but named for intent at call sites that build identifiers (URL
    /// paths, JSON keys) rather than display output.
    pub fn to_hex(&self) -> String {
        self.to_string()
    }
}

impl core::fmt::Display for Hash256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl core::fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Abbreviated form keeps assertion failures readable.
        write!(
            f,
            "Hash256({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }
}

impl Encode for Hash256 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for Hash256 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Hash256(r.take_array::<32>()?))
    }
}

/// Hashes a [`Hash256`] to its own last 8 bytes — the end a proof-of-work
/// grind does not drive toward zero. Ids are SHA-256 outputs, already
/// uniform: hashing them again (SipHash, `RandomState`) buys nothing, and
/// with no per-process seed a table's layout is a function of its history.
///
/// The price is that bucket placement is public: finding an id that lands
/// in a chosen bucket costs a sender 2^k SHA-256 evaluations for k index
/// bits, and a long probe chain slows one table's lookups without changing
/// its answers (DESIGN.md §10).
#[derive(Debug, Default)]
pub struct IdTail(u64);

impl Hasher for IdTail {
    fn write(&mut self, bytes: &[u8]) {
        if let Some(tail) = bytes.last_chunk::<8>() {
            self.0 = u64::from_le_bytes(*tail);
        }
    }

    /// The slice-length prefix `[u8; 32]` hashes first carries nothing.
    fn write_usize(&mut self, _len: usize) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash table keyed by 32-byte ids, hashed by [`IdTail`]. For per-replica
/// lookups (seen, pooled, stored) whose iteration order never reaches an
/// output; a table that is iterated where order matters stays ordered.
///
/// # Examples
///
/// ```
/// use dcs_crypto::{sha256, IdMap};
///
/// let mut seq: IdMap<u64> = IdMap::default();
/// seq.insert(sha256(b"tx"), 7);
/// assert_eq!(seq.get(&sha256(b"tx")), Some(&7));
/// ```
pub type IdMap<V> = HashMap<Hash256, V, BuildHasherDefault<IdTail>>;

/// The set form of [`IdMap`].
pub type IdSet = HashSet<Hash256, BuildHasherDefault<IdTail>>;

/// A 20-byte account/contract address, derived as the first 20 bytes of the
/// SHA-256 of a public key (mirroring the Bitcoin/Ethereum convention the
/// paper's generations 1.0 and 2.0 assume).
///
/// # Examples
///
/// ```
/// use dcs_crypto::{sha256, Address};
///
/// let a = Address::from_hash(&sha256(b"alice public key"));
/// assert_eq!(a.as_bytes().len(), 20);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Address([u8; 20]);

impl Address {
    /// The all-zero address; used for coinbase "from" fields and burning.
    pub const ZERO: Address = Address([0u8; 20]);

    /// Wraps raw bytes as an address.
    pub const fn from_bytes(bytes: [u8; 20]) -> Self {
        Address(bytes)
    }

    /// Derives an address from a digest (first 20 bytes).
    pub fn from_hash(h: &Hash256) -> Self {
        let mut out = [0u8; 20];
        out.copy_from_slice(&h.as_bytes()[..20]);
        Address(out)
    }

    /// Borrows the address bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Deterministically derives a distinct test/demo address from an index.
    pub fn from_index(i: u64) -> Self {
        Address::from_hash(&crate::sha256(&i.to_be_bytes()))
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl core::fmt::Debug for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Address({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Encode for Address {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for Address {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Address(r.take_array::<20>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    #[test]
    fn hex_is_64_lowercase_digits() {
        let mut b = [0u8; 32];
        b[0] = 0xab;
        b[31] = 0x0f;
        let s = Hash256::from_bytes(b).to_hex();
        assert_eq!(s.len(), 64);
        assert!(s.starts_with("ab00") && s.ends_with("000f"), "{s}");
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let mut b = [0u8; 32];
        b[7] = 1;
        assert_eq!(Hash256::from_bytes(b).prefix_u64(), 1);
        b[0] = 1;
        assert_eq!(Hash256::from_bytes(b).prefix_u64(), (1 << 56) + 1);
    }

    #[test]
    fn address_derivation_is_stable_and_distinct() {
        let a = Address::from_index(1);
        let b = Address::from_index(2);
        assert_ne!(a, b);
        assert_eq!(a, Address::from_index(1));
    }

    #[test]
    fn codec_round_trip() {
        use crate::codec::{decode_all, Encode};
        let h = sha256(b"x");
        let bytes = h.encoded();
        assert_eq!(decode_all::<Hash256>(&bytes).unwrap(), h);
        let a = Address::from_hash(&h);
        assert_eq!(decode_all::<Address>(&a.encoded()).unwrap(), a);
    }

    #[test]
    fn an_id_hashes_to_its_last_eight_bytes() {
        use std::hash::BuildHasher;
        let id = sha256(b"block 7");
        let tail = u64::from_le_bytes(*id.as_bytes().last_chunk::<8>().unwrap());
        assert_eq!(BuildHasherDefault::<IdTail>::default().hash_one(id), tail);
        let mut seen = IdSet::default();
        assert!(seen.insert(id), "new id");
        assert!(!seen.insert(id), "repeat");
    }
}
