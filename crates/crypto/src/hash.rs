//! The [`Hash256`] digest type and [`Address`] account identifier.

use crate::codec::{Decode, DecodeError, Encode, Reader};
use serde::{Deserialize, Serialize};

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
}
