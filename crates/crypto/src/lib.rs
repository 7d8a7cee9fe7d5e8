//! Cryptographic primitives for the `dcs-ledger` platform, implemented from
//! scratch: SHA-256, Merkle trees with inclusion proofs, Winternitz one-time
//! signatures extended to many-time keys via Merkle trees, and a canonical
//! binary codec used for all hashing and wire encodings.
//!
//! The paper (§2.2) grounds ledger immutability in hash chaining and Merkle
//! trees; this crate provides those building blocks with real cryptographic
//! structure (FIPS 180-4 SHA-256, hash-based signatures secure under standard
//! hash assumptions) so every higher layer hashes and signs real bytes.
//!
//! # Examples
//!
//! ```
//! use dcs_crypto::{sha256, Hash256, MerkleTree};
//!
//! let leaves: Vec<Hash256> = (0..4u8).map(|i| sha256(&[i])).collect();
//! let tree = MerkleTree::from_leaves(leaves.clone());
//! let proof = tree.prove(2).unwrap();
//! assert!(proof.verify(&leaves[2], &tree.root()));
//! ```
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code` with one exception: `sha256/sha_ext.rs`
//! calls the SHA-256 kernel built on the x86-64 SHA extensions. That kernel
//! is a `#[target_feature(enable = "sha,sse4.1")]` function, and Rust
//! calls such a function from ordinary code only in an `unsafe` block,
//! because it is undefined behaviour on a CPU without the features. The call
//! takes a value that only run-time feature detection creates, so it cannot
//! run on any other CPU. The kernel itself is safe code, with no pointer
//! access.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod hash;
pub mod merkle;
pub mod sha256;
pub mod sig;

pub use batch::{PipelineStats, SigCache, SigCacheStats, VerifyItem, VerifyPipeline, VerifyPool};
pub use codec::{Decode, Encode, Reader};
pub use hash::{Address, Hash256};
pub use merkle::{merkle_root, merkle_root_with, MerkleProof, MerkleTree};
pub use sha256::{sha256, sha256_concat, MultiHasher, Sha256};
pub use sig::{KeyPair, PublicKey, Signature};

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A byte stream could not be decoded into the requested type.
    Decode(codec::DecodeError),
    /// A signature failed verification against the given key and message.
    BadSignature,
    /// A one-time key index was reused or is out of range.
    KeyExhausted {
        /// The index that was requested.
        index: u32,
        /// The number of one-time keys the pair was generated with.
        capacity: u32,
    },
    /// A Merkle proof did not connect the leaf to the root.
    BadProof,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::Decode(e) => write!(f, "decode error: {e}"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::KeyExhausted { index, capacity } => {
                write!(f, "one-time key index {index} out of capacity {capacity}")
            }
            CryptoError::BadProof => write!(f, "merkle proof verification failed"),
        }
    }
}

impl std::error::Error for CryptoError {}

impl From<codec::DecodeError> for CryptoError {
    fn from(e: codec::DecodeError) -> Self {
        CryptoError::Decode(e)
    }
}
