//! The data layer (§4.5 of the paper): authenticated on-chain state.
//!
//! * [`MerkleMap`] — a canonical binary Merkle trie keyed by hashed keys (the
//!   Merkle-Patricia-style structure the paper's §5.4 calls for), producing a
//!   state root and `O(log n)` inclusion proofs so "the current state of the
//!   blockchain \[is\] completely verifiable" (§2.7).
//! * [`UtxoSet`] — the generation-1.0 unspent-output set with full undo
//!   support for reorgs.
//! * [`AccountDb`] — the generation-2.0/3.0 account database (balances,
//!   nonces, contract code and storage) layered over the Merkle map, also
//!   with undo logs, keyed by the fixed-size, non-allocating [`StateKey`].
//!
//! # Examples
//!
//! ```
//! use dcs_state::MerkleMap;
//!
//! let mut map = MerkleMap::new();
//! map.insert(b"alice".to_vec(), b"100".to_vec());
//! let root = map.root();
//! let proof = map.prove(&b"alice"[..]).unwrap();
//! assert!(proof.verify(&root));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod merkle_map;
pub mod utxo;

pub use account::{Account, AccountDb, AccountUndo, StateKey};
pub use merkle_map::{MapProof, MerkleMap};
pub use utxo::{OutPoint, UtxoError, UtxoSet, UtxoUndo};

/// Errors from state-transition application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// A UTXO rule was violated.
    Utxo(UtxoError),
    /// An account had insufficient balance for a transfer or fee.
    InsufficientBalance {
        /// Balance available.
        have: u128,
        /// Balance required.
        need: u128,
    },
    /// The transaction nonce did not match the account nonce.
    BadNonce {
        /// Nonce expected by the account.
        expected: u64,
        /// Nonce carried by the transaction.
        got: u64,
    },
    /// A signature was missing or invalid while verification is enabled.
    BadWitness(String),
}

impl core::fmt::Display for StateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StateError::Utxo(e) => write!(f, "utxo error: {e}"),
            StateError::InsufficientBalance { have, need } => {
                write!(f, "insufficient balance: have {have}, need {need}")
            }
            StateError::BadNonce { expected, got } => {
                write!(f, "bad nonce: expected {expected}, got {got}")
            }
            StateError::BadWitness(msg) => write!(f, "bad witness: {msg}"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<UtxoError> for StateError {
    fn from(e: UtxoError) -> Self {
        StateError::Utxo(e)
    }
}
