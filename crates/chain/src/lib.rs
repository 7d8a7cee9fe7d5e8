//! The system/data layer glue (§4.4–4.5 of the paper): block storage as a
//! tree, branch selection ("fork choice", §2.4), and a reorg-safe chain
//! manager that keeps an application state machine in sync with the
//! currently selected branch.
//!
//! The three branch-selection rules the paper discusses are implemented and
//! compared in experiment E2:
//!
//! * **Longest chain** — Nakamoto consensus (Bitcoin).
//! * **Heaviest work** — accumulate `2^difficulty` per block.
//! * **GHOST** — greedy heaviest-observed-subtree (Ethereum's answer to
//!   short block times, §2.7).
//!
//! # Examples
//!
//! ```
//! use dcs_chain::{BlockTree, Chain, NullMachine};
//! use dcs_primitives::{Block, BlockHeader, ChainConfig, Seal};
//! use dcs_crypto::Hash256;
//!
//! let cfg = ChainConfig::bitcoin_like();
//! let genesis = dcs_chain::genesis_block(&cfg);
//! let mut chain = Chain::new(genesis.clone(), cfg, NullMachine::default());
//! let child = Block::new(
//!     BlockHeader::new(genesis.hash(), 1, 1, dcs_crypto::Address::ZERO, Seal::None),
//!     vec![],
//! );
//! chain.import(child.clone()).unwrap();
//! assert_eq!(chain.tip_hash(), child.hash());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod forkchoice;
pub mod store;

pub use chain::{CanonStats, Chain, ChainEvent, ChainStats, NullMachine, StateMachine};
pub use forkchoice::best_tip;
pub use store::{BlockStore, BlockTree, PrunedStore, StoreStats, StoredBlock};

use dcs_crypto::Address;
use dcs_primitives::{Block, BlockHeader, ChainConfig, Seal};

/// Errors from importing blocks into the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// The block's parent is not (yet) known; the caller may hold it as an
    /// orphan and retry after syncing.
    UnknownParent(dcs_crypto::Hash256),
    /// The same block was imported twice (not an error in gossip settings,
    /// but reported so callers can count duplicates).
    Duplicate,
    /// The header height does not follow its parent.
    BadHeight {
        /// Height carried by the header.
        got: u64,
        /// Parent height + 1.
        expected: u64,
    },
    /// The body does not match the header's transaction Merkle root.
    BadTxRoot,
    /// The consensus seal failed verification.
    BadSeal(String),
    /// A transaction in the block failed state application.
    BadTransaction(String),
    /// The post-execution state root did not match the header commitment.
    BadStateRoot,
    /// A broken internal invariant was detected and survived (e.g. a
    /// canonical hash missing from the store). Never caused by peer input;
    /// counted in [`ChainStats::internal_errors`] so a healthy run can
    /// assert it stayed at zero.
    Internal(&'static str),
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainError::UnknownParent(h) => write!(f, "unknown parent {h}"),
            ChainError::Duplicate => write!(f, "duplicate block"),
            ChainError::BadHeight { got, expected } => {
                write!(f, "bad height {got}, expected {expected}")
            }
            ChainError::BadTxRoot => write!(f, "transaction root mismatch"),
            ChainError::BadSeal(msg) => write!(f, "bad seal: {msg}"),
            ChainError::BadTransaction(msg) => write!(f, "bad transaction: {msg}"),
            ChainError::BadStateRoot => write!(f, "state root mismatch"),
            ChainError::Internal(msg) => write!(f, "internal invariant broken: {msg}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Builds the deterministic genesis block for a configuration.
pub fn genesis_block(cfg: &ChainConfig) -> Block {
    Block::new(
        BlockHeader::new(dcs_crypto::Hash256::ZERO, 0, 0, Address::ZERO, Seal::None),
        vec![dcs_primitives::Transaction::Coinbase {
            to: Address::ZERO,
            value: 0,
            height: u64::from(cfg.chain_id), // make genesis unique per chain
        }],
    )
}
