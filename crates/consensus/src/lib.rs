//! The system layer (§4.4 of the paper): every consensus protocol family the
//! paper surveys (§2.4), implemented as network protocols over `dcs-net`:
//!
//! * [`pow`] — Nakamoto proof-of-work with Bitcoin-style difficulty
//!   retargeting (block arrival modeled as a Poisson process, the standard
//!   analytical model of mining).
//! * [`pos`] — slot-based proof-of-stake with a deterministic stake-weighted
//!   lottery (PeerCoin-style, \[13\]).
//! * [`poet`] — proof-of-elapsed-time: a trusted random-wait lottery
//!   (Hyperledger Sawtooth / Intel SGX, \[41\]; the TEE is simulated).
//! * [`ordering`] — a Hyperledger-style ordering service with solo or
//!   rotating leaders (\[2\], \[18\]).
//! * [`pbft`] — three-phase Practical Byzantine Fault Tolerance with view
//!   changes.
//! * [`ng`] — Bitcoin-NG key blocks + microblocks (\[14\]).
//!
//! Supporting modules: [`node`] (the common peer core — chain, mempool,
//! gossip and the whole non-consensus wire protocol — and the
//! [`LedgerNode`] trait every engine implements), [`mempool`], [`difficulty`] (retargeting), and [`attack`]
//! (51%-attack analysis, §2.4's immutability argument, experiments E6/E13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod difficulty;
pub mod mempool;
pub mod metrics;
pub mod ng;
pub mod node;
pub mod ordering;
pub mod pbft;
pub mod poet;
pub mod pos;
pub mod pow;

pub use mempool::{InsertOutcome, Mempool};
pub use metrics::{MempoolMetrics, PbftMetrics};
pub use node::{Inbound, LedgerNode, NodeCore};

use dcs_crypto::Hash256;
use dcs_primitives::{Block, SealedTx, Transaction, TxPayload};
use std::sync::Arc;

/// Messages exchanged by all consensus protocols. Blocks and transactions
/// are reference-counted so gossip re-forwarding never deep-copies bodies.
#[derive(Debug, Clone)]
pub enum WireMsg {
    /// A client transaction sealed with its content id and, if witnessed,
    /// its signing hash — the in-memory analogue of computing both once at
    /// decode time. Every hop reuses the carried id for gossip dedup and the
    /// carried signing hash for admission instead of re-hashing the body.
    Tx(SealedTx),
    /// A full block announcement.
    Block(Arc<Block>),
    /// A PBFT protocol message.
    Pbft(pbft::PbftMsg),
    /// A request to send the block with this hash back to the asker — the
    /// minimal sync protocol: a peer that orphans a block walks the missing
    /// ancestry back to a common ancestor (how healed partitions reconverge).
    BlockRequest(Hash256),
    /// The negative reply to a [`WireMsg::BlockRequest`] the asked peer
    /// cannot serve (unknown hash, or a pruning node dropped the body) —
    /// lets the requester re-target another peer instead of waiting on a
    /// reply that never comes.
    BlockNotFound(Hash256),
    /// A catch-up range request: `locator` is the asker's canonical chain
    /// sampled newest-first at exponentially growing gaps (Bitcoin-style).
    /// The responder finds the highest locator entry on its own canonical
    /// chain and replies with the blocks above it.
    SyncRequest {
        /// Exponentially spaced canonical hashes, newest first.
        locator: Vec<Hash256>,
    },
    /// A batch of canonical blocks answering a [`WireMsg::SyncRequest`],
    /// plus the responder's tip height so the asker knows whether to keep
    /// paging.
    SyncResponse {
        /// Consecutive canonical blocks, oldest first (bounded batch).
        blocks: Vec<Arc<Block>>,
        /// The responder's canonical tip height.
        tip_height: u64,
    },
}

/// Cheap wire-size estimate in bytes, used for bandwidth accounting without
/// re-encoding bodies on every gossip hop. (Experiments that measure exact
/// sizes — e.g. E10 — call `encoded_len` on the payloads directly.)
pub fn wire_size(msg: &WireMsg) -> usize {
    match msg {
        WireMsg::Block(b) => approx_block_size(b),
        WireMsg::Tx(tx) => approx_tx_size(tx),
        WireMsg::Pbft(m) => match m {
            pbft::PbftMsg::PrePrepare { block, .. } => {
                200 + block.txs.iter().map(approx_tx_size).sum::<usize>()
            }
            _ => 100,
        },
        WireMsg::BlockRequest(_) | WireMsg::BlockNotFound(_) => 40,
        WireMsg::SyncRequest { locator } => 16 + 32 * locator.len(),
        WireMsg::SyncResponse { blocks, .. } => {
            16 + blocks.iter().map(|b| approx_block_size(b)).sum::<usize>()
        }
    }
}

/// Approximate encoded size of one block (header plus body).
fn approx_block_size(b: &Block) -> usize {
    180 + b.txs.iter().map(approx_tx_size).sum::<usize>()
}

/// Approximate encoded size of one transaction.
pub fn approx_tx_size(tx: &Transaction) -> usize {
    match tx {
        Transaction::Coinbase { .. } => 45,
        Transaction::Utxo(u) => {
            40 + u
                .inputs
                .iter()
                .map(|i| 40 + if i.auth.is_some() { 2_300 } else { 0 })
                .sum::<usize>()
                + u.outputs.len() * 28
        }
        Transaction::Account(a) => {
            let payload = match &a.payload {
                TxPayload::Transfer => 0,
                TxPayload::Deploy(c) => c.len(),
                TxPayload::Call(d) => d.len(),
                TxPayload::Data(d) => d.len(),
            };
            80 + payload + if a.auth.is_some() { 2_300 } else { 0 }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::Address;
    use dcs_primitives::AccountTx;

    /// Every queued network event holds a `WireMsg`; its largest variant is
    /// the sealed transaction (80 bytes) plus the tag. Growing it is a
    /// measured decision (CHANGES.md, issue 20).
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn wire_msg_stays_within_88_bytes() {
        assert!(std::mem::size_of::<WireMsg>() <= 88);
    }

    #[test]
    fn tx_size_estimates_track_reality_loosely() {
        let tx = Transaction::Account(AccountTx::transfer(
            Address::from_index(1),
            Address::from_index(2),
            5,
            0,
        ));
        let approx = approx_tx_size(&tx);
        let exact = tx.encoded_len();
        assert!(
            (approx as f64 / exact as f64) > 0.5 && (approx as f64 / exact as f64) < 2.0,
            "approx {approx} vs exact {exact}"
        );
    }
}
