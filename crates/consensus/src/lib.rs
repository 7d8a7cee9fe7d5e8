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
mod marks;
pub mod mempool;
pub mod ng;
pub mod node;
pub mod ordering;
pub mod pbft;
pub mod poet;
pub mod pos;
pub mod pow;
mod sync;

pub use mempool::{InsertOutcome, Mempool};
pub use node::{Inbound, LedgerNode, NodeCore, PeerObserver};

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
    /// Gossip pushes a body this way from the peer a client handed it to,
    /// and on every hop when it is under 1 KiB; a larger one is announced
    /// ([`WireMsg::TxAnnounce`]) and pulled.
    Tx(SealedTx),
    /// A gossip peer's notice of the large bodies its pool took since its
    /// last notice, flushed to each neighbor every 100 ms, leaving out the
    /// neighbors each body came from or was announced by. The receiver asks
    /// the announcer for the ones it has not seen, while its pool has room,
    /// with one [`WireMsg::TxRequest`].
    TxAnnounce {
        /// Ids of the announced transactions, in the order pooled.
        ids: Vec<Hash256>,
    },
    /// A gossip peer's block relay, charged on the wire for its compact
    /// form: the header, the coinbase and one 32-byte id per client
    /// transaction. The receiver may use only the bodies it already holds
    /// and asks the sender for the rest with one [`WireMsg::TxRequest`].
    CompactBlock(Arc<Block>),
    /// A PBFT protocol message.
    Pbft(pbft::PbftMsg),
    /// A range request, the one way a peer fetches blocks it lacks — to
    /// catch up, and to page in the missing ancestry of an orphan (how
    /// healed partitions reconverge). `locator` is the asker's canonical
    /// chain sampled newest-first at exponentially growing gaps
    /// (Bitcoin-style), led on a follow-up page by the last block of the
    /// page before. The responder finds the first locator entry on its own
    /// canonical chain and replies with the blocks above it.
    SyncRequest {
        /// Block hashes, newest first.
        locator: Vec<Hash256>,
    },
    /// A request for client bodies the asker lacks: those a held block (a
    /// relayed [`WireMsg::CompactBlock`] or a PBFT proposal) names, asked of
    /// whoever handed the block over, or those a [`WireMsg::TxAnnounce`]
    /// named, asked of the first announcer. A short reply or its retry timer
    /// moves it to the next neighbor (for announced bodies, the next
    /// announcer). Answered with one [`WireMsg::BlockTxs`].
    TxRequest {
        /// What the request is for, echoed by the reply: the held block's
        /// hash, or for announced bodies an id asked.
        key: Hash256,
        /// Ids of the missing client transactions, in block (or announced)
        /// order.
        ids: Vec<Hash256>,
    },
    /// The one reply to a [`WireMsg::TxRequest`]: every body asked for that
    /// the responder holds, in its pool or in the stored block, in the
    /// order asked.
    BlockTxs {
        /// The request's key.
        key: Hash256,
        /// The bodies.
        txs: Vec<SealedTx>,
    },
    /// A batch of canonical blocks answering a [`WireMsg::SyncRequest`],
    /// plus the responder's tip height so the asker knows whether to keep
    /// paging. A peer with no page request outstanding drops one unread.
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
///
/// A relayed [`WireMsg::CompactBlock`] and a PBFT `PrePrepare` are compact:
/// the header, the coinbase and one 32-byte id per client transaction,
/// whose bodies the receiver mostly holds already (it asks for the ones it
/// lacks with [`WireMsg::TxRequest`]). A [`WireMsg::SyncResponse`]
/// carries every body: its asker may hold none of them.
pub fn wire_size(msg: &WireMsg) -> usize {
    match msg {
        WireMsg::CompactBlock(b) => compact_block_size(b),
        WireMsg::Tx(tx) => approx_tx_size(tx),
        WireMsg::Pbft(m) => match m {
            pbft::PbftMsg::PrePrepare { block, .. } => 20 + compact_block_size(block),
            _ => 100,
        },
        WireMsg::TxAnnounce { ids } => 16 + 32 * ids.len(),
        WireMsg::TxRequest { ids, .. } => 40 + 32 * ids.len(),
        WireMsg::BlockTxs { txs, .. } => {
            40 + txs.iter().map(|tx| approx_tx_size(tx)).sum::<usize>()
        }
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

/// Approximate encoded size of one block's compact form: the header, the
/// coinbase, and an id in place of every other body.
fn compact_block_size(b: &Block) -> usize {
    let compact = |tx: &Transaction| match tx {
        Transaction::Coinbase { .. } => approx_tx_size(tx),
        _ => 32,
    };
    180 + b.txs.iter().map(compact).sum::<usize>()
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
    /// the sealed transaction (80 bytes) plus the tag (`TxRequest` and
    /// `BlockTxs`, a hash and a `Vec`, are 56). Growing it is a measured
    /// decision (CHANGES.md).
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
