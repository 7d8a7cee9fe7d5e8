//! Execution receipts: the per-transaction outcome record (status, gas
//! consumed, fee paid to the proposer, and emitted event logs). Receipts are
//! what the middleware layer's event-notification service (§5.2) subscribes
//! to.

use crate::Amount;
use dcs_crypto::codec::Encode;
use dcs_crypto::{Address, Hash256};
use serde::{Deserialize, Serialize};

/// Outcome of executing one transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxStatus {
    /// Applied successfully.
    Success,
    /// Rejected or reverted; state changes were rolled back but the fee was
    /// still charged (as in Ethereum).
    Failed(String),
}

impl TxStatus {
    /// True if the transaction succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, TxStatus::Success)
    }
}

/// An event emitted by a contract during execution (the `LOG` opcode).
/// Topics support the middleware pub/sub matcher; `data` is opaque payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Emitting contract.
    pub contract: Address,
    /// Indexed topics for subscription filtering.
    pub topics: Vec<Hash256>,
    /// Unindexed payload bytes.
    pub data: Vec<u8>,
}

/// The receipt for one executed transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Receipt {
    /// Id of the transaction this receipt describes.
    pub tx_id: Hash256,
    /// Success or failure (with reason).
    pub status: TxStatus,
    /// Gas units consumed.
    pub gas_used: Amount,
    /// Fee transferred to the block proposer (`gas_used * gas_price`).
    pub fee_paid: Amount,
    /// Events emitted during execution.
    pub logs: Vec<LogEntry>,
}

impl Receipt {
    /// A success receipt with no gas accounting (used by plain transfers in
    /// tests and by the UTXO path, which has no gas).
    pub fn success(tx_id: Hash256) -> Self {
        Receipt {
            tx_id,
            status: TxStatus::Success,
            gas_used: 0,
            fee_paid: 0,
            logs: Vec::new(),
        }
    }

    /// A failure receipt carrying the rejection reason.
    pub fn failed(tx_id: Hash256, reason: impl Into<String>) -> Self {
        Receipt {
            tx_id,
            status: TxStatus::Failed(reason.into()),
            gas_used: 0,
            fee_paid: 0,
            logs: Vec::new(),
        }
    }
}

impl Encode for TxStatus {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TxStatus::Success => out.push(0),
            TxStatus::Failed(reason) => {
                out.push(1);
                reason.encode(out);
            }
        }
    }
}

impl Encode for LogEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.contract.encode(out);
        self.topics.encode(out);
        self.data.encode(out);
    }
}

impl Encode for Receipt {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tx_id.encode(out);
        self.status.encode(out);
        self.gas_used.encode(out);
        self.fee_paid.encode(out);
        self.logs.encode(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::sha256;

    #[test]
    fn constructors() {
        let id = sha256(b"tx");
        assert!(Receipt::success(id).status.is_success());
        let f = Receipt::failed(id, "insufficient balance");
        assert!(!f.status.is_success());
        assert_eq!(f.status, TxStatus::Failed("insufficient balance".into()));
    }
}
