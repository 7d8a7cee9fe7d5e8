//! Taint analysis over the UTXO transaction graph — the traceability the
//! paper warns about (§5.3): "it is still possible to trace users based on
//! their activity, which is fully exposed since every transaction is
//! recorded", making Bitcoin "not a perfectly fungible system" where
//! "'clean' coins with little or no history are worth slightly more".
//!
//! Implements the *haircut* model: when a transaction mixes tainted and
//! clean inputs, every output inherits the value-weighted average taint.

use dcs_crypto::Hash256;
use dcs_primitives::UtxoTx;
use dcs_state::OutPoint;
use std::collections::HashMap;

/// Tracks per-output taint fractions across a stream of transactions.
#[derive(Debug, Default)]
pub struct TaintTracker {
    /// Taint fraction per outpoint, in `[0, 1]`.
    taint: HashMap<OutPoint, f64>,
    /// Output values (needed for value-weighted mixing).
    values: HashMap<OutPoint, u64>,
}

impl TaintTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        TaintTracker::default()
    }

    /// Registers a pristine (clean) output, e.g. a coinbase.
    pub fn add_clean(&mut self, op: OutPoint, value: u64) {
        self.taint.insert(op, 0.0);
        self.values.insert(op, value);
    }

    /// Marks an output as fully tainted (e.g. proceeds of a known theft).
    pub fn mark_tainted(&mut self, op: OutPoint) {
        self.taint.insert(op, 1.0);
    }

    /// The taint fraction of an output (0 if unknown).
    pub fn taint_of(&self, op: &OutPoint) -> f64 {
        self.taint.get(op).copied().unwrap_or(0.0)
    }

    /// Applies one UTXO transaction: outputs inherit the value-weighted
    /// average taint of the inputs (the haircut rule).
    pub fn apply(&mut self, tx: &UtxoTx, tx_id: Hash256) {
        let mut tainted_value = 0.0;
        let mut total_value = 0.0;
        for input in &tx.inputs {
            let op = OutPoint {
                tx: input.prev_tx,
                index: input.index,
            };
            let value = self.values.get(&op).copied().unwrap_or(0) as f64;
            tainted_value += self.taint_of(&op) * value;
            total_value += value;
            self.taint.remove(&op);
            self.values.remove(&op);
        }
        let fraction = if total_value > 0.0 {
            tainted_value / total_value
        } else {
            0.0
        };
        for (i, out) in tx.outputs.iter().enumerate() {
            let op = OutPoint {
                tx: tx_id,
                index: i as u32,
            };
            self.taint.insert(op, fraction);
            self.values.insert(op, out.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::{sha256, Address};
    use dcs_primitives::{TxIn, TxOut};

    fn op(label: &str) -> OutPoint {
        OutPoint {
            tx: sha256(label.as_bytes()),
            index: 0,
        }
    }

    fn spend(inputs: &[OutPoint], outputs: &[u64]) -> UtxoTx {
        UtxoTx {
            inputs: inputs
                .iter()
                .map(|o| TxIn {
                    prev_tx: o.tx,
                    index: o.index,
                    auth: None,
                })
                .collect(),
            outputs: outputs
                .iter()
                .map(|&value| TxOut {
                    value,
                    recipient: Address::ZERO,
                })
                .collect(),
        }
    }

    #[test]
    fn full_taint_propagates() {
        let mut t = TaintTracker::new();
        let dirty = op("theft");
        t.add_clean(dirty, 100);
        t.mark_tainted(dirty);
        let tx = spend(&[dirty], &[60, 40]);
        let id = sha256(b"tx1");
        t.apply(&tx, id);
        assert_eq!(t.taint_of(&OutPoint { tx: id, index: 0 }), 1.0);
        assert_eq!(t.taint_of(&OutPoint { tx: id, index: 1 }), 1.0);
    }

    #[test]
    fn haircut_mixing_dilutes_taint() {
        let mut t = TaintTracker::new();
        let dirty = op("theft");
        let clean = op("mined");
        t.add_clean(dirty, 100);
        t.mark_tainted(dirty);
        t.add_clean(clean, 300);
        // Mix 100 tainted + 300 clean → every output 25% tainted.
        let tx = spend(&[dirty, clean], &[200, 200]);
        let id = sha256(b"mix");
        t.apply(&tx, id);
        assert!((t.taint_of(&OutPoint { tx: id, index: 0 }) - 0.25).abs() < 1e-12);
        assert!((t.taint_of(&OutPoint { tx: id, index: 1 }) - 0.25).abs() < 1e-12);
        // Inputs were consumed: the spent theft output is forgotten.
        assert_eq!(t.taint_of(&dirty), 0.0);
    }

    #[test]
    fn repeated_mixing_decays_taint_geometrically() {
        let mut t = TaintTracker::new();
        let dirty = op("theft");
        t.add_clean(dirty, 100);
        t.mark_tainted(dirty);
        let mut current = dirty;
        let mut expected = 1.0;
        for round in 0..5 {
            let clean = op(&format!("fresh-{round}"));
            t.add_clean(clean, 100);
            // Split back into two 100-value outputs so each round mixes
            // equal values (taint halves every round).
            let tx = spend(&[current, clean], &[100, 100]);
            let id = sha256(format!("mix-{round}").as_bytes());
            t.apply(&tx, id);
            current = OutPoint { tx: id, index: 0 };
            expected /= 2.0;
            assert!(
                (t.taint_of(&current) - expected).abs() < 1e-9,
                "round {round}"
            );
        }
        assert!(
            t.taint_of(&current) < 0.05,
            "five 1:1 mixes leave ~3% taint"
        );
    }

    #[test]
    fn unknown_inputs_treated_as_clean() {
        let mut t = TaintTracker::new();
        let tx = spend(&[op("never-seen")], &[50]);
        let id = sha256(b"tx");
        t.apply(&tx, id);
        assert_eq!(t.taint_of(&OutPoint { tx: id, index: 0 }), 0.0);
    }
}
