//! The generation-1.0 state machine: an unspent-transaction-output set with
//! full validation (existence, ownership witness, value balance) and undo
//! logs so the chain layer can roll blocks back during reorgs.

use dcs_crypto::{Hash256, MerkleTree, VerifyItem, VerifyPipeline};
use dcs_primitives::{Amount, Block, Transaction, TxOut, UtxoTx};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies one output of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OutPoint {
    /// Creating transaction.
    pub tx: Hash256,
    /// Output index within it.
    pub index: u32,
}

/// UTXO-rule violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UtxoError {
    /// An input referenced an output that does not exist or was spent.
    MissingInput(OutPoint),
    /// The same output was spent twice within one transaction.
    DoubleSpendInTx(OutPoint),
    /// Outputs exceed inputs (value would be created from nothing).
    ValueOverflow {
        /// Total input value.
        inputs: Amount,
        /// Total output value.
        outputs: Amount,
    },
    /// A witness was missing while signature verification is on.
    MissingWitness(OutPoint),
    /// A witness signature or key did not authorize the spend.
    BadWitness(OutPoint),
    /// A transaction had no inputs (only coinbases may mint).
    NoInputs,
    /// Summing input values overflowed the `Amount` type.
    AmountOverflow,
}

impl core::fmt::Display for UtxoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            UtxoError::MissingInput(op) => write!(f, "missing input {}:{}", op.tx, op.index),
            UtxoError::DoubleSpendInTx(op) => {
                write!(f, "double spend within tx of {}:{}", op.tx, op.index)
            }
            UtxoError::ValueOverflow { inputs, outputs } => {
                write!(f, "outputs {outputs} exceed inputs {inputs}")
            }
            UtxoError::MissingWitness(op) => {
                write!(f, "missing witness for {}:{}", op.tx, op.index)
            }
            UtxoError::BadWitness(op) => write!(f, "bad witness for {}:{}", op.tx, op.index),
            UtxoError::NoInputs => write!(f, "transaction has no inputs"),
            UtxoError::AmountOverflow => write!(f, "input value sum overflows Amount"),
        }
    }
}

impl std::error::Error for UtxoError {}

/// Undo record for one applied UTXO transaction: what to re-create and what
/// to delete to reverse it.
#[derive(Debug, Clone, Default)]
pub struct UtxoUndo {
    spent: Vec<(OutPoint, TxOut)>,
    created: Vec<OutPoint>,
}

/// The unspent output set.
///
/// # Examples
///
/// ```
/// use dcs_state::UtxoSet;
/// use dcs_crypto::Address;
///
/// let mut set = UtxoSet::new();
/// let genesis = set.mint(Address::from_index(1), 100);
/// assert_eq!(set.balance_of(&Address::from_index(1)), 100);
/// # let _ = genesis;
/// ```
#[derive(Debug, Clone, Default)]
pub struct UtxoSet {
    live: BTreeMap<OutPoint, TxOut>,
    mint_counter: u64,
    verify_witnesses: bool,
}

impl UtxoSet {
    /// Creates an empty set with witness verification off (simulation mode).
    pub fn new() -> Self {
        UtxoSet::default()
    }

    /// Creates an empty set that demands and checks spend witnesses.
    pub fn with_witness_verification() -> Self {
        UtxoSet {
            verify_witnesses: true,
            ..UtxoSet::default()
        }
    }

    /// Number of live outputs.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no outputs are live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Looks up a live output.
    pub fn get(&self, op: &OutPoint) -> Option<&TxOut> {
        self.live.get(op)
    }

    /// Sum of live outputs owned by `addr` (a wallet balance scan).
    pub fn balance_of(&self, addr: &dcs_crypto::Address) -> Amount {
        self.live
            .values()
            .filter(|o| o.recipient == *addr)
            .map(|o| o.value)
            .sum()
    }

    /// Mints a fresh output outside consensus (genesis allocations and
    /// tests). Returns its outpoint.
    pub fn mint(&mut self, to: dcs_crypto::Address, value: Amount) -> OutPoint {
        let tx = dcs_crypto::sha256(&self.mint_counter.to_le_bytes());
        self.mint_counter += 1;
        let op = OutPoint {
            tx,
            index: u32::MAX,
        };
        self.live.insert(
            op,
            TxOut {
                value,
                recipient: to,
            },
        );
        op
    }

    /// Validates a UTXO transaction against the current set without applying
    /// it. Returns the fee (inputs minus outputs).
    ///
    /// # Errors
    ///
    /// Any [`UtxoError`] the transaction violates.
    pub fn validate(&self, tx: &UtxoTx, signing_hash: &Hash256) -> Result<Amount, UtxoError> {
        self.validate_with(tx, Some(signing_hash))
    }

    /// Validation against the live set. `signing_hash` is what witness
    /// signatures are verified against. With `None` the *stateful* witness
    /// checks still run — a witness must be present and its key must hash to
    /// the spent output's owner — but the signature itself is assumed to
    /// have been verified already (by [`UtxoSet::prevalidate_witnesses`]).
    /// Ownership cannot be checked statelessly because the spent output may
    /// be created earlier in the same block.
    fn validate_with(
        &self,
        tx: &UtxoTx,
        signing_hash: Option<&Hash256>,
    ) -> Result<Amount, UtxoError> {
        if tx.inputs.is_empty() {
            return Err(UtxoError::NoInputs);
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut input_value: Amount = 0;
        for input in &tx.inputs {
            let op = OutPoint {
                tx: input.prev_tx,
                index: input.index,
            };
            if !seen.insert(op) {
                return Err(UtxoError::DoubleSpendInTx(op));
            }
            let out = self.live.get(&op).ok_or(UtxoError::MissingInput(op))?;
            if self.verify_witnesses {
                let auth = input.auth.as_ref().ok_or(UtxoError::MissingWitness(op))?;
                if auth.pubkey.address() != out.recipient
                    || signing_hash.is_some_and(|h| !auth.pubkey.verify(h, &auth.signature))
                {
                    return Err(UtxoError::BadWitness(op));
                }
            }
            input_value = input_value
                .checked_add(out.value)
                .ok_or(UtxoError::AmountOverflow)?;
        }
        let output_value = tx.output_value();
        if output_value > input_value {
            return Err(UtxoError::ValueOverflow {
                inputs: input_value,
                outputs: output_value,
            });
        }
        Ok(input_value - output_value)
    }

    /// Stateless prevalidation for a whole block body: batch-verifies every
    /// witness signature in `block` through `pipeline`, in parallel and
    /// through its signature cache, against [`Block::signing_hashes`] — one
    /// hash per transaction per block instance, however many peers import it.
    ///
    /// Only the pure signature checks run here — input existence, ownership,
    /// and value balance are stateful (an input may be created by an earlier
    /// transaction in the same block) and stay in the serial apply loop. On
    /// success the caller may apply the same transactions with
    /// [`UtxoSet::apply_prevalidated`], which skips re-verifying signatures;
    /// the end state is identical to the all-serial path because the same
    /// predicate gates the same error at the same point.
    ///
    /// Returns the number of signatures checked.
    ///
    /// # Errors
    ///
    /// [`UtxoError::BadWitness`] naming the first input (in block order)
    /// whose signature fails.
    pub fn prevalidate_witnesses(
        block: &Block,
        pipeline: &VerifyPipeline,
    ) -> Result<usize, UtxoError> {
        let mut items: Vec<VerifyItem<'_>> = Vec::new();
        let mut outpoints: Vec<OutPoint> = Vec::new();
        for (tx, hash) in block.txs.iter().zip(block.signing_hashes()) {
            if let Transaction::Utxo(utx) = tx {
                for input in &utx.inputs {
                    if let Some(auth) = &input.auth {
                        items.push((&auth.pubkey, hash, &auth.signature));
                        outpoints.push(OutPoint {
                            tx: input.prev_tx,
                            index: input.index,
                        });
                    }
                }
            }
        }
        let verdicts = pipeline.verify_batch_refs(&items);
        match verdicts.iter().position(|&ok| !ok) {
            Some(i) => Err(UtxoError::BadWitness(outpoints[i])),
            None => Ok(items.len()),
        }
    }

    /// Applies a validated transaction, returning the fee and an undo record.
    ///
    /// # Errors
    ///
    /// Same as [`UtxoSet::validate`]; on error the set is unchanged.
    pub fn apply(&mut self, tx: &Transaction) -> Result<(Amount, UtxoUndo), UtxoError> {
        self.apply_with(tx, true)
    }

    /// Applies a transaction whose witness signatures were already verified
    /// by [`UtxoSet::prevalidate_witnesses`]: all stateful checks (input
    /// existence, double spends, ownership, value balance) still run, only
    /// the signature re-verification is skipped.
    ///
    /// # Errors
    ///
    /// Same as [`UtxoSet::apply`] except that [`UtxoError::BadWitness`] is
    /// only raised for ownership mismatches; on error the set is unchanged.
    pub fn apply_prevalidated(
        &mut self,
        tx: &Transaction,
    ) -> Result<(Amount, UtxoUndo), UtxoError> {
        self.apply_with(tx, false)
    }

    fn apply_with(
        &mut self,
        tx: &Transaction,
        verify_sigs: bool,
    ) -> Result<(Amount, UtxoUndo), UtxoError> {
        let mut undo = UtxoUndo::default();
        match tx {
            Transaction::Coinbase { to, value, .. } => {
                let op = OutPoint {
                    tx: tx.id(),
                    index: 0,
                };
                self.live.insert(
                    op,
                    TxOut {
                        value: *value,
                        recipient: *to,
                    },
                );
                undo.created.push(op);
                Ok((0, undo))
            }
            Transaction::Utxo(utx) => {
                // No block around a lone transaction: hash from scratch, and
                // only if it will verify.
                let signing_hash =
                    (verify_sigs && self.verify_witnesses).then(|| tx.signing_hash());
                let fee = self.validate_with(utx, signing_hash.as_ref())?;
                for input in &utx.inputs {
                    let op = OutPoint {
                        tx: input.prev_tx,
                        index: input.index,
                    };
                    let out = self.live.remove(&op).expect("validated input exists");
                    undo.spent.push((op, out));
                }
                let id = tx.id();
                for (i, out) in utx.outputs.iter().enumerate() {
                    let op = OutPoint {
                        tx: id,
                        index: i as u32,
                    };
                    self.live.insert(op, *out);
                    undo.created.push(op);
                }
                Ok((fee, undo))
            }
            Transaction::Account(_) => Ok((0, undo)), // not this state machine's concern
        }
    }

    /// Reverses a previously applied transaction.
    pub fn revert(&mut self, undo: UtxoUndo) {
        for op in undo.created {
            self.live.remove(&op);
        }
        for (op, out) in undo.spent {
            self.live.insert(op, out);
        }
    }

    /// A commitment to the full UTXO set: the Merkle root over the sorted
    /// outpoint/output encodings.
    pub fn commitment(&self) -> Hash256 {
        let mut entries: Vec<(&OutPoint, &TxOut)> = self.live.iter().collect();
        entries.sort_by_key(|(op, _)| **op);
        let leaves: Vec<Hash256> = entries
            .into_iter()
            .map(|(op, out)| {
                let mut bytes = Vec::new();
                use dcs_crypto::codec::Encode;
                op.tx.encode(&mut bytes);
                op.index.encode(&mut bytes);
                out.value.encode(&mut bytes);
                out.recipient.encode(&mut bytes);
                dcs_crypto::sha256(&bytes)
            })
            .collect();
        MerkleTree::from_leaves(leaves).root()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::{Address, KeyPair};
    use dcs_primitives::{TxAuth, TxIn};

    fn transfer(
        from_op: OutPoint,
        to: Address,
        value: Amount,
        change_to: Address,
        change: Amount,
    ) -> Transaction {
        Transaction::Utxo(UtxoTx {
            inputs: vec![TxIn {
                prev_tx: from_op.tx,
                index: from_op.index,
                auth: None,
            }],
            outputs: vec![
                TxOut {
                    value,
                    recipient: to,
                },
                TxOut {
                    value: change,
                    recipient: change_to,
                },
            ],
        })
    }

    #[test]
    fn mint_and_spend_with_fee() {
        let mut set = UtxoSet::new();
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let op = set.mint(alice, 100);
        // 60 to bob, 35 change, 5 fee.
        let tx = transfer(op, bob, 60, alice, 35);
        let (fee, _undo) = set.apply(&tx).unwrap();
        assert_eq!(fee, 5);
        assert_eq!(set.balance_of(&bob), 60);
        assert_eq!(set.balance_of(&alice), 35);
    }

    #[test]
    fn double_spend_rejected() {
        let mut set = UtxoSet::new();
        let alice = Address::from_index(1);
        let op = set.mint(alice, 100);
        let tx1 = transfer(op, Address::from_index(2), 100, alice, 0);
        set.apply(&tx1).unwrap();
        let tx2 = transfer(op, Address::from_index(3), 100, alice, 0);
        assert!(matches!(set.apply(&tx2), Err(UtxoError::MissingInput(_))));
    }

    #[test]
    fn double_spend_within_tx_rejected() {
        let mut set = UtxoSet::new();
        let alice = Address::from_index(1);
        let op = set.mint(alice, 100);
        let tx = Transaction::Utxo(UtxoTx {
            inputs: vec![
                TxIn {
                    prev_tx: op.tx,
                    index: op.index,
                    auth: None,
                },
                TxIn {
                    prev_tx: op.tx,
                    index: op.index,
                    auth: None,
                },
            ],
            outputs: vec![TxOut {
                value: 200,
                recipient: alice,
            }],
        });
        assert!(matches!(set.apply(&tx), Err(UtxoError::DoubleSpendInTx(_))));
    }

    #[test]
    fn value_creation_rejected() {
        let mut set = UtxoSet::new();
        let alice = Address::from_index(1);
        let op = set.mint(alice, 100);
        let tx = transfer(op, Address::from_index(2), 150, alice, 0);
        assert!(matches!(
            set.apply(&tx),
            Err(UtxoError::ValueOverflow {
                inputs: 100,
                outputs: 150
            })
        ));
    }

    #[test]
    fn empty_inputs_rejected() {
        let mut set = UtxoSet::new();
        let tx = Transaction::Utxo(UtxoTx {
            inputs: vec![],
            outputs: vec![],
        });
        assert!(matches!(set.apply(&tx), Err(UtxoError::NoInputs)));
    }

    #[test]
    fn revert_restores_exact_state() {
        let mut set = UtxoSet::new();
        let alice = Address::from_index(1);
        let op = set.mint(alice, 100);
        let before = set.commitment();
        let tx = transfer(op, Address::from_index(2), 40, alice, 60);
        let (_, undo) = set.apply(&tx).unwrap();
        assert_ne!(set.commitment(), before);
        set.revert(undo);
        assert_eq!(set.commitment(), before);
        assert_eq!(set.balance_of(&alice), 100);
    }

    #[test]
    fn coinbase_mints_new_output() {
        let mut set = UtxoSet::new();
        let miner = Address::from_index(9);
        let cb = Transaction::Coinbase {
            to: miner,
            value: 50,
            height: 1,
        };
        let (fee, _) = set.apply(&cb).unwrap();
        assert_eq!(fee, 0);
        assert_eq!(set.balance_of(&miner), 50);
    }

    #[test]
    fn witness_verification_enforced() {
        let mut kp = KeyPair::generate([5u8; 32], 2);
        let alice = kp.address();
        let mut set = UtxoSet::with_witness_verification();
        let op = set.mint(alice, 100);

        // Unsigned spend is rejected.
        let unsigned = transfer(op, Address::from_index(2), 100, alice, 0);
        assert!(matches!(
            set.apply(&unsigned),
            Err(UtxoError::MissingWitness(_))
        ));

        // Properly signed spend is accepted.
        let mut utx = UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: Address::from_index(2),
            }],
        };
        let signing = Transaction::Utxo(utx.clone()).signing_hash();
        let sig = kp.sign(&signing).unwrap();
        utx.inputs[0].auth = Some(TxAuth {
            pubkey: kp.public_key(),
            signature: sig,
        });
        let signed = Transaction::Utxo(utx);
        set.apply(&signed).unwrap();
        assert_eq!(set.balance_of(&Address::from_index(2)), 100);
    }

    #[test]
    fn wrong_key_witness_rejected() {
        let mut kp_thief = KeyPair::generate([6u8; 32], 2);
        let owner = Address::from_index(1); // not the thief's address
        let mut set = UtxoSet::with_witness_verification();
        let op = set.mint(owner, 100);
        let mut utx = UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: kp_thief.address(),
            }],
        };
        let signing = Transaction::Utxo(utx.clone()).signing_hash();
        let sig = kp_thief.sign(&signing).unwrap();
        utx.inputs[0].auth = Some(TxAuth {
            pubkey: kp_thief.public_key(),
            signature: sig,
        });
        assert!(matches!(
            set.apply(&Transaction::Utxo(utx)),
            Err(UtxoError::BadWitness(_))
        ));
    }

    #[test]
    fn input_sum_overflow_rejected() {
        let mut set = UtxoSet::new();
        let alice = Address::from_index(1);
        let op1 = set.mint(alice, Amount::MAX);
        let op2 = set.mint(alice, 1);
        let tx = Transaction::Utxo(UtxoTx {
            inputs: vec![
                TxIn {
                    prev_tx: op1.tx,
                    index: op1.index,
                    auth: None,
                },
                TxIn {
                    prev_tx: op2.tx,
                    index: op2.index,
                    auth: None,
                },
            ],
            outputs: vec![TxOut {
                value: 1,
                recipient: alice,
            }],
        });
        let before = set.commitment();
        assert!(matches!(set.apply(&tx), Err(UtxoError::AmountOverflow)));
        assert_eq!(
            set.commitment(),
            before,
            "failed apply must not mutate the set"
        );
    }

    /// A block around `txs` — what prevalidation reads signing hashes from.
    fn body(txs: &[Transaction]) -> Block {
        use dcs_primitives::{BlockHeader, Seal};
        let header = BlockHeader::new(Hash256::ZERO, 1, 0, Address::ZERO, Seal::None);
        Block::from_parts(header, txs.to_vec())
    }

    /// Builds a signed chain of transfers: mint to `kp`, then each tx spends
    /// the previous tx's output back to the same key.
    fn signed_chain(set: &mut UtxoSet, kp: &mut KeyPair, n: usize) -> Vec<Transaction> {
        let addr = kp.address();
        let mut prev = set.mint(addr, 100);
        let mut txs = Vec::new();
        for _ in 0..n {
            let mut utx = UtxoTx {
                inputs: vec![TxIn {
                    prev_tx: prev.tx,
                    index: prev.index,
                    auth: None,
                }],
                outputs: vec![TxOut {
                    value: 100,
                    recipient: addr,
                }],
            };
            let signing = Transaction::Utxo(utx.clone()).signing_hash();
            let sig = kp.sign(&signing).unwrap();
            utx.inputs[0].auth = Some(TxAuth {
                pubkey: kp.public_key(),
                signature: sig,
            });
            let tx = Transaction::Utxo(utx);
            prev = OutPoint {
                tx: tx.id(),
                index: 0,
            };
            txs.push(tx);
        }
        txs
    }

    #[test]
    fn prevalidated_apply_matches_serial_apply() {
        // Mid-block dependencies on purpose: tx[i] spends tx[i-1]'s output,
        // so the stateless prevalidation must leave existence checks to the
        // serial loop and still reach the identical end state.
        let mut kp = KeyPair::generate([9u8; 32], 3);
        let mut serial = UtxoSet::with_witness_verification();
        let mut piped = UtxoSet::with_witness_verification();
        let txs = signed_chain(&mut serial, &mut kp, 5);
        let mut kp2 = KeyPair::generate([9u8; 32], 3);
        let txs2 = signed_chain(&mut piped, &mut kp2, 5);
        assert_eq!(
            txs.iter().map(Transaction::id).collect::<Vec<_>>(),
            txs2.iter().map(Transaction::id).collect::<Vec<_>>()
        );

        for threads in [1, 2, 8] {
            let pipeline = VerifyPipeline::new(threads, 1024);
            let mut piped = piped.clone();
            let checked = UtxoSet::prevalidate_witnesses(&body(&txs), &pipeline).unwrap();
            assert_eq!(checked, txs.len());
            let mut serial = serial.clone();
            for tx in &txs {
                let (fee_serial, _) = serial.apply(tx).unwrap();
                let (fee_piped, _) = piped.apply_prevalidated(tx).unwrap();
                assert_eq!(fee_serial, fee_piped);
            }
            assert_eq!(serial.commitment(), piped.commitment(), "threads={threads}");
        }
    }

    #[test]
    fn prevalidation_rejects_forged_witness() {
        let mut kp = KeyPair::generate([8u8; 32], 3);
        let mut set = UtxoSet::with_witness_verification();
        let mut txs = signed_chain(&mut set, &mut kp, 3);
        // Replace the middle witness with a signature over a different message.
        if let Transaction::Utxo(utx) = &mut txs[1] {
            let wrong = kp.sign(&dcs_crypto::sha256(b"unrelated")).unwrap();
            utx.inputs[0].auth.as_mut().unwrap().signature = wrong;
        }
        let expected_op = match &txs[1] {
            Transaction::Utxo(utx) => OutPoint {
                tx: utx.inputs[0].prev_tx,
                index: utx.inputs[0].index,
            },
            _ => unreachable!(),
        };
        let pipeline = VerifyPipeline::new(2, 1024);
        assert_eq!(
            UtxoSet::prevalidate_witnesses(&body(&txs), &pipeline),
            Err(UtxoError::BadWitness(expected_op))
        );
    }

    #[test]
    fn prevalidated_apply_still_checks_ownership() {
        // A witness whose signature is valid but whose key does not own the
        // spent output must still be rejected by the stateful apply loop.
        let mut thief = KeyPair::generate([7u8; 32], 2);
        let owner = Address::from_index(1);
        let mut set = UtxoSet::with_witness_verification();
        let op = set.mint(owner, 100);
        let mut utx = UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: thief.address(),
            }],
        };
        let signing = Transaction::Utxo(utx.clone()).signing_hash();
        let sig = thief.sign(&signing).unwrap();
        utx.inputs[0].auth = Some(TxAuth {
            pubkey: thief.public_key(),
            signature: sig,
        });
        let tx = Transaction::Utxo(utx);
        // The signature itself is genuine, so prevalidation passes...
        let pipeline = VerifyPipeline::new(2, 64);
        assert_eq!(
            UtxoSet::prevalidate_witnesses(&body(std::slice::from_ref(&tx)), &pipeline),
            Ok(1)
        );
        // ...but apply_prevalidated still catches the ownership mismatch.
        assert!(matches!(
            set.apply_prevalidated(&tx),
            Err(UtxoError::BadWitness(_))
        ));
    }

    #[test]
    fn commitment_is_content_addressed() {
        let mut a = UtxoSet::new();
        let mut b = UtxoSet::new();
        a.mint(Address::from_index(1), 5);
        a.mint(Address::from_index(2), 6);
        b.mint(Address::from_index(1), 5);
        b.mint(Address::from_index(2), 6);
        assert_eq!(a.commitment(), b.commitment());
        b.mint(Address::from_index(3), 7);
        assert_ne!(a.commitment(), b.commitment());
    }
}
