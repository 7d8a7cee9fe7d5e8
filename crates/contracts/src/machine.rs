//! The application state machines plugged under `dcs-chain`:
//! [`AccountMachine`] executes generation-2.0/3.0 blocks (account transfers,
//! deployments, contract calls with gas), and [`UtxoMachine`] executes
//! generation-1.0 blocks over the UTXO set. Both support exact reorg
//! rollback via undo logs.

use crate::exec::{execute_tx, prevalidate_witnesses, verify_witness, BlockCtx};
use dcs_chain::StateMachine;
use dcs_crypto::{Address, Hash256, VerifyPipeline};
use dcs_primitives::{Amount, Block, GasSchedule, Receipt, Transaction};
use dcs_state::{AccountDb, AccountUndo, UtxoSet, UtxoUndo};
use std::sync::Arc;

/// The account-model state machine (generations 2.0/3.0).
#[derive(Debug, Default)]
pub struct AccountMachine {
    /// The world state.
    pub db: AccountDb,
    /// Gas schedule applied to every transaction.
    pub schedule: GasSchedule,
    /// Whether witnesses are demanded and verified (block-invalidating).
    pub verify_signatures: bool,
    pipeline: Option<Arc<VerifyPipeline>>,
}

impl AccountMachine {
    /// An empty machine with the default gas schedule.
    pub fn new() -> Self {
        AccountMachine::default()
    }

    /// A machine with pre-funded genesis accounts.
    pub fn with_alloc(alloc: &[(Address, Amount)]) -> Self {
        let mut m = AccountMachine::new();
        for (addr, amount) in alloc {
            m.db.credit(addr, *amount);
        }
        m.db.clear_journal();
        m
    }

    /// Routes witness verification through a shared verification pipeline:
    /// all witnesses of a block are batch-verified (in parallel, through the
    /// signature cache) before the serial execution loop. State transitions
    /// are unchanged — the pipeline accepts and rejects exactly the blocks
    /// the serial path does.
    pub fn with_pipeline(mut self, pipeline: Arc<VerifyPipeline>) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Reference oracle for [`StateMachine::apply_block`]: the same block
    /// applied write by write straight to the trie, with no overlay. Roots,
    /// receipts, and errors must be bit-identical to the batched path; the
    /// equivalence tests compare the two.
    pub fn apply_block_serial(
        &mut self,
        block: &Block,
    ) -> Result<(Vec<Receipt>, AccountUndo), String> {
        self.apply(block, false)
    }

    fn apply(
        &mut self,
        block: &Block,
        batched: bool,
    ) -> Result<(Vec<Receipt>, AccountUndo), String> {
        // Stateless prevalidation: batch-verify every witness up front so the
        // serial execution loop below never touches a signature.
        let prevalidated = match (self.verify_signatures, &self.pipeline) {
            (true, Some(pipeline)) => {
                prevalidate_witnesses(block, pipeline)?;
                true
            }
            _ => false,
        };
        let snapshot = self.db.snapshot();
        if batched {
            // Execution stages writes in an overlay and one
            // `MerkleMap::write_batch` pass merges them at commit, so each
            // touched trie branch rehashes once per block instead of once
            // per write.
            self.db.begin_batch();
        }
        let ctx = BlockCtx {
            proposer: block.header.proposer,
            timestamp_us: block.header.timestamp_us,
            height: block.header.height,
        };
        let ids = block.tx_ids();
        let mut receipts = Vec::with_capacity(block.txs.len());
        for (tx, id) in block.txs.iter().zip(ids) {
            match tx {
                Transaction::Coinbase { to, value, .. } => {
                    self.db.credit(to, *value);
                    receipts.push(Receipt::success(*id));
                }
                Transaction::Account(acct) => {
                    if self.verify_signatures && !prevalidated {
                        if let Err(e) = verify_witness(tx) {
                            self.db.rollback(snapshot);
                            self.db.abort_batch();
                            return Err(e);
                        }
                    }
                    receipts.push(execute_tx(&mut self.db, acct, *id, &ctx, &self.schedule));
                }
                Transaction::Utxo(_) => {
                    self.db.rollback(snapshot);
                    self.db.abort_batch();
                    return Err("UTXO transaction in an account-model ledger".into());
                }
            }
        }
        self.db.commit_batch();
        Ok((receipts, self.db.take_undo(snapshot)))
    }
}

impl StateMachine for AccountMachine {
    type Undo = AccountUndo;

    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, AccountUndo), String> {
        self.apply(block, true)
    }

    fn revert_block(&mut self, undo: AccountUndo) {
        self.db.apply_undo(undo);
    }

    fn state_root(&self) -> Hash256 {
        self.db.root()
    }
}

/// The UTXO-model state machine (generation 1.0).
#[derive(Debug, Default)]
pub struct UtxoMachine {
    /// The unspent-output set.
    pub set: UtxoSet,
}

impl UtxoMachine {
    /// An empty machine (witness verification off; see
    /// [`UtxoSet::with_witness_verification`] for the checked variant).
    pub fn new() -> Self {
        UtxoMachine::default()
    }
}

impl StateMachine for UtxoMachine {
    type Undo = Vec<UtxoUndo>;

    /// Applies the block one transaction at a time; the first failure
    /// reverts the ones before it, so a rejected block leaves no residue.
    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, Vec<UtxoUndo>), String> {
        let mut undos = Vec::with_capacity(block.txs.len());
        let mut receipts = Vec::with_capacity(block.txs.len());
        for (tx, id) in block.txs.iter().zip(block.tx_ids()) {
            let applied = match tx {
                Transaction::Account(_) => Err("account transaction in a UTXO ledger".to_string()),
                _ => self.set.apply(tx).map_err(|e| e.to_string()),
            };
            match applied {
                Ok((fee, undo)) => {
                    undos.push(undo);
                    let mut r = Receipt::success(*id);
                    r.fee_paid = fee;
                    receipts.push(r);
                }
                Err(e) => {
                    self.revert_block(undos);
                    return Err(e);
                }
            }
        }
        Ok((receipts, undos))
    }

    fn revert_block(&mut self, undos: Vec<UtxoUndo>) {
        for undo in undos.into_iter().rev() {
            self.set.revert(undo);
        }
    }

    fn state_root(&self) -> Hash256 {
        self.set.commitment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_primitives::{AccountTx, BlockHeader, ChainConfig, Seal, TxIn, TxOut, UtxoTx};

    fn block_with(parent: Hash256, height: u64, txs: Vec<Transaction>) -> Block {
        Block::new(
            BlockHeader::new(parent, height, height, Address::from_index(99), Seal::None),
            txs,
        )
    }

    #[test]
    fn account_machine_applies_and_reverts_exactly() {
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let mut m = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        let root0 = m.state_root();

        let txs = vec![
            Transaction::Coinbase {
                to: Address::from_index(99),
                value: 50,
                height: 1,
            },
            Transaction::Account(AccountTx::transfer(alice, bob, 500, 0)),
        ];
        let block = block_with(Hash256::ZERO, 1, txs);
        let (receipts, undo) = m.apply_block(&block).unwrap();
        assert_eq!(receipts.len(), 2);
        assert!(receipts.iter().all(|r| r.status.is_success()));
        assert_eq!(m.db.balance(&bob), 500);
        let root1 = m.state_root();
        assert_ne!(root0, root1);

        m.revert_block(undo);
        assert_eq!(m.state_root(), root0);
        assert_eq!(m.db.balance(&bob), 0);
        assert_eq!(m.db.nonce(&alice), 0);
    }

    #[test]
    fn account_machine_rejects_utxo_tx() {
        let mut m = AccountMachine::new();
        let block = block_with(
            Hash256::ZERO,
            1,
            vec![Transaction::Utxo(UtxoTx {
                inputs: vec![],
                outputs: vec![],
            })],
        );
        let root = m.state_root();
        assert!(m.apply_block(&block).is_err());
        assert_eq!(m.state_root(), root, "failed apply leaves no residue");
    }

    #[test]
    fn account_machine_enforces_witnesses_when_asked() {
        let alice = Address::from_index(1);
        let mut m = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        m.verify_signatures = true;
        let block = block_with(
            Hash256::ZERO,
            1,
            vec![Transaction::Account(AccountTx::transfer(
                alice,
                Address::from_index(2),
                1,
                0,
            ))],
        );
        let err = m.apply_block(&block).unwrap_err();
        assert!(err.contains("witness"), "{err}");
    }

    #[test]
    fn failed_tx_gets_failed_receipt_but_block_applies() {
        let alice = Address::from_index(1);
        let mut m = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        let txs = vec![
            // Wrong nonce: soft failure.
            Transaction::Account(AccountTx::transfer(alice, Address::from_index(2), 1, 7)),
            // Correct one succeeds.
            Transaction::Account(AccountTx::transfer(alice, Address::from_index(2), 1, 0)),
        ];
        let block = block_with(Hash256::ZERO, 1, txs);
        let (receipts, _) = m.apply_block(&block).unwrap();
        assert!(!receipts[0].status.is_success());
        assert!(receipts[1].status.is_success());
    }

    #[test]
    fn utxo_machine_round_trip() {
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let mut m = UtxoMachine::new();
        let op = m.set.mint(alice, 100);
        let root0 = m.state_root();

        let spend = Transaction::Utxo(UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 90,
                recipient: bob,
            }],
        });
        let block = block_with(Hash256::ZERO, 1, vec![spend]);
        let (receipts, undo) = m.apply_block(&block).unwrap();
        assert_eq!(receipts[0].fee_paid, 10);
        assert_eq!(m.set.balance_of(&bob), 90);

        m.revert_block(undo);
        assert_eq!(m.state_root(), root0);
        assert_eq!(m.set.balance_of(&alice), 100);
    }

    #[test]
    fn utxo_machine_atomic_on_midblock_failure() {
        let alice = Address::from_index(1);
        let mut m = UtxoMachine::new();
        let op = m.set.mint(alice, 100);
        let root0 = m.state_root();
        let good = Transaction::Utxo(UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: alice,
            }],
        });
        // Double spend of the same outpoint: invalid.
        let bad = Transaction::Utxo(UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: alice,
            }],
        });
        let block = block_with(Hash256::ZERO, 1, vec![good, bad]);
        assert!(m.apply_block(&block).is_err());
        assert_eq!(m.state_root(), root0, "partial application rolled back");
    }

    #[test]
    fn pipelined_account_machine_matches_serial() {
        use dcs_primitives::TxAuth;
        let mut kp = dcs_crypto::KeyPair::generate([13u8; 32], 2);
        let alice = kp.address();
        let bob = Address::from_index(2);

        let sign = |mut acct: AccountTx, kp: &mut dcs_crypto::KeyPair| {
            let signing = Transaction::Account(acct.clone()).signing_hash();
            let sig = kp.sign(&signing).unwrap();
            acct.auth = Some(TxAuth {
                pubkey: kp.public_key(),
                signature: sig,
            });
            Transaction::Account(acct)
        };
        let tx0 = sign(AccountTx::transfer(alice, bob, 500, 0), &mut kp);
        let tx1 = sign(AccountTx::transfer(alice, bob, 300, 1), &mut kp);
        let block = block_with(Hash256::ZERO, 1, vec![tx0, tx1]);

        let mut serial = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        serial.verify_signatures = true;
        let pipeline = Arc::new(VerifyPipeline::new(4, 1024));
        let mut piped =
            AccountMachine::with_alloc(&[(alice, 1_000_000)]).with_pipeline(Arc::clone(&pipeline));
        piped.verify_signatures = true;

        serial.apply_block(&block).unwrap();
        piped.apply_block(&block).unwrap();
        assert_eq!(serial.state_root(), piped.state_root());
        assert_eq!(piped.db.balance(&bob), 800);
        assert_eq!(pipeline.stats().cache.unwrap().misses, 2);

        // An unsigned tx still invalidates the block through the pipeline.
        let unsigned = block_with(
            Hash256::ZERO,
            2,
            vec![Transaction::Account(AccountTx::transfer(alice, bob, 1, 2))],
        );
        let err = piped.apply_block(&unsigned).unwrap_err();
        assert!(err.contains("witness"), "{err}");
    }

    #[test]
    fn chain_integration_reorg_preserves_account_state() {
        // Full integration: Chain<AccountMachine> survives a reorg with
        // exact state restoration.
        use dcs_chain::Chain;
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let carol = Address::from_index(3);
        let cfg = ChainConfig::hyperledger_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let machine = AccountMachine::with_alloc(&[(alice, 1_000_000)]);
        let mut chain = Chain::new(genesis.clone(), cfg, machine);

        // Branch A: pay bob.
        let a1 = block_with(
            genesis.hash(),
            1,
            vec![Transaction::Account(AccountTx::transfer(
                alice, bob, 100, 0,
            ))],
        );
        chain.import(a1).unwrap();
        assert_eq!(chain.machine().db.balance(&bob), 100);

        // Branch B (longer): pay carol instead.
        let b1 = block_with(
            genesis.hash(),
            1,
            vec![Transaction::Account(AccountTx::transfer(
                alice, carol, 200, 0,
            ))],
        );
        let b2 = block_with(b1.hash(), 2, vec![]);
        chain.import(b1).unwrap();
        chain.import(b2).unwrap();

        // After the reorg, bob's payment is gone, carol's applied.
        assert_eq!(chain.machine().db.balance(&bob), 0);
        assert_eq!(chain.machine().db.balance(&carol), 200);
        assert_eq!(chain.stats().reorgs, 1);
    }

    #[test]
    fn chain_integration_reorg_preserves_utxo_state() {
        // Chain<UtxoMachine> through a reorg: branch A spends the genesis
        // output to bob, the longer branch B spends the same output to
        // carol, and the set ends exactly where B alone leaves it.
        use dcs_chain::Chain;
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let carol = Address::from_index(3);
        let funded = || {
            let mut m = UtxoMachine::new();
            let op = m.set.mint(alice, 100);
            (m, op)
        };
        let spend_to = |op: dcs_state::OutPoint, to: Address| {
            Transaction::Utxo(UtxoTx {
                inputs: vec![TxIn {
                    prev_tx: op.tx,
                    index: op.index,
                    auth: None,
                }],
                outputs: vec![TxOut {
                    value: 100,
                    recipient: to,
                }],
            })
        };
        let cfg = ChainConfig::bitcoin_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let (machine, op) = funded();
        let mut chain = Chain::new(genesis.clone(), cfg, machine);

        let a1 = block_with(genesis.hash(), 1, vec![spend_to(op, bob)]);
        let a_out = dcs_state::OutPoint {
            tx: a1.txs[0].id(),
            index: 0,
        };
        chain.import(a1).unwrap();
        assert_eq!(chain.machine().set.balance_of(&bob), 100);

        let b1 = block_with(genesis.hash(), 1, vec![spend_to(op, carol)]);
        let b2 = block_with(b1.hash(), 2, vec![]);
        let (mut only_b, _) = funded();
        only_b.apply_block(&b1).unwrap();
        only_b.apply_block(&b2).unwrap();
        chain.import(b1).unwrap();
        chain.import(b2).unwrap();

        assert_eq!(chain.stats().reorgs, 1);
        let set = &chain.machine().set;
        assert_eq!(set.commitment(), only_b.set.commitment());
        assert!(set.get(&a_out).is_none(), "branch A's output is gone");
        assert_eq!(set.balance_of(&bob), 0);
        assert_eq!(set.balance_of(&carol), 100);
    }
}
