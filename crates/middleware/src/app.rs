//! The ABCI-style application interface (paper §5.2, citing Tendermint's
//! ABCI \[29\]): applications "use the underlying blockchain system to
//! tolerate failures by replicating the state across multiple machines"
//! without implementing any blockchain machinery themselves.
//!
//! Implement [`Application`]; wrap it in [`AppAdapter`] and hand it to
//! `dcs_chain::Chain` as its `StateMachine`. The adapter deals with blocks,
//! receipts, and reorg rollback (by replay from genesis state — simple and
//! always correct for deterministic applications).

use dcs_chain::StateMachine;
use dcs_crypto::Hash256;
use dcs_primitives::{Block, Receipt, Transaction};

/// A replicated application, oblivious to blockchain mechanics.
pub trait Application: core::fmt::Debug {
    /// Applies one transaction. Returning `Err` marks the transaction
    /// failed (it still consumes its slot in the block).
    ///
    /// # Errors
    ///
    /// A human-readable rejection reason.
    fn deliver_tx(&mut self, tx: &Transaction) -> Result<(), String>;

    /// A deterministic commitment to the current application state.
    fn state_hash(&self) -> Hash256;

    /// Resets to the genesis state (used for reorg replay).
    fn reset(&mut self);
}

/// Adapts an [`Application`] into a chain [`StateMachine`].
///
/// Reorg strategy: the adapter records every applied block; reverting
/// replays the application from genesis over the remaining prefix. This
/// trades CPU on (rare) reorgs for zero per-application undo machinery —
/// the right default for the small consortium ledgers this interface
/// targets.
#[derive(Debug)]
pub struct AppAdapter<A: Application> {
    app: A,
    applied: Vec<Block>,
}

impl<A: Application> AppAdapter<A> {
    /// Wraps an application positioned at its genesis state.
    pub fn new(app: A) -> Self {
        AppAdapter {
            app,
            applied: Vec::new(),
        }
    }

    /// The wrapped application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Blocks applied since genesis.
    pub fn height(&self) -> usize {
        self.applied.len()
    }
}

impl<A: Application> StateMachine for AppAdapter<A> {
    type Undo = ();

    fn apply_block(&mut self, block: &Block) -> Result<(Vec<Receipt>, ()), String> {
        let mut receipts = Vec::with_capacity(block.txs.len());
        for tx in &block.txs {
            let id = tx.id();
            match self.app.deliver_tx(tx) {
                Ok(()) => receipts.push(Receipt::success(id)),
                Err(reason) => receipts.push(Receipt::failed(id, reason)),
            }
        }
        self.applied.push(block.clone());
        Ok((receipts, ()))
    }

    fn revert_block(&mut self, _undo: ()) {
        // Replay-from-genesis rollback.
        self.applied.pop();
        self.app.reset();
        let blocks = std::mem::take(&mut self.applied);
        for block in &blocks {
            for tx in &block.txs {
                let _ = self.app.deliver_tx(tx);
            }
        }
        self.applied = blocks;
    }

    fn state_root(&self) -> Hash256 {
        self.app.state_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_chain::Chain;
    use dcs_crypto::{sha256, Address};
    use dcs_primitives::{AccountTx, BlockHeader, ChainConfig, Seal, TxPayload};

    /// A replicated append-only register of data payloads.
    #[derive(Debug, Default, Clone)]
    struct KvRegister {
        entries: Vec<Vec<u8>>,
    }

    impl Application for KvRegister {
        fn deliver_tx(&mut self, tx: &Transaction) -> Result<(), String> {
            match tx {
                Transaction::Account(a) => match &a.payload {
                    TxPayload::Data(d) => {
                        self.entries.push(d.clone());
                        Ok(())
                    }
                    _ => Err("register accepts only data payloads".into()),
                },
                Transaction::Coinbase { .. } => Ok(()),
                Transaction::Utxo(_) => Err("no UTXO support".into()),
            }
        }

        fn state_hash(&self) -> Hash256 {
            let mut bytes = Vec::new();
            for e in &self.entries {
                bytes.extend_from_slice(sha256(e).as_ref());
            }
            sha256(&bytes)
        }

        fn reset(&mut self) {
            self.entries.clear();
        }
    }

    fn data_tx(bytes: &[u8], nonce: u64) -> Transaction {
        let mut tx = AccountTx::transfer(Address::from_index(1), Address::ZERO, 0, nonce);
        tx.payload = TxPayload::Data(bytes.to_vec());
        Transaction::Account(tx)
    }

    fn block(parent: Hash256, height: u64, txs: Vec<Transaction>) -> Block {
        Block::new(
            BlockHeader::new(parent, height, height, Address::ZERO, Seal::None),
            txs,
        )
    }

    #[test]
    fn application_sees_committed_transactions() {
        let cfg = ChainConfig::hyperledger_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let mut chain = Chain::new(genesis.clone(), cfg, AppAdapter::new(KvRegister::default()));
        let b1 = block(genesis.hash(), 1, vec![data_tx(b"hello", 0)]);
        chain.import(b1).unwrap();
        assert_eq!(chain.machine().app().entries, &[b"hello".to_vec()]);
    }

    #[test]
    fn reorg_replays_application_state() {
        let cfg = ChainConfig::hyperledger_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let mut chain = Chain::new(genesis.clone(), cfg, AppAdapter::new(KvRegister::default()));

        let a1 = block(genesis.hash(), 1, vec![data_tx(b"branch-a", 0)]);
        chain.import(a1).unwrap();
        assert_eq!(chain.machine().app().entries, &[b"branch-a".to_vec()]);

        let b1 = block(genesis.hash(), 1, vec![data_tx(b"branch-b", 1)]);
        let b2 = block(b1.hash(), 2, vec![data_tx(b"more-b", 2)]);
        chain.import(b1).unwrap();
        chain.import(b2).unwrap();

        // After the reorg the application state reflects only branch B.
        assert_eq!(
            chain.machine().app().entries,
            &[b"branch-b".to_vec(), b"more-b".to_vec()]
        );
    }

    #[test]
    fn failed_txs_get_failed_receipts_without_stopping_the_block() {
        let mut adapter = AppAdapter::new(KvRegister::default());
        let b = block(
            Hash256::ZERO,
            1,
            vec![
                data_tx(b"ok", 0),
                Transaction::Account(AccountTx::transfer(
                    Address::from_index(1),
                    Address::from_index(2),
                    5,
                    1,
                )),
            ],
        );
        let (receipts, ()) = adapter.apply_block(&b).unwrap();
        assert!(receipts[0].status.is_success());
        assert!(!receipts[1].status.is_success());
        assert_eq!(adapter.app().entries.len(), 1);
    }

    #[test]
    fn state_hash_tracks_content() {
        let mut a = KvRegister::default();
        let h0 = a.state_hash();
        a.deliver_tx(&data_tx(b"x", 0)).unwrap();
        assert_ne!(a.state_hash(), h0);
        a.reset();
        assert_eq!(a.state_hash(), h0);
    }
}
