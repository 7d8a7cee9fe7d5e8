//! Chain analytics (§5.2 lists "analytics" among the middleware services):
//! extract activity, utilization, and fee statistics from a chain replica —
//! the read side of the data layer. [`analyze`] scans the canonical chain
//! once; `serve`'s `/analytics` endpoint calls it per snapshot.

use dcs_chain::{Chain, StateMachine};
use dcs_crypto::Address;
use dcs_primitives::{Block, Transaction};
use std::collections::HashMap;

/// Aggregate statistics over the canonical chain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChainReport {
    /// Canonical blocks (excluding genesis).
    pub blocks: u64,
    /// Committed non-coinbase transactions.
    pub transactions: u64,
    /// Total value moved by plain transfers.
    pub value_transferred: u128,
    /// Total fees offered (gas limit × price over account txs).
    pub fees_offered: u128,
    /// Mean transactions per block.
    pub mean_block_utilization: f64,
    /// Transactions sent per address.
    pub activity_by_sender: HashMap<Address, u64>,
    /// Blocks proposed per address.
    pub blocks_by_proposer: HashMap<Address, u64>,
}

impl ChainReport {
    /// Folds one canonical block into the report.
    pub fn absorb_block(&mut self, block: &Block) {
        self.blocks += 1;
        *self
            .blocks_by_proposer
            .entry(block.header.proposer)
            .or_insert(0) += 1;
        for tx in &block.txs {
            match tx {
                Transaction::Coinbase { .. } => {}
                Transaction::Account(a) => {
                    self.transactions += 1;
                    self.value_transferred += u128::from(a.value);
                    self.fees_offered += u128::from(a.gas_limit) * u128::from(a.gas_price);
                    *self.activity_by_sender.entry(a.from).or_insert(0) += 1;
                }
                Transaction::Utxo(u) => {
                    self.transactions += 1;
                    self.value_transferred += u128::from(u.output_value());
                }
            }
        }
        self.mean_block_utilization = self.transactions as f64 / self.blocks as f64;
    }

    /// Renders the report as a self-contained JSON object. Map entries are
    /// emitted in address order so two equal reports serialize to the same
    /// bytes; addresses are lowercase hex strings and the top senders and
    /// proposers are capped at the 16 busiest of each.
    pub fn to_json(&self) -> String {
        fn top16(map: &HashMap<Address, u64>) -> String {
            let mut entries: Vec<(&Address, &u64)> = map.iter().collect();
            // Busiest first; ties broken by address so output is stable.
            entries.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
            let fields: Vec<String> = entries
                .iter()
                .take(16)
                .map(|(addr, n)| format!("\"{addr}\":{n}"))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        format!(
            concat!(
                "{{\"blocks\":{},\"transactions\":{},\"value_transferred\":{},",
                "\"fees_offered\":{},\"mean_block_utilization\":{:.6},",
                "\"senders\":{},\"top_senders\":{},",
                "\"proposers\":{},\"top_proposers\":{}}}"
            ),
            self.blocks,
            self.transactions,
            self.value_transferred,
            self.fees_offered,
            self.mean_block_utilization,
            self.activity_by_sender.len(),
            top16(&self.activity_by_sender),
            self.blocks_by_proposer.len(),
            top16(&self.blocks_by_proposer),
        )
    }
}

/// Scans the canonical chain and produces a [`ChainReport`]. O(chain).
pub fn analyze<M: StateMachine>(chain: &Chain<M>) -> ChainReport {
    let mut report = ChainReport::default();
    for hash in chain.canonical().iter().skip(1) {
        report.absorb_block(chain.tree().get(hash).expect("canonical stored").block());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_chain::NullMachine;
    use dcs_primitives::{AccountTx, Block, BlockHeader, ChainConfig, Seal};

    #[test]
    fn report_counts_all_dimensions() {
        let cfg = ChainConfig::hyperledger_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let mut chain = Chain::new(genesis.clone(), cfg, NullMachine);
        let alice = Address::from_index(1);
        let bob = Address::from_index(2);
        let proposer = Address::from_index(9);

        let mut parent = genesis.hash();
        for h in 1..=3u64 {
            let txs = vec![
                Transaction::Coinbase {
                    to: proposer,
                    value: 10,
                    height: h,
                },
                Transaction::Account(AccountTx::transfer(alice, bob, 100, h)),
                Transaction::Account(AccountTx::transfer(bob, alice, 50, h)),
            ];
            let block = Block::new(BlockHeader::new(parent, h, h, proposer, Seal::None), txs);
            parent = block.hash();
            chain.import(block).unwrap();
        }

        let report = analyze(&chain);
        assert_eq!(report.blocks, 3);
        assert_eq!(report.transactions, 6);
        assert_eq!(report.value_transferred, 3 * 150);
        assert_eq!(report.activity_by_sender[&alice], 3);
        assert_eq!(report.activity_by_sender[&bob], 3);
        assert_eq!(report.blocks_by_proposer[&proposer], 3);
        assert_eq!(report.mean_block_utilization, 2.0);
        assert!(report.fees_offered > 0);
    }

    #[test]
    fn empty_chain_reports_zeroes() {
        let cfg = ChainConfig::hyperledger_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let chain = Chain::new(genesis, cfg, NullMachine);
        let report = analyze(&chain);
        assert_eq!(report, ChainReport::default());
    }

    #[test]
    fn analyze_follows_the_canonical_branch_through_a_reorg() {
        let cfg = ChainConfig::bitcoin_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let mut chain = Chain::new(genesis.clone(), cfg, NullMachine);

        let tx = |from: u64, v: u64, nonce: u64| {
            Transaction::Account(AccountTx::transfer(
                Address::from_index(from),
                Address::from_index(from + 1),
                v,
                nonce,
            ))
        };
        let block = |parent: &Block, salt: u64, txs: Vec<Transaction>| {
            Block::new(
                BlockHeader::new(
                    parent.hash(),
                    parent.header.height + 1,
                    salt,
                    Address::from_index(salt % 4),
                    Seal::None,
                ),
                txs,
            )
        };

        // A fork: a-branch of 2 blocks, then a b-branch of 3 that wins.
        let a1 = block(&genesis, 1, vec![tx(1, 100, 0), tx(2, 30, 0)]);
        let a2 = block(&a1, 2, vec![tx(1, 7, 1)]);
        let b1 = block(&genesis, 10, vec![tx(3, 500, 0)]);
        let b2 = block(&b1, 11, vec![]);
        let b3 = block(&b2, 12, vec![tx(1, 100, 0)]);
        let only_a = Address::from_index(2);
        for b in [&a1, &a2] {
            chain.import(b.clone()).unwrap();
        }
        let before = analyze(&chain);
        assert_eq!(before.blocks, 2);
        assert_eq!(before.activity_by_sender[&only_a], 1);
        for b in [&b1, &b2, &b3] {
            chain.import(b.clone()).unwrap();
        }
        // The report reads the winning branch only: the abandoned branch's
        // exclusive sender is gone.
        let after = analyze(&chain);
        assert_eq!(after.blocks, 3);
        assert_eq!(after.transactions, 2);
        assert!(!after.activity_by_sender.contains_key(&only_a));
    }
}
