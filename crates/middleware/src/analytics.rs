//! Chain analytics (§5.2 lists "analytics" among the middleware services):
//! extract activity, utilization, and fee statistics from a chain replica —
//! the read side of the data layer. Two modes: a one-shot full scan
//! ([`analyze`]) and an incremental tracker ([`LiveAnalytics`]) fed by
//! chain events, which maintains the identical report in O(delta) per
//! block instead of O(chain) per query.

use dcs_chain::{Chain, ChainEvent, StateMachine};
use dcs_crypto::{Address, Hash256};
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
        self.refresh_utilization();
    }

    /// Removes a reverted block's contribution — the exact inverse of
    /// [`ChainReport::absorb_block`]. Zeroed map entries are dropped so a
    /// shed-then-absorbed report compares equal to a fresh scan.
    pub fn shed_block(&mut self, block: &Block) {
        self.blocks -= 1;
        if let Some(n) = self.blocks_by_proposer.get_mut(&block.header.proposer) {
            *n -= 1;
            if *n == 0 {
                self.blocks_by_proposer.remove(&block.header.proposer);
            }
        }
        for tx in &block.txs {
            match tx {
                Transaction::Coinbase { .. } => {}
                Transaction::Account(a) => {
                    self.transactions -= 1;
                    self.value_transferred -= u128::from(a.value);
                    self.fees_offered -= u128::from(a.gas_limit) * u128::from(a.gas_price);
                    if let Some(n) = self.activity_by_sender.get_mut(&a.from) {
                        *n -= 1;
                        if *n == 0 {
                            self.activity_by_sender.remove(&a.from);
                        }
                    }
                }
                Transaction::Utxo(u) => {
                    self.transactions -= 1;
                    self.value_transferred -= u128::from(u.output_value());
                }
            }
        }
        self.refresh_utilization();
    }

    fn refresh_utilization(&mut self) {
        self.mean_block_utilization = if self.blocks > 0 {
            self.transactions as f64 / self.blocks as f64
        } else {
            0.0
        };
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

/// Scans the canonical chain and produces a [`ChainReport`]. O(chain);
/// for continuous monitoring feed a [`LiveAnalytics`] instead.
pub fn analyze<M: StateMachine>(chain: &Chain<M>) -> ChainReport {
    let mut report = ChainReport::default();
    for hash in chain.canonical().iter().skip(1) {
        report.absorb_block(chain.tree().get(hash).expect("canonical stored").block());
    }
    report
}

/// Event-driven analytics: maintains a [`ChainReport`] that always equals
/// what [`analyze`] would recompute, by absorbing extended blocks and
/// shedding/absorbing the two branches of each reorg. Feed it every event
/// the chain emits, along with the pre-import tip.
#[derive(Debug, Clone, Default)]
pub struct LiveAnalytics {
    report: ChainReport,
}

impl LiveAnalytics {
    /// An empty tracker for a chain at genesis.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current report — O(1), no chain walk.
    pub fn report(&self) -> &ChainReport {
        &self.report
    }

    /// Folds one chain event into the report. `old_tip` is the canonical
    /// tip hash from *before* the import that produced `event` (the same
    /// value consensus nodes thread to their own reorg handling).
    pub fn on_event<M: StateMachine>(
        &mut self,
        chain: &Chain<M>,
        event: &ChainEvent,
        old_tip: Hash256,
    ) {
        match event {
            ChainEvent::Extended { block } => {
                self.report
                    .absorb_block(chain.tree().get(block).expect("tip stored").block());
            }
            ChainEvent::Reorg {
                reverted,
                applied,
                new_tip,
            } => {
                let mut cur = old_tip;
                for _ in 0..*reverted {
                    let sb = chain.tree().get(&cur).expect("old branch stored");
                    self.report.shed_block(sb.block());
                    cur = sb.header().parent;
                }
                let mut cur = *new_tip;
                for _ in 0..*applied {
                    let sb = chain.tree().get(&cur).expect("new branch stored");
                    self.report.absorb_block(sb.block());
                    cur = sb.header().parent;
                }
            }
            ChainEvent::SideChain { .. } | ChainEvent::Orphaned => {}
        }
    }
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
    fn live_analytics_tracks_full_scan_through_forks_and_reorgs() {
        let cfg = ChainConfig::bitcoin_like();
        let genesis = dcs_chain::genesis_block(&cfg);
        let mut chain = Chain::new(genesis.clone(), cfg, NullMachine);
        let mut live = LiveAnalytics::new();

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
        for b in [&a1, &a2, &b1, &b2, &b3] {
            let old_tip = chain.tip_hash();
            let ev = chain.import(b.clone()).unwrap();
            live.on_event(&chain, &ev, old_tip);
            assert_eq!(live.report(), &analyze(&chain), "live ≡ scan at every step");
        }
        // The a-branch was fully shed: its exclusive senders are gone.
        assert_eq!(live.report().blocks, 3);
        assert!(!live
            .report()
            .activity_by_sender
            .contains_key(&Address::from_index(2)));
    }
}
