//! The hard-fork scenario of §3.1: "one important challenge is the presence
//! of hard forks when new versions of blockchain code are incompatible with
//! previous ones. When a hard fork occurs, the userbase is divided when
//! there is resistance to update the code."
//!
//! Half the validators run a new rule set (big blocks, cf. Segwit2x [42]);
//! half refuse to upgrade. The moment a big block lands on the majority
//! chain, old-rule nodes reject it and the network splits into two
//! persistent currencies.

use dcs_chain::ChainError;
use dcs_chain::NullMachine;
use dcs_consensus::pos::{PosNode, StakeTable};
use dcs_consensus::WireMsg;
use dcs_crypto::Address;
use dcs_ledger::workload::Workload;
use dcs_ledger::LedgerNode;
use dcs_net::{LatencyModel, NetConfig, NodeId, Runner, Topology};
use dcs_primitives::{
    AccountTx, Block, BlockHeader, ChainConfig, ConsensusKind, Seal, Transaction,
};
use dcs_sim::{SimDuration, SimTime};

const OLD_LIMIT: usize = 5; // legacy rule: tiny blocks
const NEW_LIMIT: usize = 500; // upgraded rule: big blocks

fn config_with_limit(limit: usize) -> ChainConfig {
    ChainConfig {
        consensus: ConsensusKind::ProofOfStake { slot_us: 2_000_000 },
        block_tx_limit: limit,
        ..ChainConfig::ethereum_like()
    }
}

#[test]
fn mixed_version_network_splits_on_big_blocks() {
    let n = 8;
    // Both versions share genesis (the chain id / history is common).
    let genesis = dcs_chain::genesis_block(&config_with_limit(OLD_LIMIT));
    let stake_table = StakeTable::new(
        (0..n).map(|i| Address::from_index(i as u64)).collect(),
        vec![100; n],
        config_with_limit(OLD_LIMIT).chain_id,
    );
    let net = NetConfig {
        nodes: n,
        topology: Topology::Complete,
        latency: LatencyModel::lan(),
        drop_probability: 0.0,
        bandwidth_bytes_per_sec: None,
    };
    let mut runner = Runner::new(net, 2016, |id: NodeId| {
        // Nodes 0..4 refuse to upgrade; 4..8 run the big-block rules.
        let limit = if id.0 < 4 { OLD_LIMIT } else { NEW_LIMIT };
        let mut node = PosNode::new(
            id,
            genesis.clone(),
            config_with_limit(limit),
            NullMachine,
            stake_table.clone(),
            id.0,
        );
        node.core.chain.enforce_block_limit = true;
        node
    });

    // Light load first: everyone agrees while blocks stay small.
    let quiet = Workload::transfers(1.0, SimDuration::from_secs(60), 20);
    quiet.inject(runner.net_mut(), 1);
    runner.run_until(SimTime::ZERO + SimDuration::from_secs(61));
    let tip_old = runner.node(NodeId(0)).core().chain.tip_hash();
    let tip_new = runner.node(NodeId(7)).core().chain.tip_hash();
    assert_eq!(tip_old, tip_new, "small blocks satisfy both rule sets");
    let common_height = runner.node(NodeId(0)).core().chain.height();

    // Burst load: the next big-block leader fills a block beyond OLD_LIMIT.
    let burst = Workload {
        duration: SimDuration::from_secs(240),
        ..Workload::transfers(30.0, SimDuration::from_secs(240), 50)
    };
    let mut net_burst = burst;
    net_burst.tps = 30.0;
    net_burst.inject(runner.net_mut(), 2);
    runner.run_until(SimTime::ZERO + SimDuration::from_secs(301));

    let old_node = runner.node(NodeId(0)).core();
    let new_node = runner.node(NodeId(7)).core();
    // The user base divided: the two rule sets follow different chains.
    assert_ne!(
        old_node.chain.tip_hash(),
        new_node.chain.tip_hash(),
        "a big block must have split the network"
    );
    // Both sides kept making progress past the fork point — two currencies.
    assert!(
        old_node.chain.height() > common_height,
        "legacy side stalled"
    );
    assert!(
        new_node.chain.height() > common_height,
        "upgraded side stalled"
    );
    // The new side accepted at least one block the old side's rules forbid.
    let oversized = new_node
        .chain
        .canonical()
        .iter()
        .any(|h| new_node.chain.tree().get(h).unwrap().block().txs.len() > OLD_LIMIT + 1);
    assert!(oversized, "the split was caused by an oversized block");
    // An old-rule node refuses the upgraded branch it pages in: each such
    // page is a failed attempt that moves on to another neighbor, not a
    // loop on the same responder's same page. Measured: 135 page requests
    // and retries (a page that re-asked its responder looped past 100 000).
    let asks: u64 = runner
        .nodes()
        .iter()
        .map(|p| p.core.catchup_rounds + p.core.sync_retries)
        .sum();
    assert!(asks <= 200, "{asks} page requests and retries");
}

#[test]
fn import_rejects_oversized_block_directly() {
    let cfg = config_with_limit(3);
    let genesis = dcs_chain::genesis_block(&cfg);
    let mut chain = dcs_chain::Chain::new(genesis.clone(), cfg, NullMachine);
    chain.enforce_block_limit = true;
    let txs: Vec<Transaction> = (0..10)
        .map(|i| {
            Transaction::Account(AccountTx::transfer(
                Address::from_index(i),
                Address::from_index(i + 1),
                1,
                0,
            ))
        })
        .collect();
    let big = Block::new(
        BlockHeader::new(genesis.hash(), 1, 1, Address::ZERO, Seal::None),
        txs,
    );
    assert!(matches!(
        chain.import(big),
        Err(ChainError::BadTransaction(_))
    ));
    // Within-limit blocks still import (3 txs + coinbase allowance).
    let ok = Block::new(
        BlockHeader::new(genesis.hash(), 1, 1, Address::ZERO, Seal::None),
        vec![Transaction::Coinbase {
            to: Address::ZERO,
            value: 1,
            height: 1,
        }],
    );
    chain.import(ok).unwrap();
    let _ = WireMsg::SyncRequest { locator: vec![] }; // crate linkage
}
