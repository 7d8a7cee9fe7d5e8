//! End-to-end integration tests: whole simulated networks for every
//! consensus family the paper surveys (§2.4), validating the properties the
//! paper attributes to each — these are the miniature versions of
//! experiments E1–E5.

use dcs_chain::NullMachine;
use dcs_ledger::builders::{Ng, Ordering, Pbft, Poet, Pos, Pow};
use dcs_ledger::{build, collect, workload::Workload, LedgerNode, NetworkParams};
use dcs_net::{NodeId, Topology};
use dcs_primitives::{ChainConfig, ConsensusKind, ForkChoice};
use dcs_sim::{SimDuration, SimTime};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

#[test]
fn pow_network_reaches_consensus_and_commits_transactions() {
    let mut params = NetworkParams::<Pow> {
        nodes: 8,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 8 * 1_000 * 10, // 8 kH/s → ~10 s blocks
        retarget_window: 0,
        target_interval_us: 10_000_000,
    };
    let mut runner = build(&params, 1, |_| NullMachine);
    let submitted =
        Workload::transfers(2.0, SimDuration::from_secs(500), 50).inject(runner.net_mut(), 99);
    runner.run_until(at(600));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(600));

    assert!(
        result.canonical_blocks > 20,
        "blocks: {}",
        result.canonical_blocks
    );
    assert!(
        result.committed_txs > 500,
        "committed: {}",
        result.committed_txs
    );
    assert!(
        result.replicas_agree,
        "replicas must agree below confirmation depth"
    );
    assert!(
        (result.mean_block_interval - 10.0).abs() < 5.0,
        "interval {:.1}s should be near 10s",
        result.mean_block_interval
    );
    assert!(result.latency.mean() > 0.0);
    assert!(result.work_expended > 0.0, "PoW burns work");
    // Equal hash power → decentralized production.
    assert!(result.nakamoto >= 3, "nakamoto {}", result.nakamoto);
}

#[test]
fn pow_difficulty_retargets_to_hold_interval() {
    // Start with difficulty tuned for ~2.5 s blocks against a 10 s target;
    // retargeting must slow the chain toward 10 s (the E1 mechanism).
    let mut params = NetworkParams::<Pow> {
        nodes: 8,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 8 * 1_000 * 10 / 4,
        retarget_window: 16,
        target_interval_us: 10_000_000,
    };
    let mut runner = build(&params, 3, |_| NullMachine);
    runner.run_until(at(1_200));
    let core = runner.node(NodeId(0)).core();
    let chain = &core.chain;
    assert!(
        chain.height() > 48,
        "need several eras, got {}",
        chain.height()
    );
    // Mean interval over the last two eras ≈ target.
    let h = chain.height();
    let t_end = chain
        .tree()
        .get(&chain.canonical_at(h).unwrap())
        .unwrap()
        .header()
        .timestamp_us;
    let t_start = chain
        .tree()
        .get(&chain.canonical_at(h - 32).unwrap())
        .unwrap()
        .header()
        .timestamp_us;
    let mean = (t_end - t_start) as f64 / 32.0 / 1_000_000.0;
    assert!(
        (mean - 10.0).abs() < 4.0,
        "late-chain interval {mean:.2}s should approach the 10s target"
    );
}

#[test]
fn pos_proposers_follow_stake_and_burn_no_hashes() {
    let mut params = NetworkParams::<Pos> {
        nodes: 10,
        // Node 9 holds half the total stake.
        engine: Pos {
            stakes: vec![10, 10, 10, 10, 10, 10, 10, 10, 10, 90],
        },
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfStake { slot_us: 5_000_000 };
    let mut runner = build(&params, 5, |_| NullMachine);
    let submitted =
        Workload::transfers(5.0, SimDuration::from_secs(500), 50).inject(runner.net_mut(), 7);
    runner.run_until(at(600));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(600));

    assert!(
        result.canonical_blocks > 80,
        "one block per 5s slot, got {}",
        result.canonical_blocks
    );
    assert!(result.replicas_agree);
    assert!(result.committed_txs > 1_000);
    // The whale produced roughly half the blocks.
    let whale = result.proposer_counts[9] as f64 / result.canonical_blocks as f64;
    assert!((whale - 0.5).abs() < 0.15, "whale share {whale:.2}");
    // Work is lottery evaluations (~1 per node per slot), orders of
    // magnitude below any PoW difficulty.
    assert!(
        result.work_expended < 5_000.0,
        "work {}",
        result.work_expended
    );
    // Stake concentration shows up as a low Nakamoto coefficient.
    assert!(result.nakamoto <= 3, "nakamoto {}", result.nakamoto);
}

#[test]
fn poet_behaves_like_pow_without_work() {
    let mut params = NetworkParams::<Poet> {
        nodes: 8,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfElapsedTime {
        mean_wait_us: 8 * 10_000_000, // 8 peers → ~10 s between blocks
    };
    let mut runner = build(&params, 11, |_| NullMachine);
    let submitted =
        Workload::transfers(2.0, SimDuration::from_secs(500), 20).inject(runner.net_mut(), 3);
    runner.run_until(at(600));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(600));

    assert!(
        result.canonical_blocks > 25,
        "blocks {}",
        result.canonical_blocks
    );
    assert!(result.replicas_agree);
    assert!(
        (result.mean_block_interval - 10.0).abs() < 5.0,
        "interval {:.1}",
        result.mean_block_interval
    );
    // "Work" is one wait-draw per proposal opportunity — thousands of times
    // cheaper than hashing.
    assert!(result.work_expended < 10_000.0);
}

#[test]
fn ordering_service_is_fast_and_forkless() {
    let params = NetworkParams::<Ordering> {
        nodes: 8,
        ..Default::default()
    };
    let mut runner = build(&params, 17, |_| NullMachine);
    let submitted =
        Workload::transfers(200.0, SimDuration::from_secs(20), 100).inject(runner.net_mut(), 23);
    runner.run_until(at(40));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(20));

    // Essentially everything submitted commits, quickly.
    assert!(
        result.committed_txs as f64 > 0.95 * submitted.len() as f64,
        "committed {} of {}",
        result.committed_txs,
        submitted.len()
    );
    assert_eq!(result.stale_blocks, 0, "no branching is possible (§2.4)");
    assert_eq!(result.reorgs, 0);
    assert!(result.replicas_agree);
    assert!(
        result.latency.mean() < 2.0,
        "latency {:.2}s",
        result.latency.mean()
    );
    // The price: one orderer produced everything — zero decentralization.
    assert_eq!(result.nakamoto, 1);
    assert!(
        result.proposer_gini > 0.8,
        "gini {:.2}",
        result.proposer_gini
    );
}

#[test]
fn ordering_rotation_spreads_production() {
    let mut params = NetworkParams::<Ordering> {
        nodes: 4,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::Ordering {
        batch_size: 50,
        batch_timeout_us: 200_000,
        rotate_every: 2,
    };
    let mut runner = build(&params, 29, |_| NullMachine);
    let submitted =
        Workload::transfers(100.0, SimDuration::from_secs(20), 50).inject(runner.net_mut(), 31);
    runner.run_until(at(40));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(20));
    assert!(result.committed_txs > 0);
    let producers = result.proposer_counts.iter().filter(|&&c| c > 0).count();
    assert!(
        producers >= 3,
        "rotation should spread production, got {producers}"
    );
    assert!(result.nakamoto >= 2);
}

#[test]
fn pbft_commits_with_quorum_and_agrees() {
    let params = NetworkParams::<Pbft>::default(); // 7 replicas, f = 2
    let mut runner = build(&params, 37, |_| NullMachine);
    let submitted =
        Workload::transfers(50.0, SimDuration::from_secs(20), 50).inject(runner.net_mut(), 41);
    runner.run_until(at(60));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(20));

    assert!(
        result.committed_txs as f64 > 0.9 * submitted.len() as f64,
        "committed {} of {}",
        result.committed_txs,
        submitted.len()
    );
    assert!(result.replicas_agree);
    assert_eq!(result.reorgs, 0, "PBFT never forks");
    // All blocks carry the quorum-size vote count in their seal.
    let core = runner.node(NodeId(1)).core();
    for hash in core.chain.canonical().iter().skip(1) {
        let seal = &core.chain.tree().get(hash).unwrap().header().seal;
        match seal {
            dcs_primitives::Seal::Authority { votes, .. } => assert_eq!(*votes, 5),
            other => panic!("expected Authority seal, got {other:?}"),
        }
    }
}

#[test]
fn pbft_survives_crashed_replicas_up_to_f() {
    // n=7 → f=2; two non-leader replicas fail-stop.
    let params = NetworkParams::<Pbft> {
        engine: Pbft {
            crashed: vec![2, 5],
        },
        ..Default::default()
    };
    let mut runner = build(&params, 43, |_| NullMachine);
    let submitted =
        Workload::transfers(20.0, SimDuration::from_secs(15), 20).inject(runner.net_mut(), 47);
    runner.run_until(at(60));
    // Measure agreement among the live replicas only.
    let live: Vec<usize> = (0..7)
        .filter(|i| !params.engine.crashed.contains(i))
        .collect();
    let reference = runner.node(NodeId(live[0])).core();
    // Transactions injected at the two crashed peers are lost with them
    // (clients picked a dead point of contact), so expect ~5/7 to commit.
    assert!(
        reference.committed_tx_count() as f64 > 0.6 * submitted.len() as f64,
        "committed {} of {}",
        reference.committed_tx_count(),
        submitted.len()
    );
    let tip = reference.chain.tip_hash();
    for &i in &live[1..] {
        assert_eq!(runner.node(NodeId(i)).core().chain.tip_hash(), tip);
    }
}

#[test]
fn pbft_view_change_replaces_crashed_leader() {
    let params = NetworkParams::<Pbft> {
        engine: Pbft {
            crashed: vec![0], // the view-0 leader is dead
        },
        ..Default::default()
    };
    let mut runner = build(&params, 53, |_| NullMachine);
    let submitted =
        Workload::transfers(20.0, SimDuration::from_secs(15), 20).inject(runner.net_mut(), 59);
    runner.run_until(at(120));
    let survivor = runner.node(NodeId(1));
    assert!(survivor.view() >= 1, "view change must have happened");
    // ~1/7 of clients contacted the dead leader and lost their txs.
    assert!(
        survivor.core().committed_tx_count() as f64 > 0.75 * submitted.len() as f64,
        "committed {} of {} under the new leader",
        survivor.core().committed_tx_count(),
        submitted.len()
    );
}

#[test]
fn bitcoin_ng_decouples_throughput_from_key_blocks() {
    let mut params = NetworkParams::<Ng> {
        nodes: 8,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::BitcoinNg {
        key_difficulty: 8 * 1_000 * 30, // ~30 s key blocks
        key_interval_us: 30_000_000,
        micro_interval_us: 1_000_000, // 1 s microblocks
    };
    let mut runner = build(&params, 61, |_| NullMachine);
    let submitted =
        Workload::transfers(20.0, SimDuration::from_secs(300), 50).inject(runner.net_mut(), 67);
    runner.run_until(at(400));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(400));

    assert!(result.replicas_agree);
    // Key blocks alone would cap the chain at ~400/30 ≈ 13 blocks; micro-
    // blocks push block count far beyond that.
    assert!(
        result.canonical_blocks > 40,
        "microblocks should dominate, got {}",
        result.canonical_blocks
    );
    assert!(
        result.committed_txs as f64 > 0.8 * submitted.len() as f64,
        "committed {} of {}",
        result.committed_txs,
        submitted.len()
    );
    // Blocks commit far more often than key blocks arrive.
    assert!(
        result.mean_block_interval < 10.0,
        "{}",
        result.mean_block_interval
    );
}

#[test]
fn partition_forks_then_heals_into_one_chain() {
    // PoS with fast slots: both sides keep producing during the split, then
    // fork choice reconciles — consistency under partition, the paper's CAP
    // analogy made visible.
    let mut params = NetworkParams::<Pos> {
        nodes: 10,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfStake { slot_us: 5_000_000 };
    params.net.topology = Topology::Complete;
    let mut runner = build(&params, 71, |_| NullMachine);

    // Phase 1: healthy.
    runner.run_until(at(100));
    // Phase 2: split 5 | 5.
    let groups: Vec<u32> = (0..10).map(|i| u32::from(i >= 5)).collect();
    runner.net_mut().set_partition(groups);
    runner.run_until(at(300));
    let tip_a = runner.node(NodeId(0)).core().chain.tip_hash();
    let tip_b = runner.node(NodeId(9)).core().chain.tip_hash();
    assert_ne!(tip_a, tip_b, "the split sides must diverge");

    // Phase 3: heal; slot leaders' new blocks carry the longer chain to
    // everyone.
    runner.net_mut().heal_partition();
    runner.run_until(at(600));
    let submitted = std::collections::HashMap::new();
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(600));
    assert!(
        result.replicas_agree,
        "post-heal the network must reconverge"
    );
    let reorgs_somewhere: u64 = runner
        .nodes()
        .iter()
        .map(|n| n.core().chain.stats().reorgs)
        .sum();
    assert!(
        reorgs_somewhere > 0,
        "healing requires at least one side to reorg"
    );
}

#[test]
fn ghost_vs_longest_chain_under_fast_blocks() {
    // E2 in miniature: at aggressive block rates, GHOST keeps a committee
    // of uncles working for chain security; both rules must still converge,
    // and the stale rate must be visibly nonzero.
    let mk = |fork_choice: ForkChoice, seed: u64| {
        let mut params = NetworkParams::<Pow> {
            nodes: 8,
            ..Default::default()
        };
        params.chain = ChainConfig {
            consensus: ConsensusKind::ProofOfWork {
                initial_difficulty: 8 * 1_000, // ~1 s blocks vs ~0.1 s latency
                retarget_window: 0,
                target_interval_us: 1_000_000,
            },
            fork_choice,
            ..ChainConfig::bitcoin_like()
        };
        let mut runner = build(&params, seed, |_| NullMachine);
        runner.run_until(at(300));
        collect(
            runner.nodes(),
            &std::collections::HashMap::new(),
            SimDuration::from_secs(300),
        )
    };
    let longest = mk(ForkChoice::LongestChain, 73);
    let ghost = mk(ForkChoice::Ghost, 79);
    assert!(
        longest.stale_rate > 0.02,
        "fast blocks must fork: {}",
        longest.stale_rate
    );
    assert!(ghost.stale_rate > 0.02);
    assert!(longest.replicas_agree);
    assert!(ghost.replicas_agree);
}
