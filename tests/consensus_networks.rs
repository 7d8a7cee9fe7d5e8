//! End-to-end integration tests: whole simulated networks for every
//! consensus family the paper surveys (§2.4), validating the properties the
//! paper attributes to each — these are the miniature versions of
//! experiments E1–E5.

use dcs_chain::NullMachine;
use dcs_consensus::pbft::PbftNode;
use dcs_consensus::pow::PowNode;
use dcs_consensus::WireMsg;
use dcs_crypto::{Address, Hash256, KeyPair};
use dcs_ledger::builders::{Ng, Ordering, Pbft, Poet, Pos, Pow};
use dcs_ledger::{build, collect, workload::Workload, LedgerNode, NetworkParams};
use dcs_net::{NodeId, Topology};
use dcs_primitives::TxAuth;
use dcs_primitives::{AccountTx, ChainConfig, ConsensusKind, ForkChoice, SealedTx, Transaction};
use dcs_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    let params = NetworkParams::<Pbft>::default();
    let crashed = [2, 5];
    let mut runner = build(&params, 43, |_| NullMachine);
    for i in crashed {
        runner.net_mut().crash(NodeId(i));
    }
    let submitted =
        Workload::transfers(20.0, SimDuration::from_secs(15), 20).inject(runner.net_mut(), 47);
    runner.run_until(at(60));
    // Measure agreement among the live replicas only.
    let live: Vec<usize> = (0..7).filter(|i| !crashed.contains(i)).collect();
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
    let params = NetworkParams::<Pbft>::default();
    let mut runner = build(&params, 53, |_| NullMachine);
    runner.net_mut().crash(NodeId(0)); // the view-0 leader is dead
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

/// A fork far deeper than one catch-up page heals: 200 one-second slots of
/// a 5 | 5 split leave each side ~100 blocks on its own branch. After the
/// heal, an orphaned slot block makes its receiver page the sender's branch
/// in, each follow-up page asked from the last block the one before stored,
/// so the side branch grows page by page until fork choice takes it.
#[test]
fn a_fork_deeper_than_a_page_heals_in_a_few_pages() {
    let mut params = NetworkParams::<Pos> {
        nodes: 10,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfStake { slot_us: 1_000_000 };
    params.net.topology = Topology::Complete;
    let mut runner = build(&params, 71, |_| NullMachine);
    let groups: Vec<u32> = (0..10).map(|i| u32::from(i >= 5)).collect();
    runner.net_mut().set_partition(groups);
    runner.run_until(at(200));
    let (a, b) = (runner.node(NodeId(0)), runner.node(NodeId(9)));
    assert_ne!(a.core().chain.tip_hash(), b.core().chain.tip_hash());
    let depth = a.core().chain.height().min(b.core().chain.height());
    assert!(
        depth > 2 * 32,
        "each side is {depth}+ blocks deep, past two pages"
    );

    runner.net_mut().heal_partition();
    runner.run_until(at(500));
    let submitted = std::collections::HashMap::new();
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(500));
    assert!(
        result.replicas_agree,
        "post-heal the network must reconverge"
    );
    // Measured at seed 71: 1 retry and 37 pages. The one-ancestor-per-
    // round-trip walk this replaced healed the same run with 702 retries.
    assert!(
        result.sync_retries <= 10,
        "{} sync retries to heal",
        result.sync_retries
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

/// Overload (ROADMAP 5(d)) in miniature: clients offer ten times the block
/// ceiling into pools capped at three blocks. Shedding is the design: every
/// block sealed in the window is full and the replicas agree. A peer relays
/// only what its pool takes, so a transaction that meets a full pool costs
/// its delivery to that pool, not a flood of the overlay.
#[test]
fn overloaded_pow_network_seals_full_blocks_and_sheds_at_the_edge() {
    use dcs_consensus::Mempool;
    const NODES: usize = 8;
    const DEGREE: usize = 4;
    const PER_BLOCK: usize = 50;
    let mut params = NetworkParams::<Pow> {
        nodes: NODES,
        ..Default::default()
    };
    params.net.topology = Topology::KRegular { k: DEGREE };
    params.chain.block_tx_limit = PER_BLOCK + 1; // and the coinbase
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: NODES as u64 * 1_000 * 5, // ~5 s blocks
        retarget_window: 0,
        target_interval_us: 5_000_000,
    };
    let mut runner = build(&params, 7, |_| NullMachine);
    for i in 0..NODES {
        runner.node_mut(NodeId(i)).core_mut().mempool = Mempool::new(3 * PER_BLOCK);
    }
    // Ten blocks' worth per ~5 s block interval.
    let window = 60;
    let submitted = Workload::transfers(
        10.0 * PER_BLOCK as f64 / 5.0,
        SimDuration::from_secs(window),
        1_000,
    )
    .inject(runner.net_mut(), 7);
    runner.run_until(at(window + 20));
    let result = collect(
        runner.nodes(),
        &submitted,
        SimDuration::from_secs(window + 20),
    );
    assert!(result.replicas_agree, "replicas must agree");

    // Every canonical block sealed once the pools have filled is full.
    let chain = &runner.node(NodeId(0)).core().chain;
    let sealed: Vec<usize> = chain
        .canonical()
        .iter()
        .skip(1)
        .map(|h| chain.tree().get(h).unwrap().block())
        .filter(|b| (10_000_000..=window * 1_000_000).contains(&b.header.timestamp_us))
        .map(|b| b.txs.len() - 1)
        .collect();
    assert!(sealed.len() >= 5, "blocks in the window: {}", sealed.len());
    assert!(
        sealed.iter().all(|&n| n == PER_BLOCK),
        "every block full: {sealed:?}"
    );

    // Flooding every body costs about one send per peer per neighbor but
    // the sender, NODES × (DEGREE − 1) = 24 per transaction; with blocks on
    // top this run read 30.1 that way, and 4.1 relaying only what a pool
    // takes.
    let per_tx = runner.stats().sent as f64 / submitted.len() as f64;
    assert!(
        per_tx < (NODES * (DEGREE - 1)) as f64 / 4.0,
        "{per_tx:.2} messages per submitted transaction"
    );
}

/// Cuts every link between the `cut` replicas and the rest of an
/// `n`-replica consortium from `down` to `up` seconds while transfers keep
/// arriving, runs to 60 s, and returns the runner.
fn cut_off(n: usize, cut: &[usize], down: u64, up: u64) -> dcs_net::Runner<PbftNode<NullMachine>> {
    let params = NetworkParams::<Pbft> {
        nodes: n,
        ..Default::default()
    };
    let mut runner = build(&params, 61, |_| NullMachine);
    Workload::transfers(20.0, SimDuration::from_secs(30), 20).inject(runner.net_mut(), 61);
    let links: Vec<(NodeId, NodeId)> = cut
        .iter()
        .flat_map(|&c| {
            (0..n)
                .filter(|i| !cut.contains(i))
                .map(move |i| (NodeId(c), NodeId(i)))
        })
        .collect();
    runner.run_until(at(down));
    for &(a, b) in &links {
        runner.net_mut().set_link_down(a, b);
    }
    runner.run_until(at(up));
    for &(a, b) in &links {
        runner.net_mut().set_link_up(a, b);
    }
    runner.run_until(at(60));
    runner
}

/// Replicas cut off from the quorum while it keeps committing. Nobody
/// announces a committed block, so a cut-off replica, back on the network,
/// holds commit quorums for sequences it cannot commit: its view timer must
/// pull the missing blocks by catch-up sync rather than wedge at the height
/// it was cut off at.
///
/// Four replicas, replica 3 cut off from 5 s to 8 s. Then seven replicas
/// with the view-0 leader and replica 1 cut off from 5 s to 20 s: the rest
/// change view twice and commit under replica 2, and each returning replica
/// is the other's first neighbor, so a pull from the first neighbor would
/// ask a replica as far behind as itself.
#[test]
fn pbft_replica_cut_off_from_the_quorum_pulls_what_it_missed() {
    for (n, cut, up) in [(4, &[3][..], 8), (7, &[0, 1][..], 20)] {
        let runner = cut_off(n, cut, 5, up);
        let tip = runner.node(NodeId(n - 1)).core().chain.tip_hash();
        let heights: Vec<u64> = runner
            .nodes()
            .iter()
            .map(|n| n.core().chain.height())
            .collect();
        for node in runner.nodes() {
            assert_eq!(node.core().chain.tip_hash(), tip, "heights {heights:?}");
        }
        for &c in cut {
            let rounds = runner.node(NodeId(c)).core().catchup_rounds;
            assert!(rounds > 0, "replica {c} of {n} never pulled");
        }
    }
}

/// A peer that tallies what is delivered to it: blocks by form (whole
/// blocks come only in catch-up pages), body requests and their replies,
/// the transactions gossiped in, and each client body handed over by id,
/// pushed or in a reply.
struct Counting<P> {
    peer: P,
    /// Blocks delivered whole, in catch-up pages.
    full_blocks_in: u64,
    compact_blocks_in: u64,
    /// Wire bytes charged to the compact blocks delivered.
    compact_bytes_in: u64,
    /// Client transactions the compact blocks delivered name.
    compact_ids_in: u64,
    requests_in: u64,
    replies_in: u64,
    txs_in: u64,
    bodies_in: BTreeMap<Hash256, u32>,
}

impl<P> Counting<P> {
    fn new(peer: P) -> Self {
        Counting {
            peer,
            full_blocks_in: 0,
            compact_blocks_in: 0,
            compact_bytes_in: 0,
            compact_ids_in: 0,
            requests_in: 0,
            replies_in: 0,
            txs_in: 0,
            bodies_in: BTreeMap::new(),
        }
    }
}

impl<P: dcs_net::Protocol<Msg = WireMsg>> dcs_net::Protocol for Counting<P> {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut dcs_net::Ctx<'_, Self::Msg>) {
        self.peer.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut dcs_net::Ctx<'_, Self::Msg>) {
        match &msg {
            WireMsg::SyncResponse { blocks, .. } => self.full_blocks_in += blocks.len() as u64,
            WireMsg::CompactBlock(block) => {
                self.compact_blocks_in += 1;
                self.compact_bytes_in += dcs_consensus::wire_size(&msg) as u64;
                self.compact_ids_in += block.txs.len() as u64 - 1;
            }
            WireMsg::TxRequest { .. } => self.requests_in += 1,
            WireMsg::BlockTxs { txs, .. } => {
                self.replies_in += 1;
                for tx in txs {
                    *self.bodies_in.entry(tx.id()).or_default() += 1;
                }
            }
            WireMsg::Tx(tx) => {
                self.txs_in += 1;
                *self.bodies_in.entry(tx.id()).or_default() += 1;
            }
            _ => {}
        }
        self.peer.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dcs_net::Ctx<'_, Self::Msg>) {
        self.peer.on_timer(tag, ctx);
    }
}

/// Eight PoW miners at ~10 s blocks on the WAN preset's 4-regular overlay,
/// each wrapped in a [`Counting`] tally.
fn counted_pow(seed: u64) -> dcs_net::Runner<Counting<PowNode<NullMachine>>> {
    counted_pow_over(seed, 0.0)
}

/// [`counted_pow`] over links that drop each message with `drop_probability`.
fn counted_pow_over(
    seed: u64,
    drop_probability: f64,
) -> dcs_net::Runner<Counting<PowNode<NullMachine>>> {
    let mut params = NetworkParams::<Pow> {
        nodes: 8,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 8 * 1_000 * 10,
        retarget_window: 0,
        target_interval_us: 10_000_000,
    };
    let genesis = dcs_chain::genesis_block(&params.chain);
    let net = dcs_net::NetConfig {
        nodes: 8,
        drop_probability,
        ..params.net.clone()
    };
    dcs_net::Runner::new(net, seed, |id| {
        Counting::new(PowNode::new(
            id,
            dcs_ledger::builders::node_address(id.0),
            genesis.clone(),
            params.chain.clone(),
            NullMachine,
            1_000.0,
        ))
    })
}

/// A relayed block crosses each link as its header and ids. A miner left
/// out of one transaction's flood — every other pool holds it, its own
/// does not, and no copy is on the wire — gets the block that carries it
/// in compact form, asks the sender for that one body, and imports the
/// block on the one reply: one `TxRequest` and one `BlockTxs` in the whole
/// network, and every other relayed block complete from the pools.
#[test]
fn a_miner_left_out_of_a_flood_imports_the_block_after_one_request() {
    let mut runner = counted_pow(29);
    let left_out = dcs_primitives::AccountTx::transfer(
        dcs_crypto::Address::from_index(1),
        dcs_crypto::Address::from_index(2),
        5,
        0,
    );
    let tx = dcs_primitives::SealedTx::new(std::sync::Arc::new(
        dcs_primitives::Transaction::Account(left_out),
    ));
    for i in 1..8 {
        let pool = &mut runner.node_mut(NodeId(i)).peer.core_mut().mempool;
        assert!(pool.insert(tx.clone()));
    }
    runner.run_until(at(60));

    for node in runner.nodes() {
        assert!(
            node.peer.core().is_included(&tx.id()),
            "committed everywhere"
        );
    }
    let total = |f: fn(&Counting<PowNode<NullMachine>>) -> u64| -> u64 {
        runner.nodes().iter().map(f).sum()
    };
    assert_eq!(total(|n| n.txs_in), 0, "no copy was gossiped");
    assert_eq!(total(|n| n.requests_in), 1, "one request");
    assert_eq!(total(|n| n.replies_in), 1, "one reply");
    assert_eq!(
        runner.node(NodeId(0)).replies_in,
        1,
        "to the miner left out"
    );
    assert_eq!(total(|n| n.full_blocks_in), 0);
    assert!(total(|n| n.compact_blocks_in) > 0);
}

/// A fault-free gossip run relays every block compact: no full block
/// crosses the wire, and the bytes charged to the relayed blocks are the
/// header, the coinbase and a 32-byte id per client transaction — no
/// client body. The bodies cross the wire in the transaction flood (and in
/// the replies to the few blocks that outran it).
#[test]
fn fault_free_pow_relays_no_client_body_in_a_block() {
    let mut runner = counted_pow(31);
    let submitted =
        Workload::transfers(5.0, SimDuration::from_secs(60), 50).inject(runner.net_mut(), 31);
    runner.run_until(at(120));

    let nodes = runner.nodes();
    let committed = nodes[0].peer.core().committed_tx_count();
    assert_eq!(committed, submitted.len() as u64, "every transfer commits");
    let total =
        |f: fn(&Counting<PowNode<NullMachine>>) -> u64| -> u64 { nodes.iter().map(f).sum() };
    assert_eq!(total(|n| n.full_blocks_in), 0, "no full block on the wire");
    let blocks = total(|n| n.compact_blocks_in);
    let coinbase = 225; // header (180) and coinbase (45)
    assert_eq!(
        total(|n| n.compact_bytes_in),
        blocks * coinbase + 32 * total(|n| n.compact_ids_in),
        "a relayed block is charged for ids, not bodies"
    );
    // Measured at seed 31: 812 compact deliveries and no request, at 3 952
    // wire bytes per committed transaction.
    assert!(
        total(|n| n.requests_in) <= blocks / 10,
        "few blocks outran the flood"
    );
}

/// Each body crosses each consortium link once: the replica a client picks
/// sends the transaction to the others, a pre-prepare carries ids, and a
/// committed block goes to nobody. A fault-free run delivers no block
/// announcement, and its fabric bytes and sends per committed transaction
/// stay near that floor.
#[test]
fn fault_free_pbft_sends_each_body_once() {
    let params = NetworkParams::<Pbft> {
        nodes: 4,
        ..Default::default()
    };
    let genesis = dcs_chain::genesis_block(&params.chain);
    let net = dcs_net::NetConfig {
        nodes: 4,
        ..params.net.clone()
    };
    let mut runner = dcs_net::Runner::new(net, 71, |id| {
        Counting::new(PbftNode::new(
            id,
            dcs_ledger::builders::node_address(id.0),
            genesis.clone(),
            params.chain.clone(),
            NullMachine,
            4,
        ))
    });
    let submitted =
        Workload::transfers(50.0, SimDuration::from_secs(20), 50).inject(runner.net_mut(), 73);
    runner.run_until(at(40));

    let committed = runner.node(NodeId(0)).peer.core().committed_tx_count();
    assert_eq!(committed, submitted.len() as u64, "every transfer commits");
    let blocks_in: u64 = runner
        .nodes()
        .iter()
        .map(|n| n.full_blocks_in + n.compact_blocks_in)
        .sum();
    assert_eq!(blocks_in, 0, "no replica announces a block");
    // Measured: 3 575 bytes and 31.4 sends per committed transaction; with
    // every replica re-relaying transactions and flooding committed blocks
    // the same run cost 7 778 bytes and 48.6 sends. Votes are most of what
    // is left: the leader proposes as soon as it pools a transaction, so
    // blocks are small.
    let stats = runner.net().stats();
    let bytes = stats.bytes_sent as f64 / committed as f64;
    let sends = stats.sent as f64 / committed as f64;
    assert!(
        bytes < 4_000.0,
        "{bytes:.0} bytes per committed transaction"
    );
    assert!(sends < 35.0, "{sends:.1} sends per committed transaction");
}

/// `count` transfers from `keys`' address, WOTS-signed (~2.4 KB on the
/// wire, so gossip announces them), nonces from 0.
fn signed_transfers(keys: &mut KeyPair, count: u64) -> Vec<SealedTx> {
    (0..count)
        .map(|nonce| {
            let mut tx = AccountTx::transfer(keys.address(), Address::from_index(9), 1, nonce);
            let signing_hash = Transaction::Account(tx.clone()).signing_hash();
            tx.auth = Some(TxAuth {
                pubkey: keys.public_key(),
                signature: keys.sign(&signing_hash).unwrap(),
            });
            SealedTx::new(Arc::new(Transaction::Account(tx)))
        })
        .collect()
}

/// `count` unsigned transfers (~80 bytes, so gossip pushes them).
fn unsigned_transfers(count: u64) -> Vec<SealedTx> {
    (0..count)
        .map(|nonce| {
            let tx = AccountTx::transfer(Address::from_index(5), Address::from_index(6), 1, nonce);
            SealedTx::new(Arc::new(Transaction::Account(tx)))
        })
        .collect()
}

/// Hands `txs` to the miners of `runner` in turn, one every `every_ms`
/// from 1 s on.
fn hand_over<P: dcs_net::Protocol<Msg = WireMsg>>(
    runner: &mut dcs_net::Runner<P>,
    txs: &[SealedTx],
    every_ms: u64,
) {
    let nodes = runner.nodes().len();
    for (i, tx) in txs.iter().enumerate() {
        let when = at(1) + SimDuration::from_millis(every_ms * i as u64);
        let msg = WireMsg::Tx(tx.clone());
        let size = dcs_consensus::wire_size(&msg);
        runner.net_mut().inject(when, NodeId(i % nodes), msg, size);
    }
}

/// A signed transfer crosses each link about once: the miner a client
/// hands it to pushes it to its neighbors, and every other miner pulls it
/// once from the first neighbor that announces it. A miner is handed a
/// signed body once, by push, pull or a block's reply, but for one race: a
/// neighbor of the miner the client picked may have pulled it through
/// another neighbor before the push crossed a slow link. An unsigned
/// transfer, under 1 KiB, is still pushed on every hop: each miner hears
/// it from several neighbors.
#[test]
fn a_signed_body_reaches_each_miner_once_and_an_unsigned_one_floods() {
    let mut runner = counted_pow(37);
    let signed = signed_transfers(&mut KeyPair::generate([51u8; 32], 5), 24);
    let unsigned = unsigned_transfers(24);
    let mixed: Vec<SealedTx> = signed
        .iter()
        .zip(&unsigned)
        .flat_map(|(s, u)| [s.clone(), u.clone()])
        .collect();
    hand_over(&mut runner, &mixed, 500);
    runner.run_until(at(120));

    let nodes = runner.nodes();
    for tx in &mixed {
        for (i, node) in nodes.iter().enumerate() {
            assert!(
                node.peer.core().is_included(&tx.id()),
                "miner {i} committed it"
            );
        }
    }
    let handed = |node: &Counting<PowNode<NullMachine>>, tx: &SealedTx| {
        node.bodies_in.get(&tx.id()).copied().unwrap_or(0)
    };
    let (mut raced, mut handovers) = (0, 0);
    for (k, tx) in signed.iter().enumerate() {
        // `mixed` interleaves the two kinds: signed transfer k went to
        // miner 2k mod 8.
        let contact = NodeId(2 * k % nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let pushed_to = runner.net().neighbors(contact).contains(&NodeId(i));
            let most = 1 + u32::from(pushed_to);
            let got = handed(node, tx);
            assert!(
                (1..=most).contains(&got),
                "miner {i} was handed a signed body {got} times"
            );
            raced += u32::from(got == 2);
            handovers += got;
        }
    }
    // Measured at seed 37: 3 races in 195 handovers.
    assert!(
        raced * 20 <= handovers,
        "{raced} races in {handovers} handovers"
    );
    for tx in &unsigned {
        let total: u32 = nodes.iter().map(|n| handed(n, tx)).sum();
        assert!(
            total > 2 * nodes.len() as u32,
            "an unsigned body reached the miners {total} times"
        );
    }
}

/// A lossy overlay still commits every signed transfer: a lost
/// announcement is made good by the next neighbor's, a lost pull by its
/// retry timer re-asking another announcer, and a body no pull brought by
/// the block that carries it.
#[test]
fn a_lossy_overlay_commits_every_signed_transfer() {
    let mut runner = counted_pow_over(41, 0.05);
    let signed = signed_transfers(&mut KeyPair::generate([52u8; 32], 5), 32);
    hand_over(&mut runner, &signed, 500);
    runner.run_until(at(240));
    for (i, node) in runner.nodes().iter().enumerate() {
        for tx in &signed {
            assert!(
                node.peer.core().is_included(&tx.id()),
                "miner {i} committed it"
            );
        }
    }
    let dropped = runner.net().stats().dropped;
    assert!(dropped > 0, "the overlay lost messages");
}

/// A peer that crashes with an announcement queued loses the flush timer
/// that would have sent it; after the restart its queue starts empty, so
/// the next body it takes arms a fresh flush. The hub of a star is every
/// leaf's one neighbor: a signed transfer handed to one leaf after the
/// hub's restart reaches every other leaf's pool through the hub's
/// announcement (no block is mined in the run).
#[test]
fn a_restarted_hub_announces_its_later_bodies_to_every_leaf() {
    use dcs_faults::FaultSchedule;
    use dcs_ledger::install_faults;
    let mut params = NetworkParams::<Pow> {
        nodes: 5,
        ..Default::default()
    };
    params.net.topology = Topology::Star;
    params.net.latency = dcs_net::LatencyModel::Constant(SimDuration::from_millis(10));
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 1 << 50,
        retarget_window: 0,
        target_interval_us: 10_000_000,
    };
    let mut runner = build(&params, 43, |_| NullMachine);
    let [before, after] =
        <[SealedTx; 2]>::try_from(signed_transfers(&mut KeyPair::generate([53u8; 32], 1), 2))
            .unwrap();
    for (secs, tx) in [(1, &before), (3, &after)] {
        let msg = WireMsg::Tx(tx.clone());
        let size = dcs_consensus::wire_size(&msg);
        runner.net_mut().inject(at(secs), NodeId(1), msg, size);
    }
    // The hub takes `before` at 1.01 s and would announce it at 1.11 s.
    let schedule = FaultSchedule::new()
        .crash_at(at(1) + SimDuration::from_millis(50), NodeId(0))
        .restart_at(at(2), NodeId(0));
    let mut driver = install_faults(&runner, schedule);
    driver.run_until(&mut runner, at(10));
    for leaf in 2..5 {
        let pool = &runner.node(NodeId(leaf)).core().mempool;
        assert!(
            !pool.contains(&before.id()),
            "leaf {leaf}: lost with the crash"
        );
        assert!(
            pool.contains(&after.id()),
            "leaf {leaf}: announced after the restart"
        );
    }
}
