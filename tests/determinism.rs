//! Same-seed reproducibility: the whole platform — discrete-event core,
//! gossip network, consensus engines, chain manager — must be bit-for-bit
//! deterministic, because every experiment claim in the paper reproduction
//! rests on runs being replayable. Each test executes the same simulated
//! network twice with identical seeds and asserts the canonical chains and
//! the measured statistics are identical. The `dcs-lint` static-analysis
//! rules (wall-clock, unseeded-rng, hash-collections, …) exist to keep
//! these tests passing; see DESIGN.md §10.

use dcs_chain::NullMachine;
use dcs_crypto::{sha256, Hash256};
use dcs_faults::FaultSchedule;
use dcs_ledger::builders::{Ng, Ordering, Pbft, Poet, Pos, Pow};
use dcs_ledger::{
    build, collect, collect_traces, install_faults, install_tracing, workload::Workload,
    EngineRule, LedgerNode, NetworkParams, SimResult,
};
use dcs_net::{NodeId, Runner};
use dcs_primitives::ConsensusKind;
use dcs_sim::{SimDuration, SimTime};
use dcs_trace::{Timelines, TraceConfig};
use std::collections::BTreeMap;

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// One digest over every peer's full canonical chain, in peer order — two
/// runs that differ anywhere (any peer, any height) produce different
/// digests.
fn network_digest<P: LedgerNode>(nodes: &[P]) -> Hash256 {
    let mut bytes = Vec::new();
    for node in nodes {
        for hash in node.core().chain.canonical() {
            bytes.extend_from_slice(hash.as_bytes());
        }
    }
    sha256(&bytes)
}

/// The statistics that must replay exactly. Floats are compared by bit
/// pattern: determinism means *identical*, not merely close.
fn fingerprint(result: &SimResult) -> [u64; 10] {
    [
        result.committed_txs,
        result.canonical_blocks,
        result.total_blocks,
        result.stale_blocks,
        result.reorgs,
        result.max_reorg_depth,
        result.rejected_blocks,
        result.internal_errors,
        result.tps.to_bits(),
        result.latency.mean().to_bits(),
    ]
}

/// Builds the standard 8-peer PoW-gossip network used by the replay tests,
/// with full tracing armed so trace digests are part of what must replay.
fn pow_gossip_runner(seed: u64) -> Runner<dcs_consensus::pow::PowNode<NullMachine>> {
    let mut params = NetworkParams::<Pow> {
        nodes: 8,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 8 * 1_000 * 5, // ~5 s blocks
        retarget_window: 16,
        target_interval_us: 5_000_000,
    };
    let mut runner = build(&params, seed, |_| NullMachine);
    install_tracing(&mut runner, &TraceConfig::full());
    runner
}

/// PoW over a gossip network: the adversarial case for determinism — forks,
/// reorgs, difficulty retargeting, and randomized gossip fan-out all in play.
/// Returns the chain digest, the statistics fingerprint, and the per-source
/// trace digests (`net`, `sim`, and one per peer).
fn run_pow_gossip(seed: u64, shards: usize) -> (Hash256, [u64; 10], BTreeMap<String, u64>) {
    let mut runner = pow_gossip_runner(seed);
    runner.set_shards(shards);
    let submitted =
        Workload::transfers(2.0, SimDuration::from_secs(150), 30).inject(runner.net_mut(), 99);
    runner.run_until(at(200));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(200));
    assert!(
        result.canonical_blocks > 10,
        "run must do real work: {} blocks",
        result.canonical_blocks
    );
    assert_eq!(
        result.internal_errors, 0,
        "no internal invariant may break on a healthy run"
    );
    let traces = collect_traces(&runner);
    (
        network_digest(runner.nodes()),
        fingerprint(&result),
        traces.digests().clone(),
    )
}

/// PBFT: quorum tallies and view bookkeeping iterate over vote sets, which
/// is exactly where unordered collections used to leak nondeterminism.
fn run_pbft(seed: u64, shards: usize) -> (Hash256, [u64; 10], BTreeMap<String, u64>) {
    let params = NetworkParams::<Pbft>::default(); // 7 replicas, f = 2
    let mut runner = build(&params, seed, |_| NullMachine);
    runner.set_shards(shards);
    install_tracing(&mut runner, &TraceConfig::full());
    let submitted =
        Workload::transfers(50.0, SimDuration::from_secs(20), 50).inject(runner.net_mut(), 41);
    runner.run_until(at(40));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(20));
    assert!(
        result.committed_txs > 0,
        "run must commit transactions to be a meaningful replay check"
    );
    assert_eq!(result.internal_errors, 0);
    let traces = collect_traces(&runner);
    (
        network_digest(runner.nodes()),
        fingerprint(&result),
        traces.digests().clone(),
    )
}

/// Asserts two runs produced identical trace digests on *every* source —
/// the fabric, the event queue, and each individual peer — so a divergence
/// pinpoints which actor's event stream differed.
fn assert_trace_digests_match(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>, peers: usize) {
    assert_eq!(
        a.len(),
        peers + 2,
        "one digest per peer plus net and sim: {a:?}"
    );
    for (key, digest) in a {
        assert_eq!(
            Some(digest),
            b.get(key),
            "trace digest for `{key}` must replay bit-identically"
        );
    }
    assert_eq!(a, b);
}

/// The full fault repertoire in one schedule: crash/restart, a link flap,
/// a timed partition with heal, and duplication/corruption windows.
fn churn_schedule() -> FaultSchedule {
    FaultSchedule::new()
        .crash_at(at(20), NodeId(3))
        .link_down_at(at(25), NodeId(0), NodeId(1))
        .set_duplication_at(at(30), 0.2)
        .set_corruption_at(at(30), 0.05)
        .partition_at(at(50), vec![0, 0, 0, 0, 1, 1, 1, 1])
        .heal_at(at(70))
        .set_duplication_at(at(80), 0.0)
        .set_corruption_at(at(80), 0.0)
        .link_up_at(at(90), NodeId(0), NodeId(1))
        .restart_at(at(100), NodeId(3))
}

/// PoW gossip under the churn schedule: faults are part of the seeded
/// execution, so the run must replay bit-identically — including the
/// suppressed/duplicated/corrupted accounting and the recovery sync.
fn run_pow_gossip_with_faults(
    seed: u64,
    shards: usize,
) -> (Hash256, [u64; 10], BTreeMap<String, u64>) {
    let mut runner = pow_gossip_runner(seed);
    runner.set_shards(shards);
    let submitted =
        Workload::transfers(2.0, SimDuration::from_secs(150), 30).inject(runner.net_mut(), 99);
    let mut driver = install_faults(&runner, churn_schedule());
    driver.run_until(&mut runner, at(200));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(200));
    assert!(
        result.canonical_blocks > 10,
        "run must do real work: {} blocks",
        result.canonical_blocks
    );
    assert_eq!(result.internal_errors, 0);
    assert!(
        result.catchup_rounds > 0,
        "the restarted node must actually catch up"
    );
    let stats = runner.net().stats();
    assert!(stats.suppressed_deliveries > 0 && stats.duplicated > 0 && stats.corrupted > 0);
    let traces = collect_traces(&runner);
    (
        network_digest(runner.nodes()),
        fingerprint(&result),
        traces.digests().clone(),
    )
}

/// PBFT under crash/restart: the view change and the re-admission catch-up
/// must replay exactly, vote sets and all.
fn run_pbft_with_faults(seed: u64, shards: usize) -> (Hash256, [u64; 10], BTreeMap<String, u64>) {
    let params = NetworkParams::<Pbft>::default(); // 7 replicas, f = 2
    let mut runner = build(&params, seed, |_| NullMachine);
    runner.set_shards(shards);
    install_tracing(&mut runner, &TraceConfig::full());
    let submitted =
        Workload::transfers(50.0, SimDuration::from_secs(35), 50).inject(runner.net_mut(), 41);
    let schedule = FaultSchedule::new()
        .crash_at(at(5), NodeId(0))
        .crash_at(at(5), NodeId(1))
        .restart_at(at(25), NodeId(0))
        .restart_at(at(30), NodeId(1));
    let mut driver = install_faults(&runner, schedule);
    driver.run_until(&mut runner, at(40));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(35));
    assert!(
        result.committed_txs > 0,
        "run must commit through the churn"
    );
    assert_eq!(result.internal_errors, 0);
    let traces = collect_traces(&runner);
    (
        network_digest(runner.nodes()),
        fingerprint(&result),
        traces.digests().clone(),
    )
}

#[test]
fn pow_gossip_replays_bit_identically() {
    let (digest_a, stats_a, traces_a) = run_pow_gossip(7, 1);
    let (digest_b, stats_b, traces_b) = run_pow_gossip(7, 1);
    assert_eq!(
        digest_a, digest_b,
        "same seed must reproduce every peer's canonical chain"
    );
    assert_eq!(stats_a, stats_b, "same seed must reproduce all statistics");
    assert_trace_digests_match(&traces_a, &traces_b, 8);
}

#[test]
fn pow_gossip_seeds_are_actually_used() {
    // Guard against a degenerate "determinism" where the seed is ignored:
    // different seeds must explore different executions.
    let (digest_a, _, traces_a) = run_pow_gossip(7, 1);
    let (digest_b, _, traces_b) = run_pow_gossip(8, 1);
    assert_ne!(digest_a, digest_b, "different seeds must diverge");
    assert_ne!(traces_a, traces_b, "trace digests must diverge too");
}

/// Same seed, same replicas' chains and statistics — serially twice, then
/// on 2 and 8 engine workers.
#[test]
fn pbft_replays_bit_identically() {
    let (digest_a, stats_a, traces_a) = run_pbft(37, 1);
    for shards in [1, 2, 8] {
        let (digest_b, stats_b, traces_b) = run_pbft(37, shards);
        assert_eq!(
            digest_a, digest_b,
            "same seed must reproduce every replica's canonical chain ({shards} shards)"
        );
        assert_eq!(stats_a, stats_b, "same seed must reproduce all statistics");
        assert_trace_digests_match(&traces_a, &traces_b, 7);
    }
}

#[test]
fn pow_gossip_with_fault_schedule_replays_bit_identically() {
    let (digest_a, stats_a, traces_a) = run_pow_gossip_with_faults(7, 1);
    let (digest_b, stats_b, traces_b) = run_pow_gossip_with_faults(7, 1);
    assert_eq!(
        digest_a, digest_b,
        "same seed + same fault schedule must reproduce every canonical chain"
    );
    assert_eq!(stats_a, stats_b, "statistics must replay under faults");
    assert_trace_digests_match(&traces_a, &traces_b, 8);
}

#[test]
fn pbft_with_fault_schedule_replays_bit_identically() {
    let (digest_a, stats_a, traces_a) = run_pbft_with_faults(37, 1);
    for shards in [1, 2, 8] {
        let (digest_b, stats_b, traces_b) = run_pbft_with_faults(37, shards);
        assert_eq!(
            digest_a, digest_b,
            "same seed + same fault schedule must reproduce every canonical chain ({shards} shards)"
        );
        assert_eq!(stats_a, stats_b, "statistics must replay under faults");
        assert_trace_digests_match(&traces_a, &traces_b, 7);
    }
}

/// A family's preset network over the null state machine.
fn preset<E: EngineRule<NullMachine>>(seed: u64) -> Runner<E::Node>
where
    NetworkParams<E>: Default,
{
    build(&NetworkParams::<E>::default(), seed, |_| NullMachine)
}

/// One family preset on the known-answer workload: a chain digest (hex) over
/// every peer and the statistics fingerprint.
fn known_answer<P: LedgerNode + Send>(mut runner: Runner<P>) -> (String, [u64; 10]) {
    let submitted =
        Workload::transfers(2.0, SimDuration::from_secs(120), 30).inject(runner.net_mut(), 99);
    runner.run_until(at(300));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(300));
    (
        network_digest(runner.nodes()).to_hex(),
        fingerprint(&result),
    )
}

/// Same networks as the six per-family builders the one constructor
/// replaced: each family's default preset, built by `build` over the null
/// machine, reproduces the digest and statistics those builders produced
/// (captured at their last commit). A constructor that built another network
/// — another `NetConfig`, construction order or RNG fork — moves these.
/// PBFT's pin was retaken when its replicas stopped relaying each other's
/// transactions and committed blocks: delivery delays are drawn in send
/// order, so its digest and mean latency moved; its 226 blocks held.
#[test]
fn every_family_preset_builds_the_pinned_network() {
    // Every preset commits all 226 transfers with no stale block, so its
    // fingerprint differs from another's only in block count and latency.
    let pinned = |digest: &str, blocks: u64, mean_latency_bits: u64| {
        let tps_bits = (226.0f64 / 300.0).to_bits();
        let fingerprint = [
            226,
            blocks,
            blocks,
            0,
            0,
            0,
            0,
            0,
            tps_bits,
            mean_latency_bits,
        ];
        (digest.to_string(), fingerprint)
    };
    let seed = 25;
    assert_eq!(
        known_answer(preset::<Pow>(seed)),
        pinned(
            "b4ac8f930d61040c9ea71f48c4b4102c449eabbc25f5d01092ac26f599bbdd0f",
            3,
            4639081658741053557
        ),
        "PoW"
    );
    assert_eq!(
        known_answer(preset::<Pos>(seed)),
        pinned(
            "4aa8602f38b546774f02aa1b69b880c329d8ca7403f19e6b11430a98c8e194ce",
            29,
            4617683112245016219
        ),
        "PoS"
    );
    assert_eq!(
        known_answer(preset::<Poet>(seed)),
        pinned(
            "3ced7b7f9e80aa93393fa4eafbf4651a69a75b6aad91c7ced49781562fd18e40",
            8,
            4631239981871497994
        ),
        "PoET"
    );
    assert_eq!(
        known_answer(preset::<Ordering>(seed)),
        pinned(
            "62a084287c948950ceeb4c20236715fcac68841f8a26d0ded6b3c91f48e09f19",
            138,
            4598357482533778209
        ),
        "ordering"
    );
    assert_eq!(
        known_answer(preset::<Pbft>(seed)),
        pinned(
            "47590d0dbc2ff6424e7f062f3872596d91495a67935e3c33bf65889f48777a4d",
            226,
            4561212285732183806
        ),
        "PBFT"
    );
    assert_eq!(
        known_answer(preset::<Ng>(seed)),
        pinned(
            "b0818e013d5ee8491e094a69690832e21a222e9e103e6797e7d35d200fbb29ae",
            4,
            4639116843113142389
        ),
        "Bitcoin-NG"
    );
}

/// The sharded engine's central contract: partitioning peers across worker
/// threads must not change one observable bit. The same seeded PoW-gossip
/// run — full tracing armed — is executed serially and at 2 and 8 shards;
/// chains, statistics, and every per-source trace digest must be identical.
#[test]
fn pow_gossip_is_shard_count_invariant() {
    let (digest_1, stats_1, traces_1) = run_pow_gossip(7, 1);
    for shards in [2, 8] {
        let (digest_s, stats_s, traces_s) = run_pow_gossip(7, shards);
        assert_eq!(
            digest_1, digest_s,
            "{shards} shards must reproduce the serial canonical chains"
        );
        assert_eq!(
            stats_1, stats_s,
            "{shards} shards must reproduce the serial statistics"
        );
        assert_trace_digests_match(&traces_1, &traces_s, 8);
    }
}

/// The same PoW-gossip run with live metrics installed: identical workload
/// and deadline, plus a populated [`dcs_metrics::Registry`]. Metrics
/// collection must be invisible to the deterministic execution.
fn run_pow_gossip_metered(
    seed: u64,
    shards: usize,
) -> (
    Hash256,
    [u64; 10],
    BTreeMap<String, u64>,
    dcs_metrics::Registry,
) {
    let mut runner = pow_gossip_runner(seed);
    runner.set_shards(shards);
    let registry = dcs_metrics::Registry::new();
    dcs_ledger::install_metrics(&mut runner, &registry);
    let submitted =
        Workload::transfers(2.0, SimDuration::from_secs(150), 30).inject(runner.net_mut(), 99);
    runner.run_until(at(200));
    let result = collect(runner.nodes(), &submitted, SimDuration::from_secs(200));
    assert_eq!(result.internal_errors, 0);
    let traces = collect_traces(&runner);
    (
        network_digest(runner.nodes()),
        fingerprint(&result),
        traces.digests().clone(),
        registry,
    )
}

/// The observability contract (DESIGN.md §16): instrument updates are
/// out-of-band relaxed atomics, so a run with the full metrics registry
/// installed must be bit-identical to the same seeded run without it — at
/// every engine shard count — while the registry itself ends up live.
#[test]
fn metrics_collection_never_perturbs_the_run() {
    let (digest_plain, stats_plain, traces_plain) = run_pow_gossip(7, 1);
    for shards in [1, 2, 8] {
        let (digest_m, stats_m, traces_m, registry) = run_pow_gossip_metered(7, shards);
        assert_eq!(
            digest_plain, digest_m,
            "metrics on ({shards} shards) must reproduce the unmetered canonical chains"
        );
        assert_eq!(
            stats_plain, stats_m,
            "metrics on ({shards} shards) must reproduce the unmetered statistics"
        );
        assert_trace_digests_match(&traces_plain, &traces_m, 8);

        // And the registry must have actually observed the run.
        let shape = registry.stats();
        assert_eq!(shape.kind_conflicts, 0);
        assert!(
            shape.families >= 8 && shape.series >= 8 * 8,
            "8 instrumented peers must register real series: {shape:?}"
        );
        let text = registry.render();
        let height_live = text.lines().any(|l| {
            l.starts_with("dcs_chain_height{")
                && l.split(' ').next_back().and_then(|v| v.parse::<i64>().ok()) > Some(10)
        });
        assert!(height_live, "chain height gauges must track the run");
        let admitted_live = text.lines().any(|l| {
            l.starts_with("dcs_mempool_admitted_total{")
                && l.split(' ').next_back().and_then(|v| v.parse::<u64>().ok()) > Some(0)
        });
        assert!(
            admitted_live,
            "mempool admission counters must track the run"
        );
    }
}

/// Shard-count invariance under the full fault repertoire: crash/restart,
/// link flaps, partitions, duplication, and corruption all interact with
/// the conservative windows (the fault driver clips them at each scripted
/// instant), and still nothing observable may depend on the worker count.
#[test]
fn pow_gossip_with_faults_is_shard_count_invariant() {
    let (digest_1, stats_1, traces_1) = run_pow_gossip_with_faults(7, 1);
    for shards in [2, 8] {
        let (digest_s, stats_s, traces_s) = run_pow_gossip_with_faults(7, shards);
        assert_eq!(
            digest_1, digest_s,
            "{shards} shards must reproduce the serial chains under faults"
        );
        assert_eq!(stats_1, stats_s);
        assert_trace_digests_match(&traces_1, &traces_s, 8);
    }
}

/// The commit pipeline's central contract: a block applied through
/// `AccountMachine::apply_block` (writes recorded in the state index, the
/// trie built from it when the root is read, multi-lane hashing,
/// cache-warmed witness verification) gives, at every verification worker
/// count, the trajectory the serial per-write path gave. Runs a
/// deterministic sequence of signed blocks at 1, 2, and 8 pipeline threads
/// and holds the digest over every intermediate state root and receipt set
/// to a known answer: the value the one-thread run of the serial per-write
/// oracle (`apply_block_serial`, since folded into `apply_block`) computed.
#[test]
fn commit_pipeline_is_batch_and_worker_invariant() {
    use dcs_chain::StateMachine;
    use dcs_contracts::AccountMachine;
    use dcs_crypto::{KeyPair, VerifyPipeline};
    use dcs_primitives::{AccountTx, Block, BlockHeader, GasSchedule, Seal, Transaction, TxAuth};
    use std::sync::Arc;

    const SENDERS: usize = 8;
    const BLOCKS: u64 = 4;
    const TXS_PER_BLOCK: usize = 32;

    let mut keys: Vec<KeyPair> = (0..SENDERS)
        .map(|i| {
            let mut seed = [0u8; 32];
            seed[0] = i as u8;
            seed[1] = 0xD5;
            KeyPair::generate(seed, 5) // 2^5 = 32 signatures ≥ 16 per sender
        })
        .collect();
    let alloc: Vec<(dcs_crypto::Address, u64)> =
        keys.iter().map(|k| (k.address(), 1_000_000)).collect();

    // One deterministic signed block sequence, reused for every
    // configuration.
    let mut nonces = [0u64; SENDERS];
    let mut parent = Hash256::ZERO;
    let mut blocks = Vec::new();
    for height in 1..=BLOCKS {
        let mut body = vec![Transaction::Coinbase {
            to: dcs_crypto::Address::from_index(999),
            value: 50,
            height,
        }];
        for i in 0..TXS_PER_BLOCK {
            let s = i % SENDERS;
            let mut tx = AccountTx::transfer(
                keys[s].address(),
                dcs_crypto::Address::from_index(10_000 + i as u64),
                1 + (height + i as u64) % 50,
                nonces[s],
            );
            tx.gas_limit = 0;
            tx.gas_price = 0;
            nonces[s] += 1;
            let sig = keys[s]
                .sign(&Transaction::Account(tx.clone()).signing_hash())
                .expect("key capacity covers the run");
            tx.auth = Some(TxAuth {
                pubkey: keys[s].public_key(),
                signature: sig,
            });
            body.push(Transaction::Account(tx));
        }
        let block = Block::new(
            BlockHeader::new(
                parent,
                height,
                height,
                dcs_crypto::Address::from_index(999),
                Seal::None,
            ),
            body,
        );
        parent = block.hash();
        blocks.push(block);
    }

    // Digest of the whole commit trajectory under one configuration: every
    // intermediate state root plus every receipt's id/status/fee.
    let run = |threads: usize| -> Hash256 {
        let pipeline = Arc::new(VerifyPipeline::new(threads, 4_096));
        let mut machine = AccountMachine::with_alloc(&alloc).with_pipeline(Arc::clone(&pipeline));
        machine.schedule = GasSchedule::free();
        machine.verify_signatures = true;
        let mut bytes = Vec::new();
        for block in &blocks {
            let (receipts, _) = machine.apply_block(block).expect("valid signed block");
            bytes.extend_from_slice(machine.state_root().as_bytes());
            for r in &receipts {
                bytes.extend_from_slice(r.tx_id.as_bytes());
                bytes.push(u8::from(r.status.is_success()));
                bytes.extend_from_slice(&r.fee_paid.to_le_bytes());
            }
        }
        sha256(&bytes)
    };

    const GOLDEN: &str = "11ea8c6db55ea779c399165ba9937384f8006bb1f2e4d7e8e77c0a058a9d2c2a";
    for threads in [1usize, 2, 8] {
        assert_eq!(
            run(threads).to_string(),
            GOLDEN,
            "{threads} verify threads must match the serial single-threaded \
             commit digest bit for bit"
        );
    }
}

/// Builds the transfer mix used by the scale-stack replay tests: a fixed
/// pseudorandom mix of intra- and cross-shard transfers over 24 accounts.
fn scale_mix(accounts: u64, count: u64) -> Vec<dcs_scale::Transfer> {
    let mut rng = dcs_sim::Rng::seed_from(0x000B_EAC0);
    (0..count)
        .map(|_| dcs_scale::Transfer {
            from: dcs_crypto::Address::from_index(rng.below(accounts)),
            to: dcs_crypto::Address::from_index(rng.below(accounts)),
            value: 1 + rng.below(100),
        })
        .collect()
}

fn scale_alloc(accounts: u64) -> Vec<(dcs_crypto::Address, u64)> {
    (0..accounts)
        .map(|i| (dcs_crypto::Address::from_index(i), 1_000_000))
        .collect()
}

/// The beacon-coordinated sharded stack (PR 10) under the sharded event
/// engine: the same seeded run — beacon chain, worker shards with
/// cross-shard lock/mint receipts, and the light client — must produce one
/// digest at 1, 2, and 8 engine workers. The digest covers every shard's
/// tip, height, state root, and counters, the beacon's chain and stats, and
/// the light client's sync progress.
#[test]
fn beacon_sharded_stack_is_engine_worker_invariant() {
    use dcs_scale::beacon::{BeaconNet, BeaconParams};

    let params = BeaconParams {
        shards: 3,
        ..BeaconParams::default()
    };
    let alloc = scale_alloc(24);
    let mix = scale_mix(24, 48);
    let run = |workers: usize| {
        let mut net = BeaconNet::new(&params, 11, &alloc);
        net.set_engine_workers(workers);
        for (i, t) in mix.iter().enumerate() {
            net.submit_at(SimTime::from_micros(3_000 * (i as u64 + 1)), *t);
        }
        net.run();
        (net.digest(), net.stats())
    };
    let (digest_1, stats_1) = run(1);
    assert!(stats_1.shard_blocks > 0, "the run must seal real blocks");
    assert!(stats_1.minted > 0, "the mix must cross shards");
    for workers in [2, 8] {
        let (digest_w, stats_w) = run(workers);
        assert_eq!(
            digest_1, digest_w,
            "{workers} engine workers must reproduce the serial scale stack"
        );
        assert_eq!(stats_w.events, stats_1.events);
    }
}

/// The same stack under a latency model that reorders messages: seals cut
/// several blocks at once (`block_tx_limit: 4`) and every hop draws 1–9 ms,
/// so anchors overtake each other and a block's bundle of lock receipts
/// overtakes its anchor — the beacon's two reordering buffers, which the
/// constant-latency run above never enters. One digest and one event count
/// at 1, 2 and 8 engine workers (what the run settles is asserted beside the
/// beacon, `reordered_anchors_and_bundles_settle_every_lock`).
#[test]
fn jittered_beacon_run_is_engine_worker_invariant() {
    use dcs_net::LatencyModel;
    use dcs_scale::beacon::{BeaconNet, BeaconParams};
    use dcs_sim::SimDuration;

    let params = BeaconParams {
        shards: 3,
        block_tx_limit: 4,
        latency: LatencyModel::Uniform {
            lo: SimDuration::from_millis(1),
            hi: SimDuration::from_millis(9),
        },
        ..BeaconParams::default()
    };
    let alloc = scale_alloc(24);
    let mix = scale_mix(24, 200);
    let run = |workers: usize| {
        let mut net = BeaconNet::new(&params, 29, &alloc);
        net.set_engine_workers(workers);
        for (i, t) in mix.iter().enumerate() {
            net.submit_at(SimTime::from_micros(2_000 * (i as u64 + 1)), *t);
        }
        net.run();
        net
    };
    let serial = run(1);
    assert!(
        serial.beacon().stats.buffered_receipts > 0,
        "some bundle overtook its anchor"
    );
    assert!(serial.stats().minted > 0, "the mix must cross shards");
    for workers in [2, 8] {
        let wide = run(workers);
        assert_eq!(
            serial.digest(),
            wide.digest(),
            "{workers} engine workers must reproduce the serial jittered run"
        );
        assert_eq!(wide.stats().events, serial.stats().events);
    }
}

/// The payment-channel workload (PR 10): the same seeded schedule — opens,
/// off-chain payments, cheating unilateral closes, watchtower challenges,
/// and settlements through a real ordering network — must replay to
/// bit-identical dispute outcomes and application state hashes, at every
/// engine worker count.
#[test]
fn channel_workload_replays_bit_identically() {
    use dcs_ledger::{run_channel_workload, ChannelWorkloadParams};

    let base = ChannelWorkloadParams::default();
    let golden = run_channel_workload(&base, 99);
    assert!(golden.cheats_attempted > 0, "the schedule must cheat");
    assert_eq!(
        golden.cheats_punished, golden.cheats_attempted,
        "the watchtower must answer every stale close"
    );
    for workers in [None, Some(2), Some(8)] {
        let params = ChannelWorkloadParams {
            engine_workers: workers,
            ..base.clone()
        };
        let replay = run_channel_workload(&params, 99);
        assert_eq!(
            golden.state_hash, replay.state_hash,
            "workers={workers:?}: application state must replay bit-identically"
        );
        assert_eq!(golden.app_stats, replay.app_stats);
        assert_eq!(golden.height, replay.height);
        assert_eq!(golden.cheats_punished, replay.cheats_punished);
    }
}

/// The E23 gate: a light client tracking shard 0 over the live network must
/// stay under 10% of the bytes a full node replays (headers + SPV proofs
/// versus full block bodies), while having verified real inclusion proofs.
#[test]
fn light_client_downloads_under_a_tenth_of_full_replay() {
    use dcs_crypto::codec::Encode;
    use dcs_scale::beacon::{BeaconNet, BeaconParams};

    let params = BeaconParams {
        shards: 2,
        // Retain every body so the full-replay baseline is measurable.
        keep_depth: 100_000,
        ..BeaconParams::default()
    };
    let accounts = 24;
    let alloc = scale_alloc(accounts);
    let mut net = BeaconNet::new(&params, 5, &alloc);
    // A dense intra-shard mix keeps the bodies fat relative to headers.
    let mut rng = dcs_sim::Rng::seed_from(0xE23);
    for i in 0..600u64 {
        let t = dcs_scale::Transfer {
            from: dcs_crypto::Address::from_index(rng.below(accounts)),
            to: dcs_crypto::Address::from_index(rng.below(accounts)),
            value: 1 + rng.below(50),
        };
        net.submit_at(SimTime::from_micros(2_000 + i * 800), t);
    }
    net.run();

    let shard = net.shard(0).chain();
    let mut full_bytes = 0u64;
    for h in 1..=shard.height() {
        let hash = shard.canonical_at(h).expect("canonical chain is dense");
        let stored = shard.tree().get(&hash).expect("retained");
        let body = stored
            .body()
            .expect("keep_depth retains every body for the baseline");
        full_bytes += body.encoded().len() as u64;
    }
    assert!(shard.height() > 5, "the run must build a real chain");

    let light = net.light();
    let client = light.client().expect("the light client must bootstrap");
    assert!(
        client.tip_height() > 0,
        "the light client must sync real headers"
    );
    assert!(
        light.proofs_verified > 0,
        "the light client must verify real SPV inclusion proofs"
    );
    assert!(
        client.bytes_downloaded * 10 < full_bytes,
        "light sync must cost under 10% of full replay: {} vs {}",
        client.bytes_downloaded,
        full_bytes
    );
}

#[test]
fn reorg_trace_spans_match_chain_stats() {
    // A contentious PoW run — block interval close to gossip latency — forks
    // and reorgs mid-run. The trace must carry one `Reorg` span per branch
    // switch, attributed to the right peer, with depths that reproduce the
    // chain's own counters.
    let mut params = NetworkParams::<Pow> {
        nodes: 8,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 8 * 1_000, // ~1 s blocks: contention on purpose
        retarget_window: 0,
        target_interval_us: 1_000_000,
    };
    let mut runner = build(&params, 7, |_| NullMachine);
    install_tracing(&mut runner, &TraceConfig::full());
    let _ = Workload::transfers(2.0, SimDuration::from_secs(100), 30).inject(runner.net_mut(), 99);
    runner.run_until(at(150));

    let mut traces = collect_traces(&runner);
    let timelines = Timelines::build(traces.records(), 0);

    let mut total_reorgs = 0u64;
    for (i, node) in runner.nodes().iter().enumerate() {
        let stats = node.core().chain.stats();
        let spans: Vec<_> = timelines
            .reorgs
            .iter()
            .filter(|r| r.node == i as u32)
            .collect();
        assert_eq!(
            spans.len() as u64,
            stats.reorgs,
            "peer {i}: one Reorg span per branch switch"
        );
        assert_eq!(
            spans.iter().map(|r| r.reverted).max().unwrap_or(0),
            stats.max_reorg_depth,
            "peer {i}: deepest traced revert must match chain stats"
        );
        assert_eq!(
            spans.iter().map(|r| r.reverted).sum::<u64>(),
            stats.blocks_reverted,
            "peer {i}: total traced reverts must match chain stats"
        );
        total_reorgs += stats.reorgs;
    }
    assert!(
        total_reorgs > 0,
        "this seed must actually exercise a mid-run reorg"
    );
}
