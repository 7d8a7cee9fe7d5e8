//! Consensus experiments: E1 (retargeting pins throughput), E2 (block
//! interval vs forks, longest-chain vs GHOST), E3 (ordering-service
//! throughput), E4 (the DCS matrix), E5 (work per block), E12 (private vs
//! public crossover).

// Experiment parameter blocks override defaults field-by-field — including
// nested fields, which struct-update syntax cannot express — so keep the one
// idiom throughout instead of mixing literal and assignment forms.
#![allow(clippy::field_reassign_with_default)]

use crate::table::Table;
use crate::Scale;
use dcs_chain::NullMachine;
use dcs_ledger::builders::{Ordering, Pbft, Poet, Pos, Pow};
use dcs_ledger::{build, collect, workload::Workload, LedgerNode, NetworkParams, SimResult};
use dcs_net::{LatencyModel, Topology};
use dcs_primitives::{ChainConfig, ConsensusKind, ForkChoice};
use dcs_sim::{SimDuration, SimTime};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Mean inter-block interval and committed tps over the last `window`
/// canonical blocks — the steady-state numbers after retargeting converges.
fn late_window<P: LedgerNode>(nodes: &[P], window: u64) -> (f64, f64) {
    let chain = &nodes[0].core().chain;
    let h = chain.height();
    if h < window + 1 {
        return (f64::NAN, f64::NAN);
    }
    let ts = |height: u64| {
        chain
            .tree()
            .get(&chain.canonical_at(height).expect("height on chain"))
            .expect("stored")
            .header()
            .timestamp_us as f64
            / 1e6
    };
    let span = ts(h) - ts(h - window);
    let mut txs = 0u64;
    for height in (h - window + 1)..=h {
        let hash = chain.canonical_at(height).expect("height on chain");
        txs += chain.tree().get(&hash).expect("stored").block().txs.len() as u64 - 1;
    }
    (span / window as f64, txs as f64 / span)
}

/// E1: Bitcoin's claim (§2.7) — difficulty retargeting pins the block
/// interval, so more hash power does *not* mean more throughput.
pub fn e1_pow_throughput_vs_hashpower(scale: Scale) {
    println!("\nE1 — PoW throughput vs total hash power (retargeting on)");
    println!("Paper claim: Bitcoin stays at 1 block/10 min and ~7 tps no matter how much");
    println!(
        "hash power joins (§2.7). Scaled here to a 60 s target, capacity 420 tx/block → 7 tps.\n"
    );
    let duration = scale.pick(2_000, 20_000);
    // Exponential inter-block times are noisy: average over a wide window
    // of settled blocks at full scale.
    let window = scale.pick(16, 64);
    let mut table = Table::new(&[
        "hash power",
        "final difficulty",
        "late interval (s)",
        "capacity (tps)",
        "committed (tps)",
    ]);
    for multiplier in [1u64, 4, 16, 64] {
        let mut params = NetworkParams::<Pow>::default();
        params.nodes = 8;
        params.engine.hash_powers = vec![1_000.0 * multiplier as f64];
        params.chain.block_tx_limit = 420;
        params.chain.consensus = ConsensusKind::ProofOfWork {
            initial_difficulty: 8 * 1_000 * 60, // tuned for multiplier 1
            retarget_window: 8,
            target_interval_us: 60_000_000,
        };
        let mut runner = build(&params, 1_000 + multiplier, |_| NullMachine);
        let submitted = Workload::transfers(20.0, SimDuration::from_secs(duration), 100)
            .inject(runner.net_mut(), multiplier);
        runner.run_until(at(duration + 120));
        let (interval, tps) = late_window(runner.nodes(), window);
        let difficulty = runner.nodes()[0].current_difficulty();
        let _ = submitted;
        table.row(vec![
            format!("x{multiplier}"),
            format!("{difficulty}"),
            format!("{interval:.1}"),
            format!("{:.1}", 420.0 / interval),
            format!("{tps:.1}"),
        ]);
    }
    println!("{table}");
    println!("Expected shape: interval ≈ 60 s and capacity ≈ 7 tps in every row.");
}

/// E2: lower block intervals raise the stale/branch rate; GHOST keeps
/// converging where longest-chain suffers (§2.7's Ethereum discussion).
pub fn e2_block_interval_vs_forks(scale: Scale) {
    println!("\nE2 — block interval vs stale rate (longest-chain vs GHOST)");
    println!("Paper claim: cutting block time from 10 min to 10–40 s increases branching;");
    println!("Ethereum mitigates with GHOST (§2.7). Overlay: 16 peers, ~80 ms median latency.\n");
    let blocks = scale.pick(150u64, 400);
    let mut table = Table::new(&[
        "interval",
        "rule",
        "stale rate",
        "reorgs",
        "max depth",
        "agree",
    ]);
    for interval_s in [600u64, 60, 15, 5, 1] {
        for rule in [ForkChoice::LongestChain, ForkChoice::Ghost] {
            let mut params = NetworkParams::<Pow>::default();
            params.nodes = 16;
            params.engine.hash_powers = vec![1_000.0];
            params.chain = ChainConfig {
                consensus: ConsensusKind::ProofOfWork {
                    initial_difficulty: 16 * 1_000 * interval_s,
                    retarget_window: 0,
                    target_interval_us: interval_s * 1_000_000,
                },
                fork_choice: rule,
                ..ChainConfig::bitcoin_like()
            };
            let mut runner = build(&params, 31 + interval_s, |_| NullMachine);
            runner.run_until(at(interval_s * blocks));
            let result = collect(
                runner.nodes(),
                &std::collections::HashMap::new(),
                SimDuration::from_secs(interval_s * blocks),
            );
            table.row(vec![
                format!("{interval_s} s"),
                format!("{rule:?}"),
                format!("{:.2}%", result.stale_rate * 100.0),
                format!("{}", result.reorgs),
                format!("{}", result.max_reorg_depth),
                format!("{}", result.replicas_agree),
            ]);
        }
    }
    println!("{table}");
    println!("Expected shape: stale rate grows as the interval shrinks toward the");
    println!("propagation delay; both rules still agree, GHOST by design absorbing uncles.");
}

/// E3: ordering-service throughput vs batch size (§2.7's Hyperledger row:
/// ">10K transactions per second").
pub fn e3_ordering_throughput(scale: Scale) {
    println!("\nE3 — ordering service: throughput and latency vs batch size");
    println!("Paper claim: a permissioned ordering service reaches >10K tps (§2.7, [18]).");
    println!("Offered load saturates the orderer; LAN latency profile.\n");
    let offered = scale.pick(500.0, 4_000.0);
    let duration = scale.pick(10u64, 20);
    let mut table = Table::new(&[
        "batch size",
        "offered (tps)",
        "committed (tps)",
        "mean latency",
        "p95 latency",
        "stale",
    ]);
    for batch in [10usize, 100, 500, 2_000] {
        let mut params = NetworkParams::<Ordering>::default();
        params.nodes = 8;
        params.chain.consensus = ConsensusKind::Ordering {
            batch_size: batch,
            batch_timeout_us: 100_000,
            rotate_every: 0,
        };
        params.chain.block_tx_limit = batch.max(2_000);
        let mut runner = build(&params, 77 + batch as u64, |_| NullMachine);
        let submitted = Workload::transfers(offered, SimDuration::from_secs(duration), 500)
            .inject(runner.net_mut(), batch as u64);
        runner.run_until(at(duration + 30));
        let mut result = collect(runner.nodes(), &submitted, SimDuration::from_secs(duration));
        table.row(vec![
            format!("{batch}"),
            format!("{offered:.0}"),
            format!("{:.0}", result.tps),
            format!("{:.3} s", result.latency.mean()),
            format!("{:.3} s", result.latency.percentile(95.0)),
            format!("{}", result.stale_blocks),
        ]);
    }
    println!("{table}");
    println!("Expected shape: committed ≈ offered (orders of magnitude above PoW),");
    println!("larger batches trade latency for throughput, zero stale blocks always.");
}

fn dcs_row(name: &str, corner: &str, result: &mut SimResult, table: &mut Table) {
    table.row(vec![
        name.to_string(),
        corner.to_string(),
        format!("{:.1}", result.tps),
        format!("{:.1} s", result.latency.mean()),
        format!("{:.1}%", result.stale_rate * 100.0),
        format!("{}", result.reorgs),
        format!("{}", result.replicas_agree),
        format!("{:.2}", result.proposer_gini),
        format!("{}", result.nakamoto),
        format!("{:.1e}", result.work_per_block),
    ]);
}

/// E4: the DCS triangle (§2.7) — every engine picks ≈2 of 3.
pub fn e4_dcs_matrix(scale: Scale) {
    println!("\nE4 — the DCS matrix: one row per consensus engine");
    println!("Paper claim: \"a blockchain system can only simultaneously provide two out");
    println!("of the three properties\" (§2.7). 16 peers, 10 tps offered, WAN latency");
    println!("(consortium engines: LAN + complete graph).\n");
    let duration = scale.pick(300u64, 900);
    let horizon = SimDuration::from_secs(duration);
    let mut table = Table::new(&[
        "engine", "corner", "tps", "latency", "stale", "reorgs", "agree", "gini", "nakamoto",
        "work/blk",
    ]);

    // PoW, Bitcoin-tempo (DC): 60 s blocks.
    {
        let mut params = NetworkParams::<Pow>::default();
        params.nodes = 16;
        params.chain.block_tx_limit = 420;
        params.chain.consensus = ConsensusKind::ProofOfWork {
            initial_difficulty: 16 * 1_000 * 60,
            retarget_window: 16,
            target_interval_us: 60_000_000,
        };
        let mut runner = build(&params, 11, |_| NullMachine);
        let submitted = Workload::transfers(10.0, horizon, 200).inject(runner.net_mut(), 1);
        runner.run_until(at(duration + 120));
        let mut r = collect(runner.nodes(), &submitted, horizon);
        dcs_row("PoW (bitcoin-like)", "DC", &mut r, &mut table);
    }
    // PoW, sub-second blocks (DS): fast but fork-happy.
    {
        let mut params = NetworkParams::<Pow>::default();
        params.nodes = 16;
        params.chain.block_tx_limit = 420;
        params.chain.consensus = ConsensusKind::ProofOfWork {
            initial_difficulty: 16 * 1_000 / 2, // ~0.5 s blocks
            retarget_window: 0,
            target_interval_us: 500_000,
        };
        let mut runner = build(&params, 12, |_| NullMachine);
        let submitted = Workload::transfers(10.0, horizon, 200).inject(runner.net_mut(), 2);
        runner.run_until(at(duration + 60));
        let mut r = collect(runner.nodes(), &submitted, horizon);
        dcs_row("PoW (0.5s blocks)", "DS", &mut r, &mut table);
    }
    // PoS (DC, no work).
    {
        let mut params = NetworkParams::<Pos>::default();
        params.nodes = 16;
        params.chain.consensus = ConsensusKind::ProofOfStake {
            slot_us: 10_000_000,
        };
        let mut runner = build(&params, 13, |_| NullMachine);
        let submitted = Workload::transfers(10.0, horizon, 200).inject(runner.net_mut(), 3);
        runner.run_until(at(duration + 60));
        let mut r = collect(runner.nodes(), &submitted, horizon);
        dcs_row("PoS (10s slots)", "DC", &mut r, &mut table);
    }
    // PoET (DC, no work).
    {
        let mut params = NetworkParams::<Poet>::default();
        params.nodes = 16;
        params.chain.consensus = ConsensusKind::ProofOfElapsedTime {
            mean_wait_us: 16 * 10_000_000,
        };
        let mut runner = build(&params, 14, |_| NullMachine);
        let submitted = Workload::transfers(10.0, horizon, 200).inject(runner.net_mut(), 4);
        runner.run_until(at(duration + 60));
        let mut r = collect(runner.nodes(), &submitted, horizon);
        dcs_row("PoET (10s mean)", "DC", &mut r, &mut table);
    }
    // PBFT (CS): fast and final but a small closed committee.
    {
        let mut params = NetworkParams::<Pbft>::default();
        params.nodes = 16;
        let mut runner = build(&params, 15, |_| NullMachine);
        let submitted = Workload::transfers(10.0, horizon, 200).inject(runner.net_mut(), 5);
        runner.run_until(at(duration + 60));
        let mut r = collect(runner.nodes(), &submitted, horizon);
        dcs_row("PBFT (n=16,f=5)", "CS", &mut r, &mut table);
    }
    // Ordering service (CS): one orderer.
    {
        let mut params = NetworkParams::<Ordering>::default();
        params.nodes = 16;
        params.net.topology = Topology::Complete;
        let mut runner = build(&params, 16, |_| NullMachine);
        let submitted = Workload::transfers(10.0, horizon, 200).inject(runner.net_mut(), 6);
        runner.run_until(at(duration + 60));
        let mut r = collect(runner.nodes(), &submitted, horizon);
        dcs_row("Ordering (solo)", "CS", &mut r, &mut table);
    }
    println!("{table}");
    println!("Expected shape: DC rows — agreement with low gini but modest tps and real");
    println!("work (PoW); DS row — throughput with visible stale rate/reorgs; CS rows —");
    println!("fast, forkless, but nakamoto=1-ish (production concentrated).");
}

/// E5: PoS/PoET "substantially reduce the computational efforts" vs PoW
/// (§2.4).
pub fn e5_work_per_block(scale: Scale) {
    println!("\nE5 — consensus work per committed block");
    println!("Paper claim: Proof-of-Stake (and PoET) replace PoW's computational puzzle");
    println!("with cheap lotteries (§2.4, §5.4). Work = simulated hash attempts (PoW) or");
    println!("lottery/TEE draws (PoS/PoET).\n");
    let duration = scale.pick(600u64, 1_800);
    let horizon = SimDuration::from_secs(duration);
    let mut table = Table::new(&["engine", "blocks", "total work", "work/block", "vs PoW"]);
    #[allow(unused_assignments)]
    let mut pow_per_block = 0.0f64;
    // PoW.
    {
        let mut params = NetworkParams::<Pow>::default();
        params.nodes = 8;
        params.chain.consensus = ConsensusKind::ProofOfWork {
            initial_difficulty: 8_000 * 60,
            retarget_window: 0,
            target_interval_us: 60_000_000,
        };
        let mut runner = build(&params, 21, |_| NullMachine);
        runner.run_until(at(duration));
        let r = collect(runner.nodes(), &std::collections::HashMap::new(), horizon);
        pow_per_block = r.work_per_block;
        table.row(vec![
            "PoW".into(),
            format!("{}", r.canonical_blocks),
            format!("{:.2e}", r.work_expended),
            format!("{:.2e}", r.work_per_block),
            "1.0x".into(),
        ]);
    }
    // PoS.
    {
        let mut params = NetworkParams::<Pos>::default();
        params.nodes = 8;
        params.chain.consensus = ConsensusKind::ProofOfStake {
            slot_us: 60_000_000,
        };
        let mut runner = build(&params, 22, |_| NullMachine);
        runner.run_until(at(duration));
        let r = collect(runner.nodes(), &std::collections::HashMap::new(), horizon);
        table.row(vec![
            "PoS".into(),
            format!("{}", r.canonical_blocks),
            format!("{:.2e}", r.work_expended),
            format!("{:.2e}", r.work_per_block),
            format!("{:.1e}x", r.work_per_block / pow_per_block),
        ]);
    }
    // PoET.
    {
        let mut params = NetworkParams::<Poet>::default();
        params.nodes = 8;
        params.chain.consensus = ConsensusKind::ProofOfElapsedTime {
            mean_wait_us: 8 * 60_000_000,
        };
        let mut runner = build(&params, 23, |_| NullMachine);
        runner.run_until(at(duration));
        let r = collect(runner.nodes(), &std::collections::HashMap::new(), horizon);
        table.row(vec![
            "PoET".into(),
            format!("{}", r.canonical_blocks),
            format!("{:.2e}", r.work_expended),
            format!("{:.2e}", r.work_per_block),
            format!("{:.1e}x", r.work_per_block / pow_per_block),
        ]);
    }
    println!("{table}");
    println!("Expected shape: PoS/PoET expend orders of magnitude less work per block.");
}

/// E12: the paper's §2.1 claim that private (trust-assuming) ledgers
/// outperform public ones — BFT/ordering vs PoW at matched peer counts.
pub fn e12_private_vs_public(scale: Scale) {
    println!("\nE12 — private vs public ledgers at the same peer count");
    println!("Paper claim: \"private ledgers can therefore obtain better performance");
    println!("(throughput and scalability) than their public counterparts in exchange for");
    println!("limited decentralization\" (§2.1). Load 50 tps.\n");
    let duration = scale.pick(60u64, 120);
    let horizon = SimDuration::from_secs(duration);
    let mut table = Table::new(&["n", "engine", "committed (tps)", "mean latency", "nakamoto"]);
    for n in [4usize, 7, 10, 16] {
        // PBFT.
        {
            let mut params = NetworkParams::<Pbft>::default();
            params.nodes = n;
            let mut runner = build(&params, 41 + n as u64, |_| NullMachine);
            let submitted =
                Workload::transfers(50.0, horizon, 100).inject(runner.net_mut(), n as u64);
            runner.run_until(at(duration + 30));
            let r = collect(runner.nodes(), &submitted, horizon);
            table.row(vec![
                format!("{n}"),
                "PBFT".into(),
                format!("{:.1}", r.tps),
                format!("{:.2} s", r.latency.mean()),
                format!("{}", r.nakamoto),
            ]);
        }
        // Ordering.
        {
            let mut params = NetworkParams::<Ordering>::default();
            params.nodes = n;
            let mut runner = build(&params, 51 + n as u64, |_| NullMachine);
            let submitted =
                Workload::transfers(50.0, horizon, 100).inject(runner.net_mut(), 2 * n as u64);
            runner.run_until(at(duration + 30));
            let r = collect(runner.nodes(), &submitted, horizon);
            table.row(vec![
                format!("{n}"),
                "Ordering".into(),
                format!("{:.1}", r.tps),
                format!("{:.2} s", r.latency.mean()),
                format!("{}", r.nakamoto),
            ]);
        }
        // PoW at the same n (60 s blocks — the public baseline).
        {
            let mut params = NetworkParams::<Pow>::default();
            params.nodes = n;
            params.net.latency = LatencyModel::wan();
            params.chain.block_tx_limit = 420;
            params.chain.consensus = ConsensusKind::ProofOfWork {
                initial_difficulty: n as u64 * 1_000 * 60,
                retarget_window: 0,
                target_interval_us: 60_000_000,
            };
            let mut runner = build(&params, 61 + n as u64, |_| NullMachine);
            let submitted =
                Workload::transfers(50.0, horizon, 100).inject(runner.net_mut(), 3 * n as u64);
            runner.run_until(at(duration + 120));
            let r = collect(runner.nodes(), &submitted, horizon);
            table.row(vec![
                format!("{n}"),
                "PoW".into(),
                format!("{:.1}", r.tps),
                format!("{:.2} s", r.latency.mean()),
                format!("{}", r.nakamoto),
            ]);
        }
    }
    println!("{table}");
    println!("Expected shape: PBFT/ordering commit at the offered rate with sub-second");
    println!("latency at every n; PoW commits a fraction with ~minute latency — but with");
    println!("higher nakamoto coefficients (decentralization is what's being bought).");
}
