//! Quickstart: Figure 1 of the paper, running — a distributed ledger as
//! "blockchain + peer-to-peer network + consensus".
//!
//! Builds a 12-peer proof-of-work network over a gossip overlay, submits a
//! client transaction stream, runs two simulated hours, and reports the DCS
//! measurements (§2.7): throughput and latency (Scalability), fork/reorg
//! behaviour and replica agreement (Consistency), and who actually produced
//! the chain (Decentralization).
//!
//! Run with: `cargo run --example quickstart`

use dcs_chain::NullMachine;
use dcs_ledger::builders::Pow;
use dcs_ledger::{build, collect, workload::Workload, NetworkParams};
use dcs_primitives::ConsensusKind;
use dcs_sim::{SimDuration, SimTime};

fn main() {
    let seed = 42;

    // 1. Configure the network: 12 miners, 1 kH/s each, targeting 60 s
    //    blocks (a sped-up Bitcoin so the demo finishes instantly).
    let mut params = NetworkParams::<Pow> {
        nodes: 12,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 12 * 1_000 * 60,
        retarget_window: 16,
        target_interval_us: 60_000_000,
    };
    let mut runner = build(&params, seed, |_| NullMachine);

    // 2. Clients submit 5 transfers per second for one simulated hour.
    let horizon = SimDuration::from_secs(3_600);
    let workload = Workload::transfers(5.0, horizon, 200);
    let submitted = workload.inject(runner.net_mut(), seed);
    println!("submitted {} transactions to random peers", submitted.len());

    // 3. Run the simulation (plus cooldown for in-flight blocks).
    runner.run_until(SimTime::ZERO + horizon + SimDuration::from_secs(300));

    // 4. Measure.
    let result = collect(runner.nodes(), &submitted, horizon);
    println!(
        "\n=== DCS report ({} peers, PoW, 60 s target) ===",
        params.nodes
    );
    println!("Scalability:");
    println!("  throughput          {:.2} tx/s", result.tps);
    println!(
        "  commit latency      mean {:.1} s, max {:.1} s",
        result.latency.mean(),
        result.latency.max()
    );
    println!("Consistency:");
    println!(
        "  blocks              {} canonical / {} total ({:.1}% stale)",
        result.canonical_blocks,
        result.total_blocks,
        result.stale_rate * 100.0
    );
    println!(
        "  reorgs              {} (deepest {})",
        result.reorgs, result.max_reorg_depth
    );
    println!("  replicas agree      {}", result.replicas_agree);
    println!("Decentralization:");
    println!("  proposer gini       {:.3}", result.proposer_gini);
    println!("  nakamoto coeff.     {}", result.nakamoto);
    println!(
        "  work expended       {:.2e} hash attempts ({:.2e} per block)",
        result.work_expended, result.work_per_block
    );
    println!(
        "\nnetwork: {} messages, {:.1} MB gossiped",
        runner.stats().sent,
        runner.stats().bytes_sent as f64 / 1e6
    );
    assert!(result.replicas_agree, "the ledger must converge");
}
