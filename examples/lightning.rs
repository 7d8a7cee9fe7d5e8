//! Off-chain scaling (§5.4 of the paper, [30]): "another possibility is to
//! offload transactions outside the blockchain, as in the Lightning
//! network".
//!
//! A hub with five spokes over a 4-peer ordering network: the channels
//! open on-chain, 300 payments between random parties are routed through
//! the hub entirely off-chain, the odd-numbered channels' spokes cheat by
//! closing at a stale state and a watchtower wins every dispute on-chain.
//! Prints how many
//! on-chain transactions the ledger was spared — the E8 measurement.
//!
//! Run with: `cargo run --example lightning`

use dcs_ledger::{run_channel_workload, ChannelWorkloadParams};

fn main() {
    let params = ChannelWorkloadParams {
        payments: 300,
        ..ChannelWorkloadParams::default()
    };
    let r = run_channel_workload(&params, 9);
    println!(
        "routed {} payments ({} off-chain state updates, {:.2} hops average)",
        r.routed_payments,
        r.offchain_updates,
        r.offchain_updates as f64 / r.routed_payments as f64
    );
    println!(
        "{} stale closes, {} challenged by the watchtower; {} channels settled off their latest split",
        r.cheats_attempted, r.app_stats.challenges, r.payout_mismatches
    );
    println!(
        "final tally: {} payments settled with only {} on-chain transactions ({:.1} payments per on-chain tx, {} bytes)",
        r.routed_payments,
        r.onchain_ops,
        r.routed_payments as f64 / r.onchain_ops as f64,
        r.onchain_bytes
    );
    assert!(
        r.routed_payments > 10 * r.onchain_ops,
        "the chain was offloaded"
    );
}
