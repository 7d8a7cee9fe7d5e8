//! Off-chain scaling (§5.4 of the paper, [30]): "another possibility is to
//! offload transactions outside the blockchain, as in the Lightning
//! network".
//!
//! Opens a small channel network, routes hundreds of multi-hop payments
//! entirely off-chain, demonstrates the dispute mechanism punishing a stale
//! close, and reports how many on-chain transactions the ledger was spared
//! — the E8 measurement.
//!
//! Run with: `cargo run --example lightning`

use dcs_scale::channels::{ChannelNetwork, ChannelOp};

fn main() {
    let mut net = ChannelNetwork::new(10);

    // Five parties in a line-plus-hub topology: a—b—c—d, and a hub h
    // connected to everyone.
    let a = net.add_party([1u8; 32], 10, 1_000_000);
    let b = net.add_party([2u8; 32], 10, 1_000_000);
    let c = net.add_party([3u8; 32], 10, 1_000_000);
    let d = net.add_party([4u8; 32], 10, 1_000_000);
    let h = net.add_party([5u8; 32], 10, 10_000_000);

    net.open_channel(a, b, 50_000, 50_000).unwrap();
    net.open_channel(b, c, 50_000, 50_000).unwrap();
    net.open_channel(c, d, 50_000, 50_000).unwrap();
    for &leaf in &[a, b, c, d] {
        net.open_channel(h, leaf, 200_000, 20_000).unwrap();
    }
    println!("opened 7 channels ({} on-chain txs)", net.onchain_txs);

    // 300 payments between random pairs, all routed off-chain.
    let parties = [a, b, c, d, h];
    let mut hops_total = 0usize;
    let mut rng = dcs_sim::Rng::seed_from(9);
    let mut ok = 0;
    for _ in 0..300 {
        let from = parties[rng.below(5) as usize];
        let to = parties[rng.below(5) as usize];
        if from == to {
            continue;
        }
        if let Ok(hops) = net.pay(from, to, 10 + rng.below(90)) {
            hops_total += hops;
            ok += 1;
        }
    }
    println!(
        "routed {ok} payments ({} off-chain state updates, {:.2} hops average) — still {} on-chain txs",
        net.offchain_updates,
        hops_total as f64 / ok as f64,
        net.onchain_txs
    );

    // A cheating close: d publishes a stale state on its hub channel; the
    // hub challenges with the newer one inside the dispute window.
    let hub_d = 6; // the h—d channel id (4th hub channel)
    let stale = net.signed_current_state(hub_d).unwrap();
    net.channel_pay(hub_d, d, 5_000).unwrap(); // d pays the hub after snapshotting
    let fresh = net.signed_current_state(hub_d).unwrap();
    net.apply(ChannelOp::UniClose(stale)).unwrap();
    net.apply(ChannelOp::Challenge(fresh)).unwrap();
    net.advance_height(11);
    net.apply(ChannelOp::Finalize { id: hub_d }).unwrap();
    println!("stale close challenged and overridden: the newer state settled");

    // Cooperatively close the rest.
    for id in 0..6 {
        net.cooperative_close(id).unwrap();
    }
    println!(
        "final tally: {} payments settled with only {} on-chain transactions ({:.1} payments per on-chain tx)",
        net.payments,
        net.onchain_txs,
        net.payments as f64 / net.onchain_txs as f64
    );
    assert!(
        net.payments > 10 * net.onchain_txs,
        "the chain was offloaded"
    );
}
