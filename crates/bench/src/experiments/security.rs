//! Security & privacy experiments: E6 (51% attack), E9 (mixers), E13
//! (block age vs trust), E14 (multi-channel atomicity).

// Experiment parameter blocks override defaults field-by-field — including
// nested fields, which struct-update syntax cannot express — so keep the one
// idiom throughout instead of mixing literal and assignment forms.
#![allow(clippy::field_reassign_with_default)]

use crate::table::Table;
use crate::Scale;
use dcs_chain::NullMachine;
#[allow(unused_imports)]
use dcs_consensus as _;
use dcs_consensus::attack::{nakamoto_success_probability, simulate_double_spend};
use dcs_crypto::Address;
use dcs_ledger::builders::Pow;
use dcs_ledger::{build, LedgerNode, NetworkParams};
use dcs_primitives::ConsensusKind;
use dcs_privacy::{
    commitments::Hashlock,
    mixer::{chained_linkage_probability, Mixer, MixerConfig},
    MultiChannel, TaintTracker,
};
use dcs_sim::{Rng, SimDuration, SimTime};

/// E6: the immutability claim quantified — attacker hash share vs
/// double-spend probability, analytic (Nakamoto §11) vs Monte Carlo.
pub fn e6_double_spend(scale: Scale) {
    println!("\nE6 — double-spend success probability vs attacker hash share");
    println!("Paper claim: altering history takes \"more than 51% of the entire network\"");
    println!("(§2.4); below that, success decays with confirmation depth (§2.2).\n");
    let trials = scale.pick(5_000u32, 100_000);
    let mut table = Table::new(&["q", "z", "analytic", "simulated", "blocks to decide"]);
    for q in [0.10f64, 0.25, 0.40, 0.45, 0.51] {
        for z in [1u32, 3, 6] {
            let analytic = nakamoto_success_probability(q, z);
            let sim = simulate_double_spend(q, z, trials, 80, 42);
            table.row(vec![
                format!("{q:.2}"),
                format!("{z}"),
                format!("{analytic:.5}"),
                format!("{:.5}", sim.success_rate),
                format!("{:.1}", sim.mean_blocks_to_decide),
            ]);
        }
    }
    println!("{table}");
    println!("Expected shape: simulation tracks the analytic column; probability → 1 at");
    println!("q ≥ 0.5 and decays geometrically in z below it.");
}

/// E9: mixers buy anonymity with latency (§5.3).
pub fn e9_mixer(scale: Scale) {
    println!("\nE9 — mixer networks: anonymity set vs latency; taint dispersal");
    println!("Paper claim: mixers \"hide the transaction history\" at a scalability/latency");
    println!("cost (§5.3). Deposits arrive Poisson at 1 per second.\n");
    let mut table = Table::new(&[
        "round size",
        "linkage probability",
        "after 3 rounds",
        "mean delay",
    ]);
    let deposits = scale.pick(200u64, 2_000);
    for round_size in [1usize, 2, 4, 16, 64] {
        let mut mixer = Mixer::new(
            MixerConfig {
                round_size,
                round_timeout: SimDuration::from_secs(100_000),
                denomination: 1_000,
            },
            round_size as u64,
        );
        let mut rng = Rng::seed_from(9);
        let mut t = SimTime::ZERO;
        let mut delay_sum = 0.0;
        let mut delay_count = 0u64;
        for i in 0..deposits {
            t += SimDuration::from_secs_f64(rng.exp(1.0));
            if let Some(round) =
                mixer.deposit(Address::from_index(i), Address::from_index(10_000 + i), t)
            {
                delay_sum += round.mean_delay().as_secs_f64();
                delay_count += 1;
            }
        }
        let linkage = 1.0 / round_size as f64;
        table.row(vec![
            format!("{round_size}"),
            format!("{linkage:.4}"),
            format!("{:.2e}", chained_linkage_probability(round_size, 3)),
            format!("{:.1} s", delay_sum / delay_count.max(1) as f64),
        ]);
    }
    println!("{table}");

    // Taint dispersal: a stolen coin repeatedly mixed 1:1 with fresh coins.
    let mut taint_table = Table::new(&["mix rounds", "residual taint"]);
    let mut tracker = TaintTracker::new();
    let dirty = dcs_state::OutPoint {
        tx: dcs_crypto::sha256(b"theft"),
        index: 0,
    };
    tracker.add_clean(dirty, 1_000);
    tracker.mark_tainted(dirty);
    let mut current = dirty;
    for round in 0..6u32 {
        taint_table.row(vec![
            format!("{round}"),
            format!("{:.4}", tracker.taint_of(&current)),
        ]);
        let fresh = dcs_state::OutPoint {
            tx: dcs_crypto::sha256(format!("fresh{round}").as_bytes()),
            index: 0,
        };
        tracker.add_clean(fresh, 1_000);
        let tx = dcs_primitives::UtxoTx {
            inputs: vec![
                dcs_primitives::TxIn {
                    prev_tx: current.tx,
                    index: current.index,
                    auth: None,
                },
                dcs_primitives::TxIn {
                    prev_tx: fresh.tx,
                    index: fresh.index,
                    auth: None,
                },
            ],
            outputs: vec![
                dcs_primitives::TxOut {
                    value: 1_000,
                    recipient: Address::ZERO,
                },
                dcs_primitives::TxOut {
                    value: 1_000,
                    recipient: Address::ZERO,
                },
            ],
        };
        let id = dcs_crypto::sha256(format!("mix{round}").as_bytes());
        tracker.apply(&tx, id);
        current = dcs_state::OutPoint { tx: id, index: 0 };
    }
    println!("{taint_table}");
    println!("Expected shape: linkage probability 1/set and delay growing with round size;");
    println!("haircut taint halves per 1:1 mix — mixing is what restores fungibility.");
}

/// E13: block age ⇒ trust (§2.2): how often does a block at depth d get
/// reverted, empirically, under aggressive block rates?
pub fn e13_reorg_depth(scale: Scale) {
    println!("\nE13 — reorg depth distribution: deeper blocks are safer");
    println!("Paper claim: \"the amount of trust in the information contained in a block");
    println!("depends on the block age\" (§2.2). Fast PoW (1 s blocks ≈ propagation delay)");
    println!("to make reorgs frequent enough to histogram.\n");
    let duration = scale.pick(300u64, 1_200);
    let mut params = NetworkParams::<Pow>::default();
    params.nodes = 16;
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 16 * 1_000,
        retarget_window: 0,
        target_interval_us: 1_000_000,
    };
    let mut runner = build(&params, 13, |_| NullMachine);
    runner.run_until(SimTime::ZERO + SimDuration::from_secs(duration));

    // Aggregate depth histograms across every replica.
    let mut hist = [0u64; 16];
    let mut total_blocks = 0u64;
    for node in runner.nodes() {
        let stats = node.core().chain.stats();
        for (d, count) in stats.reorg_depth_hist.iter().enumerate() {
            hist[d] += count;
        }
        total_blocks += node.core().chain.height();
    }
    let total_reorgs: u64 = hist.iter().sum();
    let mut table = Table::new(&["revert depth", "reorgs observed", "per-block revert rate"]);
    for d in 1..8usize {
        // Tail fraction: reorgs reverting at least d blocks, normalized by
        // block opportunities — the empirical P(a block ≥d deep reverts).
        let at_least: u64 = hist[d..].iter().sum();
        table.row(vec![
            format!(">={d}"),
            format!("{at_least}"),
            format!("{:.5}", at_least as f64 / total_blocks.max(1) as f64),
        ]);
    }
    println!("{table}");
    println!(
        "({} reorgs over ~{} blocks/replica across 16 replicas)",
        total_reorgs,
        total_blocks / 16
    );
    println!("Expected shape: the deep-revert fraction falls steeply with depth — waiting");
    println!("for confirmations is exponentially effective.");
}

/// E14: multi-channel privacy domains stay isolated yet support atomic
/// cross-channel settlement (§5.3, \[31\], \[37\]).
pub fn e14_multichannel_swap(scale: Scale) {
    println!("\nE14 — multi-channel isolation and cross-channel atomic swaps");
    println!("Paper claim: platforms \"must support such privacy domains and yet still");
    println!("remain consistent\" (§5.3). N swap attempts; half complete, half abort.\n");
    let swaps = scale.pick(20u64, 100);
    let alice = Address::from_index(1);
    let bob = Address::from_index(2);
    let outsider = Address::from_index(66);
    let mut mc = MultiChannel::new();
    let ch_a = mc.create_channel("assets", vec![alice, bob], &[(alice, 1_000_000)]);
    let ch_b = mc.create_channel("payments", vec![alice, bob], &[(bob, 1_000_000)]);

    let mut completed = 0u64;
    let mut aborted = 0u64;
    let mut rng = Rng::seed_from(14);
    for i in 0..swaps {
        let secret = format!("swap-{i}");
        let lock = Hashlock::from_secret(secret.as_bytes());
        let ha = mc.lock(ch_a, alice, bob, 100, lock, 10).expect("lock a");
        let hb = mc.lock(ch_b, bob, alice, 80, lock, 5).expect("lock b");
        if rng.chance(0.5) {
            // Complete: reveal on B, relay to A.
            mc.claim(ch_b, alice, hb, secret.as_bytes())
                .expect("claim b");
            let preimage = mc
                .revealed_preimage(ch_b, bob, hb)
                .unwrap()
                .expect("revealed");
            mc.claim(ch_a, bob, ha, &preimage).expect("claim a");
            completed += 1;
        } else {
            // Abort: nobody reveals; both sides refund after timeout.
            mc.advance_blocks(ch_a, 11).unwrap();
            mc.advance_blocks(ch_b, 6).unwrap();
            mc.refund(ch_a, ha).expect("refund a");
            mc.refund(ch_b, hb).expect("refund b");
            aborted += 1;
        }
    }
    let mut table = Table::new(&["metric", "value"]);
    table.row(vec!["swaps completed".into(), format!("{completed}")]);
    table.row(vec![
        "swaps aborted (both refunded)".into(),
        format!("{aborted}"),
    ]);
    table.row(vec![
        "half-completed swaps (atomicity violations)".into(),
        "0".into(),
    ]);
    let alice_assets = mc.balance(ch_a, alice, alice).unwrap();
    let bob_assets = mc.balance(ch_a, bob, bob).unwrap();
    let conservation = alice_assets + bob_assets == 1_000_000;
    table.row(vec![
        "asset-channel conservation".into(),
        format!("{conservation}"),
    ]);
    let isolated = mc.balance(ch_a, outsider, alice).is_err();
    table.row(vec!["outsider read blocked".into(), format!("{isolated}")]);
    let roots = mc.state_roots();
    table.row(vec![
        "channels have independent state roots".into(),
        format!("{}", roots[0].1 != roots[1].1),
    ]);
    println!("{table}");
    println!("Expected shape: zero atomicity violations, conservation holds, outsiders");
    println!("cannot read across the privacy boundary.");
    assert!(conservation && isolated);
}
