//! Churn experiment: E18 (crash/restart fault injection with catch-up
//! recovery — the dependability axis under node churn).

use crate::table::Table;
use crate::Scale;
use dcs_chain::NullMachine;
use dcs_consensus::{pbft::PbftNode, pow::PowNode};
use dcs_faults::FaultSchedule;
use dcs_ledger::builders::{Pbft, Pow};
use dcs_ledger::{build, install_faults, metrics, workload::Workload, NetworkParams};
use dcs_net::{NodeId, Runner};
use dcs_primitives::ConsensusKind;
use dcs_sim::{SimDuration, SimTime};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// E18: a PBFT consortium keeps committing through `f` crashed replicas
/// (view change replaces the dead leader), and a crashed-then-restarted
/// node — PBFT replica or PoW miner — rebuilds from its block store and
/// catches up to the canonical tip via the locator sync protocol. Panics
/// unless each restarted node ends at the reference height and the
/// replicas agree.
pub fn e18_churn(scale: Scale) {
    println!("\nE18 — dcs-faults: crash/restart churn with catch-up recovery");
    println!("Dependability under churn (§2.3): consensus must survive fail-stop crashes");
    println!("within its fault budget, and a restarted node must rejoin — rebuild its");
    println!("chain from durable storage, sync the blocks it missed, and resume. Both");
    println!("halves are scripted as a deterministic fault schedule, so the run is as");
    println!("reproducible as a fault-free one.\n");

    pbft_leader_crash(scale);
    pow_miner_churn(scale);
}

/// PBFT n=4 (f=1): crash the view-0 leader mid-run; the three survivors
/// still hold a 2f+1 quorum, fire a view change, and keep committing. The
/// restarted replica adopts the working view and catches up.
fn pbft_leader_crash(scale: Scale) {
    let horizon = scale.pick(60u64, 180);
    let crash = horizon / 6;
    let restart = horizon / 2;
    let params = NetworkParams::<Pbft> {
        nodes: 4,
        ..Default::default()
    };
    let mut runner = build(&params, 18, |_| NullMachine);
    let submitted = Workload::transfers(20.0, SimDuration::from_secs(horizon - 5), 50)
        .inject(runner.net_mut(), 181);

    let schedule = FaultSchedule::new()
        .crash_at(at(crash), NodeId(0))
        .restart_at(at(restart), NodeId(0));
    let mut driver = install_faults(&runner, schedule);

    let mut table = Table::new(&["phase", "t (s)", "survivor height", "node0 height", "view"]);
    let mut snapshot = |runner: &Runner<PbftNode<NullMachine>>, phase: &str, t: u64| {
        let survivor = runner.nodes()[1].core.chain.height();
        let node0 = runner.nodes()[0].core.chain.height();
        let view = runner.nodes()[1].view();
        table.row(vec![
            phase.to_string(),
            format!("{t}"),
            format!("{survivor}"),
            format!("{node0}"),
            format!("{view}"),
        ]);
        (survivor, node0)
    };

    driver.run_until(&mut runner, at(crash));
    let (h_crash, _) = snapshot(&runner, "leader crashed", crash);
    driver.run_until(&mut runner, at(restart));
    let (h_restart, _) = snapshot(&runner, "node 0 restarts", restart);
    driver.run_until(&mut runner, at(horizon));
    let (h_end, node0_end) = snapshot(&runner, "end of run", horizon);
    println!("{table}");

    let view_changes = runner.nodes()[1].view_changes;
    let node0 = &runner.nodes()[0].core;
    let result = metrics::collect(runner.nodes(), &submitted, SimDuration::from_secs(horizon));
    let stats = runner.net().stats();
    println!(
        "survivors committed {} blocks while the leader was down (view_changes={}),",
        h_restart - h_crash,
        view_changes,
    );
    println!(
        "node 0 caught up to height {node0_end}/{h_end} (catchup_rounds={}, sync_retries={}),",
        node0.catchup_rounds, result.sync_retries,
    );
    println!(
        "fabric: {} crashes, {} restarts, {} deliveries + {} timers suppressed.",
        stats.crashes, stats.restarts, stats.suppressed_deliveries, stats.suppressed_timers,
    );
    println!(
        "agreement at confirmation depth: {} | {result}\n",
        result.replicas_agree,
    );
    assert_eq!(node0_end, h_end, "the restarted replica catches up");
    assert!(result.replicas_agree, "replicas agree");
}

/// PoW, 4 miners: one crashes, misses a stretch of blocks, restarts, and
/// syncs the gap from its peers while mining resumes on the caught-up tip.
fn pow_miner_churn(scale: Scale) {
    let horizon = scale.pick(120u64, 600);
    let crash = horizon / 4;
    let restart = horizon / 2;
    let mut params = NetworkParams::<Pow> {
        nodes: 4,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 4_000 * 5, // 4 kH/s network, ~5 s blocks
        retarget_window: 0,
        target_interval_us: 5_000_000,
    };
    let mut runner = build(&params, 19, |_| NullMachine);
    let submitted = Workload::transfers(5.0, SimDuration::from_secs(horizon - 10), 30)
        .inject(runner.net_mut(), 191);

    let schedule = FaultSchedule::new()
        .crash_at(at(crash), NodeId(3))
        .restart_at(at(restart), NodeId(3));
    let mut driver = install_faults(&runner, schedule);

    let mut table = Table::new(&["phase", "t (s)", "reference height", "node3 height"]);
    let mut snapshot = |runner: &Runner<PowNode<NullMachine>>, phase: &str, t: u64| {
        let reference = runner.nodes()[0].core.chain.height();
        let node3 = runner.nodes()[3].core.chain.height();
        table.row(vec![
            phase.to_string(),
            format!("{t}"),
            format!("{reference}"),
            format!("{node3}"),
        ]);
        (reference, node3)
    };

    driver.run_until(&mut runner, at(crash));
    snapshot(&runner, "node 3 crashes", crash);
    driver.run_until(&mut runner, at(restart));
    let (_, n3_restart) = snapshot(&runner, "node 3 restarts", restart);
    driver.run_until(&mut runner, at(horizon));
    let (h_end, n3_end) = snapshot(&runner, "end of run", horizon);
    println!("{table}");

    let node3 = &runner.nodes()[3].core;
    let result = metrics::collect(runner.nodes(), &submitted, SimDuration::from_secs(horizon));
    let stats = runner.net().stats();
    println!(
        "node 3 recovered {} blocks after restart ({} → {}, reference {h_end});",
        n3_end - n3_restart,
        n3_restart,
        n3_end,
    );
    println!(
        "catchup_rounds={}, sync_retries={}, suppressed deliveries={}, timers={}.",
        node3.catchup_rounds,
        result.sync_retries,
        stats.suppressed_deliveries,
        stats.suppressed_timers,
    );
    println!(
        "agreement at confirmation depth: {} | {result}",
        result.replicas_agree,
    );
    println!("Expected shape: survivor throughput dips only by the dead miner's hash");
    println!("power, and the restarted node converges to the canonical chain within a");
    println!("few catch-up pages — dependable churn, not a permanent fork.");
    assert_eq!(n3_end, h_end, "the restarted miner catches up");
    assert!(result.replicas_agree, "replicas agree");
}
