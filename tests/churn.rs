//! Acceptance tests for crash/restart fault injection (E18's claims, as
//! assertions): PBFT keeps committing through `f` crashed replicas and
//! re-admits them, and a crashed-then-restarted node catches up to the
//! canonical tip via the locator sync protocol — under PBFT and PoW, over
//! real account state, and under every other engine too (they share one
//! recovery path).

use dcs_chain::{NullMachine, StateMachine};
use dcs_contracts::AccountMachine;
use dcs_crypto::{Address, Hash256};
use dcs_faults::FaultSchedule;
use dcs_ledger::builders::{Ng, Ordering, Pbft, Poet, Pos, Pow};
use dcs_ledger::{
    build, install_faults, install_tracing, workload::Workload, EngineRule, LedgerNode,
    NetworkParams,
};
use dcs_net::{NodeId, Runner};
use dcs_primitives::ConsensusKind;
use dcs_sim::{SimDuration, SimTime};
use dcs_trace::{TraceConfig, TraceEvent};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// PBFT n=4 (f=1): the view-0 leader crashes mid-run. The survivors hold a
/// 2f+1 quorum, fire a view change, and keep committing while it is down;
/// after restart the replica adopts the working view, catches up through
/// the sync protocol, and converges to the survivors' canonical chain.
#[test]
fn pbft_survives_leader_crash_and_readmits_the_restarted_replica() {
    let params = NetworkParams::<Pbft> {
        nodes: 4,
        ..Default::default()
    };
    let mut runner = build(&params, 77, |_| NullMachine);
    Workload::transfers(20.0, SimDuration::from_secs(55), 50).inject(runner.net_mut(), 770);

    let schedule = FaultSchedule::new()
        .crash_at(at(10), NodeId(0))
        .restart_at(at(30), NodeId(0));
    let mut driver = install_faults(&runner, schedule);

    driver.run_until(&mut runner, at(12));
    let height_at_crash = runner.nodes()[1].core.chain.height();

    // Liveness through the crash: the survivors commit while the leader is
    // down, which requires the view change to have replaced it.
    driver.run_until(&mut runner, at(30));
    let height_before_restart = runner.nodes()[1].core.chain.height();
    assert!(
        height_before_restart > height_at_crash,
        "survivors stalled: {height_at_crash} -> {height_before_restart}"
    );
    assert!(
        runner.nodes()[1].view_changes >= 1,
        "no view change fired while the view-0 leader was down"
    );
    assert!(
        runner.nodes()[0].core.chain.height() <= height_at_crash,
        "a crashed replica must not advance"
    );

    driver.run_until(&mut runner, at(60));

    // Re-admission: the restarted replica reached the survivors' canonical
    // tip (modulo one in-flight block) through the catch-up protocol.
    let reference = &runner.nodes()[1].core.chain;
    let node0 = &runner.nodes()[0].core;
    assert!(
        node0.chain.height() + 1 >= reference.height(),
        "node 0 stuck at {} vs reference {}",
        node0.chain.height(),
        reference.height()
    );
    assert!(node0.catchup_rounds > 0, "recovery never ran catch-up sync");
    let common = node0.chain.height().min(reference.height());
    assert_eq!(
        node0.chain.canonical_at(common),
        reference.canonical_at(common),
        "restarted replica disagrees with the survivors at height {common}"
    );
    // And it rejoined the working view (adopted from the leader's traffic).
    assert_eq!(runner.nodes()[0].view(), runner.nodes()[1].view());
}

/// PoW, 4 equal miners: one crashes, misses a stretch of the chain, and on
/// restart rebuilds from its store and syncs the gap — converging to the
/// same canonical prefix as the peers that never went down.
#[test]
fn pow_miner_catches_up_to_canonical_tip_after_restart() {
    let mut params = NetworkParams::<Pow> {
        nodes: 4,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 4_000 * 5, // ~5 s blocks network-wide
        retarget_window: 0,
        target_interval_us: 5_000_000,
    };
    let confirmation = params.chain.confirmation_depth;
    let mut runner = build(&params, 78, |_| NullMachine);
    Workload::transfers(5.0, SimDuration::from_secs(110), 30).inject(runner.net_mut(), 780);

    let schedule = FaultSchedule::new()
        .crash_at(at(30), NodeId(3))
        .restart_at(at(60), NodeId(3));
    let mut driver = install_faults(&runner, schedule);

    driver.run_until(&mut runner, at(60));
    let behind_by = runner.nodes()[0].core.chain.height() - runner.nodes()[3].core.chain.height();
    assert!(
        behind_by >= 2,
        "the crash window was too quiet to exercise catch-up (behind by {behind_by})"
    );

    driver.run_until(&mut runner, at(120));

    let reference = &runner.nodes()[0].core.chain;
    let node3 = &runner.nodes()[3].core;
    // Within the natural propagation slack of concurrent mining.
    assert!(
        node3.chain.height() + 2 >= reference.height(),
        "node 3 stuck at {} vs reference {}",
        node3.chain.height(),
        reference.height()
    );
    assert!(
        node3.catchup_rounds >= 1,
        "recovery never ran catch-up sync"
    );
    // Prefix agreement at the confirmed portion of the shorter chain.
    let check = node3
        .chain
        .height()
        .min(reference.height())
        .saturating_sub(confirmation);
    assert_eq!(
        node3.chain.canonical_at(check),
        reference.canonical_at(check),
        "restarted miner disagrees with the network at height {check}"
    );

    // The fabric actually suppressed traffic to the dead node — the crash
    // was real, not a no-op.
    let stats = runner.net().stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.restarts, 1);
    assert!(stats.suppressed_deliveries > 0);
}

/// PBFT n=4 over a funded `AccountMachine`: a backup crashes, misses a
/// stretch of transfers, restarts, and must end on the survivors' state
/// root. Restart replays the stored blocks onto the machine's *genesis*
/// state — replaying onto an empty `M::default()` drops the allocation,
/// every replayed transfer fails, and the replica never agrees again.
#[test]
fn restarted_replica_over_funded_accounts_converges_to_the_reference_state_root() {
    let senders: Vec<Address> = (100..108).map(Address::from_index).collect();
    let alloc: Vec<(Address, u64)> = senders.iter().map(|a| (*a, 1_000_000)).collect();
    let params = NetworkParams::<Pbft> {
        nodes: 4,
        ..Default::default()
    };
    let mut runner = build(&params, 79, |_| AccountMachine::with_alloc(&alloc));
    Workload::funded_transfers(10.0, SimDuration::from_secs(45), senders.clone())
        .inject(runner.net_mut(), 790);
    let genesis_root = runner.nodes()[1].core.chain.machine().state_root();

    let schedule = FaultSchedule::new()
        .crash_at(at(10), NodeId(3))
        .restart_at(at(30), NodeId(3));
    let mut driver = install_faults(&runner, schedule);
    driver.run_until(&mut runner, at(30));
    let reference = &runner.nodes()[1].core.chain;
    assert!(
        reference.height() >= runner.nodes()[3].core.chain.height() + 2,
        "the crash window was too quiet to exercise replay"
    );
    driver.run_until(&mut runner, at(60));

    let reference = &runner.nodes()[1].core.chain;
    let node3 = &runner.nodes()[3].core;
    assert_ne!(
        reference.machine().state_root(),
        genesis_root,
        "no transfer ever moved the reference state"
    );
    let moved = senders
        .iter()
        .filter(|a| reference.machine().db.balance(a) != 1_000_000)
        .count();
    assert!(
        moved >= 2,
        "transfers must actually succeed ({moved} moved)"
    );
    assert!(node3.catchup_rounds > 0, "recovery never ran catch-up sync");
    assert_eq!(node3.chain.tip_hash(), reference.tip_hash());
    assert_eq!(
        node3.chain.machine().state_root(),
        reference.machine().state_root(),
        "restarted replica rebuilt a different account state"
    );
    assert_eq!(
        node3.internal_errors + node3.chain.stats().internal_errors,
        0
    );
}

/// One ordering-service run with a committing peer crashed for 20 s. The
/// ordering service had no recovery path before the engines shared one: the
/// peer must rebuild and catch up to the orderer's tip. Returns the run's
/// fingerprint — every peer's canonical chain, fabric totals, and the
/// counters recovery moves.
fn ordering_churn_run() -> (Vec<Vec<Hash256>>, [u64; 8]) {
    let mut runner = preset::<Ordering>(81);
    Workload::transfers(40.0, SimDuration::from_secs(50), 50).inject(runner.net_mut(), 810);
    let schedule = FaultSchedule::new()
        .crash_at(at(10), NodeId(5))
        .restart_at(at(30), NodeId(5));
    let mut driver = install_faults(&runner, schedule);
    driver.run_until(&mut runner, at(30));
    assert!(
        runner.nodes()[0].core.chain.height() >= runner.nodes()[5].core.chain.height() + 2,
        "the crash window was too quiet to exercise catch-up"
    );
    driver.run_until(&mut runner, at(60));

    let chains: Vec<Vec<Hash256>> = runner
        .nodes()
        .iter()
        .map(|n| n.core.chain.canonical().to_vec())
        .collect();
    let net = runner.net().stats();
    let node5 = &runner.nodes()[5].core;
    assert!(chains[0].len() > 10, "the orderer barely committed");
    assert_eq!(chains[5], chains[0], "restarted peer is off the tip");
    assert!(
        node5.catchup_rounds >= 1,
        "recovery never ran catch-up sync"
    );
    assert!(
        net.suppressed_deliveries > 0,
        "the crash suppressed no traffic"
    );
    let counters = [
        net.sent,
        net.delivered,
        net.suppressed_deliveries,
        net.suppressed_timers,
        node5.catchup_rounds,
        node5.sync_retries,
        node5.blocks_produced,
        node5.committed_tx_count(),
    ];
    (chains, counters)
}

/// A faulted run of a newly recoverable engine replays bit-identically from
/// its seed and schedule.
#[test]
fn ordering_peer_recovers_and_the_faulted_run_replays_bit_identically() {
    assert_eq!(ordering_churn_run(), ordering_churn_run());
}

/// A family's preset network over the null state machine.
fn preset<E: EngineRule<NullMachine>>(seed: u64) -> Runner<E::Node>
where
    NetworkParams<E>: Default,
{
    build(&NetworkParams::<E>::default(), seed, |_| NullMachine)
}

/// Crashes and restarts peer 1 of any engine's network. That this compiles
/// for every builder is the point: `install_faults` and the fault driver
/// bound on the one peer trait, which every engine implements.
fn crash_and_restart_peer_one<P: LedgerNode + Send>(mut runner: Runner<P>) {
    let schedule = FaultSchedule::new()
        .crash_at(at(1), NodeId(1))
        .restart_at(at(2), NodeId(1));
    let mut driver = install_faults(&runner, schedule);
    driver.run_until(&mut runner, at(3));
    assert_eq!(runner.net().stats().restarts, 1);
    let core = runner.node(NodeId(1)).core();
    assert!(core.catchup_rounds >= 1, "restart begins catch-up sync");
    assert_eq!(core.internal_errors, 0);
}

#[test]
fn every_builder_runner_accepts_a_fault_schedule() {
    crash_and_restart_peer_one(preset::<Pow>(1));
    crash_and_restart_peer_one(preset::<Pos>(2));
    crash_and_restart_peer_one(preset::<Poet>(3));
    crash_and_restart_peer_one(preset::<Ordering>(4));
    crash_and_restart_peer_one(preset::<Pbft>(5));
    crash_and_restart_peer_one(preset::<Ng>(6));
}

/// Faults act at their scripted instant, not at the last event before it:
/// on the PoW preset, whose events are seconds apart, node 1's crash and
/// restart are traced at exactly 100 s and 160 s, and the catch-up request
/// its restart hook sends leaves at 160 s too.
#[test]
fn crash_and_restart_act_at_their_scripted_instants() {
    let mut runner = preset::<Pow>(77);
    install_tracing(&mut runner, &TraceConfig::full());
    let schedule = FaultSchedule::new()
        .crash_at(at(100), NodeId(1))
        .restart_at(at(160), NodeId(1));
    let mut driver = install_faults(&runner, schedule);
    driver.run_until(&mut runner, at(200));

    let records: Vec<_> = runner.net().node_tracers()[1].records().copied().collect();
    let instants = |event: TraceEvent| -> Vec<u64> {
        records
            .iter()
            .filter(|r| r.event == event)
            .map(|r| r.at_us)
            .collect()
    };
    assert_eq!(instants(TraceEvent::NodeCrashed), vec![100_000_000]);
    assert_eq!(instants(TraceEvent::NodeRestarted), vec![160_000_000]);
    let first_send_after_restart = records
        .iter()
        .find(|r| r.at_us >= 160_000_000 && matches!(r.event, TraceEvent::MsgSent { .. }))
        .map(|r| r.at_us);
    assert_eq!(first_send_after_restart, Some(160_000_000));
}
