//! Per-peer live series are a fold of the events each peer reports. At the
//! end of a seeded run, every series must equal the state it mirrors: the
//! chain's height and counters, the pool's depth, the PBFT replica's view
//! changes, and the admissions and finality the peer's own trace recorded.

use dcs_chain::NullMachine;
use dcs_faults::FaultSchedule;
use dcs_ledger::builders::{Pbft, Pow};
use dcs_ledger::{
    build, install_faults, install_metrics, install_tracing, workload::Workload, LedgerNode,
    NetworkParams,
};
use dcs_metrics::Registry;
use dcs_net::{NodeId, Runner};
use dcs_primitives::ConsensusKind;
use dcs_sim::{SimDuration, SimTime};
use dcs_trace::{TraceConfig, TraceEvent};

fn at(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// The value of one rendered series.
fn series(text: &str, family: &str, labels: &str) -> u64 {
    let prefix = format!("{family}{{{labels}}} ");
    let value = text
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("no series {prefix}"));
    value.parse().expect("integer series")
}

/// Checks every peer's chain and mempool series against the state they
/// mirror and returns the rendered registry.
fn check_peers<P: LedgerNode>(runner: &Runner<P>, registry: &Registry) -> String {
    let text = registry.render();
    for (i, node) in runner.nodes().iter().enumerate() {
        let core = node.core();
        let tracer = core.tracer();
        assert_eq!(tracer.counters().map(|c| c.evicted), Some(0), "peer {i}");
        let admitted = tracer
            .records()
            .filter(|r| matches!(r.event, TraceEvent::TxAdmitted { .. }))
            .count() as u64;
        let finalized = tracer
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::Finalized { height } => Some(height),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(finalized >= core.chain.finalized_height(), "peer {i}");
        let stats = core.chain.stats();
        let node = format!("node=\"{i}\"");
        let expect = [
            ("dcs_chain_height", node.clone(), core.chain.height()),
            ("dcs_chain_finalized_height", node.clone(), finalized),
            ("dcs_mempool_depth", node.clone(), core.mempool.len() as u64),
            (
                "dcs_chain_imports_total",
                format!("{node},outcome=\"reorg\""),
                stats.reorgs,
            ),
            (
                "dcs_chain_blocks_reverted_total",
                node.clone(),
                stats.blocks_reverted,
            ),
            ("dcs_mempool_admitted_total", node.clone(), admitted),
        ];
        for (family, labels, value) in expect {
            assert_eq!(
                series(&text, family, &labels),
                value,
                "{family}{{{labels}}}"
            );
        }
    }
    text
}

#[test]
fn pow_series_track_reorgs_and_a_restart() {
    // ~1 s blocks against gossip latency: contention, so peers reorg.
    let mut params = NetworkParams::<Pow> {
        nodes: 8,
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 8 * 1_000,
        retarget_window: 0,
        target_interval_us: 1_000_000,
    };
    let mut runner = build(&params, 7, |_| NullMachine);
    let registry = Registry::new();
    install_metrics(&mut runner, &registry);
    install_tracing(&mut runner, &TraceConfig::full());
    Workload::transfers(2.0, SimDuration::from_secs(100), 30).inject(runner.net_mut(), 99);
    let schedule = FaultSchedule::new()
        .crash_at(at(30), NodeId(3))
        .restart_at(at(60), NodeId(3));
    install_faults(&runner, schedule).run_until(&mut runner, at(150));

    let text = check_peers(&runner, &registry);
    let reverted: u64 = runner
        .nodes()
        .iter()
        .map(|n| n.core().chain.stats().blocks_reverted)
        .sum();
    assert!(reverted > 0, "the run must revert blocks in a reorg");
    assert!(
        runner.nodes()[3].core().catchup_rounds > 0,
        "the restarted peer must catch up"
    );
    assert!(!text.contains("dcs_pbft_"), "PBFT series on PoW peers");
}

#[test]
fn pbft_series_track_a_view_change_after_the_primary_crashes() {
    let params = NetworkParams::<Pbft> {
        nodes: 4,
        ..Default::default()
    };
    let mut runner = build(&params, 77, |_| NullMachine);
    let registry = Registry::new();
    install_metrics(&mut runner, &registry);
    install_tracing(&mut runner, &TraceConfig::full());
    Workload::transfers(20.0, SimDuration::from_secs(55), 50).inject(runner.net_mut(), 770);
    let schedule = FaultSchedule::new()
        .crash_at(at(10), NodeId(0))
        .restart_at(at(30), NodeId(0));
    install_faults(&runner, schedule).run_until(&mut runner, at(60));

    let text = check_peers(&runner, &registry);
    for (i, node) in runner.nodes().iter().enumerate() {
        assert_eq!(
            series(
                &text,
                "dcs_pbft_view_changes_total",
                &format!("node=\"{i}\"")
            ),
            node.view_changes,
            "peer {i}"
        );
    }
    assert!(
        runner.nodes()[1].view_changes > 0,
        "the primary's crash must force a view change"
    );
}
