//! What the four consensus workloads share: injecting a generated
//! submission stream, driving the engine to a horizon, and reading the
//! outcome off the reference replica — all through the stack's public API.

use crate::spans::Recorder;
use crate::verify::{LedgerEvidence, ReplicaTip};
use dcs_chain::StateMachine;
use dcs_consensus::{wire_size, WireMsg};
use dcs_crypto::{sha256, Hash256};
use dcs_ledger::{collect, install_metrics, install_tracing, LedgerNode, SimResult};
use dcs_metrics::Registry;
use dcs_net::{NetStats, NodeId, Runner};
use dcs_primitives::{Block, SealedTx, Transaction};
use dcs_sim::{SimDuration, SimTime};
use dcs_trace::TraceConfig;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One client submission: handed to `contact` at simulated instant `at_us`.
#[derive(Debug, Clone)]
pub struct Submission {
    pub at_us: u64,
    pub contact: usize,
    pub tx: SealedTx,
}

/// How a repetition is run: engine workers, and whether the program's own
/// collection (metrics registry, full tracing) is switched on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    pub workers: usize,
    pub traced: bool,
}

/// Everything read back from one finished run of a consensus network.
#[derive(Debug)]
pub struct Observed {
    pub submitted: u64,
    /// Submitted transactions on the reference replica's canonical chain
    /// whose receipt is a success.
    pub committed_ok: u64,
    /// Submit→commit latency of those, in simulated seconds.
    pub latencies_s: Vec<f64>,
    pub max_gap_s: f64,
    pub events: u64,
    pub run_wall_s: f64,
    pub net: NetStats,
    pub queue_high_water: usize,
    pub sim: SimResult,
    pub digest: Hash256,
    pub evidence: LedgerEvidence,
    /// Canonical blocks of the reference replica above genesis, oldest
    /// first — the input of the replay probes.
    pub blocks: Vec<Arc<Block>>,
    /// Gas used by successful canonical call transactions (0 elsewhere).
    pub call_gas: u64,
    pub calls: u64,
    pub view_changes: u64,
    /// Mempool outcome totals over replicas, from the metrics registry
    /// (traced runs only).
    pub mempool: Option<MempoolTotals>,
    pub collect_s: f64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolTotals {
    pub admitted: u64,
    pub rejected_full: u64,
    pub rejected_invalid: u64,
    pub duplicate: u64,
}

/// Schedules every submission for delivery at its due instant. Arrivals
/// are an open loop in simulated time, so generator lateness is zero by
/// construction. Returns the submit-time ledger `collect` expects.
fn inject_all<P: LedgerNode>(
    runner: &mut Runner<P>,
    submissions: &[Submission],
) -> HashMap<Hash256, SimTime> {
    let mut submitted = HashMap::with_capacity(submissions.len());
    for s in submissions {
        let at = SimTime::from_micros(s.at_us);
        submitted.insert(s.tx.id(), at);
        let msg = WireMsg::Tx(s.tx.clone());
        let size = wire_size(&msg);
        runner.net_mut().inject(at, NodeId(s.contact), msg, size);
    }
    submitted
}

/// Switches on the program's own collection for a traced run. Must come
/// after any mempool replacement, which would drop the pool's series.
pub fn install_collection<P: LedgerNode>(runner: &mut Runner<P>, mode: Mode) -> Option<Registry> {
    runner.set_shards(mode.workers);
    if !mode.traced {
        return None;
    }
    let registry = Registry::new();
    install_metrics(runner, &registry);
    install_tracing(runner, &TraceConfig::full());
    Some(registry)
}

/// Drives to `horizon` under a `run.drive` span and returns the event count
/// and the wall time of the drive loop alone. A traced run steps one
/// simulated second at a time so each second gets a `run.slice` child —
/// the event schedule is oblivious to where the loop pauses.
fn drive<R>(
    rec: &mut Recorder,
    target: &mut R,
    horizon: SimTime,
    sliced: bool,
    mut step: impl FnMut(&mut R, SimTime) -> u64,
) -> (u64, f64) {
    rec.time("run.drive", "harness", |rec| {
        let mut events = 0;
        if sliced {
            let mut t = 0u64;
            while t < horizon.as_micros() {
                t = (t + 1_000_000).min(horizon.as_micros());
                let (n, _) = rec.time("run.slice", "harness", |_| {
                    let n = step(target, SimTime::from_micros(t));
                    (n, n)
                });
                events += n;
            }
        } else {
            events = step(target, horizon);
        }
        (events, events)
    })
}

/// Where and when a finished run is read back.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The replica whose canonical chain and receipts are read. Replica 0
    /// unless it crashes during the run (a restart discards its receipts).
    pub reference: usize,
    /// The open-loop submission window; set-up phases before it are not
    /// service time.
    pub window_start: SimTime,
    pub window_end: SimTime,
    pub horizon: SimTime,
}

/// The part every consensus workload shares once its network is built:
/// inject (closing the `setup` span), drive to the horizon, read back.
/// Returns the observation and the set-up time in seconds.
#[allow(clippy::too_many_arguments)]
pub fn play<P: LedgerNode>(
    rec: &mut Recorder,
    runner: &mut Runner<P>,
    setup: usize,
    submissions: &[Submission],
    plan: &Plan,
    (mode, registry): (Mode, Option<&Registry>),
    view_changes: impl Fn(&Runner<P>) -> u64,
    step: impl FnMut(&mut Runner<P>, SimTime) -> u64,
) -> (Observed, f64) {
    let count = submissions.len() as u64;
    let (submitted, _) = rec.time("setup.inject", "ledger", |_| {
        (inject_all(runner, submissions), count)
    });
    let setup_s = rec.close(setup, count);
    let (events, run_wall_s) = drive(rec, runner, plan.horizon, mode.traced, step);
    let facts = RunFacts {
        plan,
        submitted: &submitted,
        events,
        run_wall_s,
        view_changes: view_changes(runner),
        registry,
    };
    (observe(rec, runner, &facts), setup_s)
}

/// The time without service, in simulated µs: the longest interval between
/// consecutive canonical block timestamps (genesis is stamped 0) that starts
/// inside the submission `window`. When the last block is older than the
/// last submission, service stopped for good while requests kept arriving,
/// and the outage runs from that block (or the start of the window) to the
/// horizon.
pub fn max_commit_gap_us(
    timestamps: impl IntoIterator<Item = u64>,
    window: (u64, u64),
    last_submit_us: u64,
    horizon_us: u64,
) -> u64 {
    let mut max_gap = 0u64;
    let mut prev = 0u64;
    for ts in timestamps {
        if (window.0..=window.1).contains(&prev) {
            max_gap = max_gap.max(ts.saturating_sub(prev));
        }
        prev = ts;
    }
    if prev < last_submit_us {
        max_gap = max_gap.max(horizon_us.saturating_sub(prev.max(window.0)));
    }
    max_gap
}

fn sum_family(exposition: &str, family: &str, label: Option<&str>) -> u64 {
    exposition
        .lines()
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with('{'))
        .filter(|l| label.is_none_or(|needle| l.contains(needle)))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

fn mempool_totals(registry: &Registry) -> MempoolTotals {
    let text = registry.render();
    let rejected = |reason: &str| {
        sum_family(
            &text,
            "dcs_mempool_rejected_total",
            Some(&format!("reason=\"{reason}\"")),
        )
    };
    MempoolTotals {
        admitted: sum_family(&text, "dcs_mempool_admitted_total", None),
        rejected_full: rejected("full"),
        rejected_invalid: rejected("bad_witness"),
        duplicate: rejected("duplicate"),
    }
}

/// What [`observe`] needs to know about the run it is reading back.
struct RunFacts<'a> {
    plan: &'a Plan,
    submitted: &'a HashMap<Hash256, SimTime>,
    events: u64,
    run_wall_s: f64,
    view_changes: u64,
    registry: Option<&'a Registry>,
}

/// Reads the finished run: the platform's own `collect`, then a walk of the
/// reference replica's canonical chain for per-transaction outcomes.
fn observe<P: LedgerNode>(
    rec: &mut Recorder,
    runner: &mut Runner<P>,
    facts: &RunFacts<'_>,
) -> Observed {
    let horizon_d = SimDuration::from_micros(facts.plan.horizon.as_micros());
    let (sim, collect_s) = rec.time("collect", "ledger", |_| {
        (collect(runner.nodes(), facts.submitted, horizon_d), 1)
    });

    // Receipts of the reference replica, last application of each block.
    let reference = NodeId(facts.plan.reference);
    let receipts: BTreeMap<Hash256, Vec<dcs_primitives::Receipt>> = runner
        .node_mut(reference)
        .core_mut()
        .chain
        .drain_receipts()
        .into_iter()
        .collect();

    let chain = &runner.node(reference).core().chain;
    let mut blocks = Vec::new();
    let mut latencies_s = Vec::new();
    let mut committed_ids = BTreeSet::new();
    let mut duplicate_commits = 0u64;
    let mut failed_receipts = 0u64;
    let mut missing_receipts = 0u64;
    let mut coinbase_total = 0u128;
    let mut oversized_blocks = 0u64;
    let (mut call_gas, mut calls) = (0u64, 0u64);
    let mut timestamps = Vec::new();
    let limit = chain.config().block_tx_limit;
    for hash in chain.canonical().iter().skip(1) {
        let stored = chain.tree().get(hash).expect("canonical block is stored");
        let ts = stored.header().timestamp_us;
        timestamps.push(ts);
        let block = Arc::clone(stored.block());
        if block.txs.len() > limit {
            oversized_blocks += 1;
        }
        let block_receipts = receipts.get(hash);
        if block_receipts.is_none() {
            missing_receipts += 1;
        }
        for (i, (tx, id)) in block.txs.iter().zip(block.tx_ids()).enumerate() {
            let receipt = block_receipts.and_then(|r| r.get(i));
            let ok = receipt.is_some_and(|r| r.status.is_success());
            match tx {
                Transaction::Coinbase { value, .. } => coinbase_total += u128::from(*value),
                _ => {
                    // A transaction sealed a second time (see the README's
                    // findings) is counted, and only its first commit is
                    // judged: the repeat fails its nonce by design.
                    if !committed_ids.insert(*id) {
                        duplicate_commits += 1;
                        continue;
                    }
                    if !ok {
                        failed_receipts += 1;
                    }
                    if let (Transaction::Account(a), Some(r)) = (tx, receipt) {
                        if matches!(a.payload, dcs_primitives::TxPayload::Call(_)) {
                            calls += 1;
                            call_gas += r.gas_used;
                        }
                    }
                    if let (true, Some(&at)) = (ok, facts.submitted.get(id)) {
                        latencies_s
                            .push(SimTime::from_micros(ts).saturating_since(at).as_secs_f64());
                    }
                }
            }
        }
        blocks.push(block);
    }

    let max_gap_us = max_commit_gap_us(
        timestamps,
        (
            facts.plan.window_start.as_micros(),
            facts.plan.window_end.as_micros(),
        ),
        facts
            .submitted
            .values()
            .map(|t| t.as_micros())
            .max()
            .unwrap_or(0),
        facts.plan.horizon.as_micros(),
    );

    let mut digest_bytes = Vec::new();
    let mut tips = Vec::new();
    for node in runner.nodes() {
        let chain = &node.core().chain;
        for hash in chain.canonical() {
            digest_bytes.extend_from_slice(hash.as_bytes());
        }
        let root = chain.machine().state_root();
        digest_bytes.extend_from_slice(root.as_bytes());
        tips.push(ReplicaTip {
            tip: chain.tip_hash(),
            height: chain.height(),
            state_root: root,
        });
    }

    let evidence = LedgerEvidence {
        replicas_agree: sim.replicas_agree,
        tips,
        internal_errors: sim.internal_errors,
        rejected_blocks: sim.rejected_blocks,
        failed_receipts,
        missing_receipts,
        duplicate_commits,
        oversized_blocks,
        coinbase_total,
        supply: None,
        crashes: runner.stats().crashes,
        restarts: runner.stats().restarts,
    };
    Observed {
        submitted: facts.submitted.len() as u64,
        committed_ok: latencies_s.len() as u64,
        latencies_s,
        max_gap_s: max_gap_us as f64 / 1e6,
        events: facts.events,
        run_wall_s: facts.run_wall_s,
        net: runner.stats(),
        queue_high_water: runner.net().queue_high_water(),
        sim,
        digest: sha256(&digest_bytes),
        evidence,
        blocks,
        call_gas,
        calls,
        view_changes: facts.view_changes,
        mempool: facts.registry.map(mempool_totals),
        collect_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_gap_counts_intervals_that_start_inside_the_window() {
        // Blocks at 1, 2, 7, 8 s; window 0.5..6 s; submissions until 5.9 s.
        let ts = [1_000_000, 2_000_000, 7_000_000, 8_000_000];
        let gap = max_commit_gap_us(ts, (500_000, 6_000_000), 5_900_000, 20_000_000);
        assert_eq!(gap, 5_000_000, "2 s -> 7 s starts inside the window");
        // The idle stretch before the window opens is not an outage, nor is
        // the quiet after the last request was served.
        let ts = [100_000, 3_000_000, 3_500_000];
        let gap = max_commit_gap_us(ts, (2_900_000, 6_000_000), 3_400_000, 20_000_000);
        assert_eq!(gap, 500_000);
    }

    #[test]
    fn commit_gap_of_a_chain_that_stops_early_runs_to_the_horizon() {
        // Service stops for good at 6 s (no view change after a crash, say)
        // while requests keep arriving until 20 s; the horizon is 35 s.
        let ts = [1_000_000, 2_000_000, 6_000_000];
        let gap = max_commit_gap_us(ts, (0, 20_000_000), 19_900_000, 35_000_000);
        assert_eq!(gap, 29_000_000);
        // Stopped before the window even opened: the whole of it, and on.
        let gap = max_commit_gap_us([100_000], (2_000_000, 4_000_000), 3_900_000, 10_000_000);
        assert_eq!(gap, 8_000_000);
        // No block at all.
        let gap = max_commit_gap_us([], (0, 4_000_000), 3_900_000, 10_000_000);
        assert_eq!(gap, 10_000_000);
    }

    #[test]
    fn exposition_families_sum_by_label() {
        let text = "# HELP x\n\
                    dcs_mempool_admitted_total{node=\"0\"} 3\n\
                    dcs_mempool_admitted_total{node=\"1\"} 4\n\
                    dcs_mempool_rejected_total{node=\"0\",reason=\"full\"} 10\n\
                    dcs_mempool_rejected_total{node=\"0\",reason=\"duplicate\"} 2\n\
                    dcs_mempool_rejected_total_other{node=\"0\"} 99\n";
        assert_eq!(sum_family(text, "dcs_mempool_admitted_total", None), 7);
        assert_eq!(
            sum_family(text, "dcs_mempool_rejected_total", Some("reason=\"full\"")),
            10
        );
        assert_eq!(sum_family(text, "dcs_mempool_rejected_total", None), 12);
    }
}
