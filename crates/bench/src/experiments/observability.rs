//! Observability experiment: E17 (commit-latency breakdown from lifecycle
//! spans, block propagation CDF, gossip hop counts, Perfetto export).

use crate::table::Table;
use crate::Scale;
use dcs_chain::NullMachine;
use dcs_ledger::builders::Pow;
use dcs_ledger::{build, collect_traces, install_tracing, workload::Workload, NetworkParams};
use dcs_primitives::ConsensusKind;
use dcs_sim::{SimDuration, SimTime, Summary};
use dcs_trace::{export, Timelines, TraceConfig};
use std::path::Path;

fn summarize(samples: &[u64]) -> Summary {
    let mut s = Summary::new();
    for v in samples {
        s.record(*v as f64 / 1_000.0); // µs → ms
    }
    s
}

fn stage_row(name: &str, mut s: Summary) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{}", s.count()),
        format!("{:.1}", s.mean()),
        format!("{:.1}", s.median()),
        format!("{:.1}", s.percentile(95.0)),
        format!("{:.1}", s.max()),
    ]
}

/// E17: every commit-latency number the suite reports decomposes into
/// traced lifecycle stages, and the raw trace exports to Perfetto.
pub fn e17_latency_breakdown(scale: Scale) {
    println!("\nE17 — dcs-trace: commit-latency breakdown from lifecycle spans");
    println!("Dependability needs explainable latency: the end-to-end commit time of §2.7");
    println!("decomposes into submit→admit (gossip+admission), admit→included (mempool");
    println!("wait), and included→committed (confirmation build-up), measured on one");
    println!("reference peer so the stages share a clock and sum to the total.\n");

    let mut params = NetworkParams::<Pow> {
        nodes: scale.pick(8usize, 16),
        ..Default::default()
    };
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: params.nodes as u64 * 1_000 * 5, // ~5 s blocks
        retarget_window: 16,
        target_interval_us: 5_000_000,
    };
    let horizon = scale.pick(200u64, 1_200);
    let mut runner = build(&params, 17, |_| NullMachine);
    // The default 64 Ki ring is sized for always-on tracing; a full-scale
    // analysis run wants the complete stream, so size the buffers to the
    // run (the net tracer alone carries every gossip send).
    let cfg = TraceConfig::full().with_buffer_cap(scale.pick(1 << 16, 1 << 20));
    install_tracing(&mut runner, &cfg);
    let submitted = Workload::transfers(2.0, SimDuration::from_secs(horizon - 50), 30)
        .inject(runner.net_mut(), 99);
    runner.run_until(SimTime::ZERO + SimDuration::from_secs(horizon));

    let mut traces = collect_traces(&runner);
    let timelines = Timelines::build(traces.records(), 0);
    let stages = timelines.stage_samples();

    let mut table = Table::new(&["stage", "txs", "mean ms", "p50 ms", "p95 ms", "max ms"]);
    table.row(stage_row(
        "submit → admitted",
        summarize(&stages.propagation_us),
    ));
    table.row(stage_row(
        "admitted → included",
        summarize(&stages.mempool_wait_us),
    ));
    table.row(stage_row(
        "included → committed",
        summarize(&stages.confirmation_us),
    ));
    table.row(stage_row(
        "total commit",
        summarize(&stages.total_commit_us),
    ));
    println!("{table}");
    println!(
        "{} txs submitted, {} tx spans stitched, {} block spans, counters: {} recorded.",
        submitted.len(),
        timelines.txs.len(),
        timelines.blocks.len(),
        traces.counters().recorded,
    );

    // Block propagation CDF across peers: per-peer summaries merged into
    // one — the cross-collector merge the metrics layer exists for.
    let mut merged = Summary::new();
    for node in 0..params.nodes as u32 {
        let mut per_peer = Summary::new();
        for span in timelines.blocks.values() {
            if let (Some(p), Some(at)) = (span.proposed_us, span.first_seen.get(&node)) {
                per_peer.record(at.saturating_sub(p) as f64 / 1_000.0);
            }
        }
        merged.merge(&per_peer);
    }
    let mut cdf = Table::new(&["propagation percentile", "delay ms"]);
    for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        cdf.row(vec![
            label.to_string(),
            format!("{:.1}", merged.percentile(p)),
        ]);
    }
    println!("{cdf}");

    let hops = timelines.hop_histogram();
    let mut hop_table = Table::new(&["gossip hop", "sightings"]);
    for (h, n) in hops.iter().enumerate() {
        hop_table.row(vec![format!("{h}"), format!("{n}")]);
    }
    println!("{hop_table}");

    // Export: the raw stream as JSONL and the span model as a Chrome
    // trace_event file loadable in Perfetto (one track per node, one async
    // slice per tx/block lifecycle).
    let out_dir = Path::new("target/e17");
    match std::fs::create_dir_all(out_dir)
        .and_then(|()| {
            std::fs::write(
                out_dir.join("trace.jsonl"),
                export::to_jsonl(traces.records()),
            )
        })
        .and_then(|()| {
            std::fs::write(
                out_dir.join("trace.json"),
                export::to_chrome_trace(traces.records(), &timelines),
            )
        }) {
        Ok(()) => println!(
            "Wrote {} records to target/e17/trace.jsonl and target/e17/trace.json (Perfetto).",
            traces.records().len()
        ),
        Err(e) => println!("Export skipped (write failed: {e})."),
    }
    println!("Expected shape: admission is gossip-fast (ms), mempool wait is a fraction");
    println!("of the block interval, and confirmation dominates at depth × interval.");
}
