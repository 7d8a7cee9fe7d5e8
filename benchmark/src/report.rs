//! The run loops — measured (tracing off) and traced — and the report each
//! prints: named metrics with units for a reader, then the one JSON line the
//! driver parses.

use crate::ledger::Mode;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::{self, Recorder};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::workloads::{self, RepCtx, RepResult};
use crate::{gen::SplitMix64, rss, verify};
use dcs_crypto::sha256;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The distinct repetitions of a run. Repetition `i` replays repetition
/// `i % 3` — same inputs, same modelled environment, bit for bit — so a run
/// is three frozen simulations, each timed as often as fits in `--seconds`.
/// The seed-determined metrics come from the three; each one's wall time is
/// the median over its replays. Timing every replay of one simulation
/// matters: on the PoW workloads the three environments differ by up to 2x
/// in committed-per-second, and a median over "however many repetitions
/// fitted" would move with the count.
pub const FIXED_REPS: usize = 3;

/// The input seed of simulation `rep` of a run started with `--seed seed`.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    SplitMix64::stream(seed, 0x5EED_0000 + rep as u64).next_u64()
}

#[derive(Debug, Clone, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    pub digest: String,
    /// Lines for the reader, printed above the JSON.
    pub notes: Vec<String>,
}

/// Reports the violations and exits non-zero without a result line: a
/// wrong answer is not a measurement.
fn fail(name: &str, violations: Vec<String>) -> ! {
    for v in &violations {
        eprintln!("dcsbench: {name}: correctness check failed: {v}");
    }
    std::process::exit(verify::exit_code(&Err(violations)));
}

fn checked(name: &str, rep: RepResult) -> RepResult {
    if let Err(violations) = rep.verdict {
        fail(name, violations);
    }
    rep
}

/// The measured run: repetitions of (set-up, drive, collect, verify) with
/// tracing and metrics off, at the workload's engine worker count, until
/// `seconds` of wall time have passed (and at least [`FIXED_REPS`] + 1, so
/// simulation 0 has a warm replay).
pub fn measured(name: &str, seed: u64, seconds: f64, scale: f64) -> Report {
    let started = Instant::now();
    let workers = workloads::ENGINE_WORKERS;
    let mode = Mode {
        workers,
        traced: false,
    };
    let mut reps: Vec<RepResult> = Vec::new();
    while reps.len() <= FIXED_REPS || started.elapsed().as_secs_f64() < seconds {
        let class = reps.len() % FIXED_REPS;
        let ctx = RepCtx {
            seed: rep_seed(seed, class),
            rep: class,
            scale,
            mode,
            keep_replay: false,
        };
        let mut rec = Recorder::default();
        let rep = checked(name, workloads::run(name, &mut rec, &ctx));
        if let Some(first) = reps.get(class) {
            if first.digest != rep.digest {
                fail(
                    name,
                    vec![format!(
                        "repetition {} replayed repetition {class} and ended on another digest: the run is not a function of its seed",
                        reps.len()
                    )],
                );
            }
        }
        reps.push(rep);
    }
    let fixed = &reps[..FIXED_REPS];
    let latencies: Vec<f64> = fixed
        .iter()
        .flat_map(|r| r.latencies_s.iter().copied())
        .collect();
    let tail = highest_supported_percentile(latencies.len()).unwrap_or(0.0);
    if tail < 99.0 {
        fail(
            name,
            vec![format!(
                "{} latency samples support no percentile above p{tail}; p99 needs 1000",
                latencies.len()
            )],
        );
    }
    let attempted: u64 = fixed.iter().map(|r| r.attempted).sum();
    let failed: u64 = fixed.iter().map(|r| r.failed).sum();
    let committed: u64 = fixed.iter().map(|r| r.committed).sum();
    let wire: u64 = fixed.iter().map(|r| r.wire_bytes).sum();
    let gaps: Vec<f64> = fixed.iter().map(|r| r.max_gap_s).collect();
    // The three simulations once each, every one at its median wall time.
    // The process's first repetition is warm-up: on a cold heap (first-touch
    // page faults, allocator growth) it drives 7-22 % slower than its own
    // replays. It supplies simulation 0's results like any other, but not a
    // wall time.
    let class_walls: Vec<f64> = (0..FIXED_REPS)
        .map(|c| {
            let walls: Vec<f64> = reps
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(i, _)| i % FIXED_REPS == c)
                .map(|(_, r)| r.run_wall_s)
                .collect();
            median(&walls)
        })
        .collect();
    let run_wall_s: f64 = class_walls.iter().sum();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let Some(peak_rss_mb) = rss::peak_rss_mb() else {
        eprintln!("dcsbench: {name}: /proc/self/status has no readable VmHWM; peak_rss_mb cannot be measured here");
        std::process::exit(1);
    };

    let mut metrics = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        metrics.insert(k.to_string(), v);
    };
    put("committed_tx_per_s", committed as f64 / run_wall_s);
    put("commit_latency_sim_p50_s", median(&latencies));
    put("commit_latency_sim_p99_s", percentile(&latencies, 99.0));
    put("max_commit_gap_sim_s", median(&gaps));
    put("committed_share", 1.0 - failed as f64 / attempted as f64);
    put(
        "wire_bytes_per_committed_tx",
        wire as f64 / committed.max(1) as f64,
    );
    put("peak_rss_mb", peak_rss_mb);
    put("setup_s", median(&setups));

    let digest = sha256(
        &fixed
            .iter()
            .flat_map(|r| r.digest.as_bytes().to_vec())
            .collect::<Vec<u8>>(),
    );
    let per_rep: Vec<String> = reps
        .iter()
        .map(|r| format!("{:.3}", r.run_wall_s))
        .collect();
    let notes = vec![
        format!(
            "repetitions={} (three simulations, replayed in turn), scale={scale}, engine_workers={workers}, verify_threads={}",
            reps.len(),
            workloads::VERIFY_THREADS
        ),
        format!("run_wall_s per repetition: {}", per_rep.join(" ")),
        format!(
            "committed {committed} over {run_wall_s:.3} s (the three at their median wall times, the first repetition left out as warm-up); latency samples n={} (p99 leaves {} beyond it); measured for {:.1} s",
            latencies.len(),
            latencies.len() / 100,
            started.elapsed().as_secs_f64()
        ),
    ];
    Report {
        correct: true,
        attempted,
        failed,
        metrics,
        digest: digest.to_hex(),
        notes,
    }
}

/// The traced run: the first repetition once untraced and once with the
/// metrics registry and full tracing installed, at the measured run's one worker
/// (where self times add up), once more untraced on the sharded engine, then
/// the replay probes over exactly what the run committed. Neither collection
/// nor the worker count may perturb the run: the three digests are compared.
pub fn traced(name: &str, seed: u64, scale: f64) -> Report {
    let ctx = RepCtx {
        seed: rep_seed(seed, 0),
        rep: 0,
        scale,
        mode: Mode {
            workers: workloads::ENGINE_WORKERS,
            traced: false,
        },
        keep_replay: true,
    };
    let mut rec = Recorder::default();
    let plain = checked(name, workloads::run(name, &mut rec, &ctx));
    // The plain run's spans are not part of the trace.
    let mut rec = Recorder::default();
    let traced_ctx = RepCtx {
        mode: Mode {
            workers: workloads::ENGINE_WORKERS,
            traced: true,
        },
        keep_replay: false,
        ..ctx
    };
    let traced = checked(name, workloads::run(name, &mut rec, &traced_ctx));
    if traced.digest != plain.digest {
        fail(
            name,
            vec![format!(
                "collection perturbed the run: traced digest {} != untraced {}",
                traced.digest.to_hex(),
                plain.digest.to_hex()
            )],
        );
    }

    // The sharded engine, which the measured run does not use (see
    // `ENGINE_WORKERS`): the same repetition at two workers must end on the
    // same digest, and its drive time is reported beside the serial one.
    let sharded_ctx = RepCtx {
        mode: Mode {
            workers: workloads::SHARDED_WORKERS,
            traced: false,
        },
        keep_replay: false,
        ..ctx
    };
    let sharded = checked(
        name,
        workloads::run(name, &mut Recorder::default(), &sharded_ctx),
    );
    if sharded.digest != plain.digest {
        fail(
            name,
            vec![format!(
                "the run depends on the engine's worker count: digest {} at {} workers != {} at {}",
                sharded.digest.to_hex(),
                workloads::SHARDED_WORKERS,
                plain.digest.to_hex(),
                workloads::ENGINE_WORKERS
            )],
        );
    }

    let mut values: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    // Counts: the traced run's (it alone has the registry), falling back to
    // the plain run's for anything only that one kept.
    for (k, v) in plain.counts.iter().chain(traced.counts.iter()) {
        values.insert(k, *v);
    }
    let per = |total: (f64, u64)| {
        if total.1 == 0 {
            0.0
        } else {
            total.0 * 1e6 / total.1 as f64
        }
    };
    values.insert("crypto.keygen_us_per_leaf", per(rec.total("setup.keygen")));
    values.insert("crypto.sign_us_per_sig", per(rec.total("setup.sign")));
    values.insert("ledger.inject_us_per_tx", per(rec.total("setup.inject")));
    if let Some(replay) = &plain.replay {
        probes::run(&mut rec, replay, plain.run_wall_s, &mut values);
    }
    let layers: f64 = [
        "crypto",
        "consensus",
        "chain",
        "state",
        "contracts",
        "net",
        "sim",
    ]
    .iter()
    .map(|l| values[format!("{l}.wall_share").as_str()])
    .sum();
    values.insert("unattributed.wall_share", 1.0 - layers);
    values.insert(
        "trace.overhead_share",
        (traced.run_wall_s - plain.run_wall_s) / plain.run_wall_s,
    );
    values.insert("run.traced_wall_s", traced.run_wall_s);
    values.insert("run.untraced_wall_s", plain.run_wall_s);
    values.insert("run.two_worker_wall_s", sharded.run_wall_s);
    let slowest = rec
        .spans()
        .iter()
        .filter(|s| s.name == "run.slice")
        .map(|s| s.duration_us())
        .max()
        .unwrap_or(0);
    values.insert("run.slowest_slice_s", slowest as f64 / 1e6);
    values.insert("trace.spans", rec.spans().len() as f64);

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("trace_{name}.json"));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(name, rec.spans())));
    let mut notes = vec![format!(
        "traced run; its run_digest equals the untraced run's and the {}-worker run's; scale={scale}",
        workloads::SHARDED_WORKERS
    )];
    match written {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        )),
        Err(e) => {
            eprintln!("dcsbench: {name}: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    Report {
        correct: true,
        attempted: plain.attempted,
        failed: plain.failed,
        metrics: values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        digest: plain.digest.to_hex(),
        notes,
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

impl Report {
    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, every value with all its digits.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads a child's standard output back (what `selfcheck` compares):
    /// the result line plus the digest, which does not travel in the JSON.
    pub fn from_output(stdout: &str) -> Result<Report, String> {
        let line = stdout
            .lines()
            .last()
            .ok_or("the workload printed nothing")?;
        let mut report = Report::from_json(line)?;
        report.digest = stdout
            .split("run_digest=")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or("no run_digest in the output")?
            .to_string();
        Ok(report)
    }

    fn from_json(line: &str) -> Result<Report, String> {
        let field = |key: &str| -> Result<&str, String> {
            let at = line
                .find(&format!("\"{key}\": "))
                .ok_or(format!("no {key} in result line"))?;
            let rest = &line[at + key.len() + 4..];
            Ok(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
        };
        let mut report = Report {
            correct: field("correct")? == "true",
            attempted: field("attempted")?
                .parse()
                .map_err(|e| format!("attempted: {e}"))?,
            failed: field("failed")?
                .parse()
                .map_err(|e| format!("failed: {e}"))?,
            ..Report::default()
        };
        let body = &line[line
            .find("\"metrics\": {")
            .ok_or("no metrics in result line")?
            + 12..];
        for entry in body.split("}, ") {
            let mut quotes = entry.split('"');
            let (Some(_), Some(name)) = (quotes.next(), quotes.next()) else {
                continue;
            };
            let Some(at) = entry.find("\"value\": ") else {
                continue;
            };
            let rest = &entry[at + 9..];
            let value: f64 = rest[..rest.find(',').unwrap_or(rest.len())]
                .trim()
                .parse()
                .map_err(|e| format!("{name}: {e}"))?;
            report.metrics.insert(name.to_string(), value);
        }
        Ok(report)
    }

    pub fn print(&self, name: &str, seed: u64, host_cpus: usize) {
        println!("workload={name} seed={seed} host_cpus={host_cpus}");
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "  ops_attempted={} ops_failed={} run_digest={}",
            self.attempted, self.failed, self.digest
        );
        for (metric, value) in &self.metrics {
            let moves = PER_LAYER
                .iter()
                .find(|m| m.name == metric)
                .map_or(String::new(), |m| {
                    format!("  should move {} on {}", m.moves, m.on)
                });
            println!("  {metric:42} {value:>16.6} {:6}{moves}", unit_of(metric));
        }
        println!("{}", self.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips_with_every_digit() {
        let mut r = Report {
            correct: true,
            attempted: 1_000,
            failed: 0,
            ..Report::default()
        };
        r.metrics
            .insert("committed_tx_per_s".into(), 1_234.567_891_234_5);
        r.metrics.insert("setup_s".into(), 0.812_7);
        r.metrics.insert("committed_share".into(), 1.0);
        let line = r.to_json();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(
            line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"),
            "{line}"
        );
        let stdout =
            format!("workload=x\n  ops_attempted=1000 ops_failed=0 run_digest=abc123\n{line}\n");
        let back = Report::from_output(&stdout).unwrap();
        assert_eq!(
            (back.correct, back.attempted, back.failed),
            (true, 1_000, 0)
        );
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.digest, "abc123");
    }

    #[test]
    fn repetition_seeds_differ_and_repeat() {
        assert_eq!(rep_seed(5, 0), rep_seed(5, 0));
        assert_ne!(rep_seed(5, 0), rep_seed(5, 1));
        assert_ne!(rep_seed(5, 0), rep_seed(6, 0));
    }
}
