//! `dcsbench` — the repository's benchmark: five named workloads, eight
//! end-to-end metrics and an outside-in layer trace. See `README.md`.
//!
//! ```text
//! dcsbench run --workload W --seed S --seconds N --trace 0|1 [--scale F]
//! dcsbench run [--seed S] [--seconds N] [--traced]     every workload, one child process each
//! dcsbench selfcheck [--seconds N]                     two sets compared against the bounds
//! dcsbench manifest                                    print BENCHMARK.json from the tables
//! ```

mod gen;
mod ledger;
mod manifest;
mod metrics;
mod probes;
mod report;
mod rss;
mod spans;
mod stats;
mod verify;
mod workloads;

use report::Report;
use std::process::ExitCode;

/// The seed `run` uses when none is given, and the held-out seed `selfcheck`
/// runs once: no number in the README was tuned while looking at it.
pub const DEFAULT_SEED: u64 = 20_180_702;
pub const HELD_OUT_SEED: u64 = 977;
/// Multiplies every workload's frozen repetition size (see `workloads.rs`).
pub const DEFAULT_SCALE: f64 = 1.0;
/// Measured seconds of one run — `run_seconds` in `BENCHMARK.json` and the
/// default of `--seconds`: repetitions fill this much wall time.
pub const RUN_SECONDS: u32 = 20;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced_too: bool,
    scale: f64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        traced_too: false,
        scale: DEFAULT_SCALE,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w}; known: {}",
                        workloads::NAMES.join(", ")
                    ));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--scale" => {
                out.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?;
                if !(out.scale > 0.0 && out.scale <= 4.0) {
                    return Err("--scale must lie in (0, 4]".into());
                }
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => out.traced_too = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// One workload in this process: the contract's entry point.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let cpus = host_cpus();
    if args.trace && cpus < workloads::SHARDED_WORKERS {
        eprintln!(
            "dcsbench: warning: host_cpus={cpus}: the {}-worker drive shares a core, run.two_worker_wall_s says nothing about the sharded engine here",
            workloads::SHARDED_WORKERS
        );
    }
    let report = if args.trace {
        report::traced(name, args.seed, args.scale)
    } else {
        report::measured(name, args.seed, args.seconds, args.scale)
    };
    report.print(name, args.seed, cpus);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process, so its `VmHWM` is its own, with
/// output passed through. Returns what the child printed.
fn child(name: &str, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("workload {name} failed ({})", out.status));
    }
    Ok(stdout)
}

/// One measured (untraced) child run, read back.
fn measure(name: &str, args: &Args) -> Result<Report, String> {
    child(name, args, false).and_then(|out| Report::from_output(&out))
}

fn run_all(args: &Args) -> ExitCode {
    let mut failed = false;
    for name in workloads::NAMES {
        let traces: &[bool] = if args.traced_too {
            &[false, true]
        } else {
            &[false]
        };
        for &trace in traces {
            if let Err(e) = child(name, args, trace) {
                eprintln!("dcsbench: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Two full sets back to back plus the held-out seed once: wall and memory
/// metrics must agree within their bounds, seed-determined metrics and the
/// run digest exactly.
fn selfcheck(args: &Args) -> ExitCode {
    let mut problems = Vec::new();
    println!(
        "selfcheck: two sets at seed {}, then held-out seed {HELD_OUT_SEED}",
        args.seed
    );
    let mut sets: Vec<Vec<Report>> = Vec::new();
    for set in 0..2 {
        println!("--- set {} ---", set + 1);
        let mut reports = Vec::new();
        for name in workloads::NAMES {
            match measure(name, args) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    eprintln!("dcsbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(reports);
    }
    println!("--- comparison (set 1 vs set 2) ---");
    for (i, name) in workloads::NAMES.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        if a.digest != b.digest {
            problems.push(format!(
                "{name}: run_digest differs ({} vs {})",
                a.digest, b.digest
            ));
        }
        for m in metrics::END_TO_END {
            let (x, y) = (a.metrics[m.name], b.metrics[m.name]);
            let diff = if x == 0.0 {
                0.0
            } else {
                (y - x).abs() / x.abs()
            };
            let verdict = if m.seed_determined {
                if x.to_bits() == y.to_bits() {
                    "identical"
                } else {
                    "DIFFERS"
                }
            } else if diff <= m.bound {
                "within bound"
            } else {
                "OUTSIDE BOUND"
            };
            println!(
                "{name:16} {:30} {x:>14.6} {y:>14.6} {:>8} diff {:6.3}% bound {:5.1}%  {verdict}",
                m.name,
                m.unit,
                diff * 100.0,
                m.bound * 100.0
            );
            if verdict == "DIFFERS" || verdict == "OUTSIDE BOUND" {
                problems.push(format!("{name}: {} {verdict} ({x} vs {y})", m.name));
            }
        }
    }
    println!("--- held-out seed {HELD_OUT_SEED} ---");
    let held_out = Args {
        seed: HELD_OUT_SEED,
        ..args.clone()
    };
    for name in workloads::NAMES {
        if let Err(e) = child(name, &held_out, false) {
            problems.push(format!("held-out seed: {e}"));
        }
    }
    if problems.is_empty() {
        println!("selfcheck: PASS");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("selfcheck: FAIL: {p}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: dcsbench run|selfcheck|manifest [options]; see benchmark/README.md");
        return ExitCode::from(2);
    };
    if cmd == "manifest" {
        print!("{}", manifest::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dcsbench: {e}");
            return ExitCode::from(2);
        }
    };
    match (cmd.as_str(), &args.workload) {
        ("run", Some(name)) => run_one(name, &args),
        ("run", None) => run_all(&args),
        ("selfcheck", _) => selfcheck(&args),
        _ => {
            eprintln!("dcsbench: unknown command {cmd}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse(&argv(
            "--workload pbft_failover --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("pbft_failover"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert_eq!(a.scale, DEFAULT_SCALE);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--scale -1",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
