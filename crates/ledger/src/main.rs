//! `dcs-ledger` — the platform's command-line entry point.
//!
//! Currently one subcommand: `serve`, which runs a live simulated ledger
//! network and exposes its operations surface over HTTP (`/metrics`,
//! `/status`, `/tx/<id>`, `/analytics`, `/recent`; see DESIGN.md §16).

use dcs_ledger::ServeParams;
use std::process::ExitCode;

const USAGE: &str = "\
usage: dcs-ledger serve [options]

Runs a live simulated PoW ledger network and serves its operations
surface over HTTP until killed.

options:
  --addr HOST:PORT   listen address            (default 127.0.0.1:9090)
  --seed N           run seed                  (default 42)
  --nodes N          peer count                (default 8)
  --tps F            client transactions/sim-s (default 5; finite, > 0)
  --shards N         engine shard workers      (default 0; 0 or 1 = serial)
  --sim-secs N       simulated workload length (default 600)
  --tick-ms N        wall ms per live tick     (default 100)
  --warp N           sim-time multiplier       (default 10)
  --max-ticks N      stop after N ticks        (default 0 = run forever)

--tps × --sim-secs may not exceed 1000000 submissions: every one is built
before the first tick.

endpoints: /metrics /status /tx/<id> /analytics /recent";

/// The most client submissions a run may ask for: the workload builds
/// every transaction up front, so this bounds memory before the first tick.
const MAX_SUBMISSIONS: f64 = 1_000_000.0;

/// Simulated seconds `run_live` keeps going after the workload ends, so the
/// last submissions can commit; the two must stay equal.
const DRAIN_SECS: u64 = 120;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("dcs-ledger: unknown command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &[String]) -> ExitCode {
    let params = match parse_serve_args(args) {
        Ok(p) => p,
        Err(message) => {
            eprintln!("dcs-ledger serve: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = dcs_ledger::run_live(&params, |addr| {
        eprintln!("dcs-ledger serve: listening on http://{addr} (endpoints: /metrics /status /tx/<id> /analytics /recent)");
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcs-ledger serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_serve_args(args: &[String]) -> Result<ServeParams, String> {
    let mut params = ServeParams::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--addr" => params.addr = value()?.clone(),
            "--seed" => params.seed = parse(flag, value()?)?,
            "--nodes" => params.nodes = parse(flag, value()?)?,
            "--tps" => params.tps = parse(flag, value()?)?,
            "--shards" => params.shards = parse(flag, value()?)?,
            "--sim-secs" => params.sim_secs = parse(flag, value()?)?,
            "--tick-ms" => params.tick_ms = parse(flag, value()?)?,
            "--warp" => params.warp = parse(flag, value()?)?,
            "--max-ticks" => params.max_ticks = parse(flag, value()?)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if params.nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }
    if params.tick_ms == 0 {
        return Err("--tick-ms must be positive".to_string());
    }
    if !(params.tps.is_finite() && params.tps > 0.0) {
        return Err("--tps must be a finite positive rate".to_string());
    }
    let horizon_secs = params.sim_secs.checked_add(DRAIN_SECS);
    if horizon_secs
        .and_then(|secs| secs.checked_mul(1_000_000))
        .is_none()
    {
        return Err(format!(
            "--sim-secs plus the {DRAIN_SECS} s drain overflows simulated time"
        ));
    }
    if params.tps * params.sim_secs as f64 > MAX_SUBMISSIONS {
        return Err(format!(
            "--tps × --sim-secs asks for more than {MAX_SUBMISSIONS} submissions"
        ));
    }
    Ok(params)
}

fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("invalid value for `{flag}`: {raw}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<ServeParams, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_serve_args(&args)
    }

    #[test]
    fn defaults_and_the_ci_smoke_arguments_parse() {
        assert!(parsed(&[]).is_ok());
        let smoke = [
            "--nodes",
            "4",
            "--tps",
            "10",
            "--sim-secs",
            "60",
            "--tick-ms",
            "20",
        ];
        assert!(parsed(&smoke).is_ok());
    }

    #[test]
    fn a_rate_that_is_not_finite_and_positive_is_refused() {
        for tps in ["inf", "-inf", "NaN", "0", "-5"] {
            let err = parsed(&["--tps", tps]).unwrap_err();
            assert!(err.contains("--tps"), "{tps}: {err}");
        }
    }

    #[test]
    fn a_horizon_past_simulated_time_is_refused() {
        let err = parsed(&["--sim-secs", "20000000000000"]).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        // The largest length that still fits, drain included (at a rate low
        // enough to stay under the submission cap).
        let fits = (u64::MAX / 1_000_000 - DRAIN_SECS).to_string();
        assert!(parsed(&["--sim-secs", &fits, "--tps", "1e-12"]).is_ok());
        let past = (u64::MAX / 1_000_000 - DRAIN_SECS + 1).to_string();
        assert!(parsed(&["--sim-secs", &past, "--tps", "1e-12"]).is_err());
    }

    #[test]
    fn more_submissions_than_the_cap_are_refused() {
        let err = parsed(&["--tps", "1e9"]).unwrap_err();
        assert!(err.contains("submissions"), "{err}");
        assert!(parsed(&["--tps", "1000", "--sim-secs", "1000"]).is_ok());
        assert!(parsed(&["--tps", "1000", "--sim-secs", "1001"]).is_err());
    }
}
