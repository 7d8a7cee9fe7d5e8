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
  --tps F            client transactions/sim-s (default 5)
  --shards N         engine shard workers      (default 0; 0 or 1 = serial)
  --sim-secs N       simulated workload length (default 600)
  --tick-ms N        wall ms per live tick     (default 100)
  --warp N           sim-time multiplier       (default 10)
  --max-ticks N      stop after N ticks        (default 0 = run forever)

endpoints: /metrics /status /tx/<id> /analytics /recent";

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
    Ok(params)
}

fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("invalid value for `{flag}`: {raw}"))
}
