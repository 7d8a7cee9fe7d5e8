//! CLI entry point for `dcs-lint`.
//!
//! ```text
//! cargo run -p dcs-lint -- --workspace            # lint the whole tree
//! cargo run -p dcs-lint -- --workspace --stale-suppressions
//! cargo run -p dcs-lint -- --workspace --format json > lint.sarif
//! cargo run -p dcs-lint -- --list-rules           # print the catalogue
//! cargo run -p dcs-lint -- --file F --as REL      # lint one file as if at REL
//! ```
//!
//! Exit codes: 0 clean, 1 findings (or stale suppressions when the gate is
//! on), 2 usage or I/O error.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use dcs_lint::{
    allow::Allowlist, check_source, check_workspace_report, find_workspace_root, load_allowlist,
    rules, sarif,
};

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dcs-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = env::args().skip(1);
    let mut workspace = false;
    let mut list_rules = false;
    let mut stale_gate = false;
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut file: Option<PathBuf> = None;
    let mut virtual_path: Option<String> = None;
    let mut allow_path: Option<PathBuf> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--list-rules" => list_rules = true,
            "--stale-suppressions" => stale_gate = true,
            "--format" => {
                format = match next_value(&mut args, "--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                }
            }
            "--root" => root = Some(next_value(&mut args, "--root")?.into()),
            "--file" => file = Some(next_value(&mut args, "--file")?.into()),
            "--as" => virtual_path = Some(next_value(&mut args, "--as")?),
            "--allow" => allow_path = Some(next_value(&mut args, "--allow")?.into()),
            "--help" | "-h" => {
                print_usage();
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    if list_rules {
        for r in rules::RULES {
            println!("{:<18} {}", r.id, r.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd).unwrap_or(cwd)
        }
    };

    let allow = match allow_path {
        Some(p) => {
            let text = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            Allowlist::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?
        }
        None => load_allowlist(&root)?,
    };

    if let Some(file) = file {
        let rel = virtual_path
            .or_else(|| {
                file.strip_prefix(&root)
                    .ok()
                    .map(|p| p.to_string_lossy().replace('\\', "/"))
            })
            .ok_or("--file outside the workspace root needs --as <workspace-relative-path>")?;
        let source = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let findings = check_source(&rel, &source, &allow);
        return Ok(report(&findings, &[], format, false));
    }

    if !workspace {
        print_usage();
        return Ok(ExitCode::from(2));
    }

    let ws = check_workspace_report(&root, &allow).map_err(|e| e.to_string())?;
    let stale: Vec<String> = ws.stale.iter().map(|s| s.to_string()).collect();
    eprintln!("dcs-lint: scanned {} files", ws.files_scanned);
    Ok(report(&ws.findings, &stale, format, stale_gate))
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn report(
    findings: &[dcs_lint::diag::Finding],
    stale: &[String],
    format: Format,
    stale_gate: bool,
) -> ExitCode {
    match format {
        Format::Text => {
            for f in findings {
                println!("{f}");
            }
        }
        Format::Json => print!("{}", sarif::render(findings)),
    }
    // Stale-suppression report always goes to stderr (never into SARIF).
    for s in stale {
        eprintln!("dcs-lint: {s}");
    }
    let fail = !findings.is_empty() || (stale_gate && !stale.is_empty());
    if !fail {
        eprintln!("dcs-lint: clean ({} rules)", rules::RULES.len());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dcs-lint: {} finding(s), {} stale suppression(s)",
            findings.len(),
            stale.len()
        );
        ExitCode::FAILURE
    }
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn print_usage() {
    eprintln!(
        "usage: dcs-lint [--workspace] [--root DIR] [--allow FILE] \
         [--file F [--as REL]] [--format text|json] [--stale-suppressions] \
         [--list-rules]"
    );
}
