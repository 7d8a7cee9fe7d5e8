//! End-to-end tests for workspace mode over a fixture mini-workspace
//! (`fixtures/host_ws`): findings survive or are suppressed per mechanism,
//! stale suppressions of either kind are detected, and the SARIF output and
//! the stale gate round-trip through the CLI.

use dcs_lint::allow::Allowlist;
use dcs_lint::{check_workspace_report, StaleSuppression, WorkspaceReport};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn report(allow: &Allowlist) -> WorkspaceReport {
    check_workspace_report(&fixture("host_ws"), allow).expect("fixture workspace readable")
}

/// The one suppression in `host_ws` that suppresses nothing: `util` is
/// outside the determinism boundary, so the read it sits on never fires.
fn stale_inline() -> StaleSuppression {
    StaleSuppression::Inline(
        "crates/util/src/host.rs".to_string(),
        5,
        vec!["host-env".to_string()],
    )
}

// --- stale suppressions --------------------------------------------------

#[test]
fn unused_allowlist_entry_is_reported_stale() {
    let allow = Allowlist::parse(
        "[[allow]]\nrule = \"host-env\"\npath = \"crates/net/src/pool.rs\"\nreason = \"fixture audit\"\n\
         [[allow]]\nrule = \"wall-clock\"\npath = \"crates/net/src/pool.rs\"\nreason = \"nothing here reads a clock\"\n",
    )
    .unwrap();
    let r = report(&allow);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    // The first entry covered `workers` and is not stale; the second is.
    assert_eq!(r.stale.len(), 2, "{:?}", r.stale);
    match &r.stale[0] {
        StaleSuppression::AllowEntry(1, e) => assert_eq!(e.rule, "wall-clock"),
        other => panic!("expected stale allow entry, got {other:?}"),
    }
    assert_eq!(r.stale[1], stale_inline());
}

#[test]
fn unused_inline_suppression_is_reported_stale() {
    let r = report(&Allowlist::default());
    // `workers` fires; `audited_workers` is inline-suppressed, and that
    // suppression — a used one — is not reported.
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(
        (f.rule, f.path.as_str(), f.line),
        ("host-env", "crates/net/src/pool.rs", 5)
    );
    assert_eq!(r.stale, vec![stale_inline()]);
}

#[test]
fn report_counts_files() {
    assert_eq!(report(&Allowlist::default()).files_scanned, 2);
}

// --- the workspace itself ------------------------------------------------

#[test]
fn the_workspace_has_no_host_env_finding() {
    // The engine's worker count is an argument, not the host: with no
    // allowlist at all, nothing in a determinism-critical crate reads the
    // environment or the core count (`host_ws` keeps the rule tested).
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let r = check_workspace_report(&root, &Allowlist::default()).expect("workspace readable");
    let hits: Vec<_> = r.findings.iter().filter(|f| f.rule == "host-env").collect();
    assert!(hits.is_empty(), "{hits:?}");
}

// --- CLI: SARIF output and the stale gate --------------------------------

fn run_cli(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_dcs-lint"))
        .args(args)
        .output()
        .expect("run dcs-lint");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn cli_sarif_output_lists_workspace_findings() {
    let ws = fixture("host_ws");
    let unrelated_allow = fixture("allow-panic.toml");
    let (stdout, _stderr, code) = run_cli(&[
        "--workspace",
        "--root",
        ws.to_str().unwrap(),
        "--allow",
        unrelated_allow.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(code, Some(1), "findings must fail the run");
    assert!(stdout.contains("\"version\": \"2.1.0\""), "{stdout}");
    assert!(stdout.contains("\"ruleId\": \"host-env\""), "{stdout}");
    assert!(stdout.contains("crates/net/src/pool.rs"), "{stdout}");
    // The machine output must be pure JSON: first byte is the brace.
    assert!(stdout.starts_with('{'), "{stdout}");
}

#[test]
fn cli_stale_gate_fails_only_with_flag() {
    let ws = fixture("host_ws");
    // Covers the host-env finding AND carries one dead entry.
    let stale_allow = fixture("stale-allow.toml");
    let args = [
        "--workspace",
        "--root",
        ws.to_str().unwrap(),
        "--allow",
        stale_allow.to_str().unwrap(),
    ];
    let (_out, stderr, code) = run_cli(&args);
    assert_eq!(
        code,
        Some(0),
        "without the gate stale is a warning: {stderr}"
    );
    assert!(
        stderr.contains("stale lint-allow.toml entry #2"),
        "{stderr}"
    );
    assert!(stderr.contains("stale inline suppression"), "{stderr}");

    let (_out, stderr, code) = run_cli(&[&args[..], &["--stale-suppressions"]].concat());
    assert_eq!(code, Some(1), "gate must fail on stale entries: {stderr}");
}

#[test]
fn cli_list_rules_shows_the_eight_rules() {
    let (stdout, _stderr, code) = run_cli(&["--list-rules"]);
    assert_eq!(code, Some(0));
    assert_eq!(stdout.lines().count(), 8, "{stdout}");
    assert!(stdout.contains("host-env"), "{stdout}");
}
