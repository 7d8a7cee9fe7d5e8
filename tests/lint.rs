//! The `dcs-lint` gate as a tier-1 test: the workspace has no finding the
//! audited `lint-allow.toml` does not cover, and no suppression — allowlist
//! entry or inline comment — that suppresses nothing. CI runs the same check
//! through the CLI (`--workspace --stale-suppressions`).

use std::path::Path;

#[test]
fn workspace_is_lint_clean_with_no_stale_suppressions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let allow = dcs_lint::load_allowlist(root).expect("lint-allow.toml parses");
    let report = dcs_lint::check_workspace_report(root, &allow).expect("workspace readable");
    let findings: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "\n{}", findings.join("\n"));
    let stale: Vec<String> = report.stale.iter().map(ToString::to_string).collect();
    assert!(stale.is_empty(), "\n{}", stale.join("\n"));
    assert!(report.files_scanned > 100, "walked the whole workspace");
}
