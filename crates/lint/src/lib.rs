//! `dcs-lint` — workspace determinism & protocol-safety static analysis.
//!
//! The dcs-ledger experimental claims rest on the discrete-event simulator
//! being deterministic: same seed, bit-identical canonical chain and stats.
//! Nothing in rustc or clippy enforces the project-specific invariants that
//! property needs, so this crate ships a small, dependency-free analyzer:
//! a comment/string-aware lexer ([`lexer`]) feeds a catalogue of lexical,
//! path-scoped rules ([`rules`]). Suppressions are per-line comments
//! (`// dcs-lint: allow(<rule>)`) or audited `lint-allow.toml` entries
//! ([`allow`]); stale ones are themselves findings in workspace mode.
//!
//! Run it as `cargo run -p dcs-lint -- --workspace`; CI gates merges on a
//! clean pass and uploads SARIF ([`sarif`]) for code scanning. See
//! DESIGN.md §10 for the rule rationale and §15 for the audit that retired
//! the call-graph pass.

pub mod allow;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod sarif;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allow::Allowlist;
use diag::Finding;

/// Lints one file's source under its workspace-relative `rel_path`,
/// filtering through the allowlist. Inline suppressions and `#[cfg(test)]`
/// regions are handled inside the scanner.
pub fn check_source(rel_path: &str, source: &str, allow: &Allowlist) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    rules::scan(rel_path, source, &lexed)
        .into_iter()
        .filter(|f| !allow.covers(f.rule, rel_path))
        .collect()
}

/// A `lint-allow.toml` entry or inline comment that suppressed nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaleSuppression {
    /// Allowlist entry index + the entry itself.
    AllowEntry(usize, allow::AllowEntry),
    /// Inline `// dcs-lint: allow(...)` comment: (path, line, rules).
    Inline(String, u32, Vec<String>),
}

impl std::fmt::Display for StaleSuppression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaleSuppression::AllowEntry(i, e) => write!(
                f,
                "stale lint-allow.toml entry #{} (rule `{}`, path `{}`): suppresses nothing",
                i + 1,
                e.rule,
                e.path
            ),
            StaleSuppression::Inline(path, line, rules) => write!(
                f,
                "stale inline suppression at {}:{} (allow({})): suppresses nothing",
                path,
                line,
                rules.join(", ")
            ),
        }
    }
}

/// Full workspace analysis result: surviving findings plus suppression
/// accounting.
pub struct WorkspaceReport {
    /// Findings that survived inline suppressions and the allowlist.
    pub findings: Vec<Finding>,
    /// Suppressions (either kind) that matched no finding.
    pub stale: Vec<StaleSuppression>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Walks the workspace at `root` and lints every production `.rs` file
/// against the rule catalogue, with stale-suppression accounting.
///
/// Skipped: `target/`, `vendor/` (third-party), hidden directories, and any
/// directory named `benchmark`, `examples`, or `fixtures` — the benchmark
/// package times with wall clocks and prints its results, examples are demo
/// printers, and fixture code violates the rules on purpose.
pub fn check_workspace_report(root: &Path, allow: &Allowlist) -> io::Result<WorkspaceReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    // Deterministic report order, naturally.
    files.sort();

    let mut raw: Vec<Finding> = Vec::new();
    // (path, line, rules, used) per inline suppression, in file order.
    let mut inline: Vec<(String, u32, Vec<String>, bool)> = Vec::new();

    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let lexed = lexer::lex(&source);
        raw.extend(rules::scan_pre_suppress(&rel_str, &source, &lexed));
        for (line, rules) in lexed.suppressed_lines() {
            // Only real suppressions participate in stale accounting: a
            // comment must name at least one catalogued rule (or `all`).
            // Docs *mentioning* the syntax (`allow(<rule>)`, `allow(...)`)
            // never suppress anything and are not reported stale.
            if rules.iter().any(|r| r == "all" || rules::rule(r).is_some()) {
                inline.push((rel_str.clone(), line, rules, false));
            }
        }
    }

    // Apply inline suppressions (marking use), then the allowlist (same).
    let mut used_allow = vec![false; allow.entries.len()];
    let mut findings = Vec::new();
    'next: for f in raw {
        for (path, line, rules, used) in inline.iter_mut() {
            if *path == f.path && *line == f.line && rules.iter().any(|r| r == f.rule || r == "all")
            {
                *used = true;
                continue 'next;
            }
        }
        if let Some(i) = allow.covering(f.rule, &f.path) {
            used_allow[i] = true;
            continue;
        }
        findings.push(f);
    }

    let mut stale: Vec<StaleSuppression> = Vec::new();
    for (i, e) in allow.entries.iter().enumerate() {
        if !used_allow[i] {
            stale.push(StaleSuppression::AllowEntry(i, e.clone()));
        }
    }
    for (path, line, rules, used) in inline {
        if !used {
            stale.push(StaleSuppression::Inline(path, line, rules));
        }
    }

    Ok(WorkspaceReport {
        findings,
        stale,
        files_scanned: files.len(),
    })
}

// `tests` directories ARE walked (wall-clock/unseeded-rng apply there; see
// `rules::in_scope`); the benchmark package (a workspace of its own) and
// examples stay out — they are wall-clock timers and demo printers by design.
const SKIP_DIRS: &[&str] = &["target", "vendor", "benchmark", "examples", "fixtures"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Loads `lint-allow.toml` from `root`, tolerating absence (empty list).
pub fn load_allowlist(root: &Path) -> Result<Allowlist, String> {
    let path = root.join("lint-allow.toml");
    match fs::read_to_string(&path) {
        Ok(text) => Allowlist::parse(&text).map_err(|e| format!("{}: {}", path.display(), e)),
        Err(ref e) if e.kind() == io::ErrorKind::NotFound => Ok(Allowlist::default()),
        Err(e) => Err(format!("{}: {}", path.display(), e)),
    }
}

/// Finds the workspace root by walking up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}
