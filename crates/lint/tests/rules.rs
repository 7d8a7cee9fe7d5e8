//! End-to-end tests for the rule catalogue: every rule fires on a violating
//! fixture, every suppression mechanism silences it, and path scoping
//! exempts the places the platform legitimately uses the flagged constructs.

use dcs_lint::allow::Allowlist;
use dcs_lint::check_source;
use std::path::Path;
use std::process::Command;

fn findings(rel_path: &str, source: &str) -> Vec<&'static str> {
    check_source(rel_path, source, &Allowlist::default())
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

// --- each rule fires on its fixture under an in-scope virtual path ---

#[test]
fn wall_clock_fires() {
    let hits = findings("crates/sim/src/bad.rs", &fixture("wall_clock.rs"));
    assert!(hits.contains(&"wall-clock"), "{hits:?}");
}

#[test]
fn host_env_fires_in_determinism_crates() {
    let hits = findings("crates/net/src/bad.rs", &fixture("host_env.rs"));
    assert_eq!(
        hits,
        vec!["host-env"; 3],
        "env::var, available_parallelism and env::vars fire; the suppressed read does not"
    );
}

#[test]
fn unseeded_rng_fires() {
    let hits = findings("crates/crypto/src/bad.rs", &fixture("unseeded_rng.rs"));
    assert_eq!(
        hits.iter().filter(|r| **r == "unseeded-rng").count(),
        2,
        "rand::random and thread_rng must both fire: {hits:?}"
    );
}

#[test]
fn hash_collections_fires_in_determinism_crates() {
    let src = fixture("hash_collections.rs");
    for path in [
        "crates/sim/src/bad.rs",
        "crates/net/src/bad.rs",
        "crates/consensus/src/bad.rs",
        "crates/chain/src/bad.rs",
        "crates/state/src/bad.rs",
    ] {
        let hits = findings(path, &src);
        assert!(hits.contains(&"hash-collections"), "{path}: {hits:?}");
    }
}

#[test]
fn float_consensus_fires() {
    let hits = findings(
        "crates/consensus/src/difficulty.rs",
        &fixture("float_consensus.rs"),
    );
    assert!(hits.contains(&"float-consensus"), "{hits:?}");
}

#[test]
fn panic_path_fires() {
    let hits = findings("crates/chain/src/peer.rs", &fixture("panic_path.rs"));
    assert_eq!(
        hits.iter().filter(|r| **r == "panic-path").count(),
        2,
        "unwrap() and panic! must both fire: {hits:?}"
    );
}

#[test]
fn thread_spawn_fires() {
    let hits = findings("crates/sim/src/bad.rs", &fixture("thread_spawn.rs"));
    assert!(hits.contains(&"thread-spawn"), "{hits:?}");
}

#[test]
fn ad_hoc_logging_fires() {
    let hits = findings("crates/net/src/bad.rs", &fixture("ad_hoc_logging.rs"));
    assert_eq!(
        hits.iter().filter(|r| **r == "ad-hoc-logging").count(),
        3,
        "println!, eprintln! and dbg! must all fire: {hits:?}"
    );
}

// --- path scoping: sanctioned locations stay clean ---

#[test]
fn wall_clock_allowed_in_bench() {
    let hits = findings("crates/bench/src/bad.rs", &fixture("wall_clock.rs"));
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn host_env_allowed_outside_determinism_crates_and_in_tests() {
    // The crypto pool and the CLIs size themselves from the host; a test
    // may pin an environment knob for the run it drives.
    for path in [
        "crates/crypto/src/ok.rs",
        "crates/ledger/src/main.rs",
        "crates/net/tests/ok.rs",
    ] {
        let hits = findings(path, &fixture("host_env.rs"));
        assert!(hits.is_empty(), "{path}: {hits:?}");
    }
}

#[test]
fn hash_collections_allowed_outside_determinism_crates() {
    let hits = findings("crates/ledger/src/ok.rs", &fixture("hash_collections.rs"));
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn float_allowed_in_sampling_paths() {
    // PoW/PoET/NG solve-time sampling legitimately uses f64.
    let hits = findings(
        "crates/consensus/src/pow.rs",
        &fixture("float_consensus.rs"),
    );
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn panic_allowed_outside_protocol_crates() {
    let hits = findings("crates/state/src/ok.rs", &fixture("panic_path.rs"));
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn thread_spawn_has_no_hardcoded_exemptions() {
    // The audited pools are exempted through lint-allow.toml entries, not
    // path scoping — without the allowlist, even the pool files fire.
    for path in ["crates/crypto/src/batch.rs", "crates/net/src/engine.rs"] {
        let hits = findings(path, &fixture("thread_spawn.rs"));
        assert!(hits.contains(&"thread-spawn"), "{path}: {hits:?}");
    }
}

#[test]
fn thread_scope_fires_like_spawn() {
    let src = "pub fn f() { std::thread::scope(|s| { let _ = s; }); }\n";
    let hits = findings("crates/sim/src/bad.rs", src);
    assert_eq!(hits, vec!["thread-spawn"], "thread::scope is ad-hoc too");
}

#[test]
fn workspace_allowlist_covers_the_audited_pools() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allow = Allowlist::parse(&std::fs::read_to_string(root.join("lint-allow.toml")).unwrap())
        .expect("workspace allowlist parses");
    for path in ["crates/crypto/src/batch.rs", "crates/net/src/engine.rs"] {
        assert!(
            allow.covers("thread-spawn", path),
            "{path} must carry an audited thread-spawn entry"
        );
    }
    assert!(
        !allow.covers("thread-spawn", "crates/sim/src/event.rs"),
        "the entries must stay confined to the worker-pool modules"
    );
}

#[test]
fn ad_hoc_logging_allowed_in_experiment_printers_and_lint() {
    let src = fixture("ad_hoc_logging.rs");
    // The experiment printers and the lint binary's diagnostics are exempt;
    // the rest of the bench crate is in scope.
    for path in [
        "crates/bench/src/experiments/scaling.rs",
        "crates/bench/src/table.rs",
        "crates/bench/src/bin/expt.rs",
        "crates/lint/src/bad.rs",
    ] {
        let hits = findings(path, &src);
        assert!(hits.is_empty(), "{path}: {hits:?}");
    }
    let hits = findings("crates/bench/src/lib.rs", &src);
    assert!(!hits.is_empty(), "the bench library must stay in scope");
}

#[test]
fn ad_hoc_logging_suppression_applies() {
    let src = "pub fn f() { println!(\"x\"); } // dcs-lint: allow(ad-hoc-logging)\n";
    let hits = findings("crates/chain/src/bad.rs", src);
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn print_lookalikes_never_fire() {
    // A method or function named `println` without the `!` is not the macro.
    let src = "pub fn f(w: &mut impl Printer) { w.println(\"x\"); }\n\
               pub trait Printer { fn println(&mut self, s: &str); }\n";
    let hits = findings("crates/chain/src/ok.rs", src);
    assert!(hits.is_empty(), "{hits:?}");
}

// --- lexical precision: comments, strings, and lookalikes stay clean ---

#[test]
fn comments_and_strings_never_fire() {
    let src = r#"
// HashMap, Instant::now(), .unwrap(), panic!("x") in a comment
/* thread_rng() in /* a nested */ block comment */
pub fn msg() -> &'static str {
    "HashMap panic! .unwrap() Instant rand::random thread::spawn"
}
"#;
    let hits = findings("crates/sim/src/ok.rs", src);
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn lookalike_identifiers_never_fire() {
    // `unwrap_or` is not `unwrap`; `as_secs_f64` is not `f64`; a bare
    // `random` without a `rand::` path is some other function; `spawn`
    // without `thread::` is e.g. an async task spawn wrapper; `env::args`
    // and a `var` that is not `env::var` read no host state.
    let src = r#"
pub fn ok(v: Option<u64>, d: std::time::Duration) -> u64 {
    let _ = d.as_secs();
    let _ = random();
    spawn(|| {});
    let _ = std::env::args().count();
    let _ = d.var();
    v.unwrap_or(0)
}
"#;
    let hits = findings("crates/chain/src/ok.rs", src);
    assert!(hits.is_empty(), "{hits:?}");
}

// --- suppression mechanisms ---

#[test]
fn trailing_suppression_silences_its_line_only() {
    let src = "use std::collections::HashMap; // dcs-lint: allow(hash-collections)\n\
               pub type Bad = HashMap<u8, u8>;\n";
    let hits = findings("crates/sim/src/bad.rs", src);
    assert_eq!(hits, vec!["hash-collections"], "second line still fires");
}

#[test]
fn standalone_suppression_covers_next_line() {
    let src = "// dcs-lint: allow(hash-collections)\n\
               use std::collections::HashMap;\n\
               pub type Ok2 = std::marker::PhantomData<HashMap<u8, u8>>;\n";
    let hits = findings("crates/sim/src/bad.rs", src);
    assert_eq!(hits.len(), 1, "only the third line fires: {hits:?}");
}

#[test]
fn allow_all_suppresses_every_rule_on_the_line() {
    let src = "pub fn f(v: Option<std::collections::HashMap<u8, u8>>) { v.unwrap(); } // dcs-lint: allow(all)\n";
    let hits = findings("crates/chain/src/bad.rs", src);
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn suppression_for_a_different_rule_does_not_apply() {
    let src = "use std::collections::HashMap; // dcs-lint: allow(wall-clock)\n";
    let hits = findings("crates/sim/src/bad.rs", src);
    assert_eq!(hits, vec!["hash-collections"]);
}

#[test]
fn suppressed_fixture_is_fully_clean() {
    let hits = findings("crates/sim/src/bad.rs", &fixture("suppressed.rs"));
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn cfg_test_regions_are_exempt() {
    let src = r#"
pub fn prod() -> u64 { 1 }

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn helper() {
        let m: HashMap<u8, u8> = HashMap::new();
        assert!(m.get(&0).is_none());
        m.get(&1).copied().unwrap_or(0);
    }
}
"#;
    let hits = findings("crates/consensus/src/bad.rs", src);
    assert!(hits.is_empty(), "{hits:?}");
}

#[test]
fn allowlist_entry_silences_matching_rule_and_path() {
    let allow = Allowlist::parse(&fixture("allow-panic.toml")).unwrap();
    let hits = check_source(
        "crates/chain/src/peer.rs",
        &fixture("panic_path.rs"),
        &allow,
    );
    assert!(hits.is_empty(), "{hits:?}");
    // The same allowlist does not cover a different path.
    let other = check_source(
        "crates/chain/src/other.rs",
        &fixture("panic_path.rs"),
        &allow,
    );
    assert!(!other.is_empty());
}

// --- CLI: the shipped binary exits non-zero on each violating fixture ---

fn lint_fixture(name: &str, virtual_path: &str, extra: &[&str]) -> std::process::ExitStatus {
    let file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    Command::new(env!("CARGO_BIN_EXE_dcs-lint"))
        .arg("--file")
        .arg(&file)
        .arg("--as")
        .arg(virtual_path)
        .args(extra)
        .output()
        .expect("spawn dcs-lint")
        .status
}

#[test]
fn cli_rejects_every_violating_fixture() {
    let cases = [
        ("wall_clock.rs", "crates/sim/src/bad.rs"),
        ("host_env.rs", "crates/net/src/bad.rs"),
        ("unseeded_rng.rs", "crates/crypto/src/bad.rs"),
        ("hash_collections.rs", "crates/sim/src/bad.rs"),
        ("float_consensus.rs", "crates/consensus/src/difficulty.rs"),
        ("panic_path.rs", "crates/chain/src/peer.rs"),
        ("thread_spawn.rs", "crates/sim/src/bad.rs"),
        ("ad_hoc_logging.rs", "crates/net/src/bad.rs"),
    ];
    for (name, vpath) in cases {
        let status = lint_fixture(name, vpath, &[]);
        assert_eq!(status.code(), Some(1), "{name} as {vpath} must fail lint");
    }
}

#[test]
fn cli_accepts_suppressed_fixture() {
    let status = lint_fixture("suppressed.rs", "crates/sim/src/bad.rs", &[]);
    assert_eq!(status.code(), Some(0));
}

#[test]
fn cli_accepts_allowlisted_fixture() {
    let allow = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("allow-panic.toml");
    let status = lint_fixture(
        "panic_path.rs",
        "crates/chain/src/peer.rs",
        &["--allow", allow.to_str().unwrap()],
    );
    assert_eq!(status.code(), Some(0));
}

#[test]
fn cli_lists_the_full_catalogue() {
    let out = Command::new(env!("CARGO_BIN_EXE_dcs-lint"))
        .arg("--list-rules")
        .output()
        .expect("spawn dcs-lint");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "wall-clock",
        "host-env",
        "unseeded-rng",
        "hash-collections",
        "float-consensus",
        "panic-path",
        "thread-spawn",
        "ad-hoc-logging",
    ] {
        assert!(text.contains(rule), "missing {rule} in:\n{text}");
    }
}
