//! The rule catalogue and the token-sequence scanner.
//!
//! Every rule is lexical: it matches identifier/punctuation sequences the
//! lexer produced, so nothing inside comments or string literals can fire.
//! Scoping is path-based — each rule declares which workspace-relative
//! paths it guards, mirroring the determinism boundaries of the platform
//! (see DESIGN.md §10).

use crate::diag::{line_snippet, Finding};
use crate::lexer::{Lexed, Tok, TokKind};

/// Static description of one rule, for `--list-rules` and docs.
pub struct RuleInfo {
    /// Stable rule id used in diagnostics and suppressions.
    pub id: &'static str,
    /// One-line summary of what the rule protects.
    pub summary: &'static str,
    /// Fix hint attached to findings.
    pub hint: &'static str,
}

/// All rules, in catalogue order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        summary: "no Instant::now/SystemTime outside crates/bench — sim time is the only clock",
        hint: "wall-clock reads break reproducibility; use SimTime from the simulator context",
    },
    RuleInfo {
        id: "host-env",
        summary: "no env::var/env::vars/available_parallelism in determinism-critical crates — the host is not an input",
        hint: "environment and core-count reads vary per host; thread the value in from the seeded run configuration",
    },
    RuleInfo {
        id: "unseeded-rng",
        summary: "no thread_rng/rand::random/from_entropy — all randomness flows from the run seed",
        hint: "derive randomness from the seeded sim Rng (Rng::fork), never from OS entropy",
    },
    RuleInfo {
        id: "hash-collections",
        summary: "no HashMap/HashSet, nor the IdMap/IdSet aliases, in determinism-critical crates (sim, net, consensus, chain, state)",
        hint: "hash-table iteration order is not an input (RandomState varies per process; IdMap follows its history); use BTreeMap/BTreeSet or sort keys, or allow an id table that is only probed",
    },
    RuleInfo {
        id: "float-consensus",
        summary: "no f32/f64 arithmetic in consensus decision code",
        hint: "float rounding is platform/opt-level sensitive; use integer (u64/u128) arithmetic",
    },
    RuleInfo {
        id: "panic-path",
        summary: "no unwrap/expect/panic! in protocol-message handling paths",
        hint: "a malformed peer message must be a counted rejection, not a process abort; return a typed error",
    },
    RuleInfo {
        id: "thread-spawn",
        summary: "no ad-hoc thread creation (thread::spawn/thread::scope) — audited pools only",
        hint: "ad-hoc threads introduce scheduling nondeterminism; use an audited worker pool (crypto batch, net engine) or add a reviewed lint-allow.toml entry",
    },
    RuleInfo {
        id: "ad-hoc-logging",
        summary: "no println!/eprintln!/dbg! in library crates — bench/lint binaries exempt",
        hint: "stdout writes are invisible to analysis and skew benchmarks; emit a dcs-trace TraceEvent instead",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Determinism-critical crates for `hash-collections` and `host-env`.
const DETERMINISM_CRATES: &[&str] = &[
    "crates/sim/",
    "crates/net/",
    "crates/consensus/",
    "crates/chain/",
    "crates/state/",
    "crates/trace/",
    "crates/faults/",
    // PR 10: dcs-scale state (shard nonces, channel parties, peg replay
    // sets) feeds block contents and replay digests, so it holds to the
    // same bar as the consensus crates.
    "crates/scale/",
];

/// Consensus *decision* files for `float-consensus`. The PoW/PoET/NG solve
/// and election timing models legitimately use f64 for exponential sampling
/// (that randomness is seeded and cross-platform stable is a separate
/// concern tracked in lint-allow.toml if it ever leaks into decisions).
const FLOAT_DECISION_PATHS: &[&str] = &[
    "crates/consensus/src/difficulty.rs",
    "crates/consensus/src/pbft.rs",
    "crates/consensus/src/ordering.rs",
    "crates/consensus/src/node.rs",
    "crates/consensus/src/mempool.rs",
    "crates/consensus/src/lib.rs",
    "crates/chain/",
];

/// Protocol-message handling crates for `panic-path`.
const PANIC_PATH_CRATES: &[&str] = &[
    "crates/chain/",
    "crates/consensus/",
    "crates/net/",
    "crates/faults/",
];

fn under(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| {
        if p.ends_with('/') {
            path.starts_with(p)
        } else {
            path == *p
        }
    })
}

/// Integration-test sources: the workspace `tests/` tree and every crate's
/// `tests/` directory.
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// True when `rule_id` applies to the file at `path`.
pub fn in_scope(rule_id: &str, path: &str) -> bool {
    // Test code asserts freely (unwrap, floats, hash maps are fine there),
    // but it still must replay bit-identically, so the two rules that can
    // silently break a seeded run — wall-clock reads and unseeded
    // randomness — apply to the tests tree too.
    if is_test_path(path) {
        return matches!(rule_id, "wall-clock" | "unseeded-rng");
    }
    match rule_id {
        "wall-clock" => !path.starts_with("crates/bench/"),
        "host-env" => under(path, DETERMINISM_CRATES),
        "unseeded-rng" => true,
        "hash-collections" => under(path, DETERMINISM_CRATES),
        "float-consensus" => under(path, FLOAT_DECISION_PATHS),
        "panic-path" => under(path, PANIC_PATH_CRATES),
        // Every path: the audited pools (crypto batch, net engine) carry
        // reviewed lint-allow.toml entries instead of a hardcoded exemption.
        "thread-spawn" => true,
        // The experiment printers (tables to stdout by design) and the
        // lint binary's own diagnostics stay exempt; the rest of the bench
        // crate is in scope, so any new print site there must be reviewed.
        "ad-hoc-logging" => !under(
            path,
            &[
                "crates/bench/src/experiments/",
                "crates/bench/src/experiments.rs",
                "crates/bench/src/table.rs",
                "crates/bench/src/bin/expt.rs",
                "crates/lint/",
            ],
        ),
        _ => false,
    }
}

/// Scans one lexed file and filters findings through inline suppressions.
pub fn scan(path: &str, source: &str, lexed: &Lexed<'_>) -> Vec<Finding> {
    let suppressed = lexed.suppressed_lines();
    scan_pre_suppress(path, source, lexed)
        .into_iter()
        .filter(|f| !line_suppressed(&suppressed, f.line, f.rule))
        .collect()
}

/// True when `(line, rule)` is covered by an inline suppression.
fn line_suppressed(suppressed: &[(u32, Vec<String>)], line: u32, rule: &str) -> bool {
    suppressed
        .iter()
        .any(|(l, rules)| *l == line && rules.iter().any(|r| r == rule || r == "all"))
}

/// Scans one lexed file, returning findings after the `#[cfg(test)]` filter
/// but **before** inline-suppression filtering. Workspace mode applies
/// suppressions itself so it can account for stale ones.
pub fn scan_pre_suppress(path: &str, source: &str, lexed: &Lexed<'_>) -> Vec<Finding> {
    let toks = &lexed.toks;
    let mut raw: Vec<(usize, &'static str)> = Vec::new();

    let active: Vec<&'static str> = RULES
        .iter()
        .map(|r| r.id)
        .filter(|id| in_scope(id, path))
        .collect();
    if active.is_empty() {
        return Vec::new();
    }

    for (i, t) in toks.iter().enumerate() {
        let TokKind::Ident(name) = t.kind else {
            // Float literals in decision code fire on the number token.
            if active.contains(&"float-consensus") {
                if let TokKind::Number(n) = t.kind {
                    if is_float_literal(n) {
                        raw.push((i, "float-consensus"));
                    }
                }
            }
            continue;
        };
        match name {
            "Instant" | "SystemTime" if active.contains(&"wall-clock") => {
                raw.push((i, "wall-clock"));
            }
            "available_parallelism" if active.contains(&"host-env") => {
                raw.push((i, "host-env"));
            }
            "var" | "vars" if active.contains(&"host-env") && path_prefix_is(toks, i, "env") => {
                raw.push((i, "host-env"));
            }
            "thread_rng" | "from_entropy" if active.contains(&"unseeded-rng") => {
                raw.push((i, "unseeded-rng"));
            }
            "random" if active.contains(&"unseeded-rng") && path_prefix_is(toks, i, "rand") => {
                raw.push((i, "unseeded-rng"));
            }
            "HashMap" | "HashSet" | "IdMap" | "IdSet" if active.contains(&"hash-collections") => {
                raw.push((i, "hash-collections"));
            }
            "f32" | "f64" if active.contains(&"float-consensus") => {
                raw.push((i, "float-consensus"));
            }
            "unwrap" | "expect"
                if active.contains(&"panic-path")
                    && prev_is_dot(toks, i)
                    && next_is(toks, i, '(') =>
            {
                raw.push((i, "panic-path"));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if active.contains(&"panic-path") && next_is(toks, i, '!') =>
            {
                raw.push((i, "panic-path"));
            }
            "spawn" | "scope"
                if active.contains(&"thread-spawn") && path_prefix_is(toks, i, "thread") =>
            {
                raw.push((i, "thread-spawn"));
            }
            "println" | "eprintln" | "print" | "eprint" | "dbg"
                if active.contains(&"ad-hoc-logging") && next_is(toks, i, '!') =>
            {
                raw.push((i, "ad-hoc-logging"));
            }
            _ => {}
        }
    }

    // Drop findings inside #[cfg(test)] regions.
    let regions = lexed.test_regions();
    raw.retain(|(i, _)| !regions.iter().any(|&(a, b)| *i >= a && *i <= b));

    raw.into_iter()
        .map(|(i, rule_id)| {
            let t = &toks[i];
            let info = rule(rule_id).expect("rule ids in scan match the catalogue");
            Finding {
                rule: info.id,
                path: path.to_string(),
                line: t.line,
                col: t.col,
                snippet: line_snippet(source, t.line),
                hint: info.hint,
            }
        })
        .collect()
}

/// True when the token before `i` is a `.` (method-call position).
fn prev_is_dot(toks: &[Tok<'_>], i: usize) -> bool {
    i > 0 && toks[i - 1].kind == TokKind::Punct('.')
}

/// True when the token after `i` is `c`.
fn next_is(toks: &[Tok<'_>], i: usize, c: char) -> bool {
    toks.get(i + 1).map(|t| &t.kind) == Some(&TokKind::Punct(c))
}

/// True when token `i` is path-qualified as `prefix::<tok>` (e.g.
/// `rand::random`, `thread::spawn`), tolerating `std::thread::spawn`.
fn path_prefix_is(toks: &[Tok<'_>], i: usize, prefix: &str) -> bool {
    if i < 3 {
        return false;
    }
    toks[i - 1].kind == TokKind::Punct(':')
        && toks[i - 2].kind == TokKind::Punct(':')
        && toks[i - 3].kind == TokKind::Ident(prefix)
}

/// True for number tokens that are float literals (`4.0`, `1e6`, `2f64`).
fn is_float_literal(n: &str) -> bool {
    if n.starts_with("0x") || n.starts_with("0b") || n.starts_with("0o") {
        return false;
    }
    // An explicit integer suffix settles it — `0usize`/`7i64` contain an
    // `e` but are not floats.
    const INT_SUFFIXES: &[&str] = &[
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ];
    if INT_SUFFIXES.iter().any(|s| n.ends_with(s)) {
        return false;
    }
    n.contains('.')
        || n.ends_with("f32")
        || n.ends_with("f64")
        || n.bytes().any(|b| b == b'e' || b == b'E')
}
