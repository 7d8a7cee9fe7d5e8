//! Fixture: violates `host-env` three times when linted under a
//! determinism-critical crate path (e.g. `crates/net/src/bad.rs`).

pub fn pool_size() -> usize {
    if let Ok(v) = std::env::var("POOL") {
        return v.len();
    }
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

pub fn dump() -> usize {
    std::env::vars().count()
}

pub fn audited() -> usize {
    // dcs-lint: allow(host-env)
    std::thread::available_parallelism().map_or(1, |c| c.get())
}
