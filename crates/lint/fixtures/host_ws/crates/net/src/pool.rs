//! Fixture workspace, determinism-critical crate: one `host-env` finding
//! and one inline-suppressed (used) one.

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

pub fn audited_workers() -> usize {
    // dcs-lint: allow(host-env)
    std::thread::available_parallelism().map_or(1, |c| c.get())
}
