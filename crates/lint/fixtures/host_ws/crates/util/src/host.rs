//! Fixture workspace, crate outside the determinism boundary: the read is
//! no finding here, so the suppression on it suppresses nothing — stale.

pub fn env_profile() -> String {
    std::env::var("DCS_PROFILE").unwrap_or_default() // dcs-lint: allow(host-env)
}
