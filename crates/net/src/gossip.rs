//! Gossip dissemination support (§2.3: "gossiping is employed to broadcast
//! data, such as new transactions and blocks, among the peers").
//!
//! The [`Gossiper`] tracks which item ids a peer has already seen so flood
//! gossip terminates: on first sight a node forwards to its neighbors
//! (except the sender); repeats are dropped.
//!
//! Every delivery on the fabric probes this table, most of them repeats, so
//! the probe is one hash-table lookup indexed by bytes of the id itself: ids
//! are SHA-256 outputs, already uniform, and hashing them again (or walking
//! an ordered tree of them, ~15 levels of 32-byte compares at a million
//! entries) buys nothing. The table is never iterated, so nothing observable
//! depends on its order. Finding an id that lands in a chosen bucket costs a
//! sender 2^k SHA-256 evaluations for k index bits (DESIGN.md §10).

use dcs_crypto::Hash256;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a [`Hash256`] to its own last 8 bytes — the end a proof-of-work
/// grind does not drive toward zero.
#[derive(Default)]
struct IdTail(u64);

impl Hasher for IdTail {
    fn write(&mut self, bytes: &[u8]) {
        if let Some(tail) = bytes.last_chunk::<8>() {
            self.0 = u64::from_le_bytes(*tail);
        }
    }

    /// The slice-length prefix `[u8; 32]` hashes first carries nothing.
    fn write_usize(&mut self, _len: usize) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-peer gossip deduplication state.
///
/// # Examples
///
/// ```
/// use dcs_net::Gossiper;
/// use dcs_crypto::sha256;
///
/// let mut g = Gossiper::new();
/// let id = sha256(b"block 7");
/// assert!(g.first_sight(id), "new item: forward it");
/// assert!(!g.first_sight(id), "repeat: drop it");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gossiper {
    // dcs-lint: allow(hash-collections) — fixed hasher, no RandomState, and the set is never iterated
    seen: std::collections::HashSet<Hash256, BuildHasherDefault<IdTail>>,
}

impl Gossiper {
    /// Creates an empty dedup table.
    pub fn new() -> Self {
        Gossiper::default()
    }

    /// Records `id` as seen; returns `true` exactly once per id — the signal
    /// to process and re-forward.
    pub fn first_sight(&mut self, id: Hash256) -> bool {
        self.seen.insert(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::sha256;

    #[test]
    fn dedup_semantics() {
        let mut g = Gossiper::new();
        let a = sha256(b"a");
        let b = sha256(b"b");
        assert!(g.first_sight(a));
        assert!(!g.first_sight(a));
        assert!(g.first_sight(b));
        assert!(!g.first_sight(b));
        assert!(!g.first_sight(a));
    }
}
