//! Fixture: the id-table aliases are hash tables too, so each use violates
//! `hash-collections` under a determinism-critical crate path.

use dcs_crypto::{Hash256, IdMap, IdSet};

pub struct Peer {
    pub seen: IdSet,
}

pub fn first_seen(ids: &[Hash256]) -> Vec<Hash256> {
    let mut order = IdMap::default();
    for (i, id) in ids.iter().enumerate() {
        order.entry(*id).or_insert(i);
    }
    // Iterating a hash table: the order is the table's, not the input's.
    order.into_keys().collect()
}
