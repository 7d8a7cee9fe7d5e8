//! A peer's one table of the ids it has dealt with: which it has seen on the
//! wire (gossip dedup — a repeat is dropped, not re-forwarded) and which
//! transactions are on its canonical chain (a committed id is relayed but
//! never pooled or selected again).
//!
//! Both questions are asked of the same ids on the same hot paths, so they
//! share one hashed entry per id: one mark byte, not a second 32-byte key in
//! a second table, and a gossiped transaction answers both with one probe.
//! The table is an [`IdMap`](dcs_crypto::IdMap) (DESIGN.md §10): probed by id, and iterated
//! only into a sorted set, so its order reaches nothing.

use dcs_crypto::Hash256;
use std::collections::BTreeSet;

/// Seen on the wire (or replayed from the durable store).
const SEEN: u8 = 1;
/// On the canonical chain.
const INCLUDED: u8 = 2;

/// Per-peer mark bits by id. An id with no mark has no entry.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdMarks {
    marks: dcs_crypto::IdMap<u8>, // dcs-lint: allow(hash-collections) — probed by id; iterated only into a sorted set
}

impl IdMarks {
    /// Marks `id` seen. `None` if it already was — a repeat, to drop. On
    /// first sight, `Some(included)`: whether the id is already on the
    /// canonical chain.
    pub(crate) fn first_sight(&mut self, id: Hash256) -> Option<bool> {
        let mark = self.marks.entry(id).or_insert(0);
        if *mark & SEEN != 0 {
            return None;
        }
        *mark |= SEEN;
        Some(*mark & INCLUDED != 0)
    }

    /// True if `id` was seen: a repeat [`IdMarks::first_sight`] would drop.
    pub(crate) fn is_seen(&self, id: &Hash256) -> bool {
        self.marks.get(id).is_some_and(|m| m & SEEN != 0)
    }

    /// Marks `id` as on the canonical chain.
    pub(crate) fn include(&mut self, id: Hash256) {
        *self.marks.entry(id).or_insert(0) |= INCLUDED;
    }

    /// Clears `id`'s canonical mark (its block was reverted). An id left
    /// with no mark leaves the table.
    pub(crate) fn exclude(&mut self, id: &Hash256) {
        if let Some(mark) = self.marks.get_mut(id) {
            *mark &= !INCLUDED;
            if *mark == 0 {
                self.marks.remove(id);
            }
        }
    }

    /// True if `id` is on the canonical chain.
    pub(crate) fn is_included(&self, id: &Hash256) -> bool {
        self.marks.get(id).is_some_and(|m| m & INCLUDED != 0)
    }

    /// Every id on the canonical chain, sorted. O(table).
    pub(crate) fn included(&self) -> BTreeSet<Hash256> {
        self.marks
            .iter()
            .filter(|(_, m)| *m & INCLUDED != 0)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Forgets every mark (a crash loses the table), then marks `blocks`
    /// seen and `txs` seen and included: a restarted peer passes every
    /// block it stores, side branches included, and its canonical
    /// transactions, so neither a re-gossiped stored block nor catch-up
    /// traffic is taken for news.
    pub(crate) fn rebuild(
        &mut self,
        blocks: impl IntoIterator<Item = Hash256>,
        txs: impl IntoIterator<Item = Hash256>,
    ) {
        *self = IdMarks::default();
        for hash in blocks {
            *self.marks.entry(hash).or_insert(0) |= SEEN;
        }
        for id in txs {
            *self.marks.entry(id).or_insert(0) |= SEEN | INCLUDED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// What the table replaced: two ordered sets.
    #[derive(Default)]
    struct Model {
        seen: BTreeSet<Hash256>,
        included: BTreeSet<Hash256>,
    }

    #[derive(Debug, Clone)]
    enum Op {
        FirstSight(u8),
        Include(u8),
        Exclude(u8),
        Rebuild(Vec<u8>, Vec<u8>),
    }

    /// A small id universe, so operations collide on the same ids.
    fn id(i: u8) -> Hash256 {
        dcs_crypto::sha256(&[i])
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..16).prop_map(Op::FirstSight),
            (0u8..16).prop_map(Op::Include),
            (0u8..16).prop_map(Op::Exclude),
            (
                proptest::collection::vec(0u8..16, 0..6),
                proptest::collection::vec(0u8..16, 0..6)
            )
                .prop_map(|(blocks, txs)| Op::Rebuild(blocks, txs)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every step of a random history the table holds exactly the
        /// two sets' marks — an entry for each id in either set and none
        /// other — and answers every query as the sets do.
        #[test]
        fn marks_match_a_model_of_two_sets(ops in proptest::collection::vec(op(), 0..64)) {
            let mut table = IdMarks::default();
            let mut model = Model::default();
            for op in ops {
                match op {
                    Op::FirstSight(i) => {
                        let expect = model
                            .seen
                            .insert(id(i))
                            .then(|| model.included.contains(&id(i)));
                        prop_assert_eq!(table.first_sight(id(i)), expect);
                    }
                    Op::Include(i) => {
                        table.include(id(i));
                        model.included.insert(id(i));
                    }
                    Op::Exclude(i) => {
                        table.exclude(&id(i));
                        model.included.remove(&id(i));
                    }
                    Op::Rebuild(blocks, txs) => {
                        table.rebuild(blocks.iter().map(|&i| id(i)), txs.iter().map(|&i| id(i)));
                        model = Model::default();
                        model.seen.extend(blocks.iter().chain(&txs).map(|&i| id(i)));
                        model.included.extend(txs.iter().map(|&i| id(i)));
                    }
                }
                let expect: BTreeMap<Hash256, u8> = model
                    .seen
                    .union(&model.included)
                    .map(|h| {
                        let seen = if model.seen.contains(h) { SEEN } else { 0 };
                        let included = if model.included.contains(h) { INCLUDED } else { 0 };
                        (*h, seen | included)
                    })
                    .collect();
                let held: BTreeMap<Hash256, u8> =
                    table.marks.iter().map(|(h, m)| (*h, *m)).collect();
                prop_assert_eq!(held, expect);
                prop_assert_eq!(table.included(), model.included.clone());
                for i in 0..16 {
                    prop_assert_eq!(table.is_included(&id(i)), model.included.contains(&id(i)));
                    prop_assert_eq!(table.is_seen(&id(i)), model.seen.contains(&id(i)));
                }
            }
        }
    }
}
