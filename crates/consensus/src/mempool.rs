//! The transaction pool: pending client transactions awaiting inclusion
//! (§2.4: "transactions are submitted by client users ... which are then
//! pooled into blocks"). FIFO ordering with a capacity bound; duplicates by
//! transaction id are rejected.
//!
//! Every admitted transaction takes the next admission sequence number. The
//! pool is a ring and an index kept in step — the FIFO, an append-only ring
//! of slots indexed by `sequence − base`, and id → sequence (duplicate
//! detection and removal by id) — so an id is in the queue at most once and
//! selection is an in-order walk. Sequence numbers only grow, so admission
//! is a push at the back; a removal leaves a tombstone, the front's
//! tombstones are popped at once, and the ring is compacted (renumbered in
//! order) when tombstones outnumber half the live entries, so a walk visits
//! at most 1.5 times the live count. (Compacting only once tombstones
//! outnumber live entries lets a full pool's ring double its storage, 5 MB
//! more peak RSS over `gossip_overload`'s 32 pools of 625.) The id index is only probed, never walked, so it is
//! hashed by the id itself (an [`IdMap`](dcs_crypto::IdMap), DESIGN.md §10).

use dcs_crypto::{Hash256, VerifyItem, VerifyPipeline};
use dcs_primitives::{SealedTx, Transaction};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Result of a [`Mempool::insert_outcome`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The transaction was admitted.
    Added,
    /// The transaction id is already pooled.
    Duplicate,
    /// The pool is at capacity.
    Full,
    /// The admission pipeline refused a carried witness.
    BadWitness,
}

/// A bounded FIFO transaction pool.
///
/// # Examples
///
/// ```
/// use dcs_consensus::Mempool;
/// use dcs_primitives::{AccountTx, SealedTx, Transaction};
/// use dcs_crypto::Address;
/// use std::sync::Arc;
///
/// let mut pool = Mempool::new(100);
/// let tx = SealedTx::new(Arc::new(Transaction::Account(AccountTx::transfer(
///     Address::from_index(1), Address::from_index(2), 5, 0,
/// ))));
/// assert!(pool.insert(tx.clone()));
/// assert!(!pool.insert(tx), "duplicates rejected");
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mempool {
    /// Pooled transactions in admission order: slot `i` holds sequence
    /// number `base + i`, or `None` once that transaction left.
    queue: VecDeque<Option<SealedTx>>,
    /// Sequence number of the ring's front slot.
    base: u64,
    /// Live (non-tombstone) slots in the ring.
    live: usize,
    /// Admission sequence number of every pooled id.
    seq_of: dcs_crypto::IdMap<u64>, // dcs-lint: allow(hash-collections) — probed by id, never iterated
    capacity: usize,
    admission: Option<Arc<VerifyPipeline>>,
    rejected_invalid: u64,
}

impl Mempool {
    /// Creates a pool bounded at `capacity` transactions.
    pub fn new(capacity: usize) -> Self {
        Mempool {
            queue: VecDeque::new(),
            base: 0,
            live: 0,
            seq_of: Default::default(),
            capacity,
            admission: None,
            rejected_invalid: 0,
        }
    }

    /// A pool that verifies witness signatures at admission through
    /// `pipeline`. Forged signatures are rejected at the door, and — because
    /// verdicts land in the pipeline's shared signature cache — a block
    /// built from this pool connects without re-verifying any admitted
    /// signature: block prevalidation hits the cache instead.
    pub fn with_admission(capacity: usize, pipeline: Arc<VerifyPipeline>) -> Self {
        let mut pool = Mempool::new(capacity);
        pool.admission = Some(pipeline);
        pool
    }

    /// Installs (or replaces) the admission pipeline on an existing pool —
    /// the post-construction form of [`Mempool::with_admission`], for
    /// builders that hand out already-constructed nodes.
    pub fn set_admission(&mut self, pipeline: Arc<VerifyPipeline>) {
        self.admission = Some(pipeline);
    }

    /// Transactions rejected at admission for carrying a bad witness.
    pub fn rejected_invalid(&self) -> u64 {
        self.rejected_invalid
    }

    /// Checks every witness the transaction carries through the admission
    /// pipeline (warming the signature cache). Unsigned transactions pass —
    /// whether signatures are *required* is the state machine's policy;
    /// admission only refuses signatures that are present and wrong — and
    /// they pass before anything is hashed or the pipeline is touched. A
    /// witnessed transaction is checked against the signing hash it was
    /// sealed with ([`SealedTx::signing_hash`]): hashed once by the first
    /// owner, not once per pool.
    fn admit(&self, tx: &SealedTx) -> bool {
        let (Some(pipeline), Some(signing_hash)) = (&self.admission, tx.signing_hash()) else {
            return true;
        };
        let mut items: Vec<VerifyItem<'_>> = Vec::new();
        match &**tx {
            Transaction::Utxo(utx) => {
                for input in &utx.inputs {
                    if let Some(auth) = &input.auth {
                        items.push((&auth.pubkey, &signing_hash, &auth.signature));
                    }
                }
            }
            Transaction::Account(acct) => {
                if let Some(auth) = &acct.auth {
                    if auth.pubkey.address() != acct.from {
                        return false;
                    }
                    items.push((&auth.pubkey, &signing_hash, &auth.signature));
                }
            }
            Transaction::Coinbase { .. } => {}
        }
        !pipeline.verify_batch_refs(&items).contains(&false)
    }

    /// Empties the pool as a crash does: contents and counters are lost,
    /// capacity and admission pipeline stay.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.seq_of.clear();
        self.trim();
        self.base = 0;
        self.live = 0;
        self.rejected_invalid = 0;
    }

    /// Gives back the id index's and the ring's memory once the pool has
    /// drained far below the size it grew to: neither frees storage as ids
    /// leave, where an ordered map freed nodes. Shrinking to twice the live
    /// count leaves room to refill before either grows again.
    fn trim(&mut self) {
        if self.seq_of.len() < self.seq_of.capacity() / 8 {
            self.seq_of.shrink_to(2 * self.seq_of.len());
        }
        if self.queue.len() < self.queue.capacity() / 8 {
            self.queue.shrink_to(2 * self.queue.len());
        }
    }

    /// Pending transaction count.
    pub fn len(&self) -> usize {
        self.live
    }

    /// How many more transactions the pool can take.
    pub(crate) fn room(&self) -> usize {
        self.capacity.saturating_sub(self.live)
    }

    /// True when no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The ring index of sequence number `seq`.
    fn index(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.base)?).ok()
    }

    /// True if the pool holds `id`.
    pub fn contains(&self, id: &Hash256) -> bool {
        self.seq_of.contains_key(id)
    }

    /// The pooled transaction with this id.
    pub(crate) fn get(&self, id: &Hash256) -> Option<&SealedTx> {
        self.queue.get(self.index(*self.seq_of.get(id)?)?)?.as_ref()
    }

    /// Adds a transaction; returns false if it is a duplicate, the pool is
    /// full, or (with an admission pipeline) it carries a forged witness.
    pub fn insert(&mut self, tx: SealedTx) -> bool {
        self.insert_outcome(tx) == InsertOutcome::Added
    }

    /// Like [`Mempool::insert`], but reports *why* a transaction was
    /// refused — the tracing layer records the reason. The id carried by
    /// the sealed transaction is reused; nothing is hashed at admission.
    ///
    /// A pooled id is a `Duplicate` even when the pool is full: the pool
    /// holds that body, whatever room is left.
    pub fn insert_outcome(&mut self, tx: SealedTx) -> InsertOutcome {
        let id = tx.id();
        if self.contains(&id) {
            return InsertOutcome::Duplicate;
        }
        if self.len() >= self.capacity {
            return InsertOutcome::Full;
        }
        if !self.admit(&tx) {
            self.rejected_invalid += 1;
            return InsertOutcome::BadWitness;
        }
        self.seq_of.insert(id, self.base + self.queue.len() as u64);
        self.queue.push_back(Some(tx));
        self.live += 1;
        InsertOutcome::Added
    }

    /// Removes a transaction by id: its slot becomes a tombstone, popped at
    /// once if it is the front.
    pub fn remove(&mut self, id: &Hash256) -> Option<SealedTx> {
        let seq = self.seq_of.remove(id)?;
        let index = self.index(seq)?;
        let tx = self.queue.get_mut(index)?.take()?;
        self.live -= 1;
        while let Some(None) = self.queue.front() {
            self.queue.pop_front();
            self.base += 1;
        }
        if self.queue.len() - self.live > self.live / 2 {
            self.compact();
        }
        Some(tx)
    }

    /// Drops every tombstone and renumbers the survivors from `base` in
    /// their order, so admission order — and with it selection — is kept.
    fn compact(&mut self) {
        self.queue.retain(Option::is_some);
        for (i, tx) in self.queue.iter().flatten().enumerate() {
            self.seq_of.insert(tx.id(), self.base + i as u64);
        }
    }

    /// Selects up to `limit` transactions in FIFO (admission) order,
    /// skipping any whose id is in `exclude` (already on the canonical
    /// chain). The pool is not modified — selected transactions leave the
    /// pool only when a block containing them commits.
    pub fn select(&mut self, limit: usize, exclude: &BTreeSet<Hash256>) -> Vec<SealedTx> {
        self.select_unless(limit, |id| exclude.contains(id))
    }

    /// [`Mempool::select`] with the exclusion as a predicate on the id, so
    /// a caller asks its own index instead of building a set.
    pub fn select_unless(
        &mut self,
        limit: usize,
        excluded: impl Fn(&Hash256) -> bool,
    ) -> Vec<SealedTx> {
        self.queue
            .iter()
            .flatten()
            .filter(|tx| !excluded(&tx.id()))
            .take(limit)
            .cloned()
            .collect()
    }

    /// Drops every listed transaction (a committed block). Callers pass the
    /// block's bodies zipped with its cached ids, so nothing is rehashed.
    pub fn remove_all<'a>(
        &mut self,
        txs: impl IntoIterator<Item = (&'a Transaction, &'a Hash256)>,
    ) {
        for (_, id) in txs {
            self.remove(id);
        }
        self.trim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_crypto::Address;
    use dcs_primitives::AccountTx;
    use proptest::prelude::*;

    fn tx(n: u64) -> SealedTx {
        SealedTx::new(Arc::new(Transaction::Account(AccountTx::transfer(
            Address::from_index(n),
            Address::from_index(n + 1),
            n,
            0,
        ))))
    }

    #[test]
    fn fifo_selection() {
        let mut pool = Mempool::new(10);
        let t1 = tx(1);
        let t2 = tx(2);
        let t3 = tx(3);
        for t in [&t1, &t2, &t3] {
            assert!(pool.insert(t.clone()));
        }
        let selected = pool.select(2, &BTreeSet::new());
        assert_eq!(selected.len(), 2);
        assert_eq!(selected[0].id(), t1.id());
        assert_eq!(selected[1].id(), t2.id());
        // Selection does not remove.
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn selection_order_spans_senders() {
        let mut pool = Mempool::new(300);
        let ts: Vec<SealedTx> = (0..200).map(tx).collect();
        for t in &ts {
            assert!(pool.insert(t.clone()));
        }
        let selected = pool.select(200, &BTreeSet::new());
        assert_eq!(selected.len(), 200);
        for (s, t) in selected.iter().zip(&ts) {
            assert_eq!(s.id(), t.id(), "global FIFO order preserved");
        }
    }

    #[test]
    fn exclusion_skips_included() {
        let mut pool = Mempool::new(10);
        let t1 = tx(1);
        let t2 = tx(2);
        pool.insert(t1.clone());
        pool.insert(t2.clone());
        let exclude: BTreeSet<_> = [t1.id()].into_iter().collect();
        let selected = pool.select(10, &exclude);
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].id(), t2.id());
    }

    #[test]
    fn capacity_bound() {
        let mut pool = Mempool::new(2);
        assert!(pool.insert(tx(1)));
        assert!(pool.insert(tx(2)));
        assert!(!pool.insert(tx(3)), "full pool rejects");
        pool.remove(&tx(1).id());
        assert!(pool.insert(tx(3)), "space freed");
    }

    #[test]
    fn insert_outcome_reports_each_reason() {
        let mut pool = Mempool::new(2);
        assert_eq!(pool.insert_outcome(tx(1)), InsertOutcome::Added);
        assert_eq!(pool.insert_outcome(tx(1)), InsertOutcome::Duplicate);
        assert_eq!(pool.insert_outcome(tx(2)), InsertOutcome::Added);
        assert_eq!(pool.insert_outcome(tx(3)), InsertOutcome::Full);
    }

    #[test]
    fn a_full_pool_reports_a_body_it_holds_as_a_duplicate() {
        let mut pool = Mempool::new(1);
        assert_eq!(pool.insert_outcome(tx(1)), InsertOutcome::Added);
        assert_eq!(pool.insert_outcome(tx(2)), InsertOutcome::Full);
        assert_eq!(pool.insert_outcome(tx(1)), InsertOutcome::Duplicate);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn reinserted_transaction_is_selected_once() {
        // A reorg puts an abandoned block's transactions back in the pool
        // after `remove_all` took them out when the block first connected.
        let mut pool = Mempool::new(10);
        let a = tx(1);
        assert!(pool.insert(a.clone()));
        assert_eq!(pool.select(10, &BTreeSet::new()).len(), 1);
        let id = a.id();
        pool.remove_all([(&*a, &id)]);
        assert!(pool.is_empty());
        assert!(pool.insert(a.clone()));
        let selected = pool.select(usize::MAX, &BTreeSet::new());
        assert_eq!(selected.len(), 1, "one pooled transaction, one selection");
        assert_eq!(selected[0].id(), id);
    }

    #[test]
    fn remove_all_keeps_survivors_in_order() {
        let mut pool = Mempool::new(300);
        let ts: Vec<SealedTx> = (0..100).map(tx).collect();
        for t in &ts {
            pool.insert(t.clone());
        }
        let ids: Vec<Hash256> = ts[..60].iter().map(|t| t.id()).collect();
        let bodies: Vec<&Transaction> = ts[..60].iter().map(|t| &**t).collect();
        pool.remove_all(bodies.into_iter().zip(ids.iter()));
        assert_eq!(pool.len(), 40);
        let selected = pool.select(100, &BTreeSet::new());
        assert_eq!(selected.len(), 40);
        for (s, t) in selected.iter().zip(&ts[60..]) {
            assert_eq!(s.id(), t.id(), "survivors keep FIFO order");
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8),
        Remove(u8),
        RemoveAll(Vec<u8>),
        Clear,
    }

    /// Admissions outweigh removals three to two, so the pool both fills
    /// to capacity and drains through every tombstone path.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..48).prop_map(Op::Insert),
            (0u8..48).prop_map(Op::Insert),
            (0u8..48).prop_map(Op::Insert),
            (0u8..48).prop_map(Op::Remove),
            proptest::collection::vec(0u8..48, 0..12).prop_map(Op::RemoveAll),
            Just(Op::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ring selects in admission order minus the removed ids —
        /// what the ordered map it replaced selected — after any history of
        /// admissions, removals (tombstones, front pops, compactions),
        /// batch removals and crashes, and answers every probe as a list
        /// of the live ids does.
        #[test]
        fn the_ring_selects_admission_order_minus_the_removed(
            ops in proptest::collection::vec(op(), 0..160)
        ) {
            let mut pool = Mempool::new(32);
            let mut model: Vec<Hash256> = Vec::new();
            let txs: Vec<SealedTx> = (0..48).map(tx).collect();
            for op in ops {
                match op {
                    Op::Insert(i) => {
                        let t = &txs[i as usize];
                        let expect = !model.contains(&t.id()) && model.len() < 32;
                        prop_assert_eq!(pool.insert(t.clone()), expect);
                        if expect {
                            model.push(t.id());
                        }
                    }
                    Op::Remove(i) => {
                        let id = txs[i as usize].id();
                        let held = model.contains(&id);
                        prop_assert_eq!(pool.remove(&id).map(|t| t.id()), held.then_some(id));
                        model.retain(|m| *m != id);
                    }
                    Op::RemoveAll(is) => {
                        let ids: Vec<Hash256> = is.iter().map(|&i| txs[i as usize].id()).collect();
                        let bodies = is.iter().map(|&i| &*txs[i as usize]);
                        pool.remove_all(bodies.zip(ids.iter()));
                        model.retain(|m| !ids.contains(m));
                    }
                    Op::Clear => {
                        pool.clear();
                        model.clear();
                    }
                }
                let selected: Vec<Hash256> =
                    pool.select(usize::MAX, &BTreeSet::new()).iter().map(|t| t.id()).collect();
                prop_assert_eq!(&selected, &model);
                prop_assert_eq!(pool.len(), model.len());
                prop_assert!(2 * pool.queue.len() <= 3 * pool.len() + 1);
                for t in &txs {
                    let held = model.contains(&t.id());
                    prop_assert_eq!(pool.contains(&t.id()), held);
                    prop_assert_eq!(pool.get(&t.id()).map(|t| t.id()), held.then(|| t.id()));
                }
            }
        }
    }

    #[test]
    fn admission_rejects_forged_and_warms_cache_for_block_connect() {
        use dcs_primitives::{Block, BlockHeader, Seal, TxAuth, TxIn, TxOut, UtxoTx};
        use dcs_state::UtxoSet;

        let mut kp = dcs_crypto::KeyPair::generate([21u8; 32], 3);
        let addr = kp.address();
        let mut set = UtxoSet::with_witness_verification();
        let op = set.mint(addr, 100);

        let pipeline = Arc::new(VerifyPipeline::new(2, 4096));
        let mut pool = Mempool::with_admission(16, Arc::clone(&pipeline));

        // A well-signed spend is admitted (and its verdict cached)...
        let mut utx = UtxoTx {
            inputs: vec![TxIn {
                prev_tx: op.tx,
                index: op.index,
                auth: None,
            }],
            outputs: vec![TxOut {
                value: 100,
                recipient: addr,
            }],
        };
        let signing = Transaction::Utxo(utx.clone()).signing_hash();
        let sig = kp.sign(&signing).unwrap();
        utx.inputs[0].auth = Some(TxAuth {
            pubkey: kp.public_key(),
            signature: sig,
        });
        let good = Transaction::Utxo(utx.clone());
        assert!(pool.insert(SealedTx::new(Arc::new(good.clone()))));

        // ...a forged one is refused at the door.
        let mut forged_utx = utx;
        forged_utx.inputs[0].auth.as_mut().unwrap().signature =
            kp.sign(&dcs_crypto::sha256(b"other")).unwrap();
        assert!(!pool.insert(SealedTx::new(Arc::new(Transaction::Utxo(forged_utx)))));
        assert_eq!(pool.rejected_invalid(), 1);
        assert_eq!(pool.len(), 1);

        // Mempool → block flow: the block containing the admitted tx
        // prevalidates entirely from the cache — hits, no new misses.
        let body: Vec<Transaction> = pool
            .select(10, &BTreeSet::new())
            .into_iter()
            .map(|t| (*t.into_tx()).clone())
            .collect();
        let header = BlockHeader::new(Hash256::ZERO, 1, 0, addr, Seal::None);
        let block = Block::new(header, body);
        let before = pipeline.stats().cache.unwrap();
        assert_eq!(UtxoSet::prevalidate_witnesses(&block, &pipeline), Ok(1));
        let after = pipeline.stats().cache.unwrap();
        assert!(
            after.hits > before.hits,
            "block connect must hit the warm cache"
        );
        assert_eq!(after.misses, before.misses, "no signature re-verified");
        set.apply_prevalidated(&good).unwrap();
        assert_eq!(set.balance_of(&addr), 100);
    }

    #[test]
    fn admission_rejects_account_witness_key_mismatch() {
        use dcs_primitives::{AccountTx, TxAuth};
        let mut kp = dcs_crypto::KeyPair::generate([22u8; 32], 2);
        let pipeline = Arc::new(VerifyPipeline::new(1, 64));
        let mut pool = Mempool::with_admission(16, pipeline);

        // Signature is genuine but the key is not the claimed sender's.
        let mut acct = AccountTx::transfer(Address::from_index(42), Address::from_index(2), 5, 0);
        let signing = Transaction::Account(acct.clone()).signing_hash();
        let sig = kp.sign(&signing).unwrap();
        acct.auth = Some(TxAuth {
            pubkey: kp.public_key(),
            signature: sig,
        });
        assert!(!pool.insert(SealedTx::new(Arc::new(Transaction::Account(acct)))));
        assert_eq!(pool.rejected_invalid(), 1);

        // Unsigned transactions still pass (simulation mode).
        assert!(pool.insert(tx(1)));
    }
}
