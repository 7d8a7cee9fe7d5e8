//! Allocation gate for the account database: a read allocates nothing, a
//! zero credit allocates and journals nothing, and a batched block of plain
//! transfers stays under a pinned allocation count.
//!
//! A counting global allocator (this test binary only; the library itself
//! forbids `unsafe`) counts allocations per thread, so tests running side by
//! side do not see each other's.

use dcs_crypto::{sha256, Address};
use dcs_state::AccountDb;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this never touches a
    // torn-down thread local.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn addr(i: u64) -> Address {
    Address::from_index(i)
}

/// Funded accounts `0..n`, a contract with code and a storage slot at `n`,
/// journal cleared.
fn seeded(n: u64) -> AccountDb {
    let mut db = AccountDb::new();
    for i in 0..n {
        db.credit(&addr(i), 1_000_000);
    }
    db.set_code(&addr(n), vec![1, 2, 3]);
    db.set_storage(&addr(n), &sha256(b"slot"), Some(vec![9]));
    db.clear_journal();
    db
}

/// Every read of a present and an absent record, written before or since
/// the last root.
fn read_everything(db: &AccountDb) -> u64 {
    let mut sum = 0;
    for i in [0, 1, 999] {
        let a = addr(i);
        sum += db.account(&a).balance + db.balance(&a) + db.nonce(&a);
    }
    let contract = addr(16);
    for who in [contract, addr(999)] {
        sum += db.code(&who).map_or(0, |c| c.len() as u64);
        sum += db
            .storage(&who, &sha256(b"slot"))
            .map_or(0, |v| v.len() as u64);
        sum += db
            .storage(&who, &sha256(b"absent"))
            .map_or(0, |v| v.len() as u64);
    }
    sum
}

#[test]
fn reads_allocate_nothing() {
    let mut db = seeded(16);
    let (_, n) = allocations(|| read_everything(&db));
    assert_eq!(n, 0, "reads from the trie allocated");

    db.begin_batch();
    db.transfer(&addr(0), &addr(1), 5).unwrap();
    db.set_storage(&addr(16), &sha256(b"slot"), Some(vec![7]));
    let (_, n) = allocations(|| read_everything(&db));
    assert_eq!(n, 0, "reads of keys written since the last read allocated");
    db.commit_batch();
}

#[test]
fn zero_credit_allocates_and_journals_nothing() {
    let mut db = seeded(16);
    for batched in [false, true] {
        if batched {
            db.begin_batch();
        }
        let (root, snapshot) = (db.root(), db.snapshot());
        let ((), n) = allocations(|| {
            db.credit(&addr(0), 0);
            db.credit(&addr(999), 0);
        });
        assert_eq!(n, 0, "a zero credit allocated (batched: {batched})");
        assert_eq!(db.snapshot(), snapshot, "a zero credit was journaled");
        db.commit_batch();
        assert_eq!(db.root(), root);
    }
}

/// Transfers in the pinned block.
const TRANSFERS: u64 = 64;

/// Allocations the pinned block makes at either code generation: three per
/// transfer for the values the writes encode, the rest in the packed
/// journal's growth, which starts empty here because seeding cleared it,
/// and the one exact-size undo record. A write updates the ordered index
/// and drops the trie, which nothing rebuilds here because nothing reads a
/// root. When a write also recorded its key on a dirty list, for a fold
/// into a trie kept between reads, the block made 211 as well: the
/// seeding's keys were already on the list.
/// When the block was staged in an overlay and merged into the trie at
/// commit, it made 254, and 272 while the commit hashed branches too. When
/// a key's first write in a block copied its old value into a `Vec` of its
/// own rather than the journal's one buffer, it made 382, and 2 687 before
/// fixed-size keys, the one-write sender charge and the free zero credit (a
/// `Vec` key per read, the sender read four times and written twice, the
/// zero refund written).
const PINNED: u64 = 211;

#[test]
fn a_batched_block_of_transfers_stays_under_its_pinned_allocation_count() {
    let proposer = addr(10_000);
    let mut db = seeded(2 * TRANSFERS);
    let ((), n) = allocations(|| {
        let snapshot = db.snapshot();
        db.begin_batch();
        // One gas-charged transfer as the executor makes it: charge the
        // sender value + gas up front, credit the recipient, refund nothing
        // (the limit was all used) and pay the proposer the fee.
        for i in 0..TRANSFERS {
            let (from, to) = (addr(i), addr(TRANSFERS + i));
            db.charge_sender(&from, 0, 100 + 21_000).unwrap();
            db.credit(&to, 100);
            db.credit(&from, 0);
            db.credit(&proposer, 21_000);
        }
        db.commit_batch();
        drop(db.take_undo(snapshot));
    });
    assert!(
        n <= PINNED,
        "{TRANSFERS} batched transfers made {n} allocations, pinned at {PINNED}"
    );
}
