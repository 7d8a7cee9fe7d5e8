//! Retained-bytes gate for the beacon tier: what a finished run still holds
//! on the heap, per transfer it was handed, stays under a pinned bound.
//!
//! A counting global allocator (this test binary only; the library itself
//! forbids `unsafe`) keeps live bytes per thread — allocated minus freed —
//! so tests running side by side do not see each other's. The run uses one
//! engine worker, so every allocation and free of the network happens on
//! the test's own thread.

use dcs_crypto::Address;
use dcs_scale::beacon::{BeaconNet, BeaconParams};
use dcs_scale::Transfer;
use dcs_sim::{Rng, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add(delta: i64) {
    // A const-initialised `Cell` has no destructor, so this never touches a
    // torn-down thread local.
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the heap bytes it left live on this
/// thread.
fn retained<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

const SHARDS: usize = 3;
const ACCOUNTS: u64 = 256;
const TRANSFERS: u64 = 2_000;

/// Live heap bytes per submitted transfer the pinned run may keep once
/// quiescent (1 332 of its 2 000 transfers cross shards). Measured on
/// x86-64 Linux: the tier that kept every sequencer's and the beacon's
/// receipts, each granted receipt with its Merkle proof, and queue slots
/// sized for a 208-byte message retained 1 558 bytes per transfer; with
/// receipts drained at the seal that produced them, the beacon keeping a
/// `Grant` per decided lock and a 72-byte message, 1 075; with the beacon
/// keeping only a verdict per decided lock and the sequencers no
/// per-sender nonce counters, 1 015; with a state write only recording its
/// key, so that the sequencers, which read no state root, keep a list of
/// the keys written (56 bytes each) where they kept a trie of two 68-byte
/// arena nodes a key, 1 001; with a write dropping the trie and keeping no
/// record of its key, 989. The pin is the last measurement.
const PINNED: i64 = 989;

#[test]
fn a_quiescent_beacon_run_retains_under_its_pinned_bytes_per_transfer() {
    let accounts: Vec<Address> = (0..ACCOUNTS).map(Address::from_index).collect();
    let alloc: Vec<(Address, u64)> = accounts.iter().map(|a| (*a, 1_000_000)).collect();
    let params = BeaconParams {
        shards: SHARDS,
        ..BeaconParams::default()
    };
    let mut rng = Rng::seed_from(0xB7E5);
    let (net, bytes) = retained(|| {
        let mut net = BeaconNet::new(&params, 7, &alloc);
        net.set_engine_workers(1);
        for i in 0..TRANSFERS {
            let t = Transfer {
                from: accounts[rng.below(ACCOUNTS) as usize],
                to: accounts[rng.below(ACCOUNTS) as usize],
                value: 1 + rng.below(100),
            };
            net.submit_at(SimTime::from_micros(200 * (i + 1)), t);
        }
        net.run();
        net
    });
    let stats = net.stats();
    assert_eq!(
        stats.intra + stats.minted,
        TRANSFERS,
        "every transfer commits"
    );
    assert!(
        stats.minted * 2 > TRANSFERS,
        "mostly cross-shard: {} of {TRANSFERS} minted",
        stats.minted
    );
    assert_eq!(net.user_total(&accounts), u128::from(ACCOUNTS) * 1_000_000);
    let per_transfer = bytes / TRANSFERS as i64;
    assert!(
        per_transfer <= PINNED,
        "{TRANSFERS} transfers left {bytes} live bytes, {per_transfer} each; pinned at {PINNED}"
    );
}
