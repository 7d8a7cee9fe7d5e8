//! Retained-bytes gate for a peer's history: what a finished gossip run
//! still holds on the heap, per committed transaction per peer, stays under
//! a pinned bound.
//!
//! Every peer keeps history-long state: tables keyed by 32-byte ids (the
//! gossip dedup marks, the canonical-chain index, the block store) and one
//! undrained `Receipt` per applied transaction in `Chain`'s receipt queue.
//! Over a long run they outgrow everything else a peer holds, so their cost
//! per committed transaction is what this test pins.
//!
//! A counting global allocator (this test binary only; the library itself
//! forbids `unsafe`) keeps live bytes per thread — allocated minus freed —
//! so tests running side by side do not see each other's. The runner is
//! serial, so every allocation and free of the network happens on the
//! test's own thread.

use dcs_chain::NullMachine;
use dcs_ledger::builders::Pow;
use dcs_ledger::{build, workload::Workload, LedgerNode, NetworkParams};
use dcs_primitives::ConsensusKind;
use dcs_sim::{SimDuration, SimTime};
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

const PEERS: usize = 8;
const TPS: f64 = 100.0;
const LOAD_SECS: u64 = 200;
const RUN_SECS: u64 = 900;

/// Live heap bytes per committed transaction per peer the pinned run may
/// keep: 8 PoW peers over `NullMachine`, 20 053 transactions in 200 s,
/// quiescent by 900 s with every pool drained. The block bodies are shared
/// by all peers; the id tables are each peer's own. Measured on x86-64
/// Linux: with a hashed gossip dedup table beside a `BTreeSet` of
/// committed ids, and the pool index, block store and per-block
/// statistics in `BTreeMap`s, 275; with one hashed mark table for dedup
/// and the committed ids, the pool index and per-block statistics hashed
/// by id, and the pool index trimmed once drained, 226 (the block store
/// holds about 15 records here, so hashed or ordered it reads the same).
/// The pin is the last measurement. 96 of those bytes are not id tables
/// but receipts: `size_of::<Receipt>()` is 96, every replica keeps one per
/// applied transaction, and only `Chain::drain_receipts` frees them, which
/// nothing in this run calls (draining all 8 peers after the run frees
/// 15 420 160 of the 36 312 336 live bytes).
const PINNED: i64 = 226;

#[test]
fn a_finished_gossip_run_retains_under_its_pinned_bytes_per_committed_tx() {
    let mut params = NetworkParams::<Pow> {
        nodes: PEERS,
        ..Default::default()
    };
    // 8 kH/s of network hash power: one block a minute.
    params.chain.consensus = ConsensusKind::ProofOfWork {
        initial_difficulty: 480_000,
        retarget_window: 0,
        target_interval_us: 60_000_000,
    };
    let ((runner, submitted), bytes) = retained(|| {
        let mut runner = build(&params, 11, |_| NullMachine);
        let load = Workload::transfers(TPS, SimDuration::from_secs(LOAD_SECS), 1_000);
        let submitted = load.inject(runner.net_mut(), 3).len() as u64;
        runner.run_until(SimTime::ZERO + SimDuration::from_secs(RUN_SECS));
        (runner, submitted)
    });
    let tip = runner.nodes()[0].core().chain.tip_hash();
    let committed = runner.nodes()[0].core().committed_tx_count();
    for (i, node) in runner.nodes().iter().enumerate() {
        let core = node.core();
        assert_eq!(core.chain.tip_hash(), tip, "peer {i} on the common tip");
        assert!(core.mempool.is_empty(), "peer {i} committed everything");
    }
    assert_eq!(committed, submitted, "every transaction commits");
    let per_tx = bytes / (committed as i64 * PEERS as i64);
    assert!(
        per_tx <= PINNED,
        "{committed} committed transactions on {PEERS} peers left {bytes} live bytes, \
         {per_tx} per transaction per peer; pinned at {PINNED}"
    );
}
