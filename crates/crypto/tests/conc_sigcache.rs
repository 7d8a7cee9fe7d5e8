//! Bounded model-checking of the sharded [`SigCache`] (DESIGN.md §15).
//!
//! The cache is the one structure in `dcs-crypto` shared mutably across
//! verification threads: 16 `Mutex<Shard>` partitions plus relaxed
//! `AtomicU64` counters. Each public call holds its shard lock end-to-end,
//! so `dcs-conc`'s operation granularity (ops are atomic, all interleavings
//! of per-thread sequences explored) models exactly the schedules the real
//! pool can produce. The models below drive the racy access patterns the
//! `VerifyPipeline` generates — double-miss → double-insert handoffs, reads
//! racing eviction — and check the counter bookkeeping invariants after
//! every step of every schedule.
//!
//! The models take keys as given. Where a key comes from adds no transition
//! to cover: `SigCache::key` may read it from the `OnceLock` memo on the
//! shared `Signature` (its digest, and the key of the first `(pubkey root,
//! message)` asked). Two threads racing to fill a `OnceLock` under the same
//! pair compute a pure function of the same bytes, so whichever write wins,
//! every reader sees the value the loser would have stored; under different
//! pairs the loser compares unequal to what the winner stored and recomputes
//! its own key without writing. Every caller gets its own triple's formula
//! value on every schedule.

use dcs_conc::{Model, Op};
use dcs_crypto::{sha256, Hash256, SigCache};
use std::sync::Arc;

/// Deterministic "verification verdict" for a key — what the real pipeline
/// computes from the signature; any two racing verifiers agree on it.
fn verdict(key: &Hash256) -> bool {
    key.as_ref()[1] & 1 == 0
}

/// Shared state: the cache plus ground-truth op counts.
struct St {
    cache: Arc<SigCache>,
    gets: u64,
    /// First wrong verdict observed by any get, if any.
    bad: Option<String>,
}

fn get_op(key: Hash256) -> Op<St> {
    Box::new(move |s: &mut St| {
        if let Some(v) = s.cache.get(&key) {
            if v != verdict(&key) {
                s.bad = Some(format!("get returned {v}, want {}", verdict(&key)));
            }
        }
        s.gets += 1;
    })
}

fn insert_op(key: Hash256) -> Op<St> {
    Box::new(move |s: &mut St| s.cache.insert(key, verdict(&key)))
}

/// Counter/occupancy invariants that must hold after *every* operation.
fn invariant(s: &St) -> Result<(), String> {
    if let Some(bad) = &s.bad {
        return Err(bad.clone());
    }
    let st = s.cache.stats();
    if st.entries > st.capacity {
        return Err(format!("over capacity: {} > {}", st.entries, st.capacity));
    }
    if st.insertions < st.evictions {
        return Err(format!(
            "evictions {} outran insertions {}",
            st.evictions, st.insertions
        ));
    }
    if st.insertions - st.evictions != st.entries {
        return Err(format!(
            "occupancy drift: insertions {} - evictions {} != entries {}",
            st.insertions, st.evictions, st.entries
        ));
    }
    if st.hits + st.misses != s.gets {
        return Err(format!(
            "lookup accounting: hits {} + misses {} != gets {}",
            st.hits, st.misses, s.gets
        ));
    }
    Ok(())
}

/// Keys whose digests land in the same shard (equal first byte), forcing
/// FIFO eviction contention once the shard is at capacity.
fn same_shard_keys(n: usize) -> Vec<Hash256> {
    let mut keys = Vec::new();
    let mut nonce = 0u64;
    while keys.len() < n {
        let k = sha256(&nonce.to_le_bytes());
        if k.as_ref()[0] == 0 {
            keys.push(k);
        }
        nonce += 1;
    }
    keys
}

/// Two threads both miss the same key, both verify, both insert — the
/// cache-handoff race in `verify_batch_refs`. The second insert must be a
/// no-op for the counters (PR 7's prime-suspect bookkeeping).
#[test]
fn double_miss_double_insert_keeps_counters_consistent() {
    let key = sha256(b"contended");
    let model: Model<St> = Model::new()
        .thread(vec![get_op(key), insert_op(key), get_op(key)])
        .thread(vec![get_op(key), insert_op(key), get_op(key)]);
    let explored = model
        .check(
            || St {
                cache: Arc::new(SigCache::new(1024)),
                gets: 0,
                bad: None,
            },
            |s| {
                invariant(s)?;
                // Never more stored than distinct keys inserted.
                let st = s.cache.stats();
                if st.insertions > 1 {
                    return Err(format!("duplicate insert counted: {}", st.insertions));
                }
                Ok(())
            },
        )
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(explored.schedules, 20); // C(6,3)
}

/// Three writers contending on one single-entry shard: every insert of a
/// new key evicts the previous one, while readers race the eviction. The
/// occupancy equation must hold at every step of every schedule.
#[test]
fn eviction_racing_reads_never_drifts() {
    let keys = same_shard_keys(3);
    // Capacity 16 → one entry per shard → keys[1] evicts keys[0], etc.
    let model: Model<St> = Model::new()
        .thread(vec![
            insert_op(keys[0]),
            get_op(keys[0]),
            insert_op(keys[1]),
        ])
        .thread(vec![insert_op(keys[2]), get_op(keys[1]), get_op(keys[2])])
        .thread(vec![get_op(keys[0]), get_op(keys[2])]);
    let explored = model
        .check(
            || St {
                cache: Arc::new(SigCache::new(16)),
                gets: 0,
                bad: None,
            },
            invariant,
        )
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(explored.schedules, 560); // 8!/(3!3!2!)
}

/// The full pipeline handoff against a warm/cold cache: interleaved
/// get→insert→get sequences over overlapping keys, including a re-insert
/// of an already-present key. Verdicts observed by any get must match the
/// deterministic verifier output in every schedule.
#[test]
fn handoff_verdicts_are_deterministic_across_schedules() {
    let ka = sha256(b"tx-a");
    let kb = sha256(b"tx-b");
    let model: Model<St> = Model::new()
        .thread(vec![get_op(ka), insert_op(ka), get_op(ka), insert_op(ka)])
        .thread(vec![get_op(kb), insert_op(kb), get_op(ka)])
        .thread(vec![insert_op(kb), get_op(kb)]);
    let explored = model
        .check(
            || St {
                cache: Arc::new(SigCache::new(1024)),
                gets: 0,
                bad: None,
            },
            |s| {
                invariant(s)?;
                let st = s.cache.stats();
                if st.insertions > 2 {
                    return Err(format!(
                        "more insertions than distinct keys: {}",
                        st.insertions
                    ));
                }
                Ok(())
            },
        )
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(explored.schedules, 1260); // 9!/(4!3!2!)
}
