//! Parallel verification executor and cross-layer signature cache.
//!
//! Hash-based signature verification is the dominant cost of block
//! validation: each WOTS+Merkle check recomputes hundreds of SHA-256 chain
//! steps. The checks are pure functions of `(public key, message,
//! signature)`, so they parallelize perfectly and their results can be
//! memoized. This module provides both levers:
//!
//! * [`VerifyPool`] — a scoped worker pool (no persistent threads, no
//!   channels) mapping a pure function over a slice in deterministic input
//!   order. A pool with one thread runs the exact serial code path.
//! * [`SigCache`] — a bounded, sharded map from a binding digest of
//!   `(pubkey_root ‖ msg ‖ sig_index ‖ sig_digest)` to the verification
//!   verdict, with hit/miss counters. Because the key commits to the
//!   signature bytes themselves, a tampered signature can never hit a stale
//!   `true` entry. `sig_digest` is [`Signature::digest`]: the signature
//!   hashes its own encoding once, and it remembers the key of the
//!   `(pubkey_root, msg)` pair it was first asked under, so every later
//!   lookup — on any replica sharing the instance — compares 64 bytes and
//!   hashes nothing ([`SigCache::key`]).
//! * [`VerifyPipeline`] — the two combined: batch verification that consults
//!   the cache first, verifies only the misses on the pool, and backfills
//!   the cache. Higher layers (mempool admission, block prevalidation)
//!   share one pipeline so work done at admission is not repeated at block
//!   connect.
//!
//! Results are bit-identical regardless of thread count: the pool only ever
//! evaluates pure functions and reassembles outputs in input order.

use crate::hash::Hash256;
use crate::sha256::Sha256;
use crate::sig::{PublicKey, Signature};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A borrowed verification task: `(public key, message digest, signature)`.
pub type VerifyItem<'a> = (&'a PublicKey, &'a Hash256, &'a Signature);

// ---------------------------------------------------------------------------
// VerifyPool
// ---------------------------------------------------------------------------

/// A scoped worker pool for data-parallel pure computations.
///
/// The pool holds no threads between calls: each [`VerifyPool::map`] spawns
/// scoped workers over contiguous chunks and joins them before returning, so
/// borrowed inputs need no `'static` bound and a panic in a worker
/// propagates to the caller. With `threads == 1` the input is mapped on the
/// calling thread — the exact serial code path, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyPool {
    threads: usize,
}

impl VerifyPool {
    /// Creates a pool with the given worker count. `0` selects the
    /// machine's available parallelism (falling back to 1 if unknown).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        VerifyPool { threads }
    }

    /// A single-threaded pool: every operation runs on the calling thread.
    pub const fn serial() -> Self {
        VerifyPool { threads: 1 }
    }

    /// The number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, preserving input order in the output.
    ///
    /// With more than one thread and more than one item, the slice is split
    /// into per-worker contiguous chunks evaluated concurrently; otherwise
    /// the map runs inline. `f` must be pure for the parallel and serial
    /// paths to agree (all uses in this workspace are hash computations).
    pub fn map<T, O, F>(&self, items: &[T], f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(&T) -> O + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let chunk = items.len().div_ceil(self.threads);
        let f = &f;
        let mut out = Vec::with_capacity(items.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<O>>()))
                .collect();
            for handle in handles {
                out.extend(handle.join().expect("verification worker panicked"));
            }
        });
        out
    }

    /// Verifies a batch of signatures, returning one verdict per item in
    /// input order. Semantically identical to calling
    /// [`PublicKey::verify`] in a loop.
    pub fn verify_batch(&self, items: &[(PublicKey, Hash256, Signature)]) -> Vec<bool> {
        self.map(items, |(pk, msg, sig)| pk.verify(msg, sig))
    }

    /// Borrowed-input variant of [`VerifyPool::verify_batch`].
    pub fn verify_batch_refs(&self, items: &[VerifyItem<'_>]) -> Vec<bool> {
        self.map(items, |(pk, msg, sig)| pk.verify(msg, sig))
    }
}

impl Default for VerifyPool {
    fn default() -> Self {
        VerifyPool::serial()
    }
}

// ---------------------------------------------------------------------------
// SigCache
// ---------------------------------------------------------------------------

/// Domain prefix for cache keys, distinct from every other hash domain in
/// the workspace (Merkle interior nodes use `0x01`).
const CACHE_KEY_PREFIX: u8 = 0x5A;

/// Number of independently locked shards. A power of two so shard selection
/// is a mask on the (uniform) key digest.
const SHARD_COUNT: usize = 16;

/// One shard: verdicts plus FIFO insertion order for eviction.
#[derive(Default)]
struct Shard {
    verdicts: HashMap<Hash256, bool>,
    order: VecDeque<Hash256>,
}

/// A bounded, sharded signature-verification cache.
///
/// Keys bind the public key root, the message digest, the one-time key
/// index, and a digest of the full encoded signature, so two distinct
/// signatures — even for the same key and message — can never collide on an
/// entry. Lookups and insertions take one shard lock; counters are lock-free
/// atomics. Eviction is FIFO per shard once a shard reaches
/// `capacity / SHARD_COUNT` entries.
pub struct SigCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl SigCache {
    /// Creates a cache bounded to roughly `capacity` entries (rounded up to
    /// a multiple of the shard count; minimum one entry per shard).
    pub fn new(capacity: usize) -> Self {
        SigCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity: capacity.div_ceil(SHARD_COUNT).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The binding digest for one verification task:
    /// `sha256(0x5A ‖ pubkey_root ‖ msg ‖ sig_index ‖ sha256(sig_bytes))`.
    ///
    /// A warm lookup hashes nothing. The inner digest is
    /// [`Signature::digest`], and the key itself is remembered on the
    /// signature for the first `(pubkey_root, msg)` it was asked under: the
    /// memo is returned only when *both* compare equal to this call's,
    /// otherwise the formula runs. The value is the formula's in every case;
    /// the memo never answers for another key or another message.
    pub fn key(pk: &PublicKey, msg: &Hash256, sig: &Signature) -> Hash256 {
        let root = pk.root();
        sig.cache_key(&root, msg, || {
            let mut ctx = Sha256::new();
            ctx.update(&[CACHE_KEY_PREFIX]);
            ctx.update(root.as_ref());
            ctx.update(msg.as_ref());
            ctx.update(&sig.index().to_le_bytes());
            ctx.update(sig.digest().as_ref());
            ctx.finalize()
        })
    }

    fn shard(&self, key: &Hash256) -> &Mutex<Shard> {
        &self.shards[key.as_ref()[0] as usize % SHARD_COUNT]
    }

    /// Looks up a cached verdict, counting a hit or a miss.
    pub fn get(&self, key: &Hash256) -> Option<bool> {
        let verdict = self.shard(key).lock().verdicts.get(key).copied();
        match verdict {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        verdict
    }

    /// Records a verdict, evicting the oldest entry in the shard if full.
    pub fn insert(&self, key: Hash256, valid: bool) {
        let mut shard = self.shard(&key).lock();
        if shard.verdicts.insert(key, valid).is_none() {
            shard.order.push_back(key);
            self.insertions.fetch_add(1, Ordering::Relaxed);
            while shard.order.len() > self.shard_capacity {
                let oldest = shard.order.pop_front().expect("order tracks entries");
                shard.verdicts.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Current number of cached verdicts across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().verdicts.len()).sum()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARD_COUNT
    }

    /// A snapshot of the counters and occupancy.
    pub fn stats(&self) -> SigCacheStats {
        SigCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
            capacity: self.capacity() as u64,
        }
    }
}

impl std::fmt::Debug for SigCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigCache")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Counter snapshot for a [`SigCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a real verification.
    pub misses: u64,
    /// Verdicts stored (re-insertions of a present key do not count).
    pub insertions: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Verdicts currently held.
    pub entries: u64,
    /// Maximum verdicts held.
    pub capacity: u64,
}

impl SigCacheStats {
    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for SigCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} hit_rate={:.1}% entries={}/{} evictions={}",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.capacity,
            self.evictions,
        )
    }
}

// ---------------------------------------------------------------------------
// VerifyPipeline
// ---------------------------------------------------------------------------

/// A [`VerifyPool`] plus an optional shared [`SigCache`]: the full
/// verification pipeline handed across layers.
///
/// Batch verification consults the cache first, verifies only the misses in
/// parallel, and backfills the cache, so a transaction verified at mempool
/// admission costs one cache lookup at block connect. Cloning is cheap and
/// shares the cache and counters.
#[derive(Debug, Clone, Default)]
pub struct VerifyPipeline {
    pool: VerifyPool,
    cache: Option<Arc<SigCache>>,
    batches: Arc<AtomicU64>,
    batch_items: Arc<AtomicU64>,
}

impl VerifyPipeline {
    /// A pipeline with `threads` workers and a cache bounded to
    /// `cache_capacity` verdicts. A capacity of `0` disables the cache.
    pub fn new(threads: usize, cache_capacity: usize) -> Self {
        let cache = if cache_capacity == 0 {
            None
        } else {
            Some(Arc::new(SigCache::new(cache_capacity)))
        };
        VerifyPipeline {
            pool: VerifyPool::new(threads),
            cache,
            batches: Arc::new(AtomicU64::new(0)),
            batch_items: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A single-threaded, cache-less pipeline — behaviour and cost identical
    /// to looping over [`PublicKey::verify`].
    pub fn serial() -> Self {
        VerifyPipeline::default()
    }

    /// The worker pool.
    pub fn pool(&self) -> &VerifyPool {
        &self.pool
    }

    /// The shared signature cache, if one is configured.
    pub fn cache(&self) -> Option<&Arc<SigCache>> {
        self.cache.as_ref()
    }

    /// Verifies a batch through cache + pool, returning verdicts in input
    /// order. Identical output to the serial loop for any thread count.
    pub fn verify_batch_refs(&self, items: &[VerifyItem<'_>]) -> Vec<bool> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let Some(cache) = &self.cache else {
            return self.pool.verify_batch_refs(items);
        };
        let keys: Vec<Hash256> = items
            .iter()
            .map(|(pk, msg, sig)| SigCache::key(pk, msg, sig))
            .collect();
        let mut verdicts: Vec<Option<bool>> = keys.iter().map(|k| cache.get(k)).collect();
        let pending: Vec<usize> = (0..items.len())
            .filter(|&i| verdicts[i].is_none())
            .collect();
        let fresh = self.pool.map(&pending, |&i| {
            let (pk, msg, sig) = items[i];
            pk.verify(msg, sig)
        });
        for (&i, verdict) in pending.iter().zip(fresh) {
            cache.insert(keys[i], verdict);
            verdicts[i] = Some(verdict);
        }
        verdicts
            .into_iter()
            .map(|v| v.expect("every index resolved"))
            .collect()
    }

    /// Owned-input variant of [`VerifyPipeline::verify_batch_refs`].
    pub fn verify_batch(&self, items: &[(PublicKey, Hash256, Signature)]) -> Vec<bool> {
        let refs: Vec<VerifyItem<'_>> = items.iter().map(|(pk, msg, sig)| (pk, msg, sig)).collect();
        self.verify_batch_refs(&refs)
    }

    /// A snapshot of pipeline activity and cache counters.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            threads: self.pool.threads(),
            batches: self.batches.load(Ordering::Relaxed),
            batch_items: self.batch_items.load(Ordering::Relaxed),
            cache: self.cache.as_ref().map(|c| c.stats()),
        }
    }
}

/// Activity snapshot for a [`VerifyPipeline`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Batches submitted through the pipeline.
    pub batches: u64,
    /// Total items across all batches.
    pub batch_items: u64,
    /// Cache counters, when a cache is configured.
    pub cache: Option<SigCacheStats>,
}

impl std::fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "threads={} batches={} items={}",
            self.threads, self.batches, self.batch_items
        )?;
        if let Some(cache) = &self.cache {
            write!(f, " cache[{cache}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_all, Encode};
    use crate::sha256;
    use crate::sig::KeyPair;

    fn seed(tag: u8) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[0] = tag;
        s
    }

    /// `n` verification tasks; every third signature is forged by signing a
    /// different message.
    fn tasks(n: usize) -> Vec<(PublicKey, Hash256, Signature)> {
        let mut kp = KeyPair::generate(seed(7), 4);
        let pk = kp.public_key();
        (0..n)
            .map(|i| {
                let msg = sha256(&[i as u8, 0xAB]);
                let signed = if i % 3 == 2 {
                    sha256(b"some other message")
                } else {
                    msg
                };
                let sig = kp.sign(&signed).expect("capacity 16");
                (pk, msg, sig)
            })
            .collect()
    }

    #[test]
    fn pool_map_preserves_order_any_thread_count() {
        let items: Vec<u32> = (0..103).collect();
        let serial: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = VerifyPool::new(threads);
            assert_eq!(
                pool.map(&items, |&x| u64::from(x) * 3 + 1),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn verify_batch_matches_serial_loop() {
        let tasks = tasks(9);
        let expected: Vec<bool> = tasks
            .iter()
            .map(|(pk, msg, sig)| pk.verify(msg, sig))
            .collect();
        assert!(expected.contains(&true) && expected.contains(&false));
        for threads in [1, 2, 8] {
            assert_eq!(VerifyPool::new(threads).verify_batch(&tasks), expected);
        }
    }

    #[test]
    fn zero_threads_selects_available_parallelism() {
        assert!(VerifyPool::new(0).threads() >= 1);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = SigCache::new(64);
        let tasks = tasks(3);
        let keys: Vec<Hash256> = tasks
            .iter()
            .map(|(pk, m, s)| SigCache::key(pk, m, s))
            .collect();
        for k in &keys {
            assert_eq!(cache.get(k), None);
        }
        cache.insert(keys[0], true);
        cache.insert(keys[1], false);
        assert_eq!(cache.get(&keys[0]), Some(true));
        assert_eq!(cache.get(&keys[1]), Some(false));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 3, 2));
    }

    #[test]
    fn key_is_the_formula_over_the_encoded_signature() {
        // The memoised digest changes where the inner hash is computed, not
        // the key: recompute it from the bytes, on warm and cold instances.
        for (pk, msg, sig) in tasks(3) {
            let mut preimage = vec![CACHE_KEY_PREFIX];
            preimage.extend_from_slice(pk.root().as_ref());
            preimage.extend_from_slice(msg.as_ref());
            preimage.extend_from_slice(&sig.index().to_le_bytes());
            preimage.extend_from_slice(sha256(&sig.encoded()).as_ref());
            let expected = sha256(&preimage);
            assert_eq!(SigCache::key(&pk, &msg, &sig), expected, "cold");
            assert_eq!(SigCache::key(&pk, &msg, &sig), expected, "warm");
            assert_eq!(SigCache::key(&pk, &msg, &sig.clone()), expected, "clone");
        }
    }

    #[test]
    fn key_memo_answers_only_the_pair_it_was_computed_for() {
        // One signature instance, asked under its own (key, message) and then
        // under another message and under another key: each answer is that
        // triple's own key, and the first pair's memo survives the detour.
        let mut kp = KeyPair::generate(seed(5), 1);
        let pk = kp.public_key();
        let other_pk = KeyPair::generate(seed(6), 1).public_key();
        let (msg, other_msg) = (sha256(b"pay 5"), sha256(b"pay 500"));
        let sig = kp.sign(&msg).expect("fresh key");
        let fresh = |pk: &PublicKey, msg: &Hash256| {
            let cold: Signature = decode_all(&sig.encoded()).expect("round trip");
            SigCache::key(pk, msg, &cold)
        };
        let own = SigCache::key(&pk, &msg, &sig);
        assert_eq!(own, fresh(&pk, &msg));
        for (pk2, msg2) in [(pk, other_msg), (other_pk, msg), (other_pk, other_msg)] {
            let key = SigCache::key(&pk2, &msg2, &sig);
            assert_eq!(key, fresh(&pk2, &msg2));
            assert_ne!(key, own);
            assert_eq!(SigCache::key(&pk2, &msg2, &sig.clone()), key, "clone");
        }
        assert_eq!(SigCache::key(&pk, &msg, &sig), own);
    }

    #[test]
    fn cache_hit_never_masks_a_forgery() {
        // Warm the cache with a *valid* (key, msg, sig) verdict, then tamper
        // with the signature: the tampered signature must MISS the cache (its
        // key commits to the signature bytes) and verify to false.
        let pipeline = VerifyPipeline::new(1, 1024);
        let verify = |pk: &PublicKey, msg: &Hash256, sig: &Signature| {
            pipeline.verify_batch_refs(&[(pk, msg, sig)])[0]
        };
        let mut kp = KeyPair::generate(seed(3), 2);
        let pk = kp.public_key();
        let msg = sha256(b"pay 5 to mallory");
        let sig = kp.sign(&msg).expect("fresh key");
        assert!(verify(&pk, &msg, &sig));

        // Same key, same message, different (forged) signature bytes: a
        // signature produced for a different message replayed against `msg`.
        let forged = kp.sign(&sha256(b"pay 5 to alice")).expect("capacity 4");
        assert_ne!(
            SigCache::key(&pk, &msg, &sig),
            SigCache::key(&pk, &msg, &forged)
        );
        let before = pipeline.cache().expect("cache configured").stats();
        assert!(!verify(&pk, &msg, &forged));
        let after = pipeline.cache().expect("cache configured").stats();
        assert_eq!(
            after.hits, before.hits,
            "forged signature must not hit the cache"
        );
        assert_eq!(after.misses, before.misses + 1);

        // Tampering through the bytes — the only way a peer can: flip one bit
        // of a chain value in the warm signature's encoding and decode it.
        // The decoded value starts with a cold digest memo, so its key differs.
        let mut bytes = sig.encoded();
        bytes[4 + 4 + 5] ^= 0x01; // index ‖ chain count ‖ chain_values[0][5]
        let flipped = decode_all::<Signature>(&bytes).expect("well-formed bytes");
        assert_ne!(
            SigCache::key(&pk, &msg, &sig),
            SigCache::key(&pk, &msg, &flipped)
        );
        assert!(!verify(&pk, &msg, &flipped));
        let tampered = pipeline.cache().expect("cache configured").stats();
        assert_eq!(tampered.hits, after.hits, "flipped bytes must not hit");
        assert_eq!(tampered.misses, after.misses + 1);

        // And the genuine signature still hits with its cached true verdict.
        assert!(verify(&pk, &msg, &sig));
        assert_eq!(
            pipeline.cache().expect("cache configured").stats().hits,
            tampered.hits + 1
        );
    }

    #[test]
    fn cache_is_bounded_and_evicts_fifo() {
        let cache = SigCache::new(16); // 1 entry per shard
        assert_eq!(cache.capacity(), 16);
        for i in 0..200u32 {
            let mut ctx = Sha256::new();
            ctx.update(&i.to_le_bytes());
            cache.insert(ctx.finalize(), true);
        }
        assert!(cache.len() <= 16, "len {} over capacity", cache.len());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn pipeline_batch_matches_serial_and_caches() {
        let tasks = tasks(12);
        let expected: Vec<bool> = tasks
            .iter()
            .map(|(pk, msg, sig)| pk.verify(msg, sig))
            .collect();
        for threads in [1, 2, 8] {
            let pipeline = VerifyPipeline::new(threads, 4096);
            assert_eq!(
                pipeline.verify_batch(&tasks),
                expected,
                "cold, threads={threads}"
            );
            assert_eq!(
                pipeline.verify_batch(&tasks),
                expected,
                "warm, threads={threads}"
            );
            let stats = pipeline.stats();
            let cache = stats.cache.expect("cache configured");
            assert_eq!(cache.hits, tasks.len() as u64, "second pass all hits");
            assert_eq!(cache.misses, tasks.len() as u64, "first pass all misses");
            assert_eq!(stats.batches, 2);
            assert_eq!(stats.batch_items, 2 * tasks.len() as u64);
        }
    }

    #[test]
    fn pipeline_without_cache_still_verifies() {
        let tasks = tasks(6);
        let expected: Vec<bool> = tasks
            .iter()
            .map(|(pk, msg, sig)| pk.verify(msg, sig))
            .collect();
        let pipeline = VerifyPipeline::new(2, 0);
        assert!(pipeline.cache().is_none());
        assert_eq!(pipeline.verify_batch(&tasks), expected);
    }

    #[test]
    fn stats_display_is_readable() {
        let pipeline = VerifyPipeline::new(2, 32);
        let tasks = tasks(3);
        pipeline.verify_batch(&tasks);
        let text = pipeline.stats().to_string();
        assert!(text.contains("threads=2"), "{text}");
        assert!(text.contains("cache["), "{text}");
    }
}
