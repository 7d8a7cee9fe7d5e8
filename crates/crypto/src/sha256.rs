//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! Verified against the NIST test vectors in this module's tests. The
//! streaming [`Sha256`] context supports incremental hashing; [`sha256`] is
//! the one-shot convenience and [`MultiHasher`] the batch form.
//!
//! # Kernels
//!
//! Every compression runs on one of two kernels, chosen once per process on
//! first use:
//!
//! - **SHA extensions** — on an x86-64 CPU with `sha` and `sse4.1`, the
//!   `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions (`sha_ext.rs`): one
//!   stream for [`Sha256`] and [`sha256`], four interleaved streams for
//!   [`MultiHasher`].
//! - **Portable** — everywhere else, miri included: plain Rust, a scalar
//!   compression and an 8-lane one written for the auto-vectorizer.
//!
//! The two agree bit for bit (the tests hold the SHA-extension kernel to the
//! portable one); nothing outside this module can tell which ran.

use crate::hash::Hash256;
use std::sync::OnceLock;

mod sha_ext;
use sha_ext::ShaExt;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The number of streams the SHA-extension kernel interleaves in a batch.
///
/// One stream is latency-bound: each `sha256rnds2` waits on the last. Two
/// streams hide most of that latency, and three, four and five measured the
/// same per block (DESIGN.md §14). More streams only lengthen the idle tail
/// of a batch, so the count is the middle of that plateau.
const STREAMS: usize = 4;

/// The smallest batch the SHA-extension kernel runs as interleaved streams:
/// a four-stream pass costs about what three single-stream compressions do,
/// so one or two messages hash faster one at a time.
const STREAMS_FROM: usize = 3;

/// The compression kernel a hash runs on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Plain Rust: the scalar compression and the 8-lane [`compress_wide`].
    Portable,
    /// The CPU's SHA extensions, one stream or [`STREAMS`] interleaved.
    ShaExt(ShaExt),
}

impl Kernel {
    /// The kernel this process uses, detected on first call.
    fn active() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| ShaExt::detect().map_or(Kernel::Portable, Kernel::ShaExt))
    }

    /// Advances `state` one block.
    fn compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        match self {
            Kernel::ShaExt(ext) => {
                ext.compress(std::array::from_mut(state), std::array::from_ref(block))
            }
            Kernel::Portable => compress_portable(state, block),
        }
    }

    /// One-shot SHA-256 of `msg`, block by block on this kernel.
    fn hash(self, msg: &[u8]) -> Hash256 {
        let mut state = H0;
        let mut block = [0u8; 64];
        for b in 0..padded_blocks(msg.len()) {
            fill_block(msg, b, &mut block);
            self.compress(&mut state, &block);
        }
        digest(&state)
    }

    /// `sha256(prefix ‖ left ‖ right)`: the two blocks of the fixed pair
    /// shape, laid out directly.
    fn hash_pair(self, prefix: u8, left: &Hash256, right: &Hash256) -> Hash256 {
        let (mut head, mut tail) = pair_templates(prefix);
        lay_pair(left, right, &mut head, &mut tail);
        let mut state = H0;
        self.compress(&mut state, &head);
        self.compress(&mut state, &tail);
        digest(&state)
    }
}

/// The 32-byte digest a final state spells.
fn digest(state: &[u32; 8]) -> Hash256 {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    Hash256::from_bytes(out)
}

/// Streaming SHA-256 context.
///
/// # Examples
///
/// ```
/// use dcs_crypto::Sha256;
///
/// let mut ctx = Sha256::new();
/// ctx.update(b"hello ");
/// ctx.update(b"world");
/// let digest = ctx.finalize();
/// assert_eq!(digest, dcs_crypto::sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh context with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while input.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&input[..64]);
            self.compress(&block);
            input = &input[64..];
        }
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Consumes the context and returns the 32-byte digest.
    pub fn finalize(mut self) -> Hash256 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding, written into the buffered block: 0x80, zeros, then the
        // 64-bit big-endian length — in one more block when fewer than eight
        // bytes remain after the terminator. `update` keeps `buf_len < 64`.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        digest(&self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        Kernel::active().compress(&mut self.state, block);
    }
}

/// The portable scalar compression: FIPS 180-4 §6.2.2, one block.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, round) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(round);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = dcs_crypto::sha256(b"abc");
/// assert_eq!(
///     d.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Hash256 {
    Kernel::active().hash(data)
}

/// SHA-256 of the concatenation of two byte strings, without allocating.
///
/// Used pervasively for Merkle node hashing: `sha256_concat(left, right)`.
pub fn sha256_concat(a: &[u8], b: &[u8]) -> Hash256 {
    let mut ctx = Sha256::new();
    ctx.update(a);
    ctx.update(b);
    ctx.finalize()
}

/// `sha256(prefix ‖ left ‖ right)`: one Merkle-style node, one stream.
pub(crate) fn sha256_pair(prefix: u8, left: &Hash256, right: &Hash256) -> Hash256 {
    Kernel::active().hash_pair(prefix, left, right)
}

/// One-shot SHA-256 on the portable scalar kernel, whatever this process
/// detected: the oracle the tests hold every other path to.
#[cfg(test)]
pub(crate) fn sha256_portable(msg: &[u8]) -> Hash256 {
    Kernel::Portable.hash(msg)
}

/// Interleaved `L`-lane SHA-256 compression: `L` independent message streams
/// each advance one 64-byte block per call.
///
/// The state is kept *transposed* — `states[word][lane]` — so every round
/// operation is an element-wise loop over the lanes that the compiler can
/// keep in SIMD registers (4 lanes per SSE2 vector, 8 per AVX2). Each lane
/// runs exactly the FIPS 180-4 math of [`compress_portable`]; the lanes only
/// widen the data path, so per-lane digests are bit-identical to the scalar
/// implementation.
// Index loops are deliberate: every lane loop must stay a plain counted
// `for` over `0..L` for the auto-vectorizer to see the element-wise shape.
// Inlined into `Lanes::compress`, its one caller: left to the inliner, the
// 8-lane batches measured about 30 % slower at the x86-64 baseline.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn compress_wide<const L: usize>(states: &mut [[u32; L]; 8], blocks: &[[u8; 64]; L]) {
    let mut w = [[0u32; L]; 64];
    for i in 0..16 {
        let o = 4 * i;
        for l in 0..L {
            w[i][l] = u32::from_be_bytes([
                blocks[l][o],
                blocks[l][o + 1],
                blocks[l][o + 2],
                blocks[l][o + 3],
            ]);
        }
    }
    for i in 16..64 {
        for l in 0..L {
            let w15 = w[i - 15][l];
            let w2 = w[i - 2][l];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            w[i][l] = w[i - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7][l])
                .wrapping_add(s1);
        }
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *states;
    for i in 0..64 {
        let mut t1 = [0u32; L];
        let mut t2 = [0u32; L];
        for l in 0..L {
            let s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            t1[l] = h[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i][l]);
            let s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        for l in 0..L {
            e[l] = d[l].wrapping_add(t1[l]);
        }
        d = c;
        c = b;
        b = a;
        for l in 0..L {
            a[l] = t1[l].wrapping_add(t2[l]);
        }
    }
    let rounds = [a, b, c, d, e, f, g, h];
    for (word, round) in states.iter_mut().zip(rounds) {
        for l in 0..L {
            word[l] = word[l].wrapping_add(round[l]);
        }
    }
}

/// `L` SHA-256 states that each advance one block per call: the batch
/// shape of a kernel, which the schedulers below drive.
trait Streams<const L: usize> {
    /// Resets stream `l` to the FIPS 180-4 initial state.
    fn restart(&mut self, l: usize);
    /// Advances every stream one block, stream `l` absorbing `blocks[l]`.
    fn compress(&mut self, blocks: &[[u8; 64]; L]);
    /// The digest stream `l` holds.
    fn digest(&self, l: usize) -> Hash256;
}

/// The portable kernel's lanes, transposed for [`compress_wide`].
struct Lanes<const L: usize>([[u32; L]; 8]);

impl<const L: usize> Lanes<L> {
    fn new() -> Self {
        Lanes([[0; L]; 8])
    }
}

impl<const L: usize> Streams<L> for Lanes<L> {
    fn restart(&mut self, l: usize) {
        for (word, h0) in self.0.iter_mut().zip(H0) {
            word[l] = h0;
        }
    }

    fn compress(&mut self, blocks: &[[u8; 64]; L]) {
        compress_wide(&mut self.0, blocks);
    }

    fn digest(&self, l: usize) -> Hash256 {
        digest(&self.0.map(|word| word[l]))
    }
}

/// The SHA-extension kernel's streams, one state each.
struct ExtStreams<const L: usize> {
    ext: ShaExt,
    states: [[u32; 8]; L],
}

impl<const L: usize> ExtStreams<L> {
    fn new(ext: ShaExt) -> Self {
        ExtStreams {
            ext,
            states: [H0; L],
        }
    }
}

impl<const L: usize> Streams<L> for ExtStreams<L> {
    fn restart(&mut self, l: usize) {
        self.states[l] = H0;
    }

    fn compress(&mut self, blocks: &[[u8; 64]; L]) {
        self.ext.compress(&mut self.states, blocks);
    }

    fn digest(&self, l: usize) -> Hash256 {
        digest(&self.states[l])
    }
}

/// Number of 64-byte blocks a `len`-byte message occupies after FIPS 180-4
/// padding (`0x80`, zeros, 8-byte bit length).
fn padded_blocks(len: usize) -> usize {
    (len + 9).div_ceil(64)
}

/// Materializes block `block` of the padded form of `msg` into `buf`.
fn fill_block(msg: &[u8], block: usize, buf: &mut [u8; 64]) {
    let n = msg.len();
    let start = block * 64;
    if start + 64 <= n {
        buf.copy_from_slice(&msg[start..start + 64]);
        return;
    }
    buf.fill(0);
    if start < n {
        let take = n - start;
        buf[..take].copy_from_slice(&msg[start..]);
        buf[take] = 0x80;
    } else if start == n {
        buf[0] = 0x80;
    }
    // start > n: the 0x80 terminator landed in an earlier block; zeros only.
    if block + 1 == padded_blocks(n) {
        let bits = (n as u64).wrapping_mul(8);
        buf[56..].copy_from_slice(&bits.to_be_bytes());
    }
}

/// The smallest batch that takes the portable 8-lane path, measured on
/// equal-length messages at both code generations CI builds. With AVX2 an
/// 8-lane pass costs what 1.8 scalar compressions do however many lanes are
/// occupied, so it wins from two messages up (and a 4-lane pass, 2.5 scalar
/// compressions, never beats it: there is no 4-lane path). Without, the
/// lanes do not fit the vector registers, a pass costs eight scalar
/// compressions, and only a full one breaks even.
const WIDE_FROM: usize = if cfg!(target_feature = "avx2") { 2 } else { 8 };

/// Sentinel for an idle lane in the ragged scheduler.
const IDLE: usize = usize::MAX;

/// Hashes every message in `msgs` with `L` lanes in flight: lanes advance one
/// block per wide compression and are refilled with the next pending message
/// as soon as their current one finishes, so ragged length mixes stay close
/// to full occupancy. Digests land in `out[i]` for `msgs[i]`.
fn hash_ragged<const L: usize>(mut lanes: impl Streams<L>, msgs: &[&[u8]], out: &mut [Hash256]) {
    let mut next = 0usize;
    let mut lane_msg = [IDLE; L];
    let mut lane_block = [0usize; L];
    let mut blocks = [[0u8; 64]; L];
    let mut active = 0usize;
    loop {
        for l in 0..L {
            if lane_msg[l] == IDLE && next < msgs.len() {
                lane_msg[l] = next;
                lane_block[l] = 0;
                lanes.restart(l);
                next += 1;
                active += 1;
            }
        }
        if active == 0 {
            break;
        }
        for l in 0..L {
            if lane_msg[l] != IDLE {
                fill_block(msgs[lane_msg[l]], lane_block[l], &mut blocks[l]);
            }
        }
        lanes.compress(&blocks);
        for l in 0..L {
            let m = lane_msg[l];
            if m == IDLE {
                continue;
            }
            lane_block[l] += 1;
            if lane_block[l] == padded_blocks(msgs[m].len()) {
                out[m] = lanes.digest(l);
                lane_msg[l] = IDLE;
                active -= 1;
            }
        }
    }
}

/// Batch SHA-256 over many independent messages, several compressions in
/// flight at once.
///
/// The scalar [`Sha256`] is bound by its serial dependency chain; hashing
/// independent messages in lockstep exposes instruction-level parallelism,
/// which speeds up exactly the workloads the commit path is made of —
/// transaction ids, Merkle levels, WOTS chains. On the SHA-extension kernel
/// a batch runs four interleaved streams; on the portable one, eight
/// auto-vectorized lanes. Every digest is **bit-identical** to [`sha256`].
///
/// # Examples
///
/// ```
/// use dcs_crypto::{sha256, MultiHasher};
///
/// let msgs: Vec<Vec<u8>> = (0u8..20).map(|i| vec![i; i as usize * 7]).collect();
/// let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
/// let digests = MultiHasher::wide().hash_many(&refs);
/// for (msg, d) in msgs.iter().zip(&digests) {
///     assert_eq!(*d, sha256(msg));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MultiHasher {
    kernel: Kernel,
}

impl Default for MultiHasher {
    fn default() -> Self {
        Self::wide()
    }
}

impl MultiHasher {
    /// A batch hasher on this process's kernel: four interleaved streams on
    /// the SHA extensions, eight lanes on the portable kernel.
    pub fn wide() -> Self {
        MultiHasher {
            kernel: Kernel::active(),
        }
    }

    /// Hashes every message, returning digests in input order.
    pub fn hash_many(&self, msgs: &[&[u8]]) -> Vec<Hash256> {
        let mut out = vec![Hash256::ZERO; msgs.len()];
        self.hash_many_into(msgs, &mut out);
        out
    }

    /// [`MultiHasher::hash_many`] into a caller-provided slice
    /// (`out.len() == msgs.len()`).
    pub fn hash_many_into(&self, msgs: &[&[u8]], out: &mut [Hash256]) {
        assert_eq!(msgs.len(), out.len(), "one output slot per message");
        match self.kernel {
            Kernel::ShaExt(ext) if msgs.len() >= STREAMS_FROM => {
                hash_ragged(ExtStreams::<STREAMS>::new(ext), msgs, out)
            }
            Kernel::Portable if msgs.len() >= WIDE_FROM => {
                hash_ragged(Lanes::<8>::new(), msgs, out)
            }
            kernel => {
                for (msg, slot) in msgs.iter().zip(out) {
                    *slot = kernel.hash(msg);
                }
            }
        }
    }

    /// Hashes each adjacent `(left, right)` pair of `level` — which must have
    /// even length — as `sha256(prefix ‖ left ‖ right)`, appending the parent
    /// digests to `out` in order. This is the Merkle level step. The 65-byte
    /// message has one fixed two-block padded shape, so a group of pairs at
    /// a time is laid straight into the streams' blocks; fewer than the
    /// kernel's batch cut-over are hashed one at a time.
    pub fn hash_pairs_into(&self, prefix: u8, level: &[Hash256], out: &mut Vec<Hash256>) {
        debug_assert_eq!(level.len() % 2, 0, "levels are padded before hashing");
        let pairs = level.len() / 2;
        out.reserve(pairs);
        match self.kernel {
            Kernel::ShaExt(ext) if pairs >= STREAMS_FROM => {
                hash_pair_groups(ExtStreams::<STREAMS>::new(ext), prefix, level, out)
            }
            Kernel::Portable if pairs >= WIDE_FROM => {
                hash_pair_groups(Lanes::<8>::new(), prefix, level, out)
            }
            kernel => out.extend(
                level
                    .chunks_exact(2)
                    .map(|pair| kernel.hash_pair(prefix, &pair[0], &pair[1])),
            ),
        }
    }
}

/// Bit length of a `prefix ‖ left ‖ right` message.
const PAIR_BITS: u16 = 65 * 8;

/// The fixed parts of a pair message's two padded blocks: block 0 is
/// `prefix ‖ left ‖ right[..31]`, block 1 is `right[31] ‖ 0x80 ‖ zeros ‖
/// bit length`.
fn pair_templates(prefix: u8) -> ([u8; 64], [u8; 64]) {
    let (mut head, mut tail) = ([0u8; 64], [0u8; 64]);
    head[0] = prefix;
    tail[1] = 0x80;
    tail[62..].copy_from_slice(&PAIR_BITS.to_be_bytes());
    (head, tail)
}

/// Writes the pair's digests into blocks made by [`pair_templates`].
fn lay_pair(left: &Hash256, right: &Hash256, head: &mut [u8; 64], tail: &mut [u8; 64]) {
    let (left, right) = (left.as_bytes(), right.as_bytes());
    head[1..33].copy_from_slice(left);
    head[33..].copy_from_slice(&right[..31]);
    tail[0] = right[31];
}

/// The batch form of [`MultiHasher::hash_pairs_into`]: a group of `L` pairs
/// is two compressions of `L` streams. Streams past the end of the last
/// group hash stale blocks nobody reads.
fn hash_pair_groups<const L: usize>(
    mut lanes: impl Streams<L>,
    prefix: u8,
    level: &[Hash256],
    out: &mut Vec<Hash256>,
) {
    let mut head = [[0u8; 64]; L];
    let mut tail = [[0u8; 64]; L];
    for (h, t) in head.iter_mut().zip(tail.iter_mut()) {
        (*h, *t) = pair_templates(prefix);
    }
    for group in level.chunks(2 * L) {
        for (pair, (h, t)) in group
            .chunks_exact(2)
            .zip(head.iter_mut().zip(tail.iter_mut()))
        {
            lay_pair(&pair[0], &pair[1], h, t);
        }
        for l in 0..L {
            lanes.restart(l);
        }
        lanes.compress(&head);
        lanes.compress(&tail);
        out.extend((0..group.len() / 2).map(|l| lanes.digest(l)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use super::sha256_portable as portable;

    /// The SHA-extension kernel, or `None` — with a line in the test output,
    /// once per process, saying its checks were skipped — on a CPU without
    /// it.
    fn sha_ext() -> Option<ShaExt> {
        let ext = ShaExt::detect();
        if ext.is_none() {
            static SKIPPED: std::sync::Once = std::sync::Once::new();
            SKIPPED.call_once(|| {
                println!("SHA extensions not detected: SHA-extension kernel checks skipped")
            });
        }
        ext
    }

    /// Every kernel this CPU can run, the portable one first.
    fn kernels() -> Vec<Kernel> {
        let mut kernels = vec![Kernel::Portable];
        kernels.extend(sha_ext().map(Kernel::ShaExt));
        kernels
    }

    /// A hasher pinned to `kernel`, whatever this process detected.
    fn hasher(kernel: Kernel) -> MultiHasher {
        MultiHasher { kernel }
    }

    /// Run with `--nocapture`, this names the kernel a test or CI log ran on.
    #[test]
    fn names_the_kernel_in_use() {
        let kernel = Kernel::active();
        let name = match kernel {
            Kernel::ShaExt(_) => format!("SHA extensions, {STREAMS} streams per batch"),
            Kernel::Portable => "portable, 8 lanes per batch".to_string(),
        };
        println!("SHA-256 kernel in use: {name}");
        assert_eq!(
            kernel,
            ShaExt::detect().map_or(Kernel::Portable, Kernel::ShaExt)
        );
        assert_eq!(MultiHasher::wide().kernel, kernel);
    }

    /// The NIST vectors on every kernel, on one-shot and streaming paths.
    fn assert_nist(msg: &[u8], expect: &str) {
        for kernel in kernels() {
            assert_eq!(kernel.hash(msg).to_string(), expect, "{kernel:?}");
            let got = hasher(kernel).hash_many(&[msg; 9]);
            assert!(
                got.iter().all(|d| d.to_string() == expect),
                "{kernel:?} batch"
            );
        }
        assert_eq!(sha256(msg).to_string(), expect);
        let mut ctx = Sha256::new();
        ctx.update(msg);
        assert_eq!(ctx.finalize().to_string(), expect);
    }

    #[test]
    fn nist_empty() {
        assert_nist(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        assert_nist(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_nist(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_896_bits() {
        assert_nist(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn nist_million_a() {
        let msg = vec![b'a'; 1_000_000];
        let expect = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        // Under miri one pass over a megabyte is minutes, so it gets the one
        // pass, on the only kernel miri runs: the portable one.
        if cfg!(miri) {
            assert_eq!(sha256(&msg).to_string(), expect);
        } else {
            assert_nist(&msg, expect);
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expect = portable(&data);
        for split in 0..data.len() {
            let mut ctx = Sha256::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), expect, "split {split}");
        }
    }

    #[test]
    fn concat_matches_manual_concat() {
        let a = b"hello";
        let b = b"world";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(sha256_concat(a, b), portable(&joined));
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must round-trip the
        // streaming implementation identically to one-shot.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut ctx = Sha256::new();
            for b in &data {
                ctx.update(&[*b]);
            }
            let expect = portable(&data);
            assert_eq!(ctx.finalize(), expect, "len {len}");
            assert_eq!(sha256(&data), expect, "len {len}");
        }
    }

    /// Deterministic pseudo-random message of length `len` (no RNG in tests).
    fn msg(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn multihasher_matches_portable_scalar_for_uniform_lengths() {
        // Every padding-boundary length, at batch sizes straddling each
        // kernel's batch cut-over and its width, on every kernel.
        for kernel in kernels() {
            for len in [
                0usize, 1, 31, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 200,
            ] {
                for count in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
                    let data: Vec<Vec<u8>> = (0..count).map(|i| msg(len, i as u8)).collect();
                    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                    let got = hasher(kernel).hash_many(&refs);
                    for (m, d) in data.iter().zip(&got) {
                        assert_eq!(*d, portable(m), "{kernel:?} len={len} count={count}");
                    }
                }
            }
        }
    }

    #[test]
    fn multihasher_matches_portable_scalar_for_ragged_lengths() {
        // Ragged mixes force mid-flight lane refills.
        let data: Vec<Vec<u8>> = (0..57usize).map(|i| msg((i * 37) % 301, i as u8)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        for kernel in kernels() {
            let got = hasher(kernel).hash_many(&refs);
            for (i, (m, d)) in data.iter().zip(&got).enumerate() {
                assert_eq!(*d, portable(m), "{kernel:?} i={i}");
            }
        }
    }

    #[test]
    fn multihasher_pairs_match_portable_scalar_concat() {
        for kernel in kernels() {
            for pairs in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 50] {
                let level: Vec<Hash256> = (0..pairs * 2)
                    .map(|i| portable(&msg(40, i as u8)))
                    .collect();
                let mut got = Vec::new();
                hasher(kernel).hash_pairs_into(0x01, &level, &mut got);
                assert_eq!(got.len(), pairs);
                for (pair, d) in level.chunks_exact(2).zip(&got) {
                    let mut joined = vec![0x01u8];
                    joined.extend_from_slice(pair[0].as_ref());
                    joined.extend_from_slice(pair[1].as_ref());
                    assert_eq!(*d, portable(&joined), "{kernel:?} pairs={pairs}");
                    assert_eq!(sha256_pair(0x01, &pair[0], &pair[1]), *d);
                }
            }
        }
    }

    fn state_of(bytes: [u8; 32]) -> [u32; 8] {
        std::array::from_fn(|i| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap()))
    }

    proptest! {
        // Miri runs the portable kernel only; there is nothing to compare.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 256 }))]

        /// The SHA-extension compression ≡ the portable one on arbitrary
        /// `(state, block)` pairs, one stream and interleaved.
        #[test]
        fn sha_ext_compress_equals_portable(
            states in proptest::collection::vec(any::<[u8; 32]>(), STREAMS..STREAMS + 1),
            blocks in proptest::collection::vec(any::<[u8; 64]>(), STREAMS..STREAMS + 1),
        ) {
            let Some(ext) = sha_ext() else { return Ok(()) };
            let mut streams: [[u32; 8]; STREAMS] = std::array::from_fn(|s| state_of(states[s]));
            let blocks: [[u8; 64]; STREAMS] = std::array::from_fn(|s| blocks[s]);
            let mut expect = streams;
            for (state, block) in expect.iter_mut().zip(&blocks) {
                compress_portable(state, block);
            }
            let mut one = streams[0];
            Kernel::ShaExt(ext).compress(&mut one, &blocks[0]);
            prop_assert_eq!(one, expect[0]);
            ext.compress(&mut streams, &blocks);
            prop_assert_eq!(streams, expect);
        }

        /// Batches of random lengths and counts through every kernel's
        /// scheduler — streams idle at the tail, refilled mid-flight — ≡ the
        /// portable scalar kernel, message by message.
        #[test]
        fn batches_equal_portable_scalar(
            lens in proptest::collection::vec(0usize..300, 0..24),
            salt in any::<u8>(),
        ) {
            let data: Vec<Vec<u8>> = lens.iter().enumerate().map(|(i, &n)| msg(n, salt ^ i as u8)).collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            for kernel in kernels() {
                let got = hasher(kernel).hash_many(&refs);
                for (m, d) in data.iter().zip(&got) {
                    prop_assert_eq!(*d, portable(m));
                }
            }
        }
    }
}
