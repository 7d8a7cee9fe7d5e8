//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! Verified against the NIST test vectors in this module's tests. The
//! streaming [`Sha256`] context supports incremental hashing; [`sha256`] is
//! the one-shot convenience.

use crate::hash::Hash256;

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
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash256::from_bytes(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
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
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
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
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
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
    let mut ctx = Sha256::new();
    ctx.update(data);
    ctx.finalize()
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

/// `sha256(prefix ‖ left ‖ right)`: one Merkle-style node on the scalar path.
pub(crate) fn sha256_pair(prefix: u8, left: &Hash256, right: &Hash256) -> Hash256 {
    let mut ctx = Sha256::new();
    ctx.update(&[prefix]);
    ctx.update(left.as_ref());
    ctx.update(right.as_ref());
    ctx.finalize()
}

/// Interleaved `L`-lane SHA-256 compression: `L` independent message streams
/// each advance one 64-byte block per call.
///
/// The state is kept *transposed* — `states[word][lane]` — so every round
/// operation is an element-wise loop over the lanes that the compiler can
/// keep in SIMD registers (4 lanes per SSE2 vector, 8 per AVX2). Each lane
/// runs exactly the FIPS 180-4 math of [`Sha256`]'s scalar `compress`; the
/// lanes only widen the data path, so per-lane digests are bit-identical to
/// the scalar implementation.
// Index loops are deliberate: every lane loop must stay a plain counted
// `for` over `0..L` for the auto-vectorizer to see the element-wise shape.
#[allow(clippy::needless_range_loop)]
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

/// The smallest batch that takes the 8-lane path, measured on equal-length
/// messages at both code generations CI builds. With AVX2 an 8-lane pass
/// costs what 1.8 scalar compressions do however many lanes are occupied, so
/// it wins from two messages up (and a 4-lane pass, 2.5 scalar compressions,
/// never beats it: there is no 4-lane path). Without, the lanes do not fit
/// the vector registers, a pass costs eight scalar compressions, and only a
/// full one breaks even.
const WIDE_FROM: usize = if cfg!(target_feature = "avx2") { 2 } else { 8 };

/// The digest lane `l` of a transposed state holds.
fn lane_digest<const L: usize>(states: &[[u32; L]; 8], l: usize) -> Hash256 {
    let mut bytes = [0u8; 32];
    for (w, word) in states.iter().enumerate() {
        bytes[4 * w..4 * w + 4].copy_from_slice(&word[l].to_be_bytes());
    }
    Hash256::from_bytes(bytes)
}

/// Sentinel for an idle lane in the ragged scheduler.
const IDLE: usize = usize::MAX;

/// Hashes every message in `msgs` with `L` lanes in flight: lanes advance one
/// block per wide compression and are refilled with the next pending message
/// as soon as their current one finishes, so ragged length mixes stay close
/// to full occupancy. Digests land in `out[i]` for `msgs[i]`.
fn hash_ragged<const L: usize>(msgs: &[&[u8]], out: &mut [Hash256]) {
    let mut next = 0usize;
    let mut lane_msg = [IDLE; L];
    let mut lane_block = [0usize; L];
    let mut states = [[0u32; L]; 8];
    let mut blocks = [[0u8; 64]; L];
    let mut active = 0usize;
    loop {
        for l in 0..L {
            if lane_msg[l] == IDLE && next < msgs.len() {
                lane_msg[l] = next;
                lane_block[l] = 0;
                for (word, h0) in states.iter_mut().zip(H0) {
                    word[l] = h0;
                }
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
        compress_wide(&mut states, &blocks);
        for l in 0..L {
            let m = lane_msg[l];
            if m == IDLE {
                continue;
            }
            lane_block[l] += 1;
            if lane_block[l] == padded_blocks(msgs[m].len()) {
                out[m] = lane_digest(&states, l);
                lane_msg[l] = IDLE;
                active -= 1;
            }
        }
    }
}

/// Batch SHA-256 over many independent messages using interleaved 8-lane
/// compression.
///
/// The scalar [`Sha256`] is bound by its serial dependency chain; hashing
/// `L` independent messages in lockstep exposes `L`-way instruction-level
/// parallelism (and auto-vectorizes), which speeds up exactly the workloads
/// the commit path is made of — transaction ids, Merkle levels, signature
/// cache keys. Every digest is **bit-identical** to [`sha256`].
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
    lanes: usize,
}

impl Default for MultiHasher {
    fn default() -> Self {
        Self::wide()
    }
}

impl MultiHasher {
    /// A hasher using up to `lanes` interleaved lanes (clamped to `1..=8`;
    /// anything narrower than 8 is the scalar path).
    pub fn new(lanes: usize) -> Self {
        MultiHasher {
            lanes: lanes.clamp(1, 8),
        }
    }

    /// The widest supported hasher (8 lanes).
    pub fn wide() -> Self {
        Self::new(8)
    }

    /// The configured lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
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
        if self.lanes >= 8 && msgs.len() >= WIDE_FROM {
            hash_ragged::<8>(msgs, out);
        } else {
            for (msg, slot) in msgs.iter().zip(out) {
                *slot = sha256(msg);
            }
        }
    }

    /// Hashes each adjacent `(left, right)` pair of `level` — which must have
    /// even length — as `sha256(prefix ‖ left ‖ right)`, appending the parent
    /// digests to `out` in order. This is the Merkle level step. The 65-byte
    /// message has one fixed two-block padded shape, so eight pairs at a time
    /// are laid straight into the lanes' blocks; fewer than the wide cut-over
    /// stay scalar.
    pub fn hash_pairs_into(&self, prefix: u8, level: &[Hash256], out: &mut Vec<Hash256>) {
        debug_assert_eq!(level.len() % 2, 0, "levels are padded before hashing");
        let pairs = level.len() / 2;
        out.reserve(pairs);
        if self.lanes >= 8 && pairs >= WIDE_FROM {
            hash_pairs_wide(prefix, level, out);
        } else {
            out.extend(
                level
                    .chunks_exact(2)
                    .map(|pair| sha256_pair(prefix, &pair[0], &pair[1])),
            );
        }
    }
}

/// Bit length of a `prefix ‖ left ‖ right` message.
const PAIR_BITS: u16 = 65 * 8;

/// The 8-lane form of [`MultiHasher::hash_pairs_into`]: block 0 of every
/// message is `prefix ‖ left ‖ right[..31]`, block 1 is `right[31] ‖ 0x80 ‖
/// zeros ‖ bit length`, so a group of eight pairs is two wide compressions.
/// Lanes past the end of the last group hash stale blocks nobody reads.
fn hash_pairs_wide(prefix: u8, level: &[Hash256], out: &mut Vec<Hash256>) {
    let mut head = [[0u8; 64]; 8];
    let mut tail = [[0u8; 64]; 8];
    for (h, t) in head.iter_mut().zip(tail.iter_mut()) {
        h[0] = prefix;
        t[1] = 0x80;
        t[62..].copy_from_slice(&PAIR_BITS.to_be_bytes());
    }
    for group in level.chunks(16) {
        for (pair, (h, t)) in group
            .chunks_exact(2)
            .zip(head.iter_mut().zip(tail.iter_mut()))
        {
            let (left, right) = (pair[0].as_bytes(), pair[1].as_bytes());
            h[1..33].copy_from_slice(left);
            h[33..].copy_from_slice(&right[..31]);
            t[0] = right[31];
        }
        let mut states = H0.map(|h0| [h0; 8]);
        compress_wide(&mut states, &head);
        compress_wide(&mut states, &tail);
        out.extend((0..group.len() / 2).map(|l| lane_digest(&states, l)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(h: Hash256) -> String {
        h.to_string()
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(sha256(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let expect = sha256(&data);
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
        assert_eq!(sha256_concat(a, b), sha256(&joined));
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
            assert_eq!(ctx.finalize(), sha256(&data), "len {len}");
        }
    }

    /// Deterministic pseudo-random message of length `len` (no RNG in tests).
    fn msg(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn multihasher_matches_scalar_for_uniform_lengths() {
        // Every padding-boundary length, at batch sizes straddling the
        // scalar cut-over and the lane width, scalar and 8-lane.
        for len in [
            0usize, 1, 31, 54, 55, 56, 57, 63, 64, 65, 119, 120, 128, 200,
        ] {
            for count in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
                let data: Vec<Vec<u8>> = (0..count).map(|i| msg(len, i as u8)).collect();
                let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                for lanes in [1, 4, 8] {
                    let got = MultiHasher::new(lanes).hash_many(&refs);
                    for (m, d) in data.iter().zip(&got) {
                        assert_eq!(*d, sha256(m), "len={len} count={count} lanes={lanes}");
                    }
                }
            }
        }
    }

    #[test]
    fn multihasher_matches_scalar_for_ragged_lengths() {
        // Ragged mixes force mid-flight lane refills.
        let data: Vec<Vec<u8>> = (0..57usize).map(|i| msg((i * 37) % 301, i as u8)).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        for lanes in [4, 8] {
            let got = MultiHasher::new(lanes).hash_many(&refs);
            for (i, (m, d)) in data.iter().zip(&got).enumerate() {
                assert_eq!(*d, sha256(m), "i={i} lanes={lanes}");
            }
        }
    }

    #[test]
    fn multihasher_pairs_match_pairwise_concat() {
        for pairs in [1usize, 2, 3, 4, 7, 8, 9, 15, 16, 17, 50] {
            let level: Vec<Hash256> = (0..pairs * 2).map(|i| sha256(&msg(40, i as u8))).collect();
            let mut got = Vec::new();
            MultiHasher::wide().hash_pairs_into(0x01, &level, &mut got);
            assert_eq!(got.len(), pairs);
            for (pair, d) in level.chunks_exact(2).zip(&got) {
                let mut joined = vec![0x01u8];
                joined.extend_from_slice(pair[0].as_ref());
                joined.extend_from_slice(pair[1].as_ref());
                assert_eq!(*d, sha256(&joined), "pairs={pairs}");
            }
        }
    }

    #[test]
    fn multihasher_lane_count_clamps() {
        assert_eq!(MultiHasher::new(0).lanes(), 1);
        assert_eq!(MultiHasher::new(100).lanes(), 8);
        assert_eq!(MultiHasher::wide().lanes(), 8);
    }
}
