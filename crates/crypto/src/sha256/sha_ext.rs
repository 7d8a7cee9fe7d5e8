//! SHA-256 compression on the x86-64 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`), one or several independent streams per call.
//!
//! This file holds the crate's one `unsafe` operation: calling the
//! `#[target_feature]` kernel, which is sound only on a CPU that has the
//! features it enables. [`ShaExt`] is the proof of that — only
//! [`ShaExt::detect`] makes one, after asking the CPU — so the call site
//! needs no other check. The kernel itself is safe code on plain arrays,
//! with no pointer arithmetic: message blocks load through `_mm_set_epi64x`
//! plus a `_mm_shuffle_epi8` byte swap, states through `_mm_set_epi32`, and
//! states store through `_mm_extract_epi32`.

/// Proof that this CPU has the SHA extensions and SSE4.1: only
/// [`ShaExt::detect`] makes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ShaExt(());

impl ShaExt {
    /// `Some` when the CPU reports both `sha` and `sse4.1`. Always `None` off
    /// x86-64 and under miri, which reports no feature the build did not
    /// enable at compile time.
    pub(super) fn detect() -> Option<ShaExt> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Some(ShaExt(()));
        }
        None
    }

    /// Advances each of the `N` states one block: `states[s]` absorbs
    /// `blocks[s]`, exactly as the portable scalar compression would.
    #[allow(unsafe_code)]
    pub(super) fn compress<const N: usize>(
        self,
        states: &mut [[u32; 8]; N],
        blocks: &[[u8; 64]; N],
    ) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `x86::compress` enables `sha` and `sse4.1` and has no other
        // precondition. `self` exists only if `detect` found both on this
        // CPU.
        unsafe {
            x86::compress(states, blocks);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (states, blocks);
            unreachable!("ShaExt::detect never succeeds off x86-64");
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::K;
    use std::arch::x86_64::*;

    /// Message words `4q..4q + 4` of `block`, big-endian, lowest lane first.
    #[target_feature(enable = "sse4.1")]
    fn quad(block: &[u8; 64], q: usize) -> __m128i {
        let half = |o: usize| i64::from_le_bytes(std::array::from_fn(|i| block[16 * q + o + i]));
        let bytes = _mm_set_epi64x(half(8), half(0));
        // Each 32-bit lane's bytes reversed: little-endian loads, big-endian words.
        _mm_shuffle_epi8(
            bytes,
            _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203),
        )
    }

    /// The compression of every stream, the `N` streams' instructions
    /// interleaved round by round so their dependency chains overlap.
    ///
    /// `sha256rnds2` keeps the state as two vectors, `abef` (lanes high to
    /// low: a, b, e, f) and `cdgh`, and runs two rounds per instruction on
    /// the low two lanes of a `W + K` vector; `sha256msg1`/`sha256msg2` extend
    /// the message schedule four words at a time.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress<const N: usize>(states: &mut [[u32; 8]; N], blocks: &[[u8; 64]; N]) {
        let mut abef: [__m128i; N] = std::array::from_fn(|s| {
            let [a, b, _, _, e, f, _, _] = states[s].map(|word| word as i32);
            _mm_set_epi32(a, b, e, f)
        });
        let mut cdgh: [__m128i; N] = std::array::from_fn(|s| {
            let [_, _, c, d, _, _, g, h] = states[s].map(|word| word as i32);
            _mm_set_epi32(c, d, g, h)
        });
        let (abef0, cdgh0) = (abef, cdgh);
        // The last four schedule quads, quad `q` in slot `q % 4`.
        let mut w: [[__m128i; N]; 4] =
            std::array::from_fn(|q| std::array::from_fn(|s| quad(&blocks[s], q)));
        // Rounds `4q..4q + 4` of every stream, first extending the schedule
        // by quad `q` when it is past the message.
        macro_rules! quad_rounds {
            ($($q:literal)*) => {$({
                const Q: usize = $q;
                let k = _mm_set_epi32(
                    K[4 * Q + 3] as i32,
                    K[4 * Q + 2] as i32,
                    K[4 * Q + 1] as i32,
                    K[4 * Q] as i32,
                );
                for s in 0..N {
                    if Q >= 4 {
                        let [w0, w1, w2, w3] = [Q % 4, (Q + 1) % 4, (Q + 2) % 4, (Q + 3) % 4];
                        let t = _mm_add_epi32(
                            _mm_sha256msg1_epu32(w[w0][s], w[w1][s]),
                            _mm_alignr_epi8::<4>(w[w3][s], w[w2][s]),
                        );
                        w[w0][s] = _mm_sha256msg2_epu32(t, w[w3][s]);
                    }
                    let wk = _mm_add_epi32(w[Q % 4][s], k);
                    cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
                    abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], _mm_shuffle_epi32::<0x0E>(wk));
                }
            })*};
        }
        quad_rounds!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        for s in 0..N {
            let x = _mm_add_epi32(abef[s], abef0[s]);
            let y = _mm_add_epi32(cdgh[s], cdgh0[s]);
            states[s] = [
                _mm_extract_epi32::<3>(x),
                _mm_extract_epi32::<2>(x),
                _mm_extract_epi32::<3>(y),
                _mm_extract_epi32::<2>(y),
                _mm_extract_epi32::<1>(x),
                _mm_extract_epi32::<0>(x),
                _mm_extract_epi32::<1>(y),
                _mm_extract_epi32::<0>(y),
            ]
            .map(|word| word as u32);
        }
    }
}
