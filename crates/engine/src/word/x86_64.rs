//! ISA-native lane words for x86-64: [`W256Avx2`] (`__m256i`, 256
//! lanes) and [`W512Avx512`] (`__m512i`, 512 lanes).
//!
//! Every intrinsic lives in a `#[target_feature]`-annotated leaf
//! function in this module — nothing above the [`LaneWord`] impls ever
//! touches `core::arch` — following the per-ISA-module idiom of
//! ckt-engine. The leaf functions only
//! inline into callers compiled with a superset of their features,
//! which is exactly what [`LaneWord::dispatch`] provides: the executor
//! wraps each settle pass in one `dispatch` call, the
//! `#[target_feature]` trampoline here re-compiles the generic pass
//! with the ISA enabled, and every op's leaf function inlines into it.
//! One runtime dispatch per batch, zero per op.
//!
//! # Safety contract
//!
//! These words are only constructed after runtime detection
//! (`is_x86_feature_detected!`) has confirmed the ISA — enforced by
//! `crate::simd`'s backend selection, which is the sole path into the
//! [`crate::EngineSim`] variants that use them. The cold accessors
//! (`mask`, `get_u64`, lane reads) use plain loads/stores and are safe
//! on any x86-64; only the hot-path leaf functions require the feature.

use core::arch::x86_64::*;

use super::{mask_chunks, LaneWord};

/// 256 simulation lanes in one AVX2 `__m256i` register.
///
/// Bit-identical to [`super::W256`] by construction: the chunk layout
/// is the same `[u64; 4]`, only the AND/OR/XOR/NOT/MUX data path runs
/// on `_mm256_*` intrinsics. Only constructed after `avx2` has been
/// detected (see the module-level safety contract).
#[derive(Clone, Copy)]
#[repr(transparent)]
pub struct W256Avx2(__m256i);

impl W256Avx2 {
    #[inline]
    fn to_array(self) -> [u64; 4] {
        // SAFETY: __m256i and [u64; 4] are both 32 plain data bytes.
        unsafe { core::mem::transmute(self.0) }
    }

    #[inline]
    fn from_array(a: [u64; 4]) -> Self {
        // SAFETY: as above; a plain 32-byte reinterpretation.
        W256Avx2(unsafe { core::mem::transmute::<[u64; 4], __m256i>(a) })
    }
}

impl std::fmt::Debug for W256Avx2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("W256Avx2").field(&self.to_array()).finish()
    }
}

impl PartialEq for W256Avx2 {
    fn eq(&self, other: &Self) -> bool {
        self.to_array() == other.to_array()
    }
}

impl Eq for W256Avx2 {}

#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_dispatch<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_and(a: __m256i, b: __m256i) -> __m256i {
    _mm256_and_si256(a, b)
}

#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_or(a: __m256i, b: __m256i) -> __m256i {
    _mm256_or_si256(a, b)
}

#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_xor(a: __m256i, b: __m256i) -> __m256i {
    _mm256_xor_si256(a, b)
}

#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_not(a: __m256i) -> __m256i {
    _mm256_xor_si256(a, _mm256_set1_epi64x(-1))
}

/// `(s & d1) | (!s & d0)` in two ops — `vpandn` computes `!s & d0`
/// directly.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn avx2_mux(d0: __m256i, d1: __m256i, s: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_and_si256(s, d1), _mm256_andnot_si256(s, d0))
}

impl LaneWord for W256Avx2 {
    const LANES: usize = 256;
    const WORDS: usize = 4;

    #[inline]
    fn splat(value: bool) -> Self {
        Self::from_array([u64::splat(value); 4])
    }

    #[inline]
    fn mask(lanes: usize) -> Self {
        Self::from_array(mask_chunks(lanes))
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        // SAFETY: module contract — only constructed with avx2 present.
        W256Avx2(unsafe { avx2_and(self.0, other.0) })
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        // SAFETY: module contract.
        W256Avx2(unsafe { avx2_or(self.0, other.0) })
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        // SAFETY: module contract.
        W256Avx2(unsafe { avx2_xor(self.0, other.0) })
    }

    #[inline]
    fn not(self) -> Self {
        // SAFETY: module contract.
        W256Avx2(unsafe { avx2_not(self.0) })
    }

    #[inline]
    fn mux(d0: Self, d1: Self, s: Self) -> Self {
        // SAFETY: module contract.
        W256Avx2(unsafe { avx2_mux(d0.0, d1.0, s.0) })
    }

    #[inline]
    fn popcount_accum(self, mask: Self, acc: &mut u64) {
        // AVX2 has no vector popcount; the scalar `popcnt` chain over
        // the four chunks is what the portable word compiles to anyway.
        let (a, m) = (self.to_array(), mask.to_array());
        let mut n = 0u32;
        for i in 0..4 {
            n += (a[i] & m[i]).count_ones();
        }
        *acc += n as u64;
    }

    #[inline]
    fn get_u64(self, idx: usize) -> u64 {
        self.to_array()[idx]
    }

    #[inline]
    fn set_u64(&mut self, idx: usize, word: u64) {
        let mut a = self.to_array();
        a[idx] = word;
        *self = Self::from_array(a);
    }

    #[inline(always)]
    fn dispatch<R>(f: impl FnOnce() -> R) -> R {
        debug_assert!(is_x86_feature_detected!("avx2"), "W256Avx2 constructed without AVX2");
        // SAFETY: module contract — this word type exists only on hosts
        // where `avx2` was detected at backend selection.
        unsafe { avx2_dispatch(f) }
    }
}

/// 512 simulation lanes in one AVX-512 `__m512i` register.
///
/// Bit-identical to [`super::W512`] by construction; MUX lowers to a
/// single `vpternlogq` and toggle accounting to `vpopcntq` + a
/// horizontal add (`avx512vpopcntdq`). Only constructed after both
/// `avx512f` and `avx512vpopcntdq` have been detected (see the
/// module-level safety contract).
#[derive(Clone, Copy)]
#[repr(transparent)]
pub struct W512Avx512(__m512i);

impl W512Avx512 {
    #[inline]
    fn to_array(self) -> [u64; 8] {
        // SAFETY: __m512i and [u64; 8] are both 64 plain data bytes.
        unsafe { core::mem::transmute(self.0) }
    }

    #[inline]
    fn from_array(a: [u64; 8]) -> Self {
        // SAFETY: as above; a plain 64-byte reinterpretation.
        W512Avx512(unsafe { core::mem::transmute::<[u64; 8], __m512i>(a) })
    }
}

impl std::fmt::Debug for W512Avx512 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("W512Avx512").field(&self.to_array()).finish()
    }
}

impl PartialEq for W512Avx512 {
    fn eq(&self, other: &Self) -> bool {
        self.to_array() == other.to_array()
    }
}

impl Eq for W512Avx512 {}

#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
unsafe fn avx512_dispatch<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn avx512_and(a: __m512i, b: __m512i) -> __m512i {
    _mm512_and_si512(a, b)
}

#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn avx512_or(a: __m512i, b: __m512i) -> __m512i {
    _mm512_or_si512(a, b)
}

#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn avx512_xor(a: __m512i, b: __m512i) -> __m512i {
    _mm512_xor_si512(a, b)
}

#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn avx512_not(a: __m512i) -> __m512i {
    _mm512_xor_si512(a, _mm512_set1_epi64(-1))
}

/// `(s & d1) | (!s & d0)` as one `vpternlogq`: with operands
/// `(A, B, C) = (s, d1, d0)`, truth-table byte `0xCA` selects
/// `A ? B : C`.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn avx512_mux(d0: __m512i, d1: __m512i, s: __m512i) -> __m512i {
    _mm512_ternarylogic_epi64(s, d1, d0, 0xCA)
}

#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
unsafe fn avx512_popcount(a: __m512i, m: __m512i) -> u64 {
    _mm512_reduce_add_epi64(_mm512_popcnt_epi64(_mm512_and_si512(a, m))) as u64
}

impl LaneWord for W512Avx512 {
    const LANES: usize = 512;
    const WORDS: usize = 8;

    #[inline]
    fn splat(value: bool) -> Self {
        Self::from_array([u64::splat(value); 8])
    }

    #[inline]
    fn mask(lanes: usize) -> Self {
        Self::from_array(mask_chunks(lanes))
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        // SAFETY: module contract — only constructed with avx512f
        // (and avx512vpopcntdq) present.
        W512Avx512(unsafe { avx512_and(self.0, other.0) })
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        // SAFETY: module contract.
        W512Avx512(unsafe { avx512_or(self.0, other.0) })
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        // SAFETY: module contract.
        W512Avx512(unsafe { avx512_xor(self.0, other.0) })
    }

    #[inline]
    fn not(self) -> Self {
        // SAFETY: module contract.
        W512Avx512(unsafe { avx512_not(self.0) })
    }

    #[inline]
    fn mux(d0: Self, d1: Self, s: Self) -> Self {
        // SAFETY: module contract.
        W512Avx512(unsafe { avx512_mux(d0.0, d1.0, s.0) })
    }

    #[inline]
    fn popcount_accum(self, mask: Self, acc: &mut u64) {
        // SAFETY: module contract.
        *acc += unsafe { avx512_popcount(self.0, mask.0) };
    }

    #[inline]
    fn get_u64(self, idx: usize) -> u64 {
        self.to_array()[idx]
    }

    #[inline]
    fn set_u64(&mut self, idx: usize, word: u64) {
        let mut a = self.to_array();
        a[idx] = word;
        *self = Self::from_array(a);
    }

    #[inline(always)]
    fn dispatch<R>(f: impl FnOnce() -> R) -> R {
        debug_assert!(
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq"),
            "W512Avx512 constructed without AVX-512"
        );
        // SAFETY: module contract — this word type exists only on hosts
        // where `avx512f` + `avx512vpopcntdq` were detected at backend
        // selection.
        unsafe { avx512_dispatch(f) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::{W256, W512};

    /// Deterministic pattern stream (splitmix64) — no dev-dep needed.
    fn patterns(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn avx2_word_matches_portable_w256_bit_for_bit() {
        if !is_x86_feature_detected!("avx2") {
            eprintln!("skipping: host lacks avx2");
            return;
        }
        let ps = patterns(7, 64);
        for c in ps.chunks(8) {
            let (pa, pb) = (W256([c[0], c[1], c[2], c[3]]), W256([c[4], c[5], c[6], c[7]]));
            let va = W256Avx2::from_array(pa.0);
            let vb = W256Avx2::from_array(pb.0);
            assert_eq!(va.and(vb).to_array(), pa.and(pb).0);
            assert_eq!(va.or(vb).to_array(), pa.or(pb).0);
            assert_eq!(va.xor(vb).to_array(), pa.xor(pb).0);
            assert_eq!(va.not().to_array(), pa.not().0);
            assert_eq!(W256Avx2::mux(va, vb, va.not()).to_array(), W256::mux(pa, pb, pa.not()).0, "mux");
            for lanes in [1, 63, 64, 65, 200, 255, 256] {
                assert_eq!(W256Avx2::mask(lanes).to_array(), W256::mask(lanes).0, "mask({lanes})");
                let (mut got, mut want) = (0u64, 0u64);
                va.popcount_accum(W256Avx2::mask(lanes), &mut got);
                pa.popcount_accum(W256::mask(lanes), &mut want);
                assert_eq!(got, want, "popcount({lanes})");
            }
        }
        let inside = W256Avx2::dispatch(|| 41) + 1;
        assert_eq!(inside, 42);
    }

    #[test]
    fn avx512_word_matches_portable_w512_bit_for_bit() {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")) {
            eprintln!("skipping: host lacks avx512f+avx512vpopcntdq");
            return;
        }
        let ps = patterns(11, 128);
        for c in ps.chunks(16) {
            let pa = W512(std::array::from_fn(|i| c[i]));
            let pb = W512(std::array::from_fn(|i| c[8 + i]));
            let va = W512Avx512::from_array(pa.0);
            let vb = W512Avx512::from_array(pb.0);
            assert_eq!(va.and(vb).to_array(), pa.and(pb).0);
            assert_eq!(va.or(vb).to_array(), pa.or(pb).0);
            assert_eq!(va.xor(vb).to_array(), pa.xor(pb).0);
            assert_eq!(va.not().to_array(), pa.not().0);
            assert_eq!(W512Avx512::mux(va, vb, vb.not()).to_array(), W512::mux(pa, pb, pb.not()).0, "mux");
            for lanes in [1, 64, 255, 256, 257, 448, 449, 511, 512] {
                assert_eq!(W512Avx512::mask(lanes).to_array(), W512::mask(lanes).0, "mask({lanes})");
                let (mut got, mut want) = (0u64, 0u64);
                va.popcount_accum(W512Avx512::mask(lanes), &mut got);
                pa.popcount_accum(W512::mask(lanes), &mut want);
                assert_eq!(got, want, "popcount({lanes})");
            }
        }
        let mut w = W512Avx512::splat(false);
        for lane in [0usize, 255, 256, 448, 511] {
            w = w.with_lane(lane, true);
            assert!(w.lane(lane), "lane {lane}");
        }
        assert_eq!(W512Avx512::dispatch(|| 7), 7);
    }
}
