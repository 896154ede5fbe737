//! The [`LaneWord`] abstraction: one machine word carrying N independent
//! simulation lanes, one bit per lane.
//!
//! The executor ([`crate::BatchExec`]) is generic over its lane word.
//! Three portable widths are provided here, and they are the only lane
//! words:
//!
//! * [`u64`] — 64 lanes, the classic single-register hot path;
//! * [`W256`] — 256 lanes as `[u64; 4]`, written as straight-line
//!   element-wise code (no intrinsics) so LLVM lowers it to whatever
//!   vector unit the pass is compiled for (SSE2 pairs, AVX2 one
//!   register); the idiom follows ckt-engine's wide-word module.
//! * [`W512`] — 512 lanes as `[u64; 8]`, the full-width register an
//!   AVX-512 machine can fill.
//!
//! Vector ISAs are not separate words: [`crate::SimdBackend`] selects a
//! `#[target_feature]` frame at run time, and the executor's whole pass
//! — these words' operations included — inlines into it and compiles
//! with the ISA enabled.
//!
//! Toggle accounting is *defined* per lane word — `popcount_accum`
//! counts the set lanes of `(prev ^ next) & mask` — so any width
//! reports exactly the toggle totals of the same stimulus run lane by
//! lane on the `u64` backend or the interpreter. The differential tests
//! in `syndcim-engine` and `tests/engine_differential.rs` pin that
//! equivalence down bit by bit.

/// Low-`lanes` mask as `N` 64-bit chunks — shared by every multi-chunk
/// lane word so mask semantics cannot drift between widths.
///
/// # Panics
///
/// Panics if `lanes` is zero or exceeds `N * 64`.
#[inline]
pub(crate) fn mask_chunks<const N: usize>(lanes: usize) -> [u64; N] {
    assert!((1..=N * 64).contains(&lanes), "lane count {lanes} outside 1..={}", N * 64);
    std::array::from_fn(|i| {
        let remaining = lanes.saturating_sub(i * 64);
        match remaining {
            0 => 0,
            1..=63 => (1u64 << remaining) - 1,
            _ => !0,
        }
    })
}

/// One simulation word: `LANES` independent lanes, one bit each.
///
/// Implementations must behave as a fixed-width bit vector: every lane
/// evaluates independently under the bit operations, and the per-64-bit
/// chunk accessors ([`LaneWord::get_u64`] / [`LaneWord::set_u64`])
/// expose lane `l` as bit `l % 64` of chunk `l / 64`.
pub trait LaneWord: Copy + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// Number of lanes this word carries.
    const LANES: usize;

    /// Number of 64-bit chunks (`LANES / 64`).
    const WORDS: usize;

    /// Broadcast one logic value to every lane.
    fn splat(value: bool) -> Self;

    /// Mask word with the low `lanes` lanes set.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`LaneWord::LANES`].
    fn mask(lanes: usize) -> Self;

    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;

    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;

    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;

    /// Lane-wise NOT.
    fn not(self) -> Self;

    /// Add the number of set lanes of `self & mask` to `acc` — the
    /// toggle-accounting primitive.
    fn popcount_accum(self, mask: Self, acc: &mut u64);

    /// Whether any lane is set — the change test behind the executor's
    /// activity flags. The wide words OR-reduce their chunks: comparing
    /// with `splat(false)` through `PartialEq` measured up to 1.7×
    /// slower per step on the 512-lane word.
    fn any(self) -> bool;

    /// 64-lane chunk `idx` (lanes `idx*64 .. idx*64+64`).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= Self::WORDS`.
    fn get_u64(self, idx: usize) -> u64;

    /// Replace 64-lane chunk `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= Self::WORDS`.
    fn set_u64(&mut self, idx: usize, word: u64);

    /// Read one lane.
    #[inline]
    fn lane(self, lane: usize) -> bool {
        (self.get_u64(lane / 64) >> (lane % 64)) & 1 == 1
    }

    /// Return `self` with one lane replaced.
    #[inline]
    fn with_lane(mut self, lane: usize, value: bool) -> Self {
        let chunk = self.get_u64(lane / 64);
        let bit = 1u64 << (lane % 64);
        self.set_u64(lane / 64, if value { chunk | bit } else { chunk & !bit });
        self
    }

    /// Per-lane 2:1 select: `(s & d1) | (!s & d0)`.
    #[inline]
    fn mux(d0: Self, d1: Self, s: Self) -> Self {
        s.and(d1).or(s.not().and(d0))
    }
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const WORDS: usize = 1;

    #[inline]
    fn splat(value: bool) -> Self {
        if value {
            !0
        } else {
            0
        }
    }

    #[inline]
    fn mask(lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "lane count {lanes} outside 1..=64");
        if lanes == 64 {
            !0
        } else {
            (1u64 << lanes) - 1
        }
    }

    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }

    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }

    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }

    #[inline]
    fn not(self) -> Self {
        !self
    }

    #[inline]
    fn popcount_accum(self, mask: Self, acc: &mut u64) {
        *acc += (self & mask).count_ones() as u64;
    }

    #[inline]
    fn any(self) -> bool {
        self != 0
    }

    #[inline]
    fn get_u64(self, idx: usize) -> u64 {
        assert_eq!(idx, 0, "u64 word has one 64-lane chunk");
        self
    }

    #[inline]
    fn set_u64(&mut self, idx: usize, word: u64) {
        assert_eq!(idx, 0, "u64 word has one 64-lane chunk");
        *self = word;
    }
}

/// Generate a portable multi-chunk lane word: `[u64; N]` element-wise
/// code with no intrinsics, aligned to its full width so a slot vector
/// lays out as clean vector registers.
macro_rules! portable_wide_word {
    ($(#[$doc:meta])* $name:ident, $chunks:expr, $align:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(align($align))]
        pub struct $name(pub [u64; $chunks]);

        impl LaneWord for $name {
            const LANES: usize = $chunks * 64;
            const WORDS: usize = $chunks;

            #[inline]
            fn splat(value: bool) -> Self {
                $name([u64::splat(value); $chunks])
            }

            #[inline]
            fn mask(lanes: usize) -> Self {
                $name(mask_chunks(lanes))
            }

            #[inline]
            fn and(self, other: Self) -> Self {
                $name(std::array::from_fn(|i| self.0[i] & other.0[i]))
            }

            #[inline]
            fn or(self, other: Self) -> Self {
                $name(std::array::from_fn(|i| self.0[i] | other.0[i]))
            }

            #[inline]
            fn xor(self, other: Self) -> Self {
                $name(std::array::from_fn(|i| self.0[i] ^ other.0[i]))
            }

            #[inline]
            fn not(self) -> Self {
                $name(std::array::from_fn(|i| !self.0[i]))
            }

            #[inline]
            fn popcount_accum(self, mask: Self, acc: &mut u64) {
                let mut n = 0u32;
                for i in 0..$chunks {
                    n += (self.0[i] & mask.0[i]).count_ones();
                }
                *acc += n as u64;
            }

            #[inline]
            fn any(self) -> bool {
                self.0.iter().fold(0, |acc, &c| acc | c) != 0
            }

            #[inline]
            fn get_u64(self, idx: usize) -> u64 {
                self.0[idx]
            }

            #[inline]
            fn set_u64(&mut self, idx: usize, word: u64) {
                self.0[idx] = word;
            }
        }
    };
}

portable_wide_word! {
    /// 256 simulation lanes as four `u64` chunks. Aligned to 32 bytes so
    /// a slot vector lays out as clean vector registers.
    W256, 4, 32
}

portable_wide_word! {
    /// 512 simulation lanes as eight `u64` chunks. Aligned to 64 bytes —
    /// one full AVX-512 register (or a cache line) per slot.
    W512, 8, 64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_mask_and_popcount() {
        assert_eq!(u64::mask(64), !0);
        assert_eq!(u64::mask(3), 0b111);
        let mut acc = 0;
        0xF0u64.popcount_accum(u64::mask(6), &mut acc);
        assert_eq!(acc, 2); // bits 4 and 5 survive the 6-lane mask
    }

    #[test]
    fn w256_mask_spans_chunk_boundaries() {
        assert_eq!(W256::mask(256), W256([!0; 4]));
        assert_eq!(W256::mask(64), W256([!0, 0, 0, 0]));
        assert_eq!(W256::mask(65), W256([!0, 1, 0, 0]));
        assert_eq!(W256::mask(130), W256([!0, !0, 0b11, 0]));
        assert_eq!(W256::mask(1), W256([1, 0, 0, 0]));
    }

    #[test]
    fn w512_mask_spans_chunk_boundaries() {
        assert_eq!(W512::mask(512), W512([!0; 8]));
        assert_eq!(W512::mask(256), W512([!0, !0, !0, !0, 0, 0, 0, 0]));
        assert_eq!(W512::mask(257), W512([!0, !0, !0, !0, 1, 0, 0, 0]));
        assert_eq!(W512::mask(449), W512([!0, !0, !0, !0, !0, !0, !0, 1]));
        assert_eq!(W512::mask(1), W512([1, 0, 0, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn w256_lane_roundtrip_and_ops() {
        let mut w = W256::splat(false);
        for lane in [0usize, 63, 64, 127, 128, 200, 255] {
            w = w.with_lane(lane, true);
            assert!(w.lane(lane));
        }
        let inv = w.not();
        for lane in [0usize, 63, 64, 127, 128, 200, 255] {
            assert!(!inv.lane(lane));
        }
        assert_eq!(w.and(inv), W256::splat(false));
        assert_eq!(w.or(inv), W256::splat(true));
        assert_eq!(w.xor(w), W256::splat(false));
        let mut acc = 0;
        w.popcount_accum(W256::mask(256), &mut acc);
        assert_eq!(acc, 7);
        acc = 0;
        w.popcount_accum(W256::mask(64), &mut acc);
        assert_eq!(acc, 2); // lanes 0 and 63
    }

    #[test]
    fn w512_lane_roundtrip_and_ops() {
        let mut w = W512::splat(false);
        for lane in [0usize, 63, 255, 256, 448, 511] {
            w = w.with_lane(lane, true);
            assert!(w.lane(lane));
        }
        let inv = w.not();
        for lane in [0usize, 63, 255, 256, 448, 511] {
            assert!(!inv.lane(lane));
        }
        assert_eq!(w.and(inv), W512::splat(false));
        assert_eq!(w.or(inv), W512::splat(true));
        assert_eq!(w.xor(w), W512::splat(false));
        let mut acc = 0;
        w.popcount_accum(W512::mask(512), &mut acc);
        assert_eq!(acc, 6);
        acc = 0;
        w.popcount_accum(W512::mask(256), &mut acc);
        assert_eq!(acc, 3); // lanes 0, 63 and 255 survive the 256-lane mask
        assert_eq!(std::mem::align_of::<W512>(), 64);
    }

    #[test]
    fn mux_selects_per_lane() {
        let d0 = W256::mask(100);
        let d1 = W256::splat(true);
        let s = W256::mask(50);
        let out = W256::mux(d0, d1, s);
        for lane in 0..256 {
            let want = if lane < 50 { d1.lane(lane) } else { d0.lane(lane) };
            assert_eq!(out.lane(lane), want, "lane {lane}");
        }
    }
}
