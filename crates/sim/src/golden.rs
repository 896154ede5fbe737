//! Golden behavioural models of the DCIM MAC datapath.
//!
//! These models mirror the hardware schedule *exactly* — bit-serial
//! activations (LSB first, MSB cycle negatively weighted), per-column
//! 1-bit weights fused across columns by the output fusion unit, and
//! FP operands aligned to the group maximum exponent with truncation of
//! shifted-out mantissa bits. Sign-off checks every generated netlist's
//! channels bit-for-bit against [`int_dot`] (over [`fp_align`]ed
//! mantissas for FP); [`DcimChannelTrace`] is the cycle-level oracle the
//! tests here and in the property suite pin equal to it.

use crate::formats::{FpFormat, FpValue};

/// Exact signed dot product (the mathematical reference).
pub fn int_dot(acts: &[i64], weights: &[i64]) -> i64 {
    assert_eq!(acts.len(), weights.len(), "operand length mismatch");
    acts.iter().zip(weights).map(|(a, w)| a * w).sum()
}

/// Extract bit `t` of the two's-complement representation of `v` in
/// `bits` bits.
///
/// # Panics
///
/// Panics if `v` is not representable in `bits` signed bits.
pub fn twos_complement_bit(v: i64, bits: u32, t: u32) -> bool {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    assert!(v >= min && v <= max, "{v} not representable in INT{bits}");
    ((v as u64) >> t) & 1 == 1
}

/// The bit-serial input schedule: element `t` holds bit `t` (LSB first)
/// of every activation.
pub fn bit_serial_schedule(acts: &[i64], bits: u32) -> Vec<Vec<bool>> {
    (0..bits).map(|t| acts.iter().map(|&a| twos_complement_bit(a, bits, t)).collect()).collect()
}

/// Per-cycle column partial sum: the number of rows where both the
/// activation bit and the weight bit are 1 (what the adder tree reduces).
pub fn column_psum(act_bits: &[bool], w_bits: &[bool]) -> u64 {
    assert_eq!(act_bits.len(), w_bits.len());
    act_bits.iter().zip(w_bits).filter(|(a, w)| **a && **w).count() as u64
}

/// Cycle-by-cycle behavioural model of one DCIM output channel.
///
/// `acts` are signed activations in `act_bits` bits; `weights` are signed
/// weights in `w_bits` bits, stored across `w_bits` adjacent columns
/// (column `j` holds bit `j` of every weight). The model reproduces:
///
/// * the adder tree (per-column per-cycle popcount),
/// * the shift-and-adder (bit-serial accumulation with a negatively
///   weighted MSB cycle for signed activations),
/// * the output fusion unit (column fusion with a negatively weighted
///   MSB column for signed weights).
///
/// The result is exactly `Σᵢ actᵢ·weightᵢ` ([`int_dot`]) for in-range
/// operands, which the tests pin.
#[derive(Debug, Clone)]
pub struct DcimChannelTrace {
    /// `psum[j][t]` = adder-tree output of weight-bit column `j` in input
    /// cycle `t`.
    pub psum: Vec<Vec<u64>>,
    /// Shift-and-adder result per column after all input cycles.
    pub shift_add: Vec<i64>,
    /// Fused channel output.
    pub output: i64,
}

impl DcimChannelTrace {
    /// Run the behavioural schedule.
    pub fn run(acts: &[i64], weights: &[i64], act_bits: u32, w_bits: u32) -> Self {
        assert_eq!(acts.len(), weights.len());
        let schedule = bit_serial_schedule(acts, act_bits);
        // Column j holds bit j of each weight (two's complement).
        let w_cols: Vec<Vec<bool>> = (0..w_bits)
            .map(|j| weights.iter().map(|&w| twos_complement_bit(w, w_bits, j)).collect())
            .collect();

        let mut psum = vec![vec![0u64; act_bits as usize]; w_bits as usize];
        for (j, col) in w_cols.iter().enumerate() {
            for (t, bits) in schedule.iter().enumerate() {
                psum[j][t] = column_psum(bits, col);
            }
        }

        // Shift-and-adder: Σ_t ±2^t · psum_t, MSB cycle negative (signed
        // activations). For act_bits == 1 the single bit is the sign bit
        // (INT1 encodes {0, −1}).
        let shift_add: Vec<i64> = psum
            .iter()
            .map(|col| {
                col.iter()
                    .enumerate()
                    .map(|(t, &p)| {
                        let term = (p as i64) << t;
                        if t as u32 == act_bits - 1 && act_bits >= 1 {
                            -term
                        } else {
                            term
                        }
                    })
                    .sum()
            })
            .collect();

        // Output fusion: Σ_j ±2^j · sa_j, MSB column negative (signed
        // weights).
        let output = shift_add
            .iter()
            .enumerate()
            .map(|(j, &sa)| {
                let term = sa << j;
                if j as u32 == w_bits - 1 {
                    -term
                } else {
                    term
                }
            })
            .sum();

        DcimChannelTrace { psum, shift_add, output }
    }
}

/// Result of a hardware-faithful FP dot product: a fixed-point integer
/// sum plus the power-of-two scale shared by the whole group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpDotResult {
    /// Integer dot product of the aligned signed mantissas.
    pub int_sum: i64,
    /// Binary exponent such that the value is `int_sum · 2^scale_exp`.
    pub scale_exp: i32,
}

impl FpDotResult {
    /// The value as `f64`.
    pub fn to_f64(&self) -> f64 {
        self.int_sum as f64 * 2f64.powi(self.scale_exp)
    }
}

/// Align a slice of FP operands to their maximum exponent, producing
/// signed fixed-point mantissas with hardware truncation.
///
/// Returns `(aligned, e_max)`. Each aligned value is
/// `±(significand >> min(e_max − e, man_bits + 1))` — shifts beyond the
/// significand width flush to zero, exactly as the netlist shifter does.
pub fn fp_align(vals: &[FpValue], fmt: FpFormat) -> (Vec<i64>, i32) {
    let e_max = vals.iter().filter(|v| !v.is_zero()).map(|v| v.exp_field).max().unwrap_or(0) as i32;
    let aligned = vals
        .iter()
        .map(|v| {
            if v.is_zero() {
                return 0;
            }
            let shift = e_max - v.exp_field as i32;
            let sig = v.significand(fmt) as i64;
            let mag = if shift > fmt.man_bits as i32 + 1 { 0 } else { sig >> shift };
            if v.sign {
                -mag
            } else {
                mag
            }
        })
        .collect();
    (aligned, e_max)
}

/// Hardware-faithful FP dot product: align both operand groups to their
/// maximum exponents (with truncation), integer-MAC the aligned
/// mantissas, and carry the combined scale.
pub fn fp_dot(acts: &[FpValue], weights: &[FpValue], a_fmt: FpFormat, w_fmt: FpFormat) -> FpDotResult {
    assert_eq!(acts.len(), weights.len());
    let (a_al, ea) = fp_align(acts, a_fmt);
    let (w_al, ew) = fp_align(weights, w_fmt);
    let int_sum = int_dot(&a_al, &w_al);
    let scale_exp = (ea - a_fmt.bias() - a_fmt.man_bits as i32) + (ew - w_fmt.bias() - w_fmt.man_bits as i32);
    FpDotResult { int_sum, scale_exp }
}

/// Exact (f64) FP dot product, for error-bound checks against
/// [`fp_dot`].
pub fn fp_dot_exact(acts: &[FpValue], weights: &[FpValue], a_fmt: FpFormat, w_fmt: FpFormat) -> f64 {
    acts.iter().zip(weights).map(|(a, w)| a.to_f64(a_fmt) * w.to_f64(w_fmt)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_serial_channel_equals_direct_dot() {
        // Exhaustive over a small space: INT3 acts × INT2 weights, 2 rows.
        for a0 in -4i64..4 {
            for a1 in -4i64..4 {
                for w0 in -2i64..2 {
                    for w1 in -2i64..2 {
                        let tr = DcimChannelTrace::run(&[a0, a1], &[w0, w1], 3, 2);
                        assert_eq!(tr.output, a0 * w0 + a1 * w1, "a=({a0},{a1}) w=({w0},{w1})");
                    }
                }
            }
        }
    }

    #[test]
    fn int8_channel_random_rows() {
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let h = 64;
            let acts: Vec<i64> = (0..h).map(|_| (next() as i8) as i64).collect();
            let ws: Vec<i64> = (0..h).map(|_| (next() as i8) as i64).collect();
            let tr = DcimChannelTrace::run(&acts, &ws, 8, 8);
            assert_eq!(tr.output, int_dot(&acts, &ws));
        }
    }

    #[test]
    fn int1_uses_sign_encoding() {
        // INT1 two's complement: bit 1 means −1.
        let tr = DcimChannelTrace::run(&[-1, 0, -1], &[-1, -1, 0], 1, 1);
        assert_eq!(tr.output, 1); // (−1)·(−1) + 0 + 0
    }

    #[test]
    fn psum_matches_popcount() {
        let acts = vec![3i64, 1, 0, 2]; // bits t=0: 1,1,0,0 ; t=1: 1,0,0,1
        let ws = vec![-1i64, -1, -1, 0]; // INT1 encodes {0, −1}; −1 stores bit 1
        let tr = DcimChannelTrace::run(&acts, &ws, 3, 1);
        assert_eq!(tr.psum[0][0], 2); // rows 0,1 have act bit0=1 & w bit=1
        assert_eq!(tr.psum[0][1], 1); // row 0 only (row 3 has w bit=0)
    }

    #[test]
    fn fp_align_no_shift_is_exact() {
        let fmt = FpFormat::FP8;
        // Same exponent everywhere → no truncation, alignment is exact.
        let vals: Vec<FpValue> = [1.0, 1.25, -1.875].iter().map(|&x| FpValue::from_f64(x, fmt)).collect();
        let (aligned, emax) = fp_align(&vals, fmt);
        assert_eq!(emax, fmt.bias()); // exponent of 1.x
        assert_eq!(aligned, vec![8, 10, -15]); // significands of 1.0, 1.25, 1.875
    }

    #[test]
    fn fp_dot_exact_when_exponents_equal() {
        let fmt = FpFormat::FP8;
        let a: Vec<FpValue> = [1.0, -1.5, 1.125].iter().map(|&x| FpValue::from_f64(x, fmt)).collect();
        let w: Vec<FpValue> = [1.25, 1.0, -1.75].iter().map(|&x| FpValue::from_f64(x, fmt)).collect();
        let hw = fp_dot(&a, &w, fmt, fmt);
        let exact = fp_dot_exact(&a, &w, fmt, fmt);
        assert!((hw.to_f64() - exact).abs() < 1e-12, "hw={} exact={exact}", hw.to_f64());
    }

    #[test]
    fn fp_dot_truncation_error_is_bounded() {
        let fmt = FpFormat::FP8;
        let mut x: u64 = 12345;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..100 {
            let n = 16;
            let a: Vec<FpValue> = (0..n).map(|_| FpValue::from_bits(next() as u32 & 0xFF, fmt)).collect();
            let w: Vec<FpValue> = (0..n).map(|_| FpValue::from_bits(next() as u32 & 0xFF, fmt)).collect();
            let hw = fp_dot(&a, &w, fmt, fmt);
            let exact = fp_dot_exact(&a, &w, fmt, fmt);
            // Each aligned mantissa truncates < 1 ulp of the shared scale;
            // the product error is bounded by Σ (|a_i|+|w_i|+1)·ulp².
            let (a_al, ea) = fp_align(&a, fmt);
            let (w_al, ew) = fp_align(&w, fmt);
            let ulp_a = 2f64.powi(ea - fmt.bias() - fmt.man_bits as i32);
            let ulp_w = 2f64.powi(ew - fmt.bias() - fmt.man_bits as i32);
            let bound: f64 = a_al
                .iter()
                .zip(&w_al)
                .map(|(&ai, &wi)| {
                    ulp_a * (wi.abs() as f64 * ulp_w) + ulp_w * (ai.abs() as f64 * ulp_a) + ulp_a * ulp_w
                })
                .sum();
            assert!(
                (hw.to_f64() - exact).abs() <= bound,
                "error {} exceeds bound {bound}",
                (hw.to_f64() - exact).abs()
            );
        }
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn out_of_range_bit_extraction_panics() {
        twos_complement_bit(200, 8, 0);
    }
}
