//! Number formats supported by SynDCIM macros.
//!
//! The paper's macros are bit-configurable across integer precisions
//! (INT1/2/4/8) and floating-point formats (FP4, FP8, BF16). Floating
//! point is handled RedCIM-style: the FP&INT alignment unit converts FP
//! operands into fixed-point mantissas aligned to the group-wise maximum
//! exponent (with hardware truncation of shifted-out bits), the array
//! performs an integer MAC, and the result carries the shared exponent.

/// A floating-point format as `(exponent bits, mantissa bits)` with an
/// implicit leading one and a sign bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FpFormat {
    /// Exponent field width in bits.
    pub exp_bits: u32,
    /// Stored mantissa field width in bits (excluding the implicit one).
    pub man_bits: u32,
}

impl FpFormat {
    /// FP4 (E2M1).
    pub const FP4: FpFormat = FpFormat { exp_bits: 2, man_bits: 1 };
    /// FP8 (E4M3).
    pub const FP8: FpFormat = FpFormat { exp_bits: 4, man_bits: 3 };
    /// BF16 (E8M7).
    pub const BF16: FpFormat = FpFormat { exp_bits: 8, man_bits: 7 };

    /// Total storage width: sign + exponent + mantissa.
    pub fn total_bits(&self) -> u32 {
        1 + self.exp_bits + self.man_bits
    }

    /// Width of the signed aligned mantissa produced by the alignment
    /// unit: implicit one + stored mantissa + sign.
    pub fn aligned_bits(&self) -> u32 {
        self.man_bits + 2
    }

    /// Exponent bias (`2^(e-1) − 1`).
    pub fn bias(&self) -> i32 {
        (1 << (self.exp_bits - 1)) - 1
    }

    /// Largest exponent field value (reserved encodings are not modelled;
    /// the DCIM datapath treats all exponents as finite).
    pub fn max_exp_field(&self) -> u32 {
        (1 << self.exp_bits) - 1
    }

    /// Conventional name, e.g. `"FP8"` or `"BF16"`.
    pub fn name(&self) -> &'static str {
        match (self.exp_bits, self.man_bits) {
            (2, 1) => "FP4",
            (4, 3) => "FP8",
            (8, 7) => "BF16",
            _ => "FPx",
        }
    }
}

impl std::fmt::Display for FpFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (E{}M{})", self.name(), self.exp_bits, self.man_bits)
    }
}

/// An operand precision: signed integer of a given width, or floating
/// point in a given format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// Signed two's-complement integer of the given bit width.
    Int(u32),
    /// Floating point in the given format.
    Fp(FpFormat),
}

impl Precision {
    /// INT4 shorthand.
    pub const INT4: Precision = Precision::Int(4);
    /// INT8 shorthand.
    pub const INT8: Precision = Precision::Int(8);

    /// Width of the integer the datapath actually processes: the operand
    /// width for INT, or the signed aligned mantissa width for FP.
    pub fn datapath_bits(&self) -> u32 {
        match self {
            Precision::Int(b) => *b,
            Precision::Fp(f) => f.aligned_bits(),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Int(b) => write!(f, "INT{b}"),
            Precision::Fp(fmt) => write!(f, "{}", fmt.name()),
        }
    }
}

/// A decoded floating-point operand: `(−1)^sign · 1.man · 2^(exp−bias)`.
///
/// Zero is represented with `exp_field == 0 && man_field == 0` and treated
/// as true zero (subnormals collapse to zero, as DCIM datapaths commonly
/// flush them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpValue {
    /// Sign bit.
    pub sign: bool,
    /// Raw exponent field.
    pub exp_field: u32,
    /// Raw mantissa field.
    pub man_field: u32,
}

impl FpValue {
    /// True zero.
    pub const ZERO: FpValue = FpValue { sign: false, exp_field: 0, man_field: 0 };

    /// `true` if the value is (flushed-to-)zero.
    pub fn is_zero(&self) -> bool {
        self.exp_field == 0 && self.man_field == 0
    }

    /// Pack into the raw bit encoding `[sign | exp | man]`.
    pub fn to_bits(&self, fmt: FpFormat) -> u32 {
        ((self.sign as u32) << (fmt.exp_bits + fmt.man_bits))
            | (self.exp_field << fmt.man_bits)
            | self.man_field
    }

    /// Unpack from the raw bit encoding.
    pub fn from_bits(bits: u32, fmt: FpFormat) -> Self {
        let man = bits & ((1 << fmt.man_bits) - 1);
        let exp = (bits >> fmt.man_bits) & ((1 << fmt.exp_bits) - 1);
        let sign = bits >> (fmt.exp_bits + fmt.man_bits) & 1 == 1;
        FpValue { sign, exp_field: exp, man_field: man }
    }

    /// The mantissa with the implicit leading one (0 for zero values).
    pub fn significand(&self, fmt: FpFormat) -> u32 {
        if self.is_zero() {
            0
        } else {
            (1 << fmt.man_bits) | self.man_field
        }
    }

    /// Exact real value as `f64` (all supported formats fit losslessly).
    pub fn to_f64(&self, fmt: FpFormat) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let mag = self.significand(fmt) as f64 / (1u64 << fmt.man_bits) as f64;
        let e = self.exp_field as i32 - fmt.bias();
        let v = mag * 2f64.powi(e);
        if self.sign {
            -v
        } else {
            v
        }
    }

    /// Encode the nearest representable value to `x` (round-to-nearest on
    /// the mantissa, exponent clamped to the finite range; overflow
    /// saturates to the largest finite value).
    pub fn from_f64(x: f64, fmt: FpFormat) -> Self {
        if x == 0.0 || !x.is_finite() {
            return FpValue::ZERO;
        }
        let sign = x < 0.0;
        let mag = x.abs();
        let mut e = mag.log2().floor() as i32;
        let mut frac = mag / 2f64.powi(e); // in [1, 2)
        let mut man = (frac * (1 << fmt.man_bits) as f64).round() as u32;
        if man >= 2 << fmt.man_bits {
            man >>= 1;
            e += 1;
            frac = 1.0;
        }
        let _ = frac;
        let exp_field = e + fmt.bias();
        if exp_field <= 0 {
            return FpValue::ZERO; // flush underflow
        }
        let exp_field = (exp_field as u32).min(fmt.max_exp_field());
        let man_field = man & ((1 << fmt.man_bits) - 1);
        FpValue { sign, exp_field, man_field }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bit_counts() {
        assert_eq!(FpFormat::FP4.total_bits(), 4);
        assert_eq!(FpFormat::FP8.total_bits(), 8);
        assert_eq!(FpFormat::BF16.total_bits(), 16);
        assert_eq!(FpFormat::FP8.aligned_bits(), 5);
        assert_eq!(FpFormat::BF16.bias(), 127);
    }

    #[test]
    fn fp_roundtrip_exact_values() {
        for fmt in [FpFormat::FP4, FpFormat::FP8, FpFormat::BF16] {
            for bits in 0..(1u32 << fmt.total_bits()) {
                let v = FpValue::from_bits(bits, fmt);
                if v.is_zero() || v.exp_field == 0 {
                    continue; // subnormal encodings flush; skip
                }
                let x = v.to_f64(fmt);
                let back = FpValue::from_f64(x, fmt);
                assert_eq!(back.to_f64(fmt), x, "{fmt} bits={bits:b}");
            }
        }
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        // FP8 E4M3: 1.0625 is halfway between 1.0 and 1.125 → rounds away
        // from zero per `f64::round`; 1.07 must become 1.125? No: nearest
        // of 1.07 among {1.0, 1.125} is 1.125 - 1.07 = 0.055 vs 0.07 → 1.125... check both.
        let fmt = FpFormat::FP8;
        assert_eq!(FpValue::from_f64(1.01, fmt).to_f64(fmt), 1.0);
        assert_eq!(FpValue::from_f64(1.12, fmt).to_f64(fmt), 1.125);
        assert_eq!(FpValue::from_f64(-2.24, fmt).to_f64(fmt), -2.25);
    }

    #[test]
    fn precision_display() {
        assert_eq!(Precision::INT4.to_string(), "INT4");
        assert_eq!(Precision::Fp(FpFormat::BF16).to_string(), "BF16");
    }

    #[test]
    fn zero_handling() {
        let z = FpValue::from_f64(0.0, FpFormat::FP8);
        assert!(z.is_zero());
        assert_eq!(z.significand(FpFormat::FP8), 0);
        assert_eq!(z.to_f64(FpFormat::FP8), 0.0);
    }

    #[test]
    fn overflow_saturates_not_infinite() {
        let fmt = FpFormat::FP4; // max finite: exp_field 3, man 1 → 1.5·2^(3-1)=6
        let v = FpValue::from_f64(1e9, fmt);
        assert_eq!(v.exp_field, fmt.max_exp_field());
        assert!(v.to_f64(fmt) > 0.0);
    }
}
