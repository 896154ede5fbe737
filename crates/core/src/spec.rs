//! Input specifications: the user-facing entry point of the compiler.
//!
//! §III-A: "SynDCIM takes architectural parameters such as dimensions,
//! FP&INT precisions, MCR, and performance constraints including MAC
//! frequency, weight updating frequency, and power-performance-area
//! (PPA) preferences as input specifications."

use std::fmt;
use syndcim_sim::{FpFormat, Precision};

/// Relative PPA preference weights used to rank Pareto-frontier points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaWeights {
    /// Weight on power (higher = prefer low power / energy efficiency).
    pub power: f64,
    /// Weight on area (higher = prefer small macros / area efficiency).
    pub area: f64,
    /// Weight on latency (pipeline depth + serial cycles).
    pub latency: f64,
}

impl Default for PpaWeights {
    fn default() -> Self {
        PpaWeights { power: 1.0, area: 1.0, latency: 0.2 }
    }
}

impl PpaWeights {
    /// Energy-efficiency-leaning preference.
    pub fn energy_leaning() -> Self {
        PpaWeights { power: 3.0, area: 0.5, latency: 0.2 }
    }

    /// Area-efficiency-leaning preference.
    pub fn area_leaning() -> Self {
        PpaWeights { power: 0.5, area: 3.0, latency: 0.2 }
    }
}

/// A complete macro specification.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroSpec {
    /// Array height: activations reduced per adder tree.
    pub h: usize,
    /// Array width: 1-bit weight columns.
    pub w: usize,
    /// Memory-compute ratio (banks per compute site): 1, 2 or 4.
    pub mcr: usize,
    /// Supported signed integer precisions (powers of two, ≤ 8).
    pub int_precisions: Vec<u32>,
    /// Supported floating-point formats.
    pub fp_precisions: Vec<FpFormat>,
    /// Target MAC clock frequency in MHz at `vdd_v`.
    pub f_mac_mhz: f64,
    /// Target weight-update frequency in MHz at `vdd_v`.
    pub f_wu_mhz: f64,
    /// Supply the constraints are specified at, in volts.
    pub vdd_v: f64,
    /// PPA preference weights.
    pub ppa: PpaWeights,
}

/// Specification validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Height/width must be powers of two ≥ 4 (arrays tile in powers of
    /// two).
    BadDimensions,
    /// MCR must be 1, 2 or 4.
    BadMcr,
    /// At least one precision must be requested.
    NoPrecision,
    /// Integer precisions must be powers of two in 1..=8.
    BadIntPrecision,
    /// Every FP format needs at least one exponent bit: the alignment
    /// unit compares exponents.
    BadFpFormat,
    /// The array width must hold at least one output channel at the
    /// widest weight precision.
    WidthTooNarrow,
    /// The supply must be finite and positive.
    BadSupply,
    /// The MAC and weight-update frequencies must be finite and
    /// positive.
    BadFrequency,
    /// PPA weights must be finite and non-negative.
    BadPpaWeights,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::BadDimensions => write!(f, "array dimensions must be powers of two >= 4"),
            SpecError::BadMcr => write!(f, "memory-compute ratio must be 1, 2 or 4"),
            SpecError::NoPrecision => write!(f, "at least one INT or FP precision is required"),
            SpecError::BadIntPrecision => write!(f, "integer precisions must be powers of two in 1..=8"),
            SpecError::BadFpFormat => write!(f, "FP formats need at least one exponent bit"),
            SpecError::WidthTooNarrow => {
                write!(f, "array width cannot hold one channel at the widest weight precision")
            }
            SpecError::BadSupply => write!(f, "supply voltage must be finite and positive"),
            SpecError::BadFrequency => {
                write!(f, "MAC and weight-update frequencies must be finite and positive")
            }
            SpecError::BadPpaWeights => write!(f, "PPA weights must be finite and non-negative"),
        }
    }
}

impl std::error::Error for SpecError {}

impl MacroSpec {
    /// The paper's test-chip specification: 64×64, MCR=2, INT1/2/4/8 +
    /// FP4/8, 800 MHz MAC and weight update at 0.9 V (§IV-A).
    pub fn paper_test_chip() -> Self {
        MacroSpec {
            h: 64,
            w: 64,
            mcr: 2,
            int_precisions: vec![1, 2, 4, 8],
            fp_precisions: vec![FpFormat::FP4, FpFormat::FP8],
            f_mac_mhz: 800.0,
            f_wu_mhz: 800.0,
            vdd_v: 0.9,
            ppa: PpaWeights::default(),
        }
    }

    /// Validate the specification.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !self.h.is_power_of_two() || !self.w.is_power_of_two() || self.h < 4 || self.w < 4 {
            return Err(SpecError::BadDimensions);
        }
        if !matches!(self.mcr, 1 | 2 | 4) {
            return Err(SpecError::BadMcr);
        }
        if self.int_precisions.is_empty() && self.fp_precisions.is_empty() {
            return Err(SpecError::NoPrecision);
        }
        for &p in &self.int_precisions {
            if !p.is_power_of_two() || p > 8 {
                return Err(SpecError::BadIntPrecision);
            }
        }
        if self.fp_precisions.iter().any(|f| f.exp_bits == 0) {
            return Err(SpecError::BadFpFormat);
        }
        if self.w < self.weight_bits() as usize {
            return Err(SpecError::WidthTooNarrow);
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.vdd_v) {
            return Err(SpecError::BadSupply);
        }
        if !positive(self.f_mac_mhz) || !positive(self.f_wu_mhz) {
            return Err(SpecError::BadFrequency);
        }
        let PpaWeights { power, area, latency } = self.ppa;
        if [power, area, latency].iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(SpecError::BadPpaWeights);
        }
        Ok(())
    }

    /// Every precision the macro must support, INT and FP.
    pub fn precisions(&self) -> Vec<Precision> {
        let mut v: Vec<Precision> = self.int_precisions.iter().map(|&b| Precision::Int(b)).collect();
        v.extend(self.fp_precisions.iter().map(|&f| Precision::Fp(f)));
        v
    }

    /// Serial activation bits the datapath must support: the maximum
    /// datapath width over all precisions.
    pub fn act_bits(&self) -> u32 {
        self.precisions().iter().map(|p| p.datapath_bits()).max().unwrap_or(1)
    }

    /// Weight precision (columns fused per channel): the maximum
    /// datapath width rounded up to a power of two.
    pub fn weight_bits(&self) -> u32 {
        self.act_bits().next_power_of_two()
    }

    /// The widest FP format, if the spec needs the alignment unit.
    pub fn widest_fp(&self) -> Option<FpFormat> {
        self.fp_precisions.iter().copied().max_by_key(|f| f.total_bits())
    }

    /// Clock period implied by the MAC frequency, in ps.
    pub fn mac_period_ps(&self) -> f64 {
        1e6 / self.f_mac_mhz
    }

    /// Clock period implied by the weight-update frequency, in ps.
    pub fn wu_period_ps(&self) -> f64 {
        1e6 / self.f_wu_mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_is_valid_and_derives_widths() {
        let s = MacroSpec::paper_test_chip();
        s.validate().unwrap();
        assert_eq!(s.act_bits(), 8); // INT8 dominates FP8 (5 aligned bits)
        assert_eq!(s.weight_bits(), 8);
        assert_eq!(s.widest_fp(), Some(FpFormat::FP8));
        assert!((s.mac_period_ps() - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn bf16_widens_the_datapath() {
        let mut s = MacroSpec::paper_test_chip();
        s.fp_precisions = vec![FpFormat::BF16];
        s.int_precisions = vec![4];
        assert_eq!(s.act_bits(), 9); // BF16 aligned mantissa
        assert_eq!(s.weight_bits(), 16);
        s.w = 16;
        s.validate().unwrap();
        s.w = 8;
        assert_eq!(s.validate().unwrap_err(), SpecError::WidthTooNarrow);
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut s = MacroSpec::paper_test_chip();
        s.h = 48;
        assert_eq!(s.validate().unwrap_err(), SpecError::BadDimensions);
        let mut s = MacroSpec::paper_test_chip();
        s.mcr = 3;
        assert_eq!(s.validate().unwrap_err(), SpecError::BadMcr);
        let mut s = MacroSpec::paper_test_chip();
        s.int_precisions = vec![];
        s.fp_precisions = vec![];
        assert_eq!(s.validate().unwrap_err(), SpecError::NoPrecision);
        let mut s = MacroSpec::paper_test_chip();
        s.int_precisions = vec![6];
        assert_eq!(s.validate().unwrap_err(), SpecError::BadIntPrecision);
        let mut s = MacroSpec::paper_test_chip();
        s.fp_precisions.push(FpFormat { exp_bits: 0, man_bits: 3 });
        assert_eq!(s.validate().unwrap_err(), SpecError::BadFpFormat);
    }

    #[test]
    fn non_finite_or_non_positive_supplies_and_frequencies_are_rejected() {
        for vdd_v in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let s = MacroSpec { vdd_v, ..MacroSpec::paper_test_chip() };
            assert_eq!(s.validate().unwrap_err(), SpecError::BadSupply, "vdd {vdd_v}");
        }
        for f in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            let s = MacroSpec { f_mac_mhz: f, ..MacroSpec::paper_test_chip() };
            assert_eq!(s.validate().unwrap_err(), SpecError::BadFrequency, "f_mac {f}");
            let s = MacroSpec { f_wu_mhz: f, ..MacroSpec::paper_test_chip() };
            assert_eq!(s.validate().unwrap_err(), SpecError::BadFrequency, "f_wu {f}");
        }
    }

    #[test]
    fn non_finite_or_negative_ppa_weights_are_rejected() {
        let zero = PpaWeights { power: 0.0, area: 0.0, latency: 0.0 };
        MacroSpec { ppa: zero, ..MacroSpec::paper_test_chip() }.validate().unwrap();
        for w in [f64::NAN, f64::INFINITY, -1.0] {
            for ppa in [
                PpaWeights { power: w, ..zero },
                PpaWeights { area: w, ..zero },
                PpaWeights { latency: w, ..zero },
            ] {
                let s = MacroSpec { ppa, ..MacroSpec::paper_test_chip() };
                assert_eq!(s.validate().unwrap_err(), SpecError::BadPpaWeights, "{ppa:?}");
            }
        }
    }

    #[test]
    fn ppa_preference_presets_differ() {
        let e = PpaWeights::energy_leaning();
        let a = PpaWeights::area_leaning();
        assert!(e.power > e.area);
        assert!(a.area > a.power);
    }
}
