//! Unified error type for the compiler flow.
//!
//! [`FlowError`] is the typed error every public `implement` / `eval` /
//! `shmoo` entry point returns: spec, netlist and layout failures from
//! the implementation flow, golden-model mismatches from evaluation,
//! and — since the fault-injection subsystem landed — malformed fault
//! plans, out-of-range lanes, unsupported precisions, dimension
//! mismatches and out-of-range operands that previously panicked
//! mid-measurement. [`CoreError`]
//! remains as an alias so existing call sites keep compiling unchanged.

use std::fmt;

use crate::spec::SpecError;
use syndcim_engine::EngineError;
use syndcim_layout::LayoutError;
use syndcim_netlist::NetlistError;

/// Backwards-compatible name for [`FlowError`] (the original seed
/// error type grew into the flow-wide one).
pub type CoreError = FlowError;

/// Any error the compiler flow can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Specification validation failed.
    Spec(SpecError),
    /// The generated netlist is malformed (internal error).
    Netlist(NetlistError),
    /// Placement or design-rule checking failed.
    Layout(LayoutError),
    /// No design in the search space met the constraints.
    NoFeasibleDesign,
    /// A simulated macro output disagreed with the golden model.
    FunctionalMismatch {
        /// Output channel index (`usize::MAX` for the alignment unit).
        channel: usize,
        /// Hardware value.
        got: i64,
        /// Golden-model value.
        want: i64,
    },
    /// The batch engine rejected a fault plan or lane request
    /// (out-of-range net/lane, contradictory stuck-ats, lane-set
    /// misuse).
    Engine(EngineError),
    /// A measurement asked for a precision the macro does not support.
    Precision {
        /// Requested activation/weight precision in bits.
        pa: u32,
        /// Largest precision the macro was built for.
        max: u32,
    },
    /// A measurement input had the wrong shape.
    Dimension {
        /// What was mis-shaped (e.g. `"weight vectors"`).
        what: &'static str,
        /// Length found.
        got: usize,
        /// Length required.
        want: usize,
    },
    /// A measurement operand does not fit the requested precision.
    OperandRange {
        /// Which operand (`"activation"` or `"weight"`).
        what: &'static str,
        /// The offending value.
        value: i64,
        /// Signed two's-complement width it must fit.
        bits: u32,
    },
    /// A lane-parallel measurement asked for more concurrent patterns
    /// or samples than the engine carries (or zero).
    PatternCount {
        /// Requested pattern/sample count.
        patterns: usize,
        /// Engine lane capacity.
        max: usize,
    },
    /// An FP measurement was requested on a macro built without an FP
    /// alignment unit.
    MissingFpUnit,
    /// A sweep axis (voltages, frequencies, samples) was empty.
    EmptyAxis {
        /// Which axis was empty.
        axis: &'static str,
    },
    /// A sweep axis held a NaN or infinite value.
    NonFiniteAxis {
        /// Which axis held it.
        axis: &'static str,
        /// The first such value.
        value: f64,
    },
    /// A design choice the generators cannot build for the spec: tree
    /// retiming without the tree/S&A register, a column split that is
    /// not a power of two cutting H into trees of at least two rows, or
    /// a mult/mux style that does not scale to the spec's MCR.
    InvalidChoice {
        /// The choice's label ([`crate::DesignChoice::label`]).
        choice: String,
        /// What the generators require of it.
        reason: &'static str,
    },
    /// A variation model's mean is not finite and positive, or its
    /// sigma is not finite and non-negative.
    Variation {
        /// The model's mean delay multiplier.
        mean: f64,
        /// The model's sigma.
        sigma: f64,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Spec(e) => write!(f, "invalid specification: {e}"),
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::Layout(e) => write!(f, "layout error: {e}"),
            FlowError::NoFeasibleDesign => write!(f, "no design in the search space meets the constraints"),
            FlowError::FunctionalMismatch { channel, got, want } => {
                write!(f, "macro output mismatch on channel {channel}: got {got}, expected {want}")
            }
            FlowError::Engine(e) => write!(f, "engine rejected the request: {e}"),
            FlowError::Precision { pa, max } => {
                write!(f, "unsupported precision INT{pa} (macro supports up to {max} bits, powers of two)")
            }
            FlowError::Dimension { what, got, want } => {
                write!(f, "dimension mismatch: {what} has length {got}, expected {want}")
            }
            FlowError::OperandRange { what, value, bits } => {
                write!(f, "{what} {value} not representable in INT{bits}")
            }
            FlowError::PatternCount { patterns, max } => {
                write!(f, "pattern count {patterns} outside 1..={max}")
            }
            FlowError::MissingFpUnit => write!(f, "macro has no FP alignment unit"),
            FlowError::EmptyAxis { axis } => write!(f, "sweep axis `{axis}` is empty"),
            FlowError::NonFiniteAxis { axis, value } => {
                write!(f, "sweep axis `{axis}` holds non-finite value {value}")
            }
            FlowError::InvalidChoice { choice, reason } => write!(f, "design choice {choice}: {reason}"),
            FlowError::Variation { mean, sigma } => write!(
                f,
                "variation model needs a finite mean > 0 and a finite sigma >= 0 (mean {mean}, sigma {sigma})"
            ),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Spec(e) => Some(e),
            FlowError::Netlist(e) => Some(e),
            FlowError::Layout(e) => Some(e),
            FlowError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpecError> for FlowError {
    fn from(e: SpecError) -> Self {
        FlowError::Spec(e)
    }
}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

impl From<LayoutError> for FlowError {
    fn from(e: LayoutError) -> Self {
        FlowError::Layout(e)
    }
}

impl From<EngineError> for FlowError {
    fn from(e: EngineError) -> Self {
        FlowError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_and_sources() {
        let e: CoreError = SpecError::BadMcr.into();
        assert!(e.to_string().contains("invalid specification"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(CoreError::NoFeasibleDesign.to_string().contains("no design"));
    }

    #[test]
    fn robustness_variants_render() {
        let e: FlowError = EngineError::LaneOutOfRange { lane: 9, lanes: 4 }.into();
        assert!(e.to_string().contains("lane 9"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(FlowError::Precision { pa: 16, max: 8 }.to_string().contains("INT16"));
        assert!(FlowError::PatternCount { patterns: 0, max: 256 }.to_string().contains("0"));
        assert!(FlowError::MissingFpUnit.to_string().contains("FP"));
        assert!(FlowError::EmptyAxis { axis: "voltages" }.to_string().contains("voltages"));
        assert_eq!(
            FlowError::NonFiniteAxis { axis: "freqs_mhz", value: f64::INFINITY }.to_string(),
            "sweep axis `freqs_mhz` holds non-finite value inf"
        );
        let e = FlowError::InvalidChoice { choice: "x/y/z+retime".into(), reason: "needs a register" };
        assert_eq!(e.to_string(), "design choice x/y/z+retime: needs a register");
        assert!(FlowError::Variation { mean: 1.0, sigma: f64::NAN }.to_string().contains("sigma NaN"));
        assert!(FlowError::Dimension { what: "weight vectors", got: 3, want: 2 }
            .to_string()
            .contains("weight vectors"));
        assert_eq!(
            FlowError::OperandRange { what: "activation", value: 9, bits: 4 }.to_string(),
            "activation 9 not representable in INT4"
        );
    }
}
