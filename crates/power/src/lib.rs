//! # syndcim-power — power, energy and efficiency analysis
//!
//! The power-sign-off substrate: toggle-driven dynamic power (from the
//! cycle simulator), clock and leakage power, and the TOPS / TOPS/W /
//! TOPS/mm² metrics in which the paper reports results.
//!
//! Like simulation and timing, power analysis has a reference and a
//! compiled backend: [`PowerAnalyzer`] walks the module per report,
//! [`CompiledPower`] (from [`CompiledPower::from_lowering`]) bakes the
//! walk into dense struct-of-arrays columns over the shared IR's net slots
//! so one report is one linear `toggles·column` pass — bit-identical to
//! the reference. [`CompiledPower::report_many`] batches reports and
//! runs one such pass per run of consecutive same-corner points,
//! scaling it per frequency, so callers order their points
//! corner-major.
//!
//! ```
//! use syndcim_power::{MacThroughput, tops_per_w};
//! use syndcim_sim::Precision;
//!
//! let t = MacThroughput { h: 64, w: 64, act: Precision::Int(1), weight: Precision::Int(1) };
//! let tops = t.tops(1100.0); // ≈ 9 TOPS, the paper's headline
//! assert!(tops > 8.9 && tops < 9.1);
//! assert!(tops_per_w(tops, 50_000.0) > 100.0);
//! ```

pub mod analyzer;
pub mod artifact;
pub mod compiled;
pub mod metrics;

pub use analyzer::{PowerAnalyzer, PowerReport};
pub use compiled::CompiledPower;
pub use metrics::{tops_per_mm2, tops_per_w, MacThroughput};
