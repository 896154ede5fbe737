//! # syndcim-sim — cycle-accurate simulation, golden models, workloads
//!
//! The verification and activity-measurement substrate:
//!
//! * [`Simulator`] — levelized two-value cycle simulator with per-net
//!   toggle counting (the gate-level-simulation role of the paper's
//!   sign-off flow);
//! * [`SimBackend`] — the word-oriented backend trait shared with the
//!   compiled bit-parallel engine (`syndcim-engine`); the interpreter
//!   is its 1-lane reference implementation;
//! * [`golden`] — the exact dot product `int_dot` every generated
//!   netlist's channels are checked against bit-for-bit (over aligned
//!   mantissas for FP), and `DcimChannelTrace`, the cycle-level oracle
//!   of the bit-serial DCIM MAC schedule pinned equal to it;
//! * [`formats`] — INT1/2/4/8, FP4, FP8, BF16 operand formats;
//! * [`vectors`] — operand generators with controllable sparsity and bit
//!   density, reproducing the paper's measurement conditions.
//!
//! ```
//! use syndcim_sim::golden::DcimChannelTrace;
//!
//! let acts = [3i64, -2, 7, 0];
//! let weights = [1i64, -4, 2, 5];
//! let trace = DcimChannelTrace::run(&acts, &weights, 4, 4);
//! assert_eq!(trace.output, acts.iter().zip(&weights).map(|(a, w)| a * w).sum::<i64>());
//! ```

pub mod backend;
pub mod formats;
pub mod golden;
pub mod simulator;
pub mod vectors;

pub use backend::SimBackend;
pub use formats::{FpFormat, FpValue, Precision};
pub use simulator::Simulator;
