//! # syndcim-core — the SynDCIM compiler
//!
//! The paper's primary contribution: a performance-aware DCIM compiler
//! with multi-spec-oriented subcircuit synthesis. Given a
//! [`MacroSpec`] (dimensions, MCR, INT/FP precisions, MAC and
//! weight-update frequencies, PPA preferences), the compiler
//!
//! 1. characterizes candidate subcircuits into the SCL
//!    (`syndcim_scl`),
//! 2. runs the heuristic hierarchical [`search()`] (Algorithm 1) —
//!    adder-ladder climbing, retiming, column splitting, OFU
//!    pipelining, register pruning, power/area fine-tuning — to produce
//!    a Pareto frontier of [`DesignPoint`]s,
//! 3. [`implement`]s a selected point through assembly, netlist
//!    cleanup, SDP placement, DRC and parasitic extraction, and
//! 4. signs off with post-layout STA, golden-model-checked simulation
//!    ([`eval`]), [`shmoo()`] analysis and comparison against
//!    [`published`] references.
//!
//! ```no_run
//! use syndcim_core::{search, implement, MacroSpec};
//! use syndcim_scl::Scl;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = MacroSpec::paper_test_chip();
//! let mut scl = Scl::new();
//! let result = search(&spec, &mut scl);
//! let best = result.best(&spec).expect("spec is feasible");
//! let lib = scl.cell_library().clone();
//! let macro_impl = implement(&lib, &spec, &best.choice)?;
//! println!("area = {:.3} mm²", macro_impl.area_mm2());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod arithmetic_support;
pub mod artifact;
pub mod assemble;
pub mod baseline;
pub mod compiled;
pub mod design;
pub mod error;
pub mod eval;
pub mod faults;
pub mod flow;
pub mod pareto;
pub mod published;
pub mod search;
pub mod shmoo;
pub mod spec;

pub use artifact::ARTIFACT_FORMAT;
pub use assemble::{assemble, MacroNetlist};
pub use baseline::BaselineKind;
pub use compiled::CompiledMacro;
pub use design::{DesignChoice, DesignPoint, PpaEstimate};
pub use error::{CoreError, FlowError};
pub use eval::{
    measure_fp, measure_int, measure_weight_update, measure_weight_update_patterns, MacMeasurement,
    WeightUpdateMeasurement, DEFAULT_WU_PATTERNS,
};
pub use faults::{measure_weight_update_coverage, port_net, FaultCoverageReport};
pub use flow::{implement, FlowReport, ImplementedMacro};
pub use pareto::pareto_frontier;
pub use search::{search, SearchResult};
pub use shmoo::{
    shmoo, shmoo_with_power, shmoo_with_power_on, shmoo_yield, PowerBackend, PowerShmoo, Shmoo, StaBackend,
    YieldReport, YieldShmoo,
};
pub use spec::{MacroSpec, PpaWeights, SpecError};

// Fault-plan and variation building blocks, re-exported so campaign
// and yield code needs only `syndcim_core`.
pub use syndcim_engine::{EngineError, Fault, FaultKind, FaultPlan};
pub use syndcim_ir::artifact::{ArtifactError, ArtifactMeta, ArtifactReader, SectionId};
pub use syndcim_sta::VariationModel;
