//! Implementation and sign-off flow (§III-D, Fig. 6): netlist cleanup →
//! SDP placement → DRC/LVS checks → parasitic extraction → post-layout
//! STA — the Design-Compiler + Innovus + PrimeTime loop of the paper.

use syndcim_ir::{join, Lowering, OVERLAP_MIN_INSTANCES};
use syndcim_layout::{check_drc, extract_wires_threads, place, FloorplanConfig, Placement, WireEstimates};
use syndcim_netlist::{optimize, OptReport};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sta::{TimingReport, WireLoads};
use syndcim_telemetry as telemetry;

/// The run report attached to every [`ImplementedMacro`]: the merged
/// telemetry span tree plus every counter/gauge/histogram value at the
/// end of the flow, snapshotted from `syndcim_telemetry`. Empty when
/// telemetry is off (`SYNDCIM_TRACE` unset); serialize with
/// [`syndcim_telemetry::Report::to_json`] (deterministic schema — no
/// wall-clock in structural fields) or render with
/// [`syndcim_telemetry::Report::render`].
pub type FlowReport = telemetry::Report;

use crate::assemble::{assemble, MacroNetlist};
use crate::compiled::{compile_then, CompiledMacro};
use crate::design::DesignChoice;
use crate::error::{CoreError, FlowError};
use crate::spec::MacroSpec;

/// A fully implemented macro: netlist + layout + post-layout timing.
#[derive(Debug)]
pub struct ImplementedMacro {
    /// The (cleaned) macro netlist and metadata.
    pub mac: MacroNetlist,
    /// SDP placement result.
    pub placement: Placement,
    /// Extracted wire parasitics.
    pub wires: WireEstimates,
    /// Netlist-cleanup statistics.
    pub synth_report: OptReport,
    /// Post-layout timing at the spec supply.
    pub timing: TimingReport,
    /// The spec this macro implements.
    pub spec: MacroSpec,
    /// The compiled analysis bundle built at sign-off from **one**
    /// netlist lowering: the simulation program, the wire-annotated
    /// timing program and the wire-annotated power program, reused by
    /// every later query (evaluation, shmoo grids, `fmax` sweeps,
    /// power annotation).
    pub compiled: CompiledMacro,
    /// Telemetry snapshot taken when the flow finished: phase span tree
    /// (`implement.assemble` … `implement.signoff`), compile-time
    /// counters and retained-bytes gauges. Empty when telemetry is off.
    pub report: FlowReport,
}

impl ImplementedMacro {
    /// Die area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.placement.die_area_mm2()
    }

    /// Post-layout maximum frequency in MHz at an operating point, on
    /// the macro's compiled timing program (which carries its own
    /// process parameters, so the library goes unused).
    pub fn fmax_mhz(&self, _lib: &CellLibrary, op: OperatingPoint) -> f64 {
        self.compiled.sta.fmax_mhz(op)
    }
}

/// Run the full implementation flow for one design choice, signing off
/// timing on the compiled STA.
///
/// # Errors
///
/// Returns [`CoreError`] if the spec is invalid, the design choice
/// cannot be built for it ([`FlowError::InvalidChoice`]), the netlist
/// fails validation, or the layout violates design rules.
pub fn implement(
    lib: &CellLibrary,
    spec: &MacroSpec,
    choice: &DesignChoice,
) -> Result<ImplementedMacro, CoreError> {
    telemetry::span!("implement");
    spec.validate()?;
    check_choice(spec, choice)?;
    let mut mac = {
        telemetry::span!("implement.assemble");
        assemble(lib, spec, choice)
    };

    // "Synthesis": constant folding + dead-gate sweep over the generated
    // structure.
    let synth_report = {
        telemetry::span!("implement.optimize");
        optimize(&mut mac.module, lib)
    };

    // Lower the cleaned netlist exactly once, *before* layout:
    // extraction walks the lowering's connectivity, and sign-off
    // compiles its analysis programs from the same IR afterwards.
    let lowering = {
        telemetry::span!("implement.lower");
        Lowering::validated(&mac.module, lib)?
    };

    // SDP place-and-route + checks.
    let placement = {
        telemetry::span!("implement.place");
        place(&mac.module, lib, FloorplanConfig::default())?
    };
    // DRC and extraction only read the placement (extraction walks the
    // lowering's connectivity), so a large module runs them side by
    // side. Extraction stays on the calling thread, which allocates the
    // wire columns the macro keeps; DRC keeps nothing and takes the
    // spawned thread. DRC's error still wins.
    let (mut wires, drc) = join(
        mac.module.instance_count() >= OVERLAP_MIN_INSTANCES,
        || {
            telemetry::span!("implement.wires");
            extract_wires_threads(&mac.module, lib, &placement, lowering.connectivity(), 0)
        },
        || {
            telemetry::span!("implement.drc");
            check_drc(&mac.module, &placement)
        },
    );
    drc?;

    // Post-layout sign-off at the spec corner: compile all three
    // analysis programs (simulation, timing, power) straight from the
    // shared IR; the bundle stays with the macro so evaluation, shmoo
    // grids, fmax sweeps and power annotation never re-walk the netlist.
    // The compilers only borrow the wire columns, so they move into the
    // `WireLoads` view and back rather than being copied. Sign-off reads
    // only the timing program, so it runs on the timing arm as soon as
    // that exists, beside the simulation and power compilers; it adopts
    // the flow's span to stay a phase of `implement`.
    let wire_loads = WireLoads {
        cap_ff: std::mem::take(&mut wires.cap_ff),
        delay_ps: std::mem::take(&mut wires.delay_ps),
    };
    let flow = telemetry::current_span();
    let (compiled, timing) = {
        telemetry::span!("implement.compile");
        compile_then(&mac.module, lib, &wire_loads, lowering, |sta| {
            let _flow = telemetry::adopt(flow);
            telemetry::span!("implement.signoff");
            sta.analyze_at(spec.mac_period_ps(), OperatingPoint::at_voltage(spec.vdd_v))
        })
    };
    (wires.cap_ff, wires.delay_ps) = (wire_loads.cap_ff, wire_loads.delay_ps);

    let report = telemetry::snapshot();
    Ok(ImplementedMacro { mac, placement, wires, synth_report, timing, spec: spec.clone(), compiled, report })
}

/// Reject a design choice that [`assemble`] would panic on for `spec`.
fn check_choice(spec: &MacroSpec, choice: &DesignChoice) -> Result<(), FlowError> {
    let split = choice.column_split.max(1);
    let reason = if choice.tree_retimed && !choice.pipe_tree_sa {
        "tree retiming requires the tree/S&A pipeline register"
    } else if !(split.is_power_of_two() && spec.h.is_multiple_of(split) && spec.h / split >= 2) {
        "column split must be a power of two cutting H into trees of at least two rows"
    } else if !choice.multmux.supports_mcr(spec.mcr) {
        "mult/mux style does not scale to the spec's MCR"
    } else {
        return Ok(());
    };
    Err(FlowError::InvalidChoice { choice: choice.label(), reason })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecError;
    use syndcim_sim::FpFormat;
    use syndcim_sta::Sta;
    use syndcim_subckt::MultMuxKind;

    fn tiny_spec() -> MacroSpec {
        MacroSpec {
            h: 8,
            w: 8,
            mcr: 2,
            int_precisions: vec![1, 2, 4],
            fp_precisions: vec![],
            f_mac_mhz: 400.0,
            f_wu_mhz: 400.0,
            vdd_v: 0.9,
            ppa: Default::default(),
        }
    }

    #[test]
    fn flow_produces_clean_layout_and_timing() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
        assert!(im.area_mm2() > 0.0);
        assert!(im.timing.max_delay_ps > 0.0);
        assert!(im.wires.total_wirelength_um > 0.0);
        // Post-layout fmax falls with voltage.
        let f09 = im.fmax_mhz(&lib, OperatingPoint::at_voltage(0.9));
        let f07 = im.fmax_mhz(&lib, OperatingPoint::at_voltage(0.7));
        assert!(f09 > f07);
    }

    #[test]
    fn post_layout_is_slower_than_pre_layout() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
        let pre = Sta::new(&im.mac.module, &lib).unwrap().analyze(1e6).max_delay_ps;
        let post = im.compiled.sta.analyze_at(1e6, OperatingPoint::at_voltage(0.9)).max_delay_ps;
        assert!(post > pre, "wires must add delay: pre={pre} post={post}");
    }

    /// The recorded sign-off and the per-query helpers must be
    /// bit-identical to the reference analyzer built on the macro's own
    /// lowering and extracted wires.
    #[test]
    fn signoff_and_queries_match_the_reference_sta() {
        let lib = CellLibrary::syn40();
        let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
        let wires = WireLoads { cap_ff: im.wires.cap_ff.clone(), delay_ps: im.wires.delay_ps.clone() };
        let reference =
            Sta::with_lowering(&im.mac.module, &lib, im.compiled.lowering.clone()).with_wire_loads(wires);
        let signoff =
            reference.analyze_at(im.spec.mac_period_ps(), OperatingPoint::at_voltage(im.spec.vdd_v));
        assert_eq!(im.timing.max_delay_ps, signoff.max_delay_ps);
        assert_eq!(im.timing.wns_ps, signoff.wns_ps);
        assert_eq!(im.timing.arrival_ps, signoff.arrival_ps);
        assert_eq!(im.timing.critical_path, signoff.critical_path);
        for v in [0.7, 0.9, 1.2] {
            let op = OperatingPoint::at_voltage(v);
            assert_eq!(im.fmax_mhz(&lib, op), reference.fmax_mhz(op), "fmax must be bit-identical at {v} V");
            let fast = im.compiled.sta.analyze_at(1_000.0, op);
            let slow = reference.analyze_at(1_000.0, op);
            assert_eq!(fast.max_delay_ps, slow.max_delay_ps);
            assert_eq!(fast.critical_path, slow.critical_path);
        }
    }

    fn assert_invalid_choice(spec: &MacroSpec, choice: DesignChoice, reason: &str) {
        let lib = CellLibrary::syn40();
        match implement(&lib, spec, &choice) {
            Err(FlowError::InvalidChoice { reason: got, .. }) => assert!(got.contains(reason), "{got}"),
            other => panic!("expected an invalid-choice error, got {:?}", other.map(|im| im.area_mm2())),
        }
    }

    #[test]
    fn retiming_without_the_tree_register_is_a_typed_error() {
        let choice = DesignChoice { tree_retimed: true, pipe_tree_sa: false, ..Default::default() };
        assert_invalid_choice(&tiny_spec(), choice, "retiming");
    }

    #[test]
    fn a_column_split_that_does_not_cut_h_is_a_typed_error() {
        for column_split in [3, 16, 8] {
            let choice = DesignChoice { column_split, ..Default::default() };
            assert_invalid_choice(&tiny_spec(), choice, "column split");
        }
    }

    #[test]
    fn a_fused_mult_mux_at_mcr_4_is_a_typed_error() {
        let spec = MacroSpec { mcr: 4, ..tiny_spec() };
        let choice = DesignChoice { multmux: MultMuxKind::Oai22Fused, ..Default::default() };
        assert_invalid_choice(&spec, choice, "MCR");
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let lib = CellLibrary::syn40();
        let mut spec = tiny_spec();
        spec.mcr = 3;
        assert!(implement(&lib, &spec, &DesignChoice::default()).is_err());
        // An FP format without exponent bits has no alignment unit to
        // build; it is a spec error, not a panic in the generator.
        let spec = MacroSpec { fp_precisions: vec![FpFormat { exp_bits: 0, man_bits: 1 }], ..tiny_spec() };
        assert_eq!(
            implement(&lib, &spec, &DesignChoice::default()).err(),
            Some(FlowError::Spec(SpecError::BadFpFormat))
        );
    }
}
