//! Implementation and sign-off flow (§III-D, Fig. 6): netlist cleanup →
//! SDP placement → DRC/LVS checks → parasitic extraction → post-layout
//! STA — the Design-Compiler + Innovus + PrimeTime loop of the paper.

use syndcim_ir::Lowering;
use syndcim_layout::{
    check_drc, extract_wires, place_with_symbols, FloorplanConfig, Placement, WireEstimates,
};
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
use crate::compiled::CompiledMacro;
use crate::design::DesignChoice;
use crate::error::CoreError;
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

    /// Post-layout timing report at an arbitrary period/corner, on the
    /// macro's compiled timing program.
    pub fn timing_at(&self, _lib: &CellLibrary, period_ps: f64, op: OperatingPoint) -> TimingReport {
        self.compiled.sta.analyze_at(period_ps, op)
    }
}

/// Run the full implementation flow for one design choice, signing off
/// timing on the compiled STA.
///
/// # Errors
///
/// Returns [`CoreError`] if the spec is invalid, the netlist fails
/// validation, or the layout violates design rules.
pub fn implement(
    lib: &CellLibrary,
    spec: &MacroSpec,
    choice: &DesignChoice,
) -> Result<ImplementedMacro, CoreError> {
    telemetry::span!("implement");
    spec.validate()?;
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

    // Lower the cleaned netlist exactly once, *before* layout: the
    // placer resolves floorplan zones from the lowering's interned
    // symbol table, and sign-off compiles its analysis programs from
    // the same IR afterwards.
    let lowering = {
        telemetry::span!("implement.lower");
        Lowering::validated(&mac.module, lib)?
    };

    // SDP place-and-route + checks.
    let placement = {
        telemetry::span!("implement.place");
        place_with_symbols(&mac.module, lib, FloorplanConfig::default(), lowering.symbols())?
    };
    {
        telemetry::span!("implement.drc");
        check_drc(&mac.module, &placement)?;
    }
    let wires = {
        telemetry::span!("implement.wires");
        extract_wires(&mac.module, lib, &placement)?
    };

    // Post-layout sign-off at the spec corner: compile all three
    // analysis programs (simulation, timing, power) straight from the
    // shared IR; the bundle stays with the macro so evaluation, shmoo
    // grids, fmax sweeps and power annotation never re-walk the netlist.
    let wire_loads = WireLoads { cap_ff: wires.cap_ff.clone(), delay_ps: wires.delay_ps.clone() };
    let compiled = {
        telemetry::span!("implement.compile");
        CompiledMacro::compile_with_lowering(&mac.module, lib, &wire_loads, lowering)
    };
    let timing = {
        telemetry::span!("implement.signoff");
        compiled.sta.analyze_at(spec.mac_period_ps(), OperatingPoint::at_voltage(spec.vdd_v))
    };

    let report = telemetry::snapshot();
    Ok(ImplementedMacro { mac, placement, wires, synth_report, timing, spec: spec.clone(), compiled, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_sta::Sta;

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
        let post = im.timing_at(&lib, 1e6, OperatingPoint::at_voltage(0.9)).max_delay_ps;
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
            let fast = im.timing_at(&lib, 1_000.0, op);
            let slow = reference.analyze_at(1_000.0, op);
            assert_eq!(fast.max_delay_ps, slow.max_delay_ps);
            assert_eq!(fast.critical_path, slow.critical_path);
        }
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let lib = CellLibrary::syn40();
        let mut spec = tiny_spec();
        spec.mcr = 3;
        assert!(implement(&lib, &spec, &DesignChoice::default()).is_err());
    }
}
