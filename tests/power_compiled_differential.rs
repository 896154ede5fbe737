//! Differential pinning of the compiled power program against the
//! reference analyzer on the 64×64 paper test-chip netlist.
//!
//! `CompiledPower` is the power analogue of the simulation engine and
//! the compiled STA: one lowering, then a linear `toggles·column` pass
//! per report. These tests hold it to the same bar — **bit-identical
//! results**, not "close enough": dynamic/clock/leakage power, energy
//! per cycle, total power and the full `by_group_pj` breakdown table
//! must equal `PowerAnalyzer::from_activity` /
//! `from_static_activity`, across ≥4 operating points (voltage *and*
//! temperature corners), wire-load configurations (pre-layout zero
//! caps and annotated parasitics) and glitch factors.

use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_engine::{EngineSim, Program};
use syndcim_ir::Lowering;
use syndcim_netlist::{Module, NetId};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::{PowerAnalyzer, PowerReport};
use syndcim_sim::SimBackend;

/// Operating points the paper's measurements sweep: slow/low-V,
/// nominal, fast/high-V, plus a hot corner exercising the temperature
/// derate in the leakage model.
fn corners() -> Vec<OperatingPoint> {
    vec![
        OperatingPoint::at_voltage(0.7),
        OperatingPoint::at_voltage(0.9),
        OperatingPoint::at_voltage(1.2),
        OperatingPoint { vdd_v: 0.8, temp_c: 105.0 },
    ]
}

/// Deterministic synthetic wire caps: every net gets a distinct but
/// reproducible capacitance (stands in for extraction without paying
/// for 64×64 placement in a unit test).
fn synthetic_caps(nets: usize) -> Vec<f64> {
    (0..nets).map(|i| ((i * 41) % 19) as f64 * 1.1).collect()
}

/// Real switching activity: a short random-stimulus engine run over the
/// paper chip (64 lanes, a handful of cycles — plenty of distinct
/// per-net toggle counts).
fn measured_toggles(module: &Module, lib: &CellLibrary) -> (Vec<u64>, u64) {
    let prog = Program::compile(module, lib).expect("paper chip compiles");
    let mut sim = EngineSim::new(&prog, module, 64);
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();
    let mut state = 0xD1FF_5EEDu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..6 {
        for &net in &in_nets {
            sim.poke_word_at(net, 0, next());
        }
        sim.step();
    }
    (sim.toggle_table().to_vec(), sim.lane_cycles())
}

fn assert_reports_identical(reference: &PowerReport, compiled: &PowerReport, what: &str) {
    assert_eq!(reference.dynamic_uw, compiled.dynamic_uw, "{what}: dynamic power");
    assert_eq!(reference.clock_uw, compiled.clock_uw, "{what}: clock power");
    assert_eq!(reference.leakage_uw, compiled.leakage_uw, "{what}: leakage power");
    assert_eq!(reference.energy_per_cycle_pj, compiled.energy_per_cycle_pj, "{what}: energy/cycle");
    assert_eq!(reference.freq_mhz, compiled.freq_mhz, "{what}: quoted frequency");
    assert_eq!(reference.total_uw(), compiled.total_uw(), "{what}: total power");
    assert_eq!(reference.by_group_pj, compiled.by_group_pj, "{what}: per-group breakdown table");
}

#[test]
fn compiled_power_matches_reference_on_paper_test_chip() {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let (toggles, cycles) = measured_toggles(module, &lib);
    assert!(toggles.iter().any(|&t| t > 0), "the stimulus must actually toggle nets");

    let low = Lowering::validated(module, &lib).unwrap();
    for (caps, label) in [
        (vec![0.0; module.net_count()], "pre-layout"),
        (synthetic_caps(module.net_count()), "wire-annotated"),
    ] {
        for glitch in [1.25, 1.0, 1.6] {
            let mut pa = PowerAnalyzer::from_lowering(module, &lib, &low, &caps);
            pa.set_glitch_factor(glitch);
            let cp = pa.compile();
            assert_eq!(cp.net_count(), module.net_count());
            assert!(cp.group_count() > 1, "the paper chip must break down into several groups");

            for op in corners() {
                for freq_mhz in [250.0, 1100.0] {
                    let what = format!(
                        "{label} g={glitch} @ {:.2} V / {:.0} C / {freq_mhz} MHz",
                        op.vdd_v, op.temp_c
                    );
                    let reference = pa.from_activity(&toggles, cycles, freq_mhz, op);
                    let compiled = cp.report(&toggles, cycles, freq_mhz, op);
                    assert_reports_identical(&reference, &compiled, &what);

                    let static_ref = pa.from_static_activity(0.18, freq_mhz, op);
                    let static_cmp = cp.report_static(0.18, freq_mhz, op);
                    assert_reports_identical(&static_ref, &static_cmp, &format!("{what} (static)"));
                }
            }

            // The batch entry point must equal the per-point queries —
            // this is the path `shmoo_with_power` rides.
            let points: Vec<(f64, OperatingPoint)> =
                corners().into_iter().flat_map(|op| [(250.0, op), (1100.0, op)]).collect();
            for (report, &(freq_mhz, op)) in cp.report_many(&toggles, cycles, &points).iter().zip(&points) {
                let what = format!("{label} g={glitch} report_many @ {:.2} V / {freq_mhz} MHz", op.vdd_v);
                assert_reports_identical(&pa.from_activity(&toggles, cycles, freq_mhz, op), report, &what);
            }
        }
    }
}

/// The hierarchical drill-down now carries the *complete* per-cycle
/// picture: each path node holds its subcircuit's switching energy
/// plus its registers' clock-pin energy (clock-tree overhead
/// included), so a root entry equals the head's `by_group_pj` total
/// plus its `clock_by_group_pj` share — and summing roots reproduces
/// the report's `energy_per_cycle_pj` up to the input-port pin charge.
/// The clock breakdown itself is pinned bit-identical between the
/// compiled program and the reference analyzer; the leakage drill-down
/// roots reproduce `leakage_uw` at every corner.
#[test]
fn drill_down_roots_match_head_totals_with_clock_and_leakage() {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let (toggles, cycles) = measured_toggles(module, &lib);
    let pa = PowerAnalyzer::new(module, &lib).unwrap();
    let cp = pa.compile();

    for op in corners() {
        let what = format!("@ {:.2} V / {:.0} C", op.vdd_v, op.temp_c);
        let clock = cp.clock_by_group_pj(op);
        assert_eq!(clock, pa.clock_by_group_pj(op), "{what}: clock breakdown (compiled vs reference)");

        let report = cp.report(&toggles, cycles, 800.0, op);
        assert_eq!(
            clock.len(),
            report.by_group_pj.len(),
            "{what}: every head appears in the clock breakdown"
        );
        assert!(clock.values().any(|&pj| pj > 0.0), "{what}: the paper chip clocks registers");

        // Roots == head switching + head clock, every head.
        let by_path = cp.by_path_pj(&toggles, cycles, op);
        let mut roots_pj = 0.0f64;
        for (head, &pj) in &report.by_group_pj {
            let root = by_path[head];
            let want = pj + clock[head];
            assert!(
                (root - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{what}: root `{head}` = {root} vs switching+clock {want}"
            );
            roots_pj += root;
        }
        // Summed roots reproduce energy/cycle minus the (groupless)
        // input-port pin charge — i.e. they can only fall short of the
        // head-line number by that small term.
        let epc = report.energy_per_cycle_pj;
        assert!(
            roots_pj <= epc * (1.0 + 1e-9) && roots_pj >= 0.9 * epc,
            "{what}: drill-down roots {roots_pj} vs energy/cycle {epc}"
        );

        // Leakage drill-down: roots sum to the corner's leakage.
        let leak = cp.leakage_by_path_uw(op);
        let roots_uw: f64 = leak.iter().filter(|(p, _)| !p.contains('/')).map(|(_, &uw)| uw).sum();
        let want = cp.leakage_uw(op);
        assert!(
            (roots_uw - want).abs() <= 1e-9 * want,
            "{what}: leakage roots {roots_uw} vs leakage_uw {want}"
        );
    }
}

/// The compiled program must be reusable and order-independent:
/// reporting the corners in a different order, twice, from a clone,
/// changes nothing (guards against state leakage between reports).
#[test]
fn compiled_power_reuse_is_stateless() {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let (toggles, cycles) = measured_toggles(&mac.module, &lib);
    let cp = PowerAnalyzer::new(&mac.module, &lib).unwrap().compile();

    let fwd: Vec<f64> =
        corners().iter().map(|&op| cp.report(&toggles, cycles, 800.0, op).total_uw()).collect();
    let mut rev: Vec<f64> =
        corners().iter().rev().map(|&op| cp.clone().report(&toggles, cycles, 800.0, op).total_uw()).collect();
    rev.reverse();
    assert_eq!(fwd, rev, "report order and cloning must not affect results");
    let points: Vec<(f64, OperatingPoint)> = corners().iter().map(|&op| (800.0, op)).collect();
    let batch: Vec<f64> =
        cp.report_many(&toggles, cycles, &points).iter().map(PowerReport::total_uw).collect();
    assert_eq!(fwd, batch, "batch must equal scalar queries");
}
