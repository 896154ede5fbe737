//! Differential pinning of the compiled STA against the reference
//! analyzer on the 64×64 paper test-chip netlist.
//!
//! `CompiledSta` is the timing analogue of the simulation engine: one
//! lowering, then a struct-of-arrays pass per operating point. These
//! tests hold it to the same bar the engine is held to — **bit-identical
//! results**, not "close enough": per-net arrival times, worst slack,
//! `f_max`, the critical path step list and the critical-group summary
//! must all equal the reference `Sta::analyze_at`, across operating
//! points (voltage *and* temperature corners) and wire-load
//! configurations (pre-layout zero wires and annotated parasitics).

use syndcim_core::shmoo::V_MIN_FUNCTIONAL;
use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sta::{Sta, TimingReport, VariationModel, WireLoads};

/// Operating points the paper's shmoo sweeps: slow/low-V, nominal,
/// fast/high-V, plus a hot corner exercising the temperature derate.
fn corners() -> Vec<OperatingPoint> {
    vec![
        OperatingPoint::at_voltage(0.7),
        OperatingPoint::at_voltage(0.9),
        OperatingPoint::at_voltage(1.2),
        OperatingPoint { vdd_v: 0.8, temp_c: 105.0 },
    ]
}

/// Deterministic synthetic parasitics: every net gets a distinct but
/// reproducible wire cap and delay (stands in for extraction without
/// paying for 64×64 placement in a unit test).
fn synthetic_wires(nets: usize) -> WireLoads {
    let mut wires = WireLoads::zero(nets);
    for (i, c) in wires.cap_ff.iter_mut().enumerate() {
        *c = ((i * 37) % 23) as f64 * 0.9;
    }
    for (i, d) in wires.delay_ps.iter_mut().enumerate() {
        *d = ((i * 13) % 11) as f64 * 4.0;
    }
    wires
}

fn assert_reports_identical(reference: &TimingReport, compiled: &TimingReport, what: &str) {
    assert_eq!(reference.arrival_ps, compiled.arrival_ps, "{what}: per-net arrival times");
    assert_eq!(reference.max_delay_ps, compiled.max_delay_ps, "{what}: worst path delay");
    assert_eq!(reference.wns_ps, compiled.wns_ps, "{what}: worst slack");
    assert_eq!(reference.fmax_mhz, compiled.fmax_mhz, "{what}: fmax");
    assert_eq!(reference.critical_path, compiled.critical_path, "{what}: critical path steps");
    assert_eq!(reference.critical_groups(), compiled.critical_groups(), "{what}: critical group summary");
}

#[test]
fn compiled_sta_matches_reference_on_paper_test_chip() {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;

    for (wires, label) in [
        (WireLoads::zero(module.net_count()), "pre-layout"),
        (synthetic_wires(module.net_count()), "wire-annotated"),
    ] {
        let sta = Sta::new(module, &lib).unwrap().with_wire_loads(wires);
        let csta = sta.compile();
        assert_eq!(csta.net_count(), module.net_count());
        assert!(csta.arc_count() > 0, "the paper chip must lower to a non-empty arc stream");

        for op in corners() {
            for period_ps in [800.0, 2_000.0] {
                let reference = sta.analyze_at(period_ps, op);
                let compiled = csta.analyze_at(period_ps, op);
                let what = format!("{label} @ {:.2} V / {:.0} C / {period_ps} ps", op.vdd_v, op.temp_c);
                assert_reports_identical(&reference, &compiled, &what);
            }
            assert_eq!(
                sta.fmax_mhz(op),
                csta.fmax_mhz(op),
                "{label}: fmax at {:.2} V must be bit-identical",
                op.vdd_v
            );
        }

        // Batch entry points must equal the per-point queries.
        let ops = corners();
        let fmaxes = csta.fmax_many(&ops);
        for (op, fmax) in ops.iter().zip(&fmaxes) {
            assert_eq!(*fmax, sta.fmax_mhz(*op), "{label}: batched fmax at {:.2} V", op.vdd_v);
        }
        let points: Vec<(f64, OperatingPoint)> = ops.iter().map(|&op| (1_250.0, op)).collect();
        for (report, &(period_ps, op)) in csta.analyze_many(&points).iter().zip(&points) {
            let what = format!("{label} analyze_many @ {:.2} V", op.vdd_v);
            assert_reports_identical(&sta.analyze_at(period_ps, op), report, &what);
        }
    }
}

/// The die-major `fmax_many` on the paper chip: the sign-off shmoo's 13
/// supply voltages (0.60–1.20 V) plus [`corners`] are 17 corners in
/// three eight-lane groups, the last one ragged, and every corner equals
/// the reference analyzer's `fmax_mhz` under both wire-load
/// configurations.
#[test]
fn fmax_many_over_the_signoff_shmoo_axis_matches_reference() {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let mut ops: Vec<OperatingPoint> =
        (0..13).map(|i| OperatingPoint::at_voltage(0.60 + 0.05 * f64::from(i))).collect();
    ops.extend(corners());
    assert_eq!(ops.len(), 17);

    for (wires, label) in [
        (WireLoads::zero(module.net_count()), "pre-layout"),
        (synthetic_wires(module.net_count()), "wire-annotated"),
    ] {
        let sta = Sta::new(module, &lib).unwrap().with_wire_loads(wires);
        let fmaxes = sta.compile().fmax_many(&ops);
        for (op, fmax) in ops.iter().zip(&fmaxes) {
            assert_eq!(
                fmax.to_bits(),
                sta.fmax_mhz(*op).to_bits(),
                "{label}: fmax at {:.2} V / {:.0} C",
                op.vdd_v,
                op.temp_c
            );
        }
    }
}

/// A batch of more than 64 corners walks its window-pruned program,
/// while a call of 64 runs inline on the full columns. On the paper
/// chip, each pruned batch equals its 64-corner calls concatenated, bit
/// for bit: the sign-off die spread (2,048 `gaussian(0.05)` dies at
/// 0.9 V) and the batch the yield explorer's `shmoo_yield` sends (7
/// functional voltages, 0.65–1.25 V, × 128 `gaussian(0.08)` dies),
/// whose window spans voltages. The unpruned calls are the slow side
/// without optimization, so a debug build checks every eighth call; an
/// optimized build (CI's release step) checks them all.
fn assert_pruned_batches_equal_64_corner_calls(wires: impl FnOnce(usize) -> WireLoads, label: &str) {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    let csta = Sta::new(&mac.module, &lib).unwrap().with_wire_loads(wires(mac.module.net_count())).compile();
    let op = OperatingPoint::at_voltage(0.9);
    let dies = VariationModel::gaussian(0.05).sample(1, 2048);
    let yield_dies = VariationModel::gaussian(0.08).sample(0xD1CE, 128);
    let yield_points: Vec<(OperatingPoint, f64)> = (0..8)
        .map(|i| 0.55 + 0.1 * f64::from(i))
        .filter(|&v| v >= V_MIN_FUNCTIONAL)
        .flat_map(|v| yield_dies.iter().map(move |&s| (OperatingPoint::at_voltage(v), s)))
        .collect();
    assert_eq!(yield_points.len(), 7 * 128);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let stride = if cfg!(debug_assertions) { 8 } else { 1 };

    let spread = csta.fmax_distribution(op, &dies);
    for (k, (got, call)) in spread.chunks(64).zip(dies.chunks(64)).enumerate().step_by(stride) {
        assert_eq!(bits(got), bits(&csta.fmax_distribution(op, call)), "{label}: die call {k}");
    }
    let grid = csta.fmax_many_scaled(&yield_points);
    for (k, (got, call)) in grid.chunks(64).zip(yield_points.chunks(64)).enumerate().step_by(stride) {
        assert_eq!(bits(got), bits(&csta.fmax_many_scaled(call)), "{label}: yield call {k}");
    }
}

#[test]
fn window_pruned_batches_equal_unpruned_64_corner_calls_pre_layout() {
    assert_pruned_batches_equal_64_corner_calls(WireLoads::zero, "pre-layout");
}

#[test]
fn window_pruned_batches_equal_unpruned_64_corner_calls_wire_annotated() {
    assert_pruned_batches_equal_64_corner_calls(synthetic_wires, "wire-annotated");
}

/// The timing program must be reusable and order-independent: analyzing
/// the corners in a different order, twice, from a clone, changes
/// nothing (guards against scratch-state leakage between analyses).
#[test]
fn compiled_sta_reuse_is_stateless() {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let sta = Sta::new(&mac.module, &lib).unwrap();
    let csta = sta.compile();

    let fwd: Vec<f64> = corners().iter().map(|&op| csta.fmax_mhz(op)).collect();
    let mut rev: Vec<f64> = corners().iter().rev().map(|&op| csta.clone().fmax_mhz(op)).collect();
    rev.reverse();
    assert_eq!(fwd, rev, "analysis order and cloning must not affect results");
    assert_eq!(fwd, csta.fmax_many(&corners()), "batch must equal scalar queries");
}
