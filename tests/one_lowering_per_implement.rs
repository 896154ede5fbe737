//! Pins the shared-IR contract of the implementation flow: one
//! `implement` call walks the netlist for compilation **exactly once**,
//! and the resulting lowering feeds all three compiled analysis
//! programs (simulation, timing, power).
//!
//! This file deliberately contains a single test: `Lowering::builds()`
//! is a process-global counter, and integration-test binaries are the
//! only place a test can observe it without interference from
//! concurrently running tests (each test file is its own process; tests
//! *within* a file share one).

use syndcim_core::{
    implement, shmoo_with_power, shmoo_with_power_on, DesignChoice, MacroSpec, PowerBackend, StaBackend,
};
use syndcim_ir::Lowering;
use syndcim_pdk::{CellLibrary, OperatingPoint};

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
fn implement_builds_exactly_one_lowering_shared_by_sim_sta_power() {
    let lib = CellLibrary::syn40();

    // Compiled sign-off backend (the default path).
    let before = Lowering::builds();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    assert_eq!(
        Lowering::builds(),
        before + 1,
        "implement must lower the netlist exactly once, shared by sim/STA/power"
    );

    // The single lowering demonstrably feeds all three programs.
    let n = im.mac.module.net_count();
    assert_eq!(im.compiled.lowering.net_count(), n);
    assert_eq!(im.compiled.program.net_count(), n, "simulation program rides the shared IR");
    assert_eq!(im.compiled.sta.net_count(), n, "timing program rides the shared IR");
    assert_eq!(im.compiled.power.net_count(), n, "power program rides the shared IR");

    // ... and the bundle is queryable without any further lowering.
    let mid = Lowering::builds();
    let op = OperatingPoint::at_voltage(0.9);
    let _fmax = im.compiled.sta.fmax_mhz(op);
    let toggles = vec![1u64; n];
    let _power = im.compiled.power.report(&toggles, 4, 400.0, op);
    assert_eq!(Lowering::builds(), mid, "sign-off queries must not re-walk the netlist");

    // The reference oracle arms reuse the bundle's lowering too (a
    // clone is a memcpy, not a walk) and reproduce the compiled grid.
    let (vs, fs) = ([0.5, 0.7, 0.9, 1.2], [100.0, 400.0, 1_600.0]);
    let weights = vec![vec![1i64, -2, 3, 0, -4, 5, 2, -1], vec![2i64; 8]];
    let passes = vec![vec![3i64, -1, 0, 7, -8, 2, 1, 4]];
    let compiled = shmoo_with_power(&im, &lib, &vs, &fs, 4, &passes, &weights).unwrap();
    let before_ref = Lowering::builds();
    let reference = shmoo_with_power_on(
        &im,
        &lib,
        &vs,
        &fs,
        4,
        &passes,
        &weights,
        StaBackend::Reference,
        PowerBackend::Reference,
    )
    .unwrap();
    assert_eq!(Lowering::builds(), before_ref, "the reference oracle arms must not re-walk the netlist");
    assert_eq!(reference.shmoo.pass, compiled.shmoo.pass, "reference pass map stays bit-identical");
    assert_eq!(reference.power_uw, compiled.power_uw, "reference power stays bit-identical");
}
