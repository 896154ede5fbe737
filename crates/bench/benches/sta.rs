//! Reference vs. compiled STA on the sign-off paths that matter:
//!
//! * **shmoo grid** — the end-to-end product path. The reference arm is
//!   the seed behaviour (per voltage: `Sta::new`, wire annotation, one
//!   graph walk for `fmax`); the compiled arm sweeps the grid through
//!   the timing program the macro has carried since `implement`
//!   (`CompiledSta::fmax_many`). The one-time lowering cost — paid once
//!   per implementation, next to placement and extraction — is measured
//!   and reported separately as `sta_compile_ms`.
//! * **single analysis** — pure propagation speed on the 64×64 paper
//!   test-chip netlist, both analyzers prebuilt (isolates the SoA pass
//!   from `Sta::new` construction).
//!
//! Fails if the compiled shmoo grid is not ≥ 5× the reference. Numbers
//! are merged into `BENCH_engine.json` (same artifact the engine bench
//! writes; override the path with `BENCH_ENGINE_JSON`), preserving any
//! keys already recorded there.
//!
//! Correctness is *not* re-checked here beyond a pass-map equality
//! assert — the bit-identical pinning lives in
//! `tests/sta_compiled_differential.rs` and the core shmoo regression
//! tests.

use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_core::shmoo::V_MIN_FUNCTIONAL;
use syndcim_core::{assemble, implement, shmoo, DesignChoice, ImplementedMacro, MacroSpec};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sta::{Sta, WireLoads};

/// The shmoo grid swept by both arms: the paper's Fig. 9 axes at a
/// realistic density (13 voltages × 12 frequencies).
fn grid() -> (Vec<f64>, Vec<f64>) {
    let voltages: Vec<f64> = (0..13).map(|i| 0.55 + 0.06 * i as f64).collect();
    let freqs: Vec<f64> = (0..12).map(|i| 100.0 * 1.45f64.powi(i)).collect();
    (voltages, freqs)
}

/// The reference arm's pass map: per functional voltage, rebuild the
/// reference analyzer (`Sta::new` lowers the netlist again), annotate
/// the extracted wires and walk the graph once for `fmax`.
fn reference_pass_map(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    voltages: &[f64],
    freqs: &[f64],
) -> Vec<Vec<bool>> {
    voltages
        .iter()
        .map(|&v| {
            if v < V_MIN_FUNCTIONAL {
                return vec![false; freqs.len()];
            }
            let wires = WireLoads { cap_ff: im.wires.cap_ff.clone(), delay_ps: im.wires.delay_ps.clone() };
            let sta = Sta::new(&im.mac.module, lib).expect("implemented macros are well-formed");
            let fmax = sta.with_wire_loads(wires).fmax_mhz(OperatingPoint::at_voltage(v));
            freqs.iter().map(|&f| f <= fmax).collect()
        })
        .collect()
}

fn bench_sta(c: &mut Criterion) {
    let lib = CellLibrary::syn40();

    // --- end-to-end shmoo grid on an implemented 16×16 macro ---------
    let spec = MacroSpec {
        h: 16,
        w: 16,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 400.0,
        f_wu_mhz: 400.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    };
    let im = implement(&lib, &spec, &DesignChoice::default()).expect("bench spec implements");
    let (voltages, freqs) = grid();

    let reference = c.bench_stats("sta_shmoo_grid_reference", |b| {
        b.iter(|| reference_pass_map(&im, &lib, &voltages, &freqs))
    });
    // The product path: the macro carries its timing program from
    // `implement` (compiled once, next to placement/extraction), so a
    // shmoo sweep is pure batched evaluation.
    let compiled =
        c.bench_stats("sta_shmoo_grid_compiled", |b| b.iter(|| shmoo(&im, &lib, &voltages, &freqs)));
    // One-time lowering cost, reported for transparency: this is paid
    // once per `implement`, not per grid.
    let compile_cost = c.bench_stats("sta_compile_16x16_macro", |b| {
        b.iter(|| {
            Sta::new(&im.mac.module, &lib)
                .expect("implemented macros are well-formed")
                .with_wire_loads(WireLoads {
                    cap_ff: im.wires.cap_ff.clone(),
                    delay_ps: im.wires.delay_ps.clone(),
                })
                .compile()
        })
    });
    let shmoo_ratio = reference.ns_per_iter / compiled.ns_per_iter;

    // Sanity: the two backends agree on the grid (cheap spot check; the
    // exhaustive pinning lives in the test suites).
    let fast = shmoo(&im, &lib, &voltages, &freqs);
    let slow = reference_pass_map(&im, &lib, &voltages, &freqs);
    assert_eq!(fast.pass, slow, "backends must produce identical shmoo grids");

    // --- single-analysis propagation speed on the paper chip ---------
    let chip_spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &chip_spec, &DesignChoice::default());
    let sta = Sta::new(&mac.module, &lib).expect("paper chip is well-formed");
    let csta = sta.compile();
    let op = OperatingPoint::at_voltage(0.9);

    let walk = c.bench_stats("sta_analyze_reference_paper_chip", |b| b.iter(|| sta.analyze_at(1000.0, op)));
    let soa = c.bench_stats("sta_analyze_compiled_paper_chip", |b| b.iter(|| csta.analyze_at(1000.0, op)));
    let fmax = c.bench_stats("sta_fmax_many_compiled_paper_chip", |b| {
        let ops = [0.7, 0.8, 0.9, 1.05, 1.2].map(OperatingPoint::at_voltage);
        b.iter(|| csta.fmax_many(&ops))
    });
    let analyze_ratio = walk.ns_per_iter / soa.ns_per_iter;

    println!(
        "shmoo grid:   reference {:>9.1} ms   compiled {:>9.3} ms   ({shmoo_ratio:.1}x)",
        reference.ns_per_iter / 1e6,
        compiled.ns_per_iter / 1e6
    );
    println!("one-time compile (16x16 macro): {:>9.3} ms", compile_cost.ns_per_iter / 1e6);
    println!(
        "one analysis: reference {:>9.3} ms   compiled {:>9.3} ms   ({analyze_ratio:.1}x)",
        walk.ns_per_iter / 1e6,
        soa.ns_per_iter / 1e6
    );
    println!("fmax_many(5 corners): {:>9.3} ms", fmax.ns_per_iter / 1e6);

    syndcim_bench::merge_bench_artifact(
        &["sta_"],
        &[
            ("sta_shmoo_reference_ms", reference.ns_per_iter / 1e6),
            ("sta_shmoo_compiled_ms", compiled.ns_per_iter / 1e6),
            ("sta_shmoo_speedup", shmoo_ratio),
            ("sta_compile_ms", compile_cost.ns_per_iter / 1e6),
            ("sta_analyze_reference_ms", walk.ns_per_iter / 1e6),
            ("sta_analyze_compiled_ms", soa.ns_per_iter / 1e6),
            ("sta_analyze_speedup", analyze_ratio),
        ],
    );

    assert!(
        shmoo_ratio >= 5.0,
        "compiled STA must deliver >= 5x on a full shmoo grid, got {shmoo_ratio:.1}x"
    );
}

criterion_group!(benches, bench_sta);
criterion_main!(benches);
