//! Reference vs. compiled power analysis on the sign-off path that
//! matters: the power-annotated shmoo grid.
//!
//! Both arms run the identical pipeline — compiled-STA pass/fail grid
//! plus one engine activity measurement — and differ only in how every
//! passing `(V, f)` point is converted to µW:
//!
//! * **reference** (`PowerBackend::Reference`, the seed behaviour):
//!   build `PowerAnalyzer` on the macro's own lowering and wire caps,
//!   then one full module walk with per-instance `BTreeMap<String, _>`
//!   group churn per point;
//! * **compiled** (`PowerBackend::Compiled`, the product path): the
//!   macro's `CompiledPower` — carried since `implement`, built from
//!   the same lowering as the simulation and timing programs — resolves
//!   the whole grid in one `report_many` batch over shared toggle-rate
//!   columns.
//!
//! Fails if the compiled grid is not ≥ 3× the reference. A second pair
//! isolates the per-report cost on the 64×64 paper test-chip netlist
//! (both analyzers prebuilt). A third timing runs `report_many` over
//! that netlist's voltage-major 13 V × 40 f shmoo grid (520 points on
//! 13 corners) and fails if it costs more than 4× the 16-corner batch:
//! the batch runs one switching pass per corner, so its cost follows the
//! corner count, not the point count. Numbers are merged into
//! `BENCH_engine.json` (override the path with `BENCH_ENGINE_JSON`),
//! preserving any keys already recorded there.
//!
//! Correctness is *not* re-checked here beyond a grid-equality assert —
//! the bit-identical pinning lives in
//! `tests/power_compiled_differential.rs` and the core shmoo
//! regression tests.

use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_core::{
    assemble, implement, shmoo_with_power_on, DesignChoice, MacroSpec, PowerBackend, StaBackend,
};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::PowerAnalyzer;
use syndcim_sim::vectors::{random_ints, seeded_rng};

/// The annotated shmoo grid swept by both arms: denser than the Fig. 9
/// axes (28 voltages × 18 frequencies, low-leaning frequency range so
/// most functional points pass and therefore get a power report).
fn grid() -> (Vec<f64>, Vec<f64>) {
    let voltages: Vec<f64> = (0..28).map(|i| 0.56 + 0.025 * i as f64).collect();
    let freqs: Vec<f64> = (0..18).map(|i| 50.0 * 1.25f64.powi(i)).collect();
    (voltages, freqs)
}

fn bench_power(c: &mut Criterion) {
    let lib = CellLibrary::syn40();

    // --- end-to-end power shmoo on an implemented 16×16 macro --------
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
    let mut rng = seeded_rng(0x5075);
    let weights: Vec<Vec<i64>> = (0..4).map(|_| random_ints(&mut rng, 16, 4)).collect();
    let passes: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 16, 4)).collect();

    let reference = c.bench_stats("power_shmoo_grid_reference", |b| {
        b.iter(|| {
            shmoo_with_power_on(
                &im,
                &lib,
                &voltages,
                &freqs,
                4,
                &passes,
                &weights,
                StaBackend::Compiled,
                PowerBackend::Reference,
            )
            .expect("workload verifies")
        })
    });
    let compiled = c.bench_stats("power_shmoo_grid_compiled", |b| {
        b.iter(|| {
            shmoo_with_power_on(
                &im,
                &lib,
                &voltages,
                &freqs,
                4,
                &passes,
                &weights,
                StaBackend::Compiled,
                PowerBackend::Compiled,
            )
            .expect("workload verifies")
        })
    });
    let shmoo_ratio = reference.ns_per_iter / compiled.ns_per_iter;

    // Sanity: the two backends agree on the annotated grid (cheap spot
    // check; the exhaustive pinning lives in the test suites).
    let fast = shmoo_with_power_on(
        &im,
        &lib,
        &voltages,
        &freqs,
        4,
        &passes,
        &weights,
        StaBackend::Compiled,
        PowerBackend::Compiled,
    )
    .unwrap();
    let slow = shmoo_with_power_on(
        &im,
        &lib,
        &voltages,
        &freqs,
        4,
        &passes,
        &weights,
        StaBackend::Compiled,
        PowerBackend::Reference,
    )
    .unwrap();
    assert_eq!(fast.shmoo.pass, slow.shmoo.pass, "backends must produce identical pass maps");
    assert_eq!(fast.power_uw, slow.power_uw, "backends must produce identical power annotations");
    let annotated = fast.power_uw.iter().flatten().filter(|p| p.is_some()).count();

    // --- single-report cost on the paper chip, both prebuilt ---------
    let chip_spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &chip_spec, &DesignChoice::default());
    let pa = PowerAnalyzer::new(&mac.module, &lib).expect("paper chip is well-formed");
    let cp = pa.compile();
    let toggles: Vec<u64> = (0..mac.module.net_count() as u64).map(|i| (i * 7) % 129).collect();
    let corners: Vec<(f64, OperatingPoint)> =
        (0..16).map(|i| (800.0, OperatingPoint::at_voltage(0.6 + 0.04 * i as f64))).collect();

    let walk = c.bench_stats("power_report_reference_paper_chip", |b| {
        b.iter(|| {
            corners.iter().map(|&(f, op)| pa.from_activity(&toggles, 64, f, op).total_uw()).sum::<f64>()
        })
    });
    let soa = c.bench_stats("power_report_many_compiled_paper_chip", |b| {
        b.iter(|| cp.report_many(&toggles, 64, &corners).iter().map(|r| r.total_uw()).sum::<f64>())
    });
    let report_ratio = walk.ns_per_iter / soa.ns_per_iter;
    // The sign-off shmoo's axes, voltage-major like `shmoo_with_power`.
    let grid_points: Vec<(f64, OperatingPoint)> = (0..13)
        .flat_map(|vi| {
            let op = OperatingPoint::at_voltage(0.60 + 0.05 * f64::from(vi));
            (1..=40).map(move |fi| (50.0 * f64::from(fi), op))
        })
        .collect();
    let grid_batch = c.bench_stats("power_report_grid_compiled_paper_chip", |b| {
        b.iter(|| cp.report_many(&toggles, 64, &grid_points).iter().map(|r| r.total_uw()).sum::<f64>())
    });
    let grid_ratio = grid_batch.ns_per_iter / soa.ns_per_iter;

    println!(
        "power shmoo ({annotated} annotated pts): reference {:>9.1} ms   compiled {:>9.3} ms   ({shmoo_ratio:.1}x)",
        reference.ns_per_iter / 1e6,
        compiled.ns_per_iter / 1e6
    );
    println!(
        "16-corner report batch (paper chip): reference {:>9.3} ms   compiled {:>9.3} ms   ({report_ratio:.1}x)",
        walk.ns_per_iter / 1e6,
        soa.ns_per_iter / 1e6
    );
    println!(
        "13 V x 40 f report grid (paper chip, {} pts): compiled {:>9.3} ms   ({grid_ratio:.2}x the 16-corner batch)",
        grid_points.len(),
        grid_batch.ns_per_iter / 1e6
    );

    syndcim_bench::merge_bench_artifact(
        &["power_"],
        &[
            ("power_shmoo_reference_ms", reference.ns_per_iter / 1e6),
            ("power_shmoo_compiled_ms", compiled.ns_per_iter / 1e6),
            ("power_shmoo_speedup", shmoo_ratio),
            ("power_report_reference_ms", walk.ns_per_iter / 1e6),
            ("power_report_compiled_ms", soa.ns_per_iter / 1e6),
            ("power_report_speedup", report_ratio),
            ("power_report_grid_ms", grid_batch.ns_per_iter / 1e6),
        ],
    );

    assert!(
        shmoo_ratio >= 3.0,
        "compiled power must deliver >= 3x on a power-annotated shmoo grid, got {shmoo_ratio:.1}x"
    );
    assert!(
        grid_ratio <= 4.0,
        "a 13-corner report grid must cost <= 4x the 16-corner batch, got {grid_ratio:.2}x"
    );
}

criterion_group!(benches, bench_power);
criterion_main!(benches);
