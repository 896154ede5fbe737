//! Scale-tier layout bench: the three layout phases (parallel SDP
//! placement, banded CSR-grid DRC, net-major parasitic extraction over
//! the module's connectivity) timed on the
//! 256×256 MCR-2 macro (~4×10⁵ nets), plus a 64×64 paper-chip arm and
//! one full `implement` wall-clock run.
//!
//! Beyond the timings merged into `BENCH_engine.json`, the bench
//! **asserts** the two layout-parallelism contracts:
//!
//! * determinism — placements and wire estimates are byte-identical
//!   across 1/2/8 workers on the scale tier (the same invariant
//!   `tests/layout_parallel.rs` pins on the paper chip);
//! * speedup — multi-threaded placement is ≥ 2× the single-thread arm
//!   on the scale tier. Only checked on machines with ≥ 4 cores
//!   (speedup is meaningless on the 1-core fallback; the determinism
//!   asserts still run everywhere).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_bench::{int_spec, merge_bench_artifact};
use syndcim_core::{assemble, implement, DesignChoice};
use syndcim_layout::{check_drc_threads, extract_wires_threads, place_threads, FloorplanConfig};
use syndcim_netlist::{optimize, Connectivity};
use syndcim_pdk::{CellLibrary, OperatingPoint};

/// The scale-tier acceptance floor (matches `--bench lowering`).
const MIN_NETS: usize = 100_000;

/// Required multi-thread placement speedup over the single-thread arm.
const MIN_PLACE_SPEEDUP: f64 = 2.0;

fn bench_layout(c: &mut Criterion) {
    let lib = CellLibrary::syn40();
    let cfg = FloorplanConfig::default();

    // Scale tier, optimized exactly as the implement flow would before
    // placement.
    let mut mac = assemble(&lib, &int_spec(256), &DesignChoice::default());
    let _ = optimize(&mut mac.module, &lib);
    let module = &mac.module;
    let nets = module.net_count();
    assert!(nets >= MIN_NETS, "scale tier needs >= {MIN_NETS} nets, generated only {nets}");
    println!("scale tier: {} nets, {} instances", nets, module.instance_count());

    // --- determinism pinning across 1/2/8 workers --------------------
    let placement = place_threads(module, &lib, cfg, 1).expect("scale-tier placement");
    for t in [2, 8] {
        let p = place_threads(module, &lib, cfg, t).expect("scale-tier placement");
        assert!(p == placement, "placement must be bit-identical across workers (diverged at {t})");
    }
    check_drc_threads(module, &placement, 0).expect("scale-tier placement is DRC-clean");
    // Extraction reads the connectivity the flow's lowering holds.
    let conn = Connectivity::build(module).expect("scale-tier connectivity");
    let wires = extract_wires_threads(module, &lib, &placement, &conn, 1);
    for t in [2, 8] {
        let w = extract_wires_threads(module, &lib, &placement, &conn, t);
        assert!(w == wires, "wire estimates must be bit-identical across workers (diverged at {t})");
    }
    println!("determinism: placement + extraction byte-identical across 1/2/8 workers");

    // --- phase wall times on the scale tier --------------------------
    let place_serial = c.bench_stats("layout_place_scale_serial", |b| {
        b.iter(|| place_threads(module, &lib, cfg, 1).expect("placement"))
    });
    let place_par = c.bench_stats("layout_place_scale_parallel", |b| {
        b.iter(|| place_threads(module, &lib, cfg, 0).expect("placement"))
    });
    let drc = c.bench_stats("layout_drc_scale", |b| {
        b.iter(|| check_drc_threads(module, &placement, 0).expect("DRC"))
    });
    let wires_stats = c.bench_stats("layout_wires_scale", |b| {
        b.iter(|| extract_wires_threads(module, &lib, &placement, &conn, 0))
    });

    // --- paper-chip arm (64×64) --------------------------------------
    let mut paper = assemble(&lib, &int_spec(64), &DesignChoice::default());
    let _ = optimize(&mut paper.module, &lib);
    let paper_place = c.bench_stats("layout_place_paper", |b| {
        b.iter(|| place_threads(&paper.module, &lib, cfg, 0).expect("paper-chip placement"))
    });

    // --- full implement wall clock on the scale tier -----------------
    // One timed run (the flow takes seconds; the 25%-with-sustained-warn
    // regression gate absorbs single-run noise).
    let t0 = Instant::now();
    let im = implement(&lib, &int_spec(256), &DesignChoice::default()).expect("scale-tier implement");
    let implement_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fmax = im.fmax_mhz(&lib, OperatingPoint::at_voltage(0.9));
    assert!(fmax > 0.0, "scale-tier sign-off must produce a usable fmax, got {fmax}");
    println!("implement 256x256: {implement_ms:.0} ms end-to-end, fmax {fmax:.0} MHz @ 0.9 V");
    drop(im);

    // --- multi-core speedup gate -------------------------------------
    let speedup = place_serial.ns_per_iter / place_par.ns_per_iter;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("placement speedup: {speedup:.2}x on {cores} core(s)");
    if cores >= 4 {
        assert!(
            speedup >= MIN_PLACE_SPEEDUP,
            "multi-threaded placement must be >= {MIN_PLACE_SPEEDUP}x the single-thread arm on the \
             scale tier, measured only {speedup:.2}x on {cores} cores"
        );
    } else {
        println!("skipping >={MIN_PLACE_SPEEDUP}x speedup assert: needs >= 4 cores, have {cores}");
    }

    merge_bench_artifact(
        &["layout_"],
        &[
            ("layout_place_scale_serial_ms", place_serial.ns_per_iter / 1e6),
            ("layout_place_scale_ms", place_par.ns_per_iter / 1e6),
            ("layout_place_speedup", speedup),
            ("layout_drc_scale_ms", drc.ns_per_iter / 1e6),
            ("layout_wires_scale_ms", wires_stats.ns_per_iter / 1e6),
            ("layout_place_paper_ms", paper_place.ns_per_iter / 1e6),
            ("layout_implement_scale_ms", implement_ms),
        ],
    );
}

criterion_group!(benches, bench_layout);
criterion_main!(benches);
