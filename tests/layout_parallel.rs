//! Determinism suite for the parallel layout phases.
//!
//! The layout parallelization contract: placement, DRC verdicts and
//! extracted parasitics are **byte-identical for every worker count** —
//! each strip/band/chunk is a pure function of its own inputs, and all
//! job counts and floating-point fold orders derive from geometry or
//! fixed constants, never from the thread count. This suite pins that
//! on the 64×64 paper chip; `cargo bench -p syndcim-bench --bench
//! layout` pins the same invariant on the 256×256 scale tier.
//!
//! The scale-tier `implement` arm (slow: several seconds) runs only
//! under `SYNDCIM_SLOW_TESTS=1`.

use syndcim_core::{assemble, implement, DesignChoice, MacroSpec};
use syndcim_ir::Lowering;
use syndcim_layout::{
    check_drc, check_drc_threads, extract_wires, extract_wires_threads, place, place_threads,
    place_with_symbols, FloorplanConfig, LayoutError, Rect,
};
use syndcim_netlist::{optimize, Connectivity, Module};
use syndcim_pdk::{CellLibrary, OperatingPoint};

/// The paper's 64×64 MCR-2 macro.
fn paper_spec() -> MacroSpec {
    MacroSpec {
        h: 64,
        w: 64,
        mcr: 2,
        int_precisions: vec![1, 2, 4, 8],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

/// Assemble + optimize the paper chip exactly as the implement flow
/// does before placement.
fn paper_module(lib: &CellLibrary) -> Module {
    let mut mac = assemble(lib, &paper_spec(), &DesignChoice::default());
    let _ = optimize(&mut mac.module, lib);
    mac.module
}

#[test]
fn paper_chip_placement_is_byte_identical_across_worker_counts() {
    let lib = CellLibrary::syn40();
    let m = paper_module(&lib);
    let cfg = FloorplanConfig::default();
    let serial = place_threads(&m, &lib, cfg, 1).expect("paper chip places");
    for t in [2, 8] {
        let par = place_threads(&m, &lib, cfg, t).expect("paper chip places");
        // Placement derives PartialEq over every field: die, every cell
        // rect (f64 bit patterns), region names/rects, utilization.
        assert!(serial == par, "placement diverged at {t} workers");
    }
    // The auto arm (threads = 0) and the plain entry point agree too.
    let auto = place(&m, &lib, cfg).expect("paper chip places");
    assert!(serial == auto, "auto-threaded placement diverged from the single-worker arm");
}

#[test]
fn symbol_keyed_zoning_places_identically_to_string_zoning() {
    let lib = CellLibrary::syn40();
    let m = paper_module(&lib);
    let lowering = Lowering::validated(&m, &lib).expect("paper chip lowers");
    let via_strings = place(&m, &lib, FloorplanConfig::default()).unwrap();
    let via_symbols = place_with_symbols(&m, &lib, FloorplanConfig::default(), lowering.symbols()).unwrap();
    assert!(via_strings == via_symbols, "zone source must not change the placement");
}

#[test]
fn paper_chip_extraction_is_byte_identical_across_worker_counts() {
    let lib = CellLibrary::syn40();
    let m = paper_module(&lib);
    let p = place(&m, &lib, FloorplanConfig::default()).expect("paper chip places");
    let conn = Connectivity::build(&m).expect("paper chip connectivity");
    let serial = extract_wires_threads(&m, &lib, &p, &conn, 1);
    assert!(serial.total_wirelength_um > 0.0);
    for t in [2, 8] {
        let par = extract_wires_threads(&m, &lib, &p, &conn, t);
        assert!(serial == par, "wire estimates diverged at {t} workers");
    }
}

#[test]
fn drc_overlap_report_is_deterministic_under_sharding() {
    // Corrupt the paper-chip placement with several far-apart overlaps
    // (different grid bands) plus one cluster; every worker count and
    // every repetition must blame the same lowest-(a, b) pair.
    let lib = CellLibrary::syn40();
    let m = paper_module(&lib);
    let mut p = place(&m, &lib, FloorplanConfig::default()).expect("paper chip places");
    let n = p.cells.len();
    for (victim, target) in [(n / 2, n / 2 + 1), (n / 4, n / 4 + 7), (n - 3, n - 1), (10, 11)] {
        p.cells[victim].rect = p.cells[target].rect;
    }
    let expected = check_drc_threads(&m, &p, 1).expect_err("corrupted placement must fail DRC");
    assert!(matches!(expected, LayoutError::Overlap { .. }), "expected an overlap, got {expected:?}");
    for t in [1, 2, 8] {
        for run in 0..3 {
            let got = check_drc_threads(&m, &p, t).expect_err("corrupted placement must fail DRC");
            assert_eq!(got, expected, "DRC verdict diverged at {t} workers (run {run})");
        }
    }
}

#[test]
fn drc_reports_coverage_mismatch_instead_of_panicking() {
    let lib = CellLibrary::syn40();
    let m = paper_module(&lib);
    let p = place(&m, &lib, FloorplanConfig::default()).expect("paper chip places");

    let mut short = p.clone();
    short.cells.truncate(m.instance_count() - 5);
    assert_eq!(
        check_drc(&m, &short),
        Err(LayoutError::CoverageMismatch { placed: m.instance_count() - 5, instances: m.instance_count() })
    );

    let mut long = p;
    // Extra footprints land outside any overlap: coverage is checked
    // before geometry, so the count mismatch must win regardless.
    long.cells.push(syndcim_layout::PlacedCell {
        inst: syndcim_netlist::InstId(0),
        rect: Rect::new(0.0, 0.0, 1.0, 1.0),
    });
    assert_eq!(
        check_drc(&m, &long),
        Err(LayoutError::CoverageMismatch { placed: m.instance_count() + 1, instances: m.instance_count() })
    );
}

/// Scale-tier `implement` end-to-end — placement, clean DRC, extraction
/// and sign-off on the 256×256 / ~4.3×10⁵-net macro. Slow (seconds), so
/// gated behind `SYNDCIM_SLOW_TESTS=1`; CI exercises the same path via
/// `examples/scale_tier.rs` and the layout bench.
#[test]
fn scale_tier_implement_succeeds_with_clean_drc() {
    if std::env::var("SYNDCIM_SLOW_TESTS").map(|v| v != "1").unwrap_or(true) {
        eprintln!("skipping scale-tier implement arm (set SYNDCIM_SLOW_TESTS=1 to run)");
        return;
    }
    let lib = CellLibrary::syn40();
    let spec = MacroSpec { h: 256, w: 256, ..paper_spec() };
    let im = implement(&lib, &spec, &DesignChoice::default()).expect("scale-tier implement");
    assert!(im.mac.module.net_count() > 100_000, "scale tier must exceed 10^5 nets");
    // A returned macro already passed check_drc inside the flow; re-run
    // it explicitly so this test stands alone.
    check_drc(&im.mac.module, &im.placement).expect("scale-tier placement is DRC-clean");
    // The flow extracts beside DRC above the overlap gate; the wires
    // must equal an extraction run on its own.
    let wires = extract_wires(&im.mac.module, &lib, &im.placement).expect("scale-tier extraction");
    assert!(im.wires == wires, "overlapped extraction must equal a standalone one");
    let fmax = im.fmax_mhz(&lib, OperatingPoint::at_voltage(0.9));
    assert!(fmax > 0.0, "scale-tier sign-off must yield positive fmax, got {fmax}");
}
