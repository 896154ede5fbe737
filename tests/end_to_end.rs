//! Cross-crate integration tests: the full compiler pipeline from spec
//! to verified, measured macro.

use syndcim_core::{implement, measure_int, search, DesignChoice, MacroSpec};
use syndcim_layout::check_drc;
use syndcim_pdk::OperatingPoint;
use syndcim_scl::Scl;
use syndcim_sim::vectors::{random_ints, seeded_rng};
use syndcim_sta::Sta;

fn spec(h: usize, w: usize, mcr: usize) -> MacroSpec {
    MacroSpec {
        h,
        w,
        mcr,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 400.0,
        f_wu_mhz: 400.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

#[test]
fn search_implement_verify_16x16() {
    let s = spec(16, 16, 2);
    let mut scl = Scl::new();
    let res = search(&s, &mut scl);
    assert!(!res.frontier.is_empty());
    let best = res.best(&s).unwrap();
    let lib = scl.cell_library().clone();
    let im = implement(&lib, &s, &best.choice).unwrap();
    check_drc(&im.mac.module, &im.placement).unwrap();

    let mut rng = seeded_rng(11);
    for pa in [1u32, 2, 4] {
        let ch = 16 / pa as usize;
        let w: Vec<Vec<i64>> = (0..ch).map(|_| random_ints(&mut rng, 16, pa)).collect();
        let a: Vec<Vec<i64>> = (0..3).map(|_| random_ints(&mut rng, 16, pa)).collect();
        let m = measure_int(&im, &lib, pa, &a, &w, OperatingPoint::at_voltage(0.9), 400.0)
            .unwrap_or_else(|e| panic!("INT{pa}: {e}"));
        assert_eq!(m.checked_outputs, ch * 3);
    }
}

#[test]
fn every_frontier_point_implements_cleanly() {
    let s = spec(8, 8, 2);
    let mut scl = Scl::new();
    let res = search(&s, &mut scl);
    let lib = scl.cell_library().clone();
    for p in res.frontier.iter().take(6) {
        let im = implement(&lib, &s, &p.choice).unwrap_or_else(|e| panic!("{}: {e}", p.choice.label()));
        check_drc(&im.mac.module, &im.placement).unwrap();
    }
}

#[test]
fn mcr_banks_hold_independent_weights() {
    // Write different weights to bank 0 and bank 1 through the real
    // write port, then verify bank selection steers the MAC.
    use syndcim_sim::Simulator;
    let s = spec(8, 8, 2);
    let lib = syndcim_pdk::CellLibrary::syn40();
    let mac = syndcim_core::assemble(&lib, &s, &DesignChoice::default());
    let mut sim = Simulator::new(&mac.module, &lib).unwrap();
    // Write bank b, row r: wbl pattern depends on bank.
    for bank in 0..2i64 {
        for r in 0..8 {
            sim.set("wr_en", true);
            sim.set_bus("wr_row", 3, r);
            sim.set_bus("wr_bank", 1, bank);
            for c in 0..8 {
                sim.set(&format!("wbl[{c}]"), (c as i64 + bank) % 2 == 0);
            }
            sim.step();
        }
    }
    sim.set("wr_en", false);
    // Check the stored states directly via the bitcell map.
    for bc in &mac.bitcells {
        let want = (bc.col as i64 + bc.bank as i64) % 2 == 0;
        assert_eq!(sim.state_of(bc.inst), want, "col {} bank {}", bc.col, bc.bank);
    }
}

#[test]
fn post_layout_timing_slower_but_consistent() {
    let s = spec(8, 8, 1);
    let lib = syndcim_pdk::CellLibrary::syn40();
    let im = implement(&lib, &s, &DesignChoice::default()).unwrap();
    let pre = Sta::new(&im.mac.module, &lib).unwrap().analyze(1e6).max_delay_ps;
    let post = im.compiled.sta.analyze_at(1e6, OperatingPoint::at_voltage(0.9)).max_delay_ps;
    assert!(post > pre);
    assert!(post < pre * 3.0, "wire overhead should be bounded: pre={pre} post={post}");
}

#[test]
fn weight_update_and_mac_frequencies_both_checked() {
    // A spec demanding impossibly fast weight updates must fail search.
    let mut s = spec(8, 8, 2);
    s.f_wu_mhz = 50_000.0;
    let mut scl = Scl::new();
    let res = search(&s, &mut scl);
    assert!(res.feasible.is_empty());
}
