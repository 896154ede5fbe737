//! DRC verdicts pinned against an all-pairs reference.
//!
//! `check_drc_threads` buckets footprints into fixed row bands and scans
//! a grid per band. The reference below knows nothing of bins or bands:
//! it checks coverage, then the lowest-index footprint outside the die,
//! then every pair of footprints for the lexicographically smallest
//! overlapping `(a, b)`. On generated placements with planted faults —
//! clean, overlaps in different bands, an overlapping pair straddling a
//! band boundary, an out-of-die cell, too few and too many footprints —
//! DRC must return exactly the reference's verdict at 1, 2 and 8
//! workers.
//!
//! Plain `cargo test` runs a fixed seed set; `SYNDCIM_FUZZ_CASES=N` runs
//! `N` seeds instead (CI runs more).

mod support;

use rand::Rng;
use support::random_module;
use syndcim_layout::{check_drc_threads, place, FloorplanConfig, LayoutError, PlacedCell, Placement, Rect};
use syndcim_netlist::{InstId, Module};
use syndcim_pdk::CellLibrary;
use syndcim_sim::vectors::seeded_rng;

/// Seeds checked by plain `cargo test`.
const DEFAULT_CASES: u64 = 16;

/// Grid rows per band in `check_drc_threads`.
const BAND_ROWS: f64 = 8.0;

fn cases() -> u64 {
    std::env::var("SYNDCIM_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_CASES)
}

/// The all-pairs reference verdict.
fn brute_force(module: &Module, p: &Placement) -> Result<(), LayoutError> {
    if p.cells.len() != module.instance_count() {
        return Err(LayoutError::CoverageMismatch {
            placed: p.cells.len(),
            instances: module.instance_count(),
        });
    }
    if let Some(pc) = p.cells.iter().find(|pc| !p.die.contains(&pc.rect)) {
        return Err(LayoutError::OutOfDie { inst: module.inst_name(pc.inst).to_string() });
    }
    for (a, pa) in p.cells.iter().enumerate() {
        if let Some(pb) = p.cells[a + 1..].iter().find(|pb| pa.rect.overlaps(&pb.rect)) {
            return Err(LayoutError::Overlap {
                a: module.inst_name(pa.inst).to_string(),
                b: module.inst_name(pb.inst).to_string(),
            });
        }
    }
    Ok(())
}

/// Height of one row band: `BAND_ROWS` bins of the size DRC derives
/// from the average footprint area.
fn band_height(p: &Placement) -> f64 {
    let avg = p.cells.iter().map(|pc| pc.rect.area_um2()).sum::<f64>() / p.cells.len() as f64;
    BAND_ROWS * (2.0 * avg.max(0.0).sqrt()).clamp(1.0, 8.0)
}

/// Require DRC's verdict to equal the reference's at 1, 2 and 8 workers,
/// and return it.
fn assert_matches_reference(module: &Module, p: &Placement, label: &str) -> Result<(), LayoutError> {
    let want = brute_force(module, p);
    for threads in [1, 2, 8] {
        assert_eq!(check_drc_threads(module, p, threads), want, "{label} at {threads} workers");
    }
    want
}

/// A lattice placement of `module`: one `w × h` footprint per instance
/// on a pitch of `2.5 w × 3 h`, so footprints neither touch nor overlap
/// and each gap between lattice columns has room for one more.
fn lattice(module: &Module, w: f64, h: f64) -> Placement {
    let n = module.instance_count();
    let cols = (n as f64).sqrt().ceil() as usize;
    let rows = n.div_ceil(cols);
    let (px, py) = (2.5 * w, 3.0 * h);
    let cells = (0..n)
        .map(|i| PlacedCell {
            inst: InstId(i as u32),
            rect: Rect::new((i % cols) as f64 * px, (i / cols) as f64 * py, w, h),
        })
        .collect();
    let die = Rect::new(0.0, 0.0, cols as f64 * px, rows as f64 * py);
    Placement { die, cells, regions: Vec::new(), utilization: 0.0 }
}

#[test]
fn placed_netlists_with_planted_faults_match_the_all_pairs_reference() {
    let lib = CellLibrary::syn40();
    for seed in 0..cases() {
        let m = random_module(&lib, seed, 200..3_000);
        let clean = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let n = clean.cells.len();
        assert_eq!(assert_matches_reference(&m, &clean, &format!("seed {seed}: clean")), Ok(()));
        let mut rng = seeded_rng(seed ^ 0xD4C);

        // Overlaps in several bands: copy the footprints at four height
        // quantiles onto cells spread over the instance range.
        let mut by_height: Vec<usize> = (0..n).collect();
        by_height.sort_by(|&i, &j| clean.cells[i].rect.y_um.total_cmp(&clean.cells[j].rect.y_um));
        let targets = [n / 10, 2 * n / 5, 7 * n / 10, n - 1].map(|q| by_height[q]);
        let band = band_height(&clean);
        let lowest = (clean.cells[targets[0]].rect.y_um / band).floor();
        let highest = (clean.cells[targets[3]].rect.y_um / band).floor();
        assert!(highest > lowest, "seed {seed}: the planted overlaps share one band");
        let mut overlaps = clean.clone();
        for (k, target) in targets.into_iter().enumerate() {
            let victim = rng.gen_range(k * n / 4..(k + 1) * n / 4);
            if victim != target {
                overlaps.cells[victim].rect = clean.cells[target].rect;
            }
        }
        let verdict = assert_matches_reference(&m, &overlaps, &format!("seed {seed}: overlaps"));
        assert!(matches!(verdict, Err(LayoutError::Overlap { .. })), "seed {seed}: {verdict:?}");

        // Two out-of-die cells beside the overlaps: containment wins,
        // and the lower index is named.
        let mut outside = overlaps.clone();
        for _ in 0..2 {
            let victim = rng.gen_range(0..n);
            outside.cells[victim].rect.x_um = outside.die.right() + 1.0;
        }
        let verdict = assert_matches_reference(&m, &outside, &format!("seed {seed}: out of die"));
        assert!(matches!(verdict, Err(LayoutError::OutOfDie { .. })), "seed {seed}: {verdict:?}");

        // Too few and too many footprints: coverage wins over geometry.
        let mut short = overlaps.clone();
        short.cells.truncate(n - 1 - rng.gen_range(0..n / 2));
        let verdict = assert_matches_reference(&m, &short, &format!("seed {seed}: too few"));
        assert!(matches!(verdict, Err(LayoutError::CoverageMismatch { .. })), "seed {seed}: {verdict:?}");
        let mut long = overlaps.clone();
        long.cells.push(long.cells[0].clone());
        let verdict = assert_matches_reference(&m, &long, &format!("seed {seed}: too many"));
        assert!(matches!(verdict, Err(LayoutError::CoverageMismatch { .. })), "seed {seed}: {verdict:?}");
    }
}

#[test]
fn overlaps_straddling_a_band_boundary_match_the_all_pairs_reference() {
    let lib = CellLibrary::syn40();
    for seed in 0..cases() {
        let m = random_module(&lib, seed, 400..1_500);
        let mut rng = seeded_rng(seed ^ 0xBA4D);
        // Footprints `w × 5.76 w` make DRC's bin `2 √(w h)` = 4.8 w, so
        // every footprint is 1.2 bins tall.
        let w = rng.gen_range(1u32..7) as f64 / 4.0;
        let clean = lattice(&m, w, 5.76 * w);
        let n = clean.cells.len();
        assert_eq!(assert_matches_reference(&m, &clean, &format!("seed {seed}: clean lattice")), Ok(()));

        // Moving two footprints keeps the average area, so the bins stay
        // the clean lattice's.
        let band = band_height(&clean);
        let bin = band / BAND_ROWS;
        let boundaries = ((clean.die.h_um - 2.0 * bin) / band).floor() as usize;
        assert!(boundaries >= 1, "seed {seed}: no band boundary inside the lattice");
        // Two footprints in the free gap after lattice column 0 that
        // overlap in one grid row only, next to a band boundary: `a`
        // covers the last row of one band and the first row of the next,
        // and `b` covers one of those rows and the row beyond it, so the
        // overlap sits in the top row of one span and the bottom row of
        // the other. Nothing else overlaps.
        let boundary = rng.gen_range(1..=boundaries) as f64 * band;
        let (x, h) = (1.2 * w, 1.2 * bin);
        let below = rng.gen_bool(0.5);
        let yb = if below { boundary - 1.5 * bin } else { boundary + 0.3 * bin };
        let mut straddle = clean.clone();
        let (a, b) = {
            let i = rng.gen_range(0..n - 1);
            (i, rng.gen_range(i + 1..n))
        };
        straddle.cells[a].rect = Rect::new(x, boundary - 0.6 * bin, w, h);
        straddle.cells[b].rect = Rect::new(x + 0.1 * w, yb, w, h);
        let verdict = assert_matches_reference(&m, &straddle, &format!("seed {seed}: straddle"));
        let names = |i: usize| m.inst_name(straddle.cells[i].inst).to_string();
        assert_eq!(verdict, Err(LayoutError::Overlap { a: names(a), b: names(b) }), "seed {seed}");
    }
}
