//! Design-rule and layout-vs-schematic style checks.
//!
//! The paper's flow runs DRC and LVS before post-layout sign-off. In
//! this reproduction:
//!
//! * **DRC** — no two placed cells overlap, every cell lies within the
//!   die outline;
//! * **LVS** — the placement covers exactly the instances of the netlist
//!   (one footprint per instance, no extras), so layout and "schematic"
//!   agree by construction; the check validates that invariant and
//!   reports [`LayoutError::CoverageMismatch`] instead of panicking.
//!
//! ## Sharded overlap checking
//!
//! Overlap detection builds a uniform grid as a **two-pass counting-sort
//! CSR structure**: one pass counts how many footprints touch each bin,
//! a prefix sum turns the counts into bin offsets, and a second pass
//! drops instance indices into one flat `entries` array — zero per-bin
//! `Vec`s, and entries within each bin are ascending by instance index
//! by construction. Grid rows are then grouped into fixed-size bands
//! (a geometry-derived count, never the worker count) and the bands fan
//! across [`syndcim_ir::parallel_map_threads`] workers; each band
//! reports its lexicographically smallest violating `(a, b)` index pair
//! and the fold over bands (in band order) keeps the global minimum, so
//! the reported violation is **identical for any thread count**.

use crate::place::{LayoutError, Placement};
use syndcim_ir::{default_threads, parallel_map_threads};
use syndcim_netlist::Module;
use syndcim_telemetry as telemetry;

/// Grid rows per overlap-checking shard. A fixed constant: the band
/// count depends only on die geometry, so work decomposition — and the
/// reported violation — never varies with the worker count.
const BAND_ROWS: usize = 8;

/// Run all layout checks (auto worker count).
///
/// # Errors
///
/// * [`LayoutError::CoverageMismatch`] — placement size ≠ instance count;
/// * [`LayoutError::OutOfDie`] — lowest-index cell outside the die;
/// * [`LayoutError::Overlap`] — the overlapping pair with the
///   lexicographically smallest `(a, b)` instance-index pair.
pub fn check_drc(module: &Module, placement: &Placement) -> Result<(), LayoutError> {
    check_drc_threads(module, placement, 0)
}

/// [`check_drc`] with an explicit worker-thread count (`0` = auto).
/// The verdict — including *which* violation is reported — is identical
/// for every thread count.
pub fn check_drc_threads(module: &Module, placement: &Placement, threads: usize) -> Result<(), LayoutError> {
    // LVS-style coverage: one placed footprint per netlist instance.
    if placement.cells.len() != module.instance_count() {
        return Err(LayoutError::CoverageMismatch {
            placed: placement.cells.len(),
            instances: module.instance_count(),
        });
    }

    // Die containment: serial scan, so the lowest-index offender wins.
    for pc in &placement.cells {
        if !placement.die.contains(&pc.rect) {
            return Err(LayoutError::OutOfDie { inst: module.inst_name(pc.inst).to_string() });
        }
    }

    let n = placement.cells.len();
    if n == 0 {
        return Ok(());
    }

    // Bin size adapts to the average footprint: ~2 cells per bin edge
    // keeps bin populations O(1) whether the die is all SRAM pushes or
    // sparse periphery rows.
    let avg_area: f64 = placement.cells.iter().map(|pc| pc.rect.area_um2()).sum::<f64>() / n as f64;
    let bin = (2.0 * avg_area.max(0.0).sqrt()).clamp(1.0, 8.0);
    let nx = (placement.die.w_um / bin).ceil().max(1.0) as usize;
    let ny = (placement.die.h_um / bin).ceil().max(1.0) as usize;
    telemetry::gauge("layout.drc_bins").set((nx * ny) as u64);
    let clamp = |v: f64, n: usize| -> usize { (v / bin).floor().max(0.0).min((n - 1) as f64) as usize };
    let span_of = |i: usize| -> (usize, usize, usize, usize) {
        let r = &placement.cells[i].rect;
        (clamp(r.x_um, nx), clamp(r.right(), nx), clamp(r.y_um, ny), clamp(r.top(), ny))
    };

    // Counting-sort CSR grid: count pass → prefix sum → fill pass.
    let (starts, entries) = {
        telemetry::span!("drc.grid");
        let mut counts = vec![0u32; nx * ny + 1];
        for i in 0..n {
            let (x0, x1, y0, y1) = span_of(i);
            for gy in y0..=y1 {
                for gx in x0..=x1 {
                    counts[gy * nx + gx + 1] += 1;
                }
            }
        }
        for b in 1..counts.len() {
            counts[b] += counts[b - 1];
        }
        let starts = counts.clone();
        let total = starts[nx * ny] as usize;
        let mut cursors = starts.clone();
        let mut entries = vec![0u32; total];
        // Cells visited in index order, so each bin's slice is ascending.
        for i in 0..n {
            let (x0, x1, y0, y1) = span_of(i);
            for gy in y0..=y1 {
                for gx in x0..=x1 {
                    let c = &mut cursors[gy * nx + gx];
                    entries[*c as usize] = i as u32;
                    *c += 1;
                }
            }
        }
        (starts, entries)
    };

    // Shard by fixed-size row bands; each band keeps its lexicographic
    // minimum (i, j) violation, the fold keeps the global minimum.
    let bands: Vec<usize> = (0..ny.div_ceil(BAND_ROWS)).collect();
    let t = if threads == 0 { default_threads(bands.len()) } else { threads };
    let hit = {
        telemetry::span!("drc.bands");
        parallel_map_threads(bands, t, |_, band| {
            telemetry::span!("drc.band");
            let mut best: Option<(u32, u32)> = None;
            let row0 = band * BAND_ROWS;
            let row1 = (row0 + BAND_ROWS).min(ny);
            for gy in row0..row1 {
                for gx in 0..nx {
                    let b = gy * nx + gx;
                    let slot = &entries[starts[b] as usize..starts[b + 1] as usize];
                    for (p, &i) in slot.iter().enumerate() {
                        let ri = &placement.cells[i as usize].rect;
                        for &j in &slot[p + 1..] {
                            if best.is_some_and(|m| m <= (i, j)) {
                                break; // entries ascend: (i, j) only grows
                            }
                            if ri.overlaps(&placement.cells[j as usize].rect) {
                                best = Some((i, j));
                                break;
                            }
                        }
                    }
                }
            }
            best
        })
        .into_iter()
        .flatten()
        .min()
    };

    if let Some((i, j)) = hit {
        return Err(LayoutError::Overlap {
            a: module.inst_name(placement.cells[i as usize].inst).to_string(),
            b: module.inst_name(placement.cells[j as usize].inst).to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;
    use crate::place::{place, FloorplanConfig};
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::CellLibrary;

    fn small(lib: &CellLibrary) -> Module {
        let mut b = NetlistBuilder::new("s", lib);
        let a = b.input("a");
        b.push_group("col0");
        let x = b.not(a);
        let y = b.xor2(x, a);
        b.pop_group();
        b.output("y", y);
        b.finish()
    }

    #[test]
    fn clean_placement_passes() {
        let lib = CellLibrary::syn40();
        let m = small(&lib);
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        check_drc(&m, &p).unwrap();
    }

    #[test]
    fn forced_overlap_is_caught() {
        let lib = CellLibrary::syn40();
        let m = small(&lib);
        let mut p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        p.cells[1].rect = p.cells[0].rect;
        assert!(matches!(check_drc(&m, &p), Err(LayoutError::Overlap { .. })));
    }

    #[test]
    fn out_of_die_is_caught() {
        let lib = CellLibrary::syn40();
        let m = small(&lib);
        let mut p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        p.cells[0].rect = Rect::new(p.die.right() + 1.0, 0.0, 1.0, 1.0);
        assert!(matches!(check_drc(&m, &p), Err(LayoutError::OutOfDie { .. })));
    }

    #[test]
    fn coverage_mismatch_too_few_footprints() {
        let lib = CellLibrary::syn40();
        let m = small(&lib);
        let mut p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        p.cells.pop();
        assert_eq!(
            check_drc(&m, &p),
            Err(LayoutError::CoverageMismatch {
                placed: m.instance_count() - 1,
                instances: m.instance_count()
            })
        );
    }

    #[test]
    fn coverage_mismatch_too_many_footprints() {
        let lib = CellLibrary::syn40();
        let m = small(&lib);
        let mut p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let extra = p.cells[0].clone();
        p.cells.push(extra);
        assert_eq!(
            check_drc(&m, &p),
            Err(LayoutError::CoverageMismatch {
                placed: m.instance_count() + 1,
                instances: m.instance_count()
            })
        );
    }

    #[test]
    fn overlap_report_is_thread_count_invariant() {
        // Three mutually overlapping footprints: every worker count and
        // every repetition must blame the same lowest-(a, b) pair.
        let lib = CellLibrary::syn40();
        let m = {
            let mut b = NetlistBuilder::new("multi", &lib);
            let a = b.input("a");
            b.push_group("col0");
            let mut y = b.not(a);
            for _ in 0..6 {
                y = b.xor2(y, a);
            }
            b.pop_group();
            b.output("y", y);
            b.finish()
        };
        let mut p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let r = p.cells[0].rect;
        p.cells[1].rect = r;
        p.cells[2].rect = Rect::new(r.x_um + 0.1, r.y_um, r.w_um, r.h_um);
        let expected = check_drc_threads(&m, &p, 1).unwrap_err();
        assert!(matches!(expected, LayoutError::Overlap { .. }));
        for t in [1, 2, 8] {
            for _ in 0..3 {
                assert_eq!(check_drc_threads(&m, &p, t).unwrap_err(), expected, "threads = {t}");
            }
        }
    }
}
