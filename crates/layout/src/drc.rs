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
//! ## Banded overlap checking
//!
//! Overlap detection bins footprints on a uniform grid whose rows group
//! into fixed-size bands (a geometry-derived count, never the worker
//! count). Every pass runs on [`syndcim_ir::parallel_map_threads`]
//! workers over fixed jobs:
//!
//! 1. fixed chunks of footprints check die containment, compute each
//!    footprint's bin span once and count their footprints per band;
//! 2. a prefix sum over (band, chunk) gives every chunk its write
//!    cursors, and the chunks bucket their footprints by band — one
//!    counting sort that keeps each band's footprints in index order;
//! 3. each band builds its own **counting-sort CSR grid** over its rows
//!    (one pass counts how many of its footprints touch each bin, a
//!    prefix sum turns the counts into bin offsets, a second pass drops
//!    footprint indices into one flat `entries` array — zero per-bin
//!    `Vec`s, and each bin's slice ascends by footprint index) and
//!    reports its lexicographically smallest violating `(a, b)` index
//!    pair.
//!
//! The fold over bands keeps the global minimum, and the first chunk
//! with a footprint outside the die names the lowest-index one, so the
//! reported violation is **identical for any thread count** (and equal
//! to an all-pairs scan's).

use crate::par::DisjointWriter;
use crate::place::{LayoutError, Placement};
use syndcim_ir::{default_threads, parallel_map_threads, split_lengths};
use syndcim_netlist::Module;
use syndcim_telemetry as telemetry;

/// Grid rows per overlap-checking shard. A fixed constant: the band
/// count depends only on die geometry, so work decomposition — and the
/// reported violation — never varies with the worker count.
const BAND_ROWS: usize = 8;

/// Footprints per job of the span and bucket passes (fixed for the same
/// reason).
const SPAN_CHUNK: usize = 1 << 10;

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
    // `floor`, then clamp to `0..n`: the cast truncates toward zero and
    // saturates, sending NaN and negatives to 0.
    let clamp = |v: f64, n: usize| -> u32 { ((v / bin) as u32).min(n as u32 - 1) };
    let bands = ny.div_ceil(BAND_ROWS);
    let band_rows = |band: usize| band * BAND_ROWS..(band * BAND_ROWS + BAND_ROWS).min(ny);
    let band_range = |s: &[u32; 4]| s[2] as usize / BAND_ROWS..=s[3] as usize / BAND_ROWS;
    // The rows of a footprint's span inside a band, local to the band.
    let local_rows = |s: &[u32; 4], band: usize| {
        let rows = band_rows(band);
        (s[2] as usize).max(rows.start) - rows.start..(s[3] as usize + 1).min(rows.end) - rows.start
    };
    let workers = |jobs: usize| if threads == 0 { default_threads(jobs) } else { threads };
    let chunks = n.div_ceil(SPAN_CHUNK);

    // Die containment and each footprint's bin span `[x0, x1, y0, y1]`
    // (inclusive), over fixed chunks of footprints. Each chunk counts,
    // per band, its footprints and the grid entries they add (bins
    // covered in the band's rows), or stops at its first footprint
    // outside the die; the first such chunk holds the lowest-index one.
    // Every buffer is allocated here and only written by the workers.
    let mut spans = vec![[0u32; 4]; n];
    let mut counts = vec![[0u32; 2]; chunks * bands];
    {
        telemetry::span!("drc.spans");
        let jobs: Vec<_> = spans.chunks_mut(SPAN_CHUNK).zip(counts.chunks_mut(bands)).enumerate().collect();
        let outside = parallel_map_threads(jobs, workers(chunks), |_, (c, (spans, counts))| {
            for (i, span) in (c * SPAN_CHUNK..).zip(spans) {
                let r = &placement.cells[i].rect;
                if !placement.die.contains(r) {
                    return Some(i);
                }
                *span = [clamp(r.x_um, nx), clamp(r.right(), nx), clamp(r.y_um, ny), clamp(r.top(), ny)];
                for band in band_range(span) {
                    let [footprints, entries] = &mut counts[band];
                    *footprints += 1;
                    *entries += (span[1] - span[0] + 1) * local_rows(span, band).len() as u32;
                }
            }
            None
        });
        if let Some(i) = outside.into_iter().flatten().next() {
            let inst = module.inst_name(placement.cells[i].inst).to_string();
            return Err(LayoutError::OutOfDie { inst });
        }
    }

    // The footprints of every band as one CSR table: bands in order,
    // chunks in order within a band, so each band's footprints ascend.
    // Each chunk's footprint counts turn into its write cursors.
    let mut band_start = vec![0u32; bands + 1];
    let mut band_entries = vec![0usize; bands];
    let mut next = 0u32;
    for band in 0..bands {
        for chunk in counts.chunks_mut(bands) {
            let [footprints, entries] = &mut chunk[band];
            next += std::mem::replace(footprints, next);
            band_entries[band] += *entries as usize;
        }
        band_start[band + 1] = next;
    }
    let mut members = vec![0u32; next as usize];
    {
        telemetry::span!("drc.bucket");
        let out = DisjointWriter::new(&mut members);
        let jobs: Vec<_> = counts.chunks_mut(bands).enumerate().collect();
        parallel_map_threads(jobs, workers(chunks), |_, (c, cursors)| {
            let lo = c * SPAN_CHUNK;
            for (i, span) in (lo..).zip(&spans[lo..n.min(lo + SPAN_CHUNK)]) {
                for band in band_range(span) {
                    let cursor = &mut cursors[band][0];
                    out.set(*cursor as usize, i as u32);
                    *cursor += 1;
                }
            }
        });
    }

    // Each band grids its own footprints and keeps its lexicographic
    // minimum (i, j) violation; the fold keeps the global minimum.
    let mut entries = vec![0u32; band_entries.iter().sum()];
    let mut starts = vec![0u32; ny * nx + bands];
    let jobs: Vec<_> = split_lengths(&mut entries, band_entries)
        .into_iter()
        .zip(split_lengths(&mut starts, (0..bands).map(|band| band_rows(band).len() * nx + 1)))
        .enumerate()
        .collect();
    let hit = {
        telemetry::span!("drc.bands");
        parallel_map_threads(jobs, workers(bands), |_, (band, (entries, starts))| {
            telemetry::span!("drc.band");
            let members = &members[band_start[band] as usize..band_start[band + 1] as usize];
            // The band's bins a footprint covers in one of its rows.
            let row_bins = |s: &[u32; 4], gy: usize| gy * nx + s[0] as usize..gy * nx + s[1] as usize + 1;

            // Counting-sort CSR grid: count pass → prefix sum → fill
            // pass. The fill advances each bin's start to its end, so
            // bin `b`'s slot ends up `starts[b - 1]..starts[b]` (from 0
            // for the first bin).
            for &i in members {
                let s = &spans[i as usize];
                for gy in local_rows(s, band) {
                    let bins = row_bins(s, gy);
                    for count in &mut starts[bins.start + 1..bins.end + 1] {
                        *count += 1;
                    }
                }
            }
            for b in 1..starts.len() {
                starts[b] += starts[b - 1];
            }
            for &i in members {
                let s = &spans[i as usize];
                for gy in local_rows(s, band) {
                    for c in &mut starts[row_bins(s, gy)] {
                        entries[*c as usize] = i;
                        *c += 1;
                    }
                }
            }

            let mut best: Option<(u32, u32)> = None;
            let mut lo = 0;
            for &hi in &starts[..starts.len() - 1] {
                let slot = &entries[lo..hi as usize];
                lo = hi as usize;
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
