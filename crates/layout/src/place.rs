//! Structured-data-path (SDP) placement for DCIM macros.
//!
//! The paper (§III-D): *"we adopt the structured data path (SDP)
//! capability in Cadence Innovus with a scalable script. … After placing
//! the SRAM cells using SDP, we fill the gaps between SRAM columns with
//! adder cells and place the peripheral logic around the array."*
//!
//! This module is that script: it understands the group-naming convention
//! used by the subcircuit generators and produces the same floorplan
//! topology —
//!
//! ```text
//! ┌─────────────────────────────────────────────┐
//! │        bl_drivers  +  align   (top strips)  │
//! │ ┌────┐ ┌────┬────┬────┬────┬──────────────┐ │
//! │ │ wl │ │col0│col1│col2│ …  │   (strips:   │ │
//! │ │drv │ │    │    │    │    │ bitcell grid │ │
//! │ │    │ │    │    │    │    │ + datapath)  │ │
//! │ └────┘ └────┴────┴────┴────┴──────────────┘ │
//! │        ofu + top misc        (bottom strip) │
//! └─────────────────────────────────────────────┘
//! ```
//!
//! Bitcells are tiled on a pushed-rule grid at the top of each column
//! strip (the "regular SRAM place"); the column's multiplier, adder-tree
//! and shift-adder cells are row-packed directly beneath ("fill the gaps
//! between SRAM columns with adder cells"); drivers, alignment and fusion
//! logic wrap the array.
//!
//! ## Parallel hierarchical placement
//!
//! The floorplan is hierarchical by construction: every column strip
//! owns a disjoint `(x0, w_col)` band and a disjoint set of instances,
//! and the three wrap strips (left / top / bottom) are disjoint from the
//! columns and from each other. Placement exploits that:
//!
//! 1. zone assignment is resolved **once per stored group path** (the
//!    module keeps each distinct path once; its head is split off and
//!    parsed there) into a `Vec<Zone>` indexed by group id — no
//!    per-instance string splitting;
//! 2. the independent strips fan across cores via
//!    [`syndcim_ir::parallel_map_threads`], each worker writing its
//!    instances' footprints directly into the shared cell table
//!    (disjoint indices, so no scatter pass);
//! 3. every strip is a pure function of its own inputs, so the
//!    resulting [`Placement`] is **bit-identical for any worker
//!    count** — pinned by `tests/layout_parallel.rs` and the layout
//!    bench.

use std::collections::HashMap;
use std::fmt;

use crate::geometry::Rect;
use crate::par::DisjointWriter;
use syndcim_ir::{default_threads, parallel_map_threads, Symbols};
use syndcim_netlist::{GroupId, InstId, Module};
use syndcim_pdk::{CellLibrary, DensityClass};
use syndcim_telemetry as telemetry;

/// Placement configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloorplanConfig {
    /// Target core aspect ratio, width / height.
    pub aspect: f64,
    /// Standard-cell row utilization inside packed rows (the rest is
    /// routing space).
    pub row_util: f64,
    /// Margin around the core (power ring, IO) in µm.
    pub margin_um: f64,
}

impl Default for FloorplanConfig {
    fn default() -> Self {
        // Aspect mirrors the paper's 455×246 µm die photo (≈1.85).
        FloorplanConfig { aspect: 1.85, row_util: 0.80, margin_um: 4.0 }
    }
}

/// A placed instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedCell {
    /// The instance this footprint belongs to.
    pub inst: InstId,
    /// Its placed footprint.
    pub rect: Rect,
}

/// A named region of the floorplan (for rendering and reports).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name (`"col17"`, `"align"`, …).
    pub name: String,
    /// Region bounding box.
    pub rect: Rect,
}

/// The completed placement of one macro.
///
/// `PartialEq` compares every field exactly (all coordinates are `f64`
/// bit patterns produced by deterministic arithmetic) — the equality
/// the thread-count-invariance tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Die outline (origin at (0,0)).
    pub die: Rect,
    /// One placed footprint per instance, indexed by [`InstId::index`].
    pub cells: Vec<PlacedCell>,
    /// Floorplan regions.
    pub regions: Vec<Region>,
    /// Σ cell area / die area.
    pub utilization: f64,
}

impl Placement {
    /// Die area in µm².
    pub fn die_area_um2(&self) -> f64 {
        self.die.area_um2()
    }

    /// Die area in mm².
    pub fn die_area_mm2(&self) -> f64 {
        self.die_area_um2() * 1e-6
    }
}

/// Error raised by placement or design-rule checking.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutError {
    /// The module has no instances to place.
    EmptyModule,
    /// Two placed cells overlap.
    Overlap {
        /// First instance name (the lower instance index).
        a: String,
        /// Second instance name (the higher instance index).
        b: String,
    },
    /// A cell lies outside the die.
    OutOfDie {
        /// Offending instance name.
        inst: String,
    },
    /// LVS-style coverage failure: the placement does not carry exactly
    /// one footprint per netlist instance.
    CoverageMismatch {
        /// Footprints in the placement.
        placed: usize,
        /// Instances in the netlist.
        instances: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::EmptyModule => write!(f, "module has no instances to place"),
            LayoutError::Overlap { a, b } => write!(f, "placed cells `{a}` and `{b}` overlap"),
            LayoutError::OutOfDie { inst } => write!(f, "cell `{inst}` lies outside the die"),
            LayoutError::CoverageMismatch { placed, instances } => {
                write!(f, "placement covers {placed} footprints but the netlist has {instances} instances")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// Per-column instance bucket with running sizing sums (accumulated in
/// instance order during the partition pass, so the floating-point sums
/// match a serial walk exactly).
#[derive(Default)]
struct Bucket {
    bitcells: Vec<usize>,
    datapath: Vec<usize>,
    /// Σ bitcell area (µm², raw — utilization divided in later).
    bitcell_area: f64,
    /// Σ datapath area (µm², raw).
    datapath_area: f64,
}

/// Zone assignment derived from the group-name head.
fn zone_of(head: &str) -> Zone {
    if let Some(rest) = head.strip_prefix("col") {
        if let Ok(c) = rest.parse::<usize>() {
            return Zone::Column(c);
        }
    }
    match head {
        "wl_drivers" => Zone::Left,
        "bl_drivers" | "align" => Zone::Top,
        _ => Zone::Bottom, // ofu, top, misc
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Zone {
    Column(usize),
    Left,
    Top,
    Bottom,
}

/// Resolve the zone of every group from the module's group-path table:
/// one `head` split + parse per **group**, never per instance.
fn zone_table_from_groups(module: &Module) -> Vec<Zone> {
    let path_zones: Vec<Zone> = (0..module.path_count() as u32)
        .map(|p| module.path_name(p))
        .map(|g| zone_of(g.split('/').next().unwrap_or(g)))
        .collect();
    (0..module.group_count()).map(|g| path_zones[module.group_path(GroupId(g as u32)) as usize]).collect()
}

/// Run SDP placement on `module` (auto worker count).
///
/// # Errors
///
/// Returns [`LayoutError::EmptyModule`] for an instance-free module.
pub fn place(module: &Module, lib: &CellLibrary, config: FloorplanConfig) -> Result<Placement, LayoutError> {
    place_threads(module, lib, config, 0)
}

/// [`place`] with an explicit worker-thread count (`0` = auto, `1` =
/// fully serial). The result is **bit-identical for every thread
/// count** — each strip is placed by a pure function of its own inputs
/// regardless of which worker runs it.
pub fn place_threads(
    module: &Module,
    lib: &CellLibrary,
    config: FloorplanConfig,
    threads: usize,
) -> Result<Placement, LayoutError> {
    let zones = zone_table_from_groups(module);
    place_impl(module, lib, config, &zones, threads)
}

/// [`place`]; `symbols` goes unused (the zones come from the module's
/// stored group paths). The parameter stays until the next benchmark
/// change, like the unused `_lib` parameters, because the benchmark
/// calls this signature.
pub fn place_with_symbols(
    module: &Module,
    lib: &CellLibrary,
    config: FloorplanConfig,
    _symbols: &Symbols,
) -> Result<Placement, LayoutError> {
    place(module, lib, config)
}

/// One parallel placement job: a strip owning a disjoint instance set
/// and a disjoint floorplan band.
enum StripJob<'a> {
    /// A column strip: bitcell grid on top, datapath rows beneath.
    Column { x0: f64, y0: f64, w: f64, bucket: &'a Bucket },
    /// A row-packed strip (the left WL-driver band).
    Rows { ids: &'a [usize], x0: f64, y0: f64, w: f64 },
    /// A group-clustered strip (top / bottom wrap bands). `y0` may be a
    /// relative origin (0.0) when the strip's absolute base is known
    /// only after the columns finish; the caller shifts the rects.
    Clustered { ids: &'a [usize], x0: f64, y0: f64, w: f64 },
}

fn run_strip(
    job: &StripJob<'_>,
    module: &Module,
    lib: &CellLibrary,
    out: &DisjointWriter<PlacedCell>,
    row_h: f64,
    util: f64,
) -> f64 {
    telemetry::span!("place.strip");
    let set = |i: usize, rect: Rect| out.set(i, PlacedCell { inst: InstId(i as u32), rect });
    match *job {
        StripJob::Column { x0, y0, w, bucket } => {
            let mut y = y0;
            // 1) bitcell grid (pushed-rule SDP rows).
            if !bucket.bitcells.is_empty() {
                let bitcell = lib.cell(module.instance(InstId(bucket.bitcells[0] as u32)).cell);
                let bw = bitcell.width_um.max(0.2);
                let bh = (bitcell.area_um2 / bw).max(0.2);
                let per_row = ((w * 0.98) / bw).floor().max(1.0) as usize;
                for (k, &i) in bucket.bitcells.iter().enumerate() {
                    let col = k % per_row;
                    let row = k / per_row;
                    set(i, Rect::new(x0 + col as f64 * bw, y + row as f64 * bh, bw, bh));
                }
                let rows = bucket.bitcells.len().div_ceil(per_row);
                y += rows as f64 * bh + 0.4; // gap between SRAM grid and logic
            }
            // 2) datapath rows ("adder cells fill the gaps next to the
            // SRAM").
            pack_rows(&set, module, lib, &bucket.datapath, x0, y, w, row_h, util)
        }
        StripJob::Rows { ids, x0, y0, w } => pack_rows(&set, module, lib, ids, x0, y0, w, row_h, util),
        StripJob::Clustered { ids, x0, y0, w } => {
            pack_clustered(&set, module, lib, ids, x0, y0, w, row_h, util)
        }
    }
}

fn place_impl(
    module: &Module,
    lib: &CellLibrary,
    config: FloorplanConfig,
    zones: &[Zone],
    threads: usize,
) -> Result<Placement, LayoutError> {
    if module.instance_count() == 0 {
        return Err(LayoutError::EmptyModule);
    }
    let process = lib.process();
    let row_h = process.row_height_um;

    // Bitcell classification resolved once per *library cell*, not per
    // instance (the spec list is tiny; the instance list is not).
    let specs = syndcim_pdk::cell_specs();
    let is_bitcell: Vec<bool> = lib
        .cells()
        .iter()
        .map(|c| {
            specs
                .iter()
                .find(|s| s.kind == c.kind)
                .map(|s| s.density == DensityClass::SramArray)
                .unwrap_or(false)
        })
        .collect();

    // Every distinct column of the zone table gets a dense slot in
    // column order, and each group's zone names its column by that
    // slot, so the partition indexes a bucket table per instance.
    let mut column_ids: Vec<usize> =
        zones.iter().filter_map(|z| if let Zone::Column(c) = *z { Some(c) } else { None }).collect();
    column_ids.sort_unstable();
    column_ids.dedup();
    let zones: Vec<Zone> = zones
        .iter()
        .map(|&z| match z {
            Zone::Column(c) => Zone::Column(column_ids.binary_search(&c).expect("listed above")),
            other => other,
        })
        .collect();
    let mut buckets: Vec<Bucket> = column_ids.iter().map(|_| Bucket::default()).collect();

    // Partition instances by zone via the per-group table, accumulating
    // every sizing sum in the same pass (instance order, so the
    // floating-point totals are walk-order exact).
    let mut left: Vec<usize> = Vec::new();
    let mut top: Vec<usize> = Vec::new();
    let mut bottom: Vec<usize> = Vec::new();
    let mut widest_dp = 0.0f64;
    let mut left_area_raw = 0.0f64;
    let mut widest_left = 0.0f64;
    let mut total_cell_area = 0.0f64;
    {
        telemetry::span!("place.partition");
        for (i, inst) in module.instances().enumerate() {
            let cell = lib.cell(inst.cell);
            total_cell_area += cell.area_um2;
            match zones[inst.group.index()] {
                Zone::Column(slot) => {
                    let bucket = &mut buckets[slot];
                    if is_bitcell[inst.cell.index()] {
                        bucket.bitcells.push(i);
                        bucket.bitcell_area += cell.area_um2;
                    } else {
                        bucket.datapath.push(i);
                        bucket.datapath_area += cell.area_um2;
                        widest_dp = widest_dp.max(cell.width_um);
                    }
                }
                Zone::Left => {
                    left.push(i);
                    left_area_raw += cell.area_um2;
                    widest_left = widest_left.max(cell.width_um);
                }
                Zone::Top => top.push(i),
                Zone::Bottom => bottom.push(i),
            }
        }
    }

    // The column strips in column order: the columns that hold an
    // instance.
    let columns: Vec<(usize, Bucket)> = column_ids
        .into_iter()
        .zip(buckets)
        .filter(|(_, b)| !b.bitcells.is_empty() || !b.datapath.is_empty())
        .collect();

    // Core sizing.
    let n_cols = columns.len().max(1);
    telemetry::gauge("layout.columns").set(n_cols as u64);
    let core_area: f64 = columns
        .iter()
        .map(|(_, b)| b.bitcell_area / 0.98 + b.datapath_area / config.row_util)
        .sum::<f64>()
        .max(1.0);
    // Left/top/bottom strips consume width/height; aim the *core* at the
    // configured aspect. The strip must at least fit its widest cell.
    let core_h = (core_area / config.aspect).sqrt();
    let w_col = (core_area / core_h / n_cols as f64).max(3.0 * row_h).max(widest_dp / config.row_util + 0.2);

    let mut cells: Vec<PlacedCell> = (0..module.instance_count())
        .map(|i| PlacedCell { inst: InstId(i as u32), rect: Rect::default() })
        .collect();
    let mut regions = Vec::new();

    // Left strip (WL drivers): packed rows, vertical strip.
    let left_area = left_area_raw / config.row_util;
    let left_w = if left.is_empty() {
        0.0
    } else {
        (left_area / core_h).max(2.0 * row_h).max(widest_left / config.row_util + 0.2)
    };
    let core_x0 = config.margin_um + left_w + if left.is_empty() { 0.0 } else { 2.0 };
    let core_y0 = config.margin_um;

    // Wave 1: the column strips plus the left wrap strip — every job
    // owns a disjoint (x-band, instance set) pair with a known origin,
    // so they all run concurrently and write their footprints in place.
    let out = DisjointWriter::new(&mut cells);
    let mut jobs: Vec<StripJob<'_>> = Vec::with_capacity(columns.len() + 1);
    for (slot, (_, bucket)) in columns.iter().enumerate() {
        jobs.push(StripJob::Column { x0: core_x0 + slot as f64 * w_col, y0: core_y0, w: w_col, bucket });
    }
    if !left.is_empty() {
        jobs.push(StripJob::Rows { ids: &left, x0: config.margin_um, y0: core_y0, w: left_w });
    }
    let workers = |jobs: usize| if threads == 0 { default_threads(jobs) } else { threads };
    let wave1 = {
        telemetry::span!("place.strips");
        let t = workers(jobs.len());
        parallel_map_threads(jobs, t, |_, job| run_strip(&job, module, lib, &out, row_h, config.row_util))
    };

    let mut max_strip_top = core_y0;
    for (slot, (c, _)) in columns.iter().enumerate() {
        let y_end = wave1[slot];
        let x0 = core_x0 + slot as f64 * w_col;
        regions
            .push(Region { name: format!("col{c}"), rect: Rect::new(x0, core_y0, w_col, y_end - core_y0) });
        max_strip_top = max_strip_top.max(y_end);
    }
    let core_w = n_cols as f64 * w_col;
    let core_top = max_strip_top;
    if !left.is_empty() {
        let y_end = wave1[columns.len()];
        regions.push(Region {
            name: "wl_drivers".into(),
            rect: Rect::new(config.margin_um, core_y0, left_w, y_end - core_y0),
        });
        max_strip_top = max_strip_top.max(y_end);
    }

    // Wave 2: the top strip's base is known now (just above the tallest
    // column), so it packs at absolute coordinates; the bottom strip's
    // base depends on the top strip's height, so it packs at a relative
    // origin concurrently and is shifted afterwards (a constant y
    // offset — still a pure function of the inputs, still
    // thread-count-invariant).
    let mut jobs2: Vec<StripJob<'_>> = Vec::with_capacity(2);
    let y_top_base = core_top + 1.0;
    if !top.is_empty() {
        jobs2.push(StripJob::Clustered { ids: &top, x0: core_x0, y0: y_top_base, w: core_w });
    }
    if !bottom.is_empty() {
        jobs2.push(StripJob::Clustered { ids: &bottom, x0: core_x0, y0: 0.0, w: core_w });
    }
    let wave2 = {
        telemetry::span!("place.strips");
        let t = workers(jobs2.len());
        parallel_map_threads(jobs2, t, |_, job| run_strip(&job, module, lib, &out, row_h, config.row_util))
    };

    let mut y_top = y_top_base;
    let mut next = 0;
    if !top.is_empty() {
        let y_end = wave2[next];
        next += 1;
        regions
            .push(Region { name: "align+bl".into(), rect: Rect::new(core_x0, y_top, core_w, y_end - y_top) });
        y_top = y_end;
    }
    let mut y_bot = y_top + 1.0;
    if !bottom.is_empty() {
        let height = wave2[next];
        for &i in &bottom {
            cells[i].rect.y_um += y_bot;
        }
        regions.push(Region { name: "ofu+misc".into(), rect: Rect::new(core_x0, y_bot, core_w, height) });
        y_bot += height;
    }

    let die_w = core_x0 + core_w + config.margin_um;
    let die_h = y_bot.max(max_strip_top) + config.margin_um;
    let die = Rect::new(0.0, 0.0, die_w, die_h);
    Ok(Placement { die, cells, regions, utilization: total_cell_area / die.area_um2() })
}

/// Pack `ids` into side-by-side sub-strips, one per distinct (full)
/// group name, within a band of total width `w`. Bit-sliced blocks
/// (e.g. the OFU's per-group fusion levels) then stack vertically with
/// short inter-level wires instead of smearing across the whole strip.
/// Returns the y coordinate after the tallest sub-strip.
#[allow(clippy::too_many_arguments)]
fn pack_clustered<S: Fn(usize, Rect)>(
    set: &S,
    module: &Module,
    lib: &CellLibrary,
    ids: &[usize],
    x0: f64,
    y0: f64,
    w: f64,
    row_h: f64,
    util: f64,
) -> f64 {
    // Cluster by group id, preserving first-appearance order (indexed —
    // the OFU strip of a scale-tier macro has hundreds of groups).
    let mut order: Vec<(GroupId, Vec<usize>)> = Vec::new();
    let mut index: HashMap<GroupId, usize> = HashMap::new();
    for &i in ids {
        let g = module.instance(InstId(i as u32)).group;
        match index.get(&g) {
            Some(&k) => order[k].1.push(i),
            None => {
                index.insert(g, order.len());
                order.push((g, vec![i]));
            }
        }
    }
    let widest =
        ids.iter().map(|&i| lib.cell(module.instance(InstId(i as u32)).cell).width_um).fold(0.0f64, f64::max);
    let min_w = (widest / util + 0.2).max(3.0 * row_h);
    let per_band = ((w / min_w).floor() as usize).clamp(1, order.len().max(1));
    let strip_w = w / per_band as f64;
    let mut y_band = y0;
    let mut y_end_total = y0;
    for band in order.chunks(per_band) {
        let mut band_bottom = y_band;
        for (k, (_, cluster)) in band.iter().enumerate() {
            let x = x0 + k as f64 * strip_w;
            let y_end = pack_rows(set, module, lib, cluster, x, y_band, strip_w, row_h, util);
            band_bottom = band_bottom.max(y_end);
        }
        y_band = band_bottom + 0.4;
        y_end_total = band_bottom;
    }
    y_end_total
}

/// Pack `ids` into rows of width `w` starting at `(x0, y0)`; returns the
/// y coordinate after the last row. Rows are packed in serpentine order
/// (alternating direction) so logically consecutive cells that wrap a
/// row stay physically adjacent — without this, every row wrap turns a
/// local ripple-carry net into a full-row-span wire.
#[allow(clippy::too_many_arguments)]
fn pack_rows<S: Fn(usize, Rect)>(
    set: &S,
    module: &Module,
    lib: &CellLibrary,
    ids: &[usize],
    x0: f64,
    y0: f64,
    w: f64,
    row_h: f64,
    util: f64,
) -> f64 {
    let mut x = x0;
    let mut y = y0;
    let mut rightward = true;
    let mut used_any = false;
    for &i in ids {
        let cell = lib.cell(module.instance(InstId(i as u32)).cell);
        let cw = cell.width_um.max(0.2);
        let advance = cw / util;
        if rightward {
            if x + cw > x0 + w && x > x0 {
                y += row_h;
                rightward = false;
                x = x0 + w;
            }
        } else if x - cw < x0 && x < x0 + w {
            y += row_h;
            rightward = true;
            x = x0;
        }
        if rightward {
            set(i, Rect::new(x, y, cw, row_h));
            x += advance;
        } else {
            set(i, Rect::new(x - cw, y, cw, row_h));
            x -= advance;
        }
        used_any = true;
    }
    if used_any {
        y + row_h
    } else {
        y0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::CellKind;

    /// A miniature DCIM-shaped module following the naming convention.
    fn mini_macro(lib: &CellLibrary) -> Module {
        let mut b = NetlistBuilder::new("mini", lib);
        let act = b.input("act");
        let wwl = b.input("wwl");
        let wbl = b.input("wbl");
        let mut outs = Vec::new();
        for c in 0..4 {
            b.push_group(&format!("col{c}"));
            b.push_group("bitcells");
            let r0 = b.add(CellKind::Sram6T2T, &[wwl, wbl])[0];
            let r1 = b.add(CellKind::Sram6T2T, &[wwl, wbl])[0];
            b.pop_group();
            b.push_group("tree");
            let m0 = b.add(CellKind::MultNor, &[act, r0])[0];
            let m1 = b.add(CellKind::MultNor, &[act, r1])[0];
            let (s, _) = b.ha(m0, m1);
            b.pop_group();
            b.push_group("sa");
            let q = b.dff(s);
            b.pop_group();
            b.pop_group();
            outs.push(q);
        }
        b.push_group("wl_drivers");
        let _ = b.add(CellKind::BufX4, &[act]);
        b.pop_group();
        b.push_group("align");
        let _ = b.add(CellKind::Xor2, &[outs[0], outs[1]]);
        b.pop_group();
        b.push_group("ofu");
        let (f, _) = b.ha(outs[2], outs[3]);
        b.pop_group();
        b.output("f", f);
        b.finish()
    }

    #[test]
    fn placement_covers_every_instance_inside_die() {
        let lib = CellLibrary::syn40();
        let m = mini_macro(&lib);
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        assert_eq!(p.cells.len(), m.instance_count());
        for c in &p.cells {
            assert!(c.rect.w_um > 0.0 && c.rect.h_um > 0.0, "unplaced cell {:?}", c.inst);
            assert!(p.die.contains(&c.rect), "cell outside die: {:?}", c.inst);
        }
        assert!(p.utilization > 0.05 && p.utilization <= 1.0, "utilization {}", p.utilization);
    }

    #[test]
    fn column_regions_are_ordered_left_to_right() {
        let lib = CellLibrary::syn40();
        let m = mini_macro(&lib);
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let cols: Vec<&Region> = p.regions.iter().filter(|r| r.name.starts_with("col")).collect();
        assert_eq!(cols.len(), 4);
        for w in cols.windows(2) {
            assert!(w[0].rect.x_um < w[1].rect.x_um);
        }
    }

    #[test]
    fn empty_module_is_rejected() {
        let lib = CellLibrary::syn40();
        let m = Module::new("empty");
        assert_eq!(place(&m, &lib, FloorplanConfig::default()).unwrap_err(), LayoutError::EmptyModule);
    }

    #[test]
    fn bitcells_form_a_grid() {
        // All bitcells of one column must share x-coordinates (grid
        // columns) and have uniform size — the "regular SRAM placement".
        let lib = CellLibrary::syn40();
        let m = mini_macro(&lib);
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let mut bit_rects = Vec::new();
        for (i, inst) in m.instances().enumerate() {
            if lib.cell(inst.cell).kind == CellKind::Sram6T2T && m.group_name(inst.group).starts_with("col0")
            {
                bit_rects.push(p.cells[i].rect);
            }
        }
        assert_eq!(bit_rects.len(), 2);
        assert_eq!(bit_rects[0].w_um, bit_rects[1].w_um);
    }

    #[test]
    fn thread_counts_produce_identical_placements() {
        let lib = CellLibrary::syn40();
        let m = mini_macro(&lib);
        let serial = place_threads(&m, &lib, FloorplanConfig::default(), 1).unwrap();
        for t in [2, 4, 8] {
            let parallel = place_threads(&m, &lib, FloorplanConfig::default(), t).unwrap();
            assert_eq!(serial, parallel, "placement must be bit-identical at {t} workers");
        }
    }

    #[test]
    fn zone_table_resolves_once_per_group() {
        let lib = CellLibrary::syn40();
        let m = mini_macro(&lib);
        let zones = zone_table_from_groups(&m);
        assert_eq!(zones.len(), m.group_count());
        // Every nested group under `colN` inherits the column zone.
        for (gid, zone) in zones.iter().enumerate() {
            let name = m.group_name(GroupId(gid as u32));
            if name.starts_with("col1") {
                assert_eq!(*zone, Zone::Column(1), "group `{name}`");
            }
        }
    }
}
