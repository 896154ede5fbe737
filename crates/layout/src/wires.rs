//! Global-routing estimation and parasitic extraction.
//!
//! After placement, every net's half-perimeter wirelength (HPWL) is
//! measured from its pin positions; wire capacitance and Elmore delay are
//! derived from the process constants with a detour factor. The result
//! back-annotates STA and power analysis — the "post-layout simulation"
//! step of the paper's flow.
//!
//! ## Fused parallel sweep
//!
//! Pin-load and bounding-box accumulation are one fused pass: the
//! instance table is cut into a **fixed** number of contiguous stripes
//! (never a function of the worker count), each stripe accumulates both
//! quantities into private per-net arrays, and a second parallel pass
//! merges the stripes **in stripe order** per net chunk. Pin-load sums
//! therefore fold in a fixed order and bbox merges are min/max (exactly
//! associative), so the extracted parasitics are bit-identical for any
//! thread count.

use crate::par::DisjointWriter;
use crate::place::Placement;
use syndcim_ir::{default_threads, parallel_map_threads};
use syndcim_netlist::{InstId, Module, NetlistError};
use syndcim_pdk::CellLibrary;
use syndcim_telemetry as telemetry;

/// Per-net parasitic estimates, indexed by `NetId::index`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEstimates {
    /// Half-perimeter wirelength per net in µm.
    pub hpwl_um: Vec<f64>,
    /// Wire capacitance per net in fF.
    pub cap_ff: Vec<f64>,
    /// Elmore wire delay per net in ps.
    pub delay_ps: Vec<f64>,
    /// Total routed length in µm (sum of detoured HPWL).
    pub total_wirelength_um: f64,
}

/// Routing detour factor applied on HPWL (global routing is never
/// perfectly L-shaped).
pub const DETOUR: f64 = 1.15;

/// Instance stripes for the fused sweep. Fixed so the floating-point
/// fold order — and thus every extracted value — is independent of the
/// worker count.
const STRIPES: usize = 4;

/// Nets per merge/derive chunk (fixed for the same reason).
const NET_CHUNK: usize = 8192;

/// Per-net pin bounding box.
#[derive(Debug, Clone, Copy)]
struct BBox {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    pins: u32,
}

const EMPTY_BBOX: BBox =
    BBox { x0: f64::INFINITY, y0: f64::INFINITY, x1: f64::NEG_INFINITY, y1: f64::NEG_INFINITY, pins: 0 };

impl BBox {
    #[inline]
    fn grow(&mut self, x: f64, y: f64) {
        self.x0 = self.x0.min(x);
        self.y0 = self.y0.min(y);
        self.x1 = self.x1.max(x);
        self.y1 = self.y1.max(y);
        self.pins += 1;
    }

    #[inline]
    fn union(mut self, o: &BBox) -> BBox {
        self.x0 = self.x0.min(o.x0);
        self.y0 = self.y0.min(o.y0);
        self.x1 = self.x1.max(o.x1);
        self.y1 = self.y1.max(o.y1);
        self.pins += o.pins;
        self
    }
}

/// Extract wire parasitics for `module` under `placement` (auto worker
/// count).
///
/// Pins are approximated at cell centres; port pins sit on the die edge
/// nearest the net's internal centroid, which reproduces the
/// boundary-driver wire loads of an abutment-ready hard macro.
///
/// # Errors
///
/// The `NetlistError` contract is kept for callers that extract from
/// unvalidated netlists; inside the `implement` flow the module has
/// already passed `Lowering::validated`, and extraction itself performs
/// no fallible connectivity work (the former redundant
/// `Connectivity::build` was removed).
pub fn extract_wires(
    module: &Module,
    lib: &CellLibrary,
    placement: &Placement,
) -> Result<WireEstimates, NetlistError> {
    extract_wires_threads(module, lib, placement, 0)
}

/// [`extract_wires`] with an explicit worker-thread count (`0` = auto).
/// The estimates are bit-identical for every thread count.
pub fn extract_wires_threads(
    module: &Module,
    lib: &CellLibrary,
    placement: &Placement,
    threads: usize,
) -> Result<WireEstimates, NetlistError> {
    let n = module.net_count();
    let n_inst = module.instance_count();
    let process = lib.process();
    let workers = |jobs: usize| if threads == 0 { default_threads(jobs) } else { threads };

    // Fused sweep: each stripe accumulates pin load AND pin bboxes for
    // its contiguous instance range in one walk over the instances.
    let stripe_jobs: Vec<(usize, usize)> =
        (0..STRIPES).map(|s| (s * n_inst / STRIPES, (s + 1) * n_inst / STRIPES)).collect();
    let stripes: Vec<(Vec<f64>, Vec<BBox>)> = {
        telemetry::span!("wires.sweep");
        parallel_map_threads(stripe_jobs, workers(STRIPES), |_, (lo, hi)| {
            let mut pin_load = vec![0.0f64; n];
            let mut bbox = vec![EMPTY_BBOX; n];
            for idx in lo..hi {
                let inst = module.instance(InstId(idx as u32));
                let cell = lib.cell(inst.cell);
                let (x, y) = placement.cells[idx].rect.center();
                for (pin, &net) in inst.inputs.iter().enumerate() {
                    pin_load[net.index()] += cell.input_cap_ff[pin];
                    bbox[net.index()].grow(x, y);
                }
                for &net in inst.outputs {
                    bbox[net.index()].grow(x, y);
                }
            }
            (pin_load, bbox)
        })
    };

    // Deterministic merge: per net, fold the stripes in stripe order.
    let chunk_jobs: Vec<(usize, usize)> =
        (0..n.div_ceil(NET_CHUNK)).map(|c| (c * NET_CHUNK, ((c + 1) * NET_CHUNK).min(n))).collect();
    let mut pin_load = vec![0.0f64; n];
    let mut bbox = vec![EMPTY_BBOX; n];
    {
        telemetry::span!("wires.merge");
        let load_w = DisjointWriter::new(&mut pin_load);
        let bbox_w = DisjointWriter::new(&mut bbox);
        parallel_map_threads(chunk_jobs.clone(), workers(chunk_jobs.len()), |_, (lo, hi)| {
            for i in lo..hi {
                let mut load = 0.0f64;
                let mut b = EMPTY_BBOX;
                for (stripe_load, stripe_bbox) in &stripes {
                    load += stripe_load[i];
                    b = b.union(&stripe_bbox[i]);
                }
                load_w.set(i, load);
                bbox_w.set(i, b);
            }
        });
    }
    drop(stripes);

    // Macro pins sit on the die edge nearest the logic they connect to
    // (as an abutment-ready hard macro places them): project each port
    // net's internal centroid onto the closest edge. Serial — the port
    // list is a handful of nets.
    for p in &module.ports {
        let b = bbox[p.net.index()];
        let (cx, cy) =
            if b.pins > 0 { ((b.x0 + b.x1) / 2.0, (b.y0 + b.y1) / 2.0) } else { placement.die.center() };
        let die = placement.die;
        let d_left = cx - die.x_um;
        let d_right = die.right() - cx;
        let d_bot = cy - die.y_um;
        let d_top = die.top() - cy;
        let min = d_left.min(d_right).min(d_bot).min(d_top);
        let (x, y) = if min == d_left {
            (die.x_um, cy)
        } else if min == d_right {
            (die.right(), cy)
        } else if min == d_bot {
            (cx, die.y_um)
        } else {
            (cx, die.top())
        };
        bbox[p.net.index()].grow(x, y);
    }

    // Derive per-net parasitics in parallel chunks; partial wirelength
    // totals merge in chunk order.
    let mut hpwl = vec![0.0f64; n];
    let mut cap = vec![0.0f64; n];
    let mut delay = vec![0.0f64; n];
    let totals: Vec<f64> = {
        telemetry::span!("wires.derive");
        let hpwl_w = DisjointWriter::new(&mut hpwl);
        let cap_w = DisjointWriter::new(&mut cap);
        let delay_w = DisjointWriter::new(&mut delay);
        parallel_map_threads(chunk_jobs, workers(n.div_ceil(NET_CHUNK)), |_, (lo, hi)| {
            let mut total = 0.0f64;
            for i in lo..hi {
                let b = bbox[i];
                if b.pins < 2 {
                    continue;
                }
                let l = ((b.x1 - b.x0) + (b.y1 - b.y0)) * DETOUR;
                hpwl_w.set(i, l / DETOUR);
                cap_w.set(i, l * process.wire_cap_ff_per_um);
                delay_w.set(i, process.wire_delay_ps(l, pin_load[i]));
                total += l;
            }
            total
        })
    };
    let total = totals.iter().sum();
    Ok(WireEstimates { hpwl_um: hpwl, cap_ff: cap, delay_ps: delay, total_wirelength_um: total })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{place, FloorplanConfig};
    use syndcim_netlist::{NetId, NetlistBuilder};

    #[test]
    fn parasitics_are_positive_and_bounded_by_die() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("w", &lib);
        let a = b.input("a");
        b.push_group("col0");
        let mut x = a;
        for _ in 0..24 {
            x = b.not(x);
        }
        b.pop_group();
        b.output("y", x);
        let m = b.finish();
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let w = extract_wires(&m, &lib, &p).unwrap();
        let max_possible = (p.die.w_um + p.die.h_um) * DETOUR;
        let mut some_wire = false;
        for i in 0..m.net_count() {
            assert!(w.cap_ff[i] >= 0.0 && w.delay_ps[i] >= 0.0);
            assert!(w.hpwl_um[i] * DETOUR <= max_possible + 1e-9);
            some_wire |= w.hpwl_um[i] > 0.0;
        }
        assert!(some_wire, "at least the port nets must have length");
        assert!(w.total_wirelength_um > 0.0);
    }

    #[test]
    fn single_pin_nets_have_no_wire() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("s", &lib);
        let a = b.input("a");
        let y = b.not(a);
        let _dangling = b.net("dangling");
        b.output("y", y);
        let m = b.finish();
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let w = extract_wires(&m, &lib, &p).unwrap();
        let dangling_idx =
            (0..m.net_count()).position(|n| m.net_name(NetId(n as u32)) == "dangling").unwrap();
        assert_eq!(w.hpwl_um[dangling_idx], 0.0);
        assert_eq!(w.cap_ff[dangling_idx], 0.0);
    }

    #[test]
    fn thread_counts_produce_identical_estimates() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        b.push_group("col0");
        let mut x = a;
        for _ in 0..60 {
            x = b.xor2(x, a);
        }
        b.pop_group();
        b.output("y", x);
        let m = b.finish();
        let p = place(&m, &lib, FloorplanConfig::default()).unwrap();
        let serial = extract_wires_threads(&m, &lib, &p, 1).unwrap();
        for t in [2, 4, 8] {
            let par = extract_wires_threads(&m, &lib, &p, t).unwrap();
            assert_eq!(serial, par, "estimates must be bit-identical at {t} workers");
        }
    }
}
