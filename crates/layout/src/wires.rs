//! Global-routing estimation and parasitic extraction.
//!
//! After placement, every net's half-perimeter wirelength (HPWL) is
//! measured from its pin positions; wire capacitance and Elmore delay are
//! derived from the process constants with a detour factor. The result
//! back-annotates STA and power analysis — the "post-layout simulation"
//! step of the paper's flow.
//!
//! ## Net-major parallel pass
//!
//! Extraction reads each net's pins from the connectivity tables
//! ([`Connectivity`]: the net's driver and its CSR sink rows) and
//! finishes the net in one visit. Fixed chunks of 8,192 nets run in
//! parallel. Per net, the driver's and every sink's cell centre grow
//! the pin bounding box, the net's ports are projected onto the die
//! edge in port order, and the HPWL, wire capacitance and Elmore delay
//! go straight into the three output columns. No other per-net array
//! is built.
//!
//! Every fold has a fixed order. A net's sinks come in instance order
//! (pin order within an instance), and their pin caps sum into one
//! partial per instance quarter (four fixed ranges of the instance
//! table), which then fold in quarter order. Bounding boxes grow by
//! min/max, exact in any order, and each chunk's wirelength total folds
//! in chunk order. No fold order depends on the worker count, so the
//! estimates are bit-identical for any thread count. The quarter fold
//! keeps the wire delays bit-identical to the instance-major stripe
//! scatter that `tests/extraction_oracle.rs` holds as the oracle;
//! folding the loads as one running sum would move some delays by an
//! ulp.

use crate::geometry::Rect;
use crate::place::Placement;
use syndcim_ir::{default_threads, parallel_map_threads};
use syndcim_netlist::{Connectivity, Driver, InstId, Module, NetId, NetlistError};
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

/// Instance quarters whose pin-load partials fold in order. Fixed, so
/// the floating-point fold order — and thus every extracted value — is
/// independent of the worker count.
const STRIPES: usize = 4;

/// Nets per parallel chunk (fixed for the same reason).
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
    fn grow(&mut self, (x, y): (f64, f64)) {
        self.x0 = self.x0.min(x);
        self.y0 = self.y0.min(y);
        self.x1 = self.x1.max(x);
        self.y1 = self.y1.max(y);
        self.pins += 1;
    }

    /// Add a macro pin on the die edge nearest the logic the net
    /// connects to (as an abutment-ready hard macro places it): the
    /// box's centre, or the die's for a net with no pin yet, projected
    /// onto the closest edge.
    fn grow_port(&mut self, die: Rect) {
        let (cx, cy) =
            if self.pins > 0 { ((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0) } else { die.center() };
        let d_left = cx - die.x_um;
        let d_right = die.right() - cx;
        let d_bot = cy - die.y_um;
        let d_top = die.top() - cy;
        let min = d_left.min(d_right).min(d_bot).min(d_top);
        self.grow(if min == d_left {
            (die.x_um, cy)
        } else if min == d_right {
            (die.right(), cy)
        } else if min == d_bot {
            (cx, die.y_um)
        } else {
            (cx, die.top())
        });
    }
}

/// Extract wire parasitics for `module` under `placement` (auto worker
/// count), building the module's connectivity first.
///
/// Pins are approximated at cell centres; port pins sit on the die edge
/// nearest the net's internal centroid, which reproduces the
/// boundary-driver wire loads of an abutment-ready hard macro. Callers
/// that already hold the module's lowering pass its connectivity to
/// [`extract_wires_threads`] instead.
///
/// # Errors
///
/// Returns [`NetlistError::MultipleDrivers`] if a net has more than one
/// driver ([`Connectivity::build`]).
pub fn extract_wires(
    module: &Module,
    lib: &CellLibrary,
    placement: &Placement,
) -> Result<WireEstimates, NetlistError> {
    let conn = Connectivity::build(module)?;
    Ok(extract_wires_threads(module, lib, placement, &conn, 0))
}

/// [`extract_wires`] over the module's prebuilt connectivity `conn`
/// (for example `Lowering::connectivity`), with an explicit
/// worker-thread count (`0` = auto). The estimates are bit-identical
/// for every thread count.
///
/// # Panics
///
/// Panics if `conn` does not cover every net of `module`, or if the
/// placement has fewer footprints than `module` has instances.
pub fn extract_wires_threads(
    module: &Module,
    lib: &CellLibrary,
    placement: &Placement,
    conn: &Connectivity,
    threads: usize,
) -> WireEstimates {
    let n = module.net_count();
    let process = lib.process();
    let (sink_start, sink_inst, sink_pin) = conn.sink_columns();
    assert_eq!(sink_start.len(), n + 1, "connectivity belongs to a different module");
    // First instance of every quarter after the first.
    let n_inst = module.instance_count();
    let quarters: [usize; STRIPES - 1] = std::array::from_fn(|s| (s + 1) * n_inst / STRIPES);
    // Port indices by net, in port order within a net (stable sort).
    let port_net = |p: u32| module.ports[p as usize].net.index();
    let mut ports: Vec<u32> = (0..module.ports.len() as u32).collect();
    ports.sort_by_key(|&p| port_net(p));
    let centre = |inst: usize| placement.cells[inst].rect.center();

    let mut hpwl = vec![0.0f64; n];
    let mut cap = vec![0.0f64; n];
    let mut delay = vec![0.0f64; n];
    let jobs: Vec<_> = hpwl
        .chunks_mut(NET_CHUNK)
        .zip(cap.chunks_mut(NET_CHUNK))
        .zip(delay.chunks_mut(NET_CHUNK))
        .enumerate()
        .map(|(c, ((h, cf), d))| (c * NET_CHUNK, h, cf, d))
        .collect();
    let workers = if threads == 0 { default_threads(jobs.len()) } else { threads };
    let totals: Vec<f64> = {
        telemetry::span!("wires.extract");
        parallel_map_threads(jobs, workers, |_, (lo, hpwl, cap, delay)| {
            let mut total = 0.0f64;
            let mut port = ports.partition_point(|&p| port_net(p) < lo);
            for k in 0..hpwl.len() {
                let net = lo + k;
                let mut b = EMPTY_BBOX;
                if let Driver::Inst { inst, .. } = conn.driver_of(NetId(net as u32)) {
                    b.grow(centre(inst.index()));
                }
                let mut partial = [0.0f64; STRIPES];
                for s in sink_start[net] as usize..sink_start[net + 1] as usize {
                    let inst = sink_inst[s] as usize;
                    b.grow(centre(inst));
                    let cell = lib.cell(module.instance(InstId(inst as u32)).cell);
                    let quarter = quarters.iter().filter(|&&first| inst >= first).count();
                    partial[quarter] += cell.input_cap_ff[sink_pin[s] as usize];
                }
                while ports.get(port).is_some_and(|&p| port_net(p) == net) {
                    b.grow_port(placement.die);
                    port += 1;
                }
                if b.pins < 2 {
                    continue;
                }
                let load = partial.iter().fold(0.0f64, |acc, p| acc + p);
                let l = ((b.x1 - b.x0) + (b.y1 - b.y0)) * DETOUR;
                hpwl[k] = l / DETOUR;
                cap[k] = l * process.wire_cap_ff_per_um;
                delay[k] = process.wire_delay_ps(l, load);
                total += l;
            }
            total
        })
    };
    let total = totals.iter().sum();
    WireEstimates { hpwl_um: hpwl, cap_ff: cap, delay_ps: delay, total_wirelength_um: total }
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
        let conn = Connectivity::build(&m).unwrap();
        let serial = extract_wires_threads(&m, &lib, &p, &conn, 1);
        for t in [2, 4, 8] {
            let par = extract_wires_threads(&m, &lib, &p, &conn, t);
            assert_eq!(serial, par, "estimates must be bit-identical at {t} workers");
        }
    }
}
