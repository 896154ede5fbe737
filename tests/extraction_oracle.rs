//! Net-major extraction pinned against the instance-major stripe scatter.
//!
//! `extract_wires_threads` finishes each net in one visit over the
//! connectivity's driver and CSR sink rows, summing sink pin caps into
//! one partial per instance quarter. The oracle here is the sweep it
//! replaced: four fixed instance stripes, each scattering pin loads and
//! pin bounding boxes into its own per-net arrays, merged in stripe
//! order, then ports projected in port order and the parasitics derived
//! in 8,192-net chunks. The two must agree bit for bit on every net's
//! HPWL, wire capacitance and wire delay and on the total wirelength,
//! at 1, 2 and 8 workers, on the paper chip and on seeded generated
//! netlists, before and after `optimize`.
//!
//! The pin is sharp: the same scatter with one stripe (one running sum
//! of every sink's cap, in instance order) must disagree somewhere.
//!
//! Plain `cargo test` runs a fixed seed set; `SYNDCIM_FUZZ_CASES=N` runs
//! `N` generated netlists instead (CI runs more).

mod support;

use support::random_module;
use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_layout::{extract_wires_threads, place, FloorplanConfig, Placement, WireEstimates, DETOUR};
use syndcim_netlist::{optimize, Connectivity, InstId, Module};
use syndcim_pdk::CellLibrary;

/// Generated netlists checked by plain `cargo test`.
const DEFAULT_CASES: u64 = 40;

fn cases() -> u64 {
    std::env::var("SYNDCIM_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_CASES)
}

/// A net's pin bounding box and pin count.
#[derive(Clone, Copy)]
struct BBox {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    pins: u32,
}

const EMPTY: BBox =
    BBox { x0: f64::INFINITY, y0: f64::INFINITY, x1: f64::NEG_INFINITY, y1: f64::NEG_INFINITY, pins: 0 };

impl BBox {
    fn grow(&mut self, x: f64, y: f64) {
        self.x0 = self.x0.min(x);
        self.y0 = self.y0.min(y);
        self.x1 = self.x1.max(x);
        self.y1 = self.y1.max(y);
        self.pins += 1;
    }

    fn union(&mut self, o: &BBox) {
        self.x0 = self.x0.min(o.x0);
        self.y0 = self.y0.min(o.y0);
        self.x1 = self.x1.max(o.x1);
        self.y1 = self.y1.max(o.y1);
        self.pins += o.pins;
    }
}

/// The instance-major scatter over `stripes` fixed instance stripes:
/// each stripe accumulates pin loads and bounding boxes into its own
/// zeroed per-net arrays, and the stripes merge in stripe order. Four
/// stripes is the extraction's fold; one is a single running sum.
fn stripe_scatter(
    module: &Module,
    lib: &CellLibrary,
    placement: &Placement,
    stripes: usize,
) -> WireEstimates {
    let n = module.net_count();
    let n_inst = module.instance_count();
    let process = lib.process();
    let mut pin_load = vec![0.0f64; n];
    let mut bbox = vec![EMPTY; n];
    for s in 0..stripes {
        let mut load = vec![0.0f64; n];
        let mut bb = vec![EMPTY; n];
        for idx in s * n_inst / stripes..(s + 1) * n_inst / stripes {
            let inst = module.instance(InstId(idx as u32));
            let cell = lib.cell(inst.cell);
            let (x, y) = placement.cells[idx].rect.center();
            for (pin, &net) in inst.inputs.iter().enumerate() {
                load[net.index()] += cell.input_cap_ff[pin];
                bb[net.index()].grow(x, y);
            }
            for &net in inst.outputs {
                bb[net.index()].grow(x, y);
            }
        }
        for i in 0..n {
            pin_load[i] += load[i];
            bbox[i].union(&bb[i]);
        }
    }

    let die = placement.die;
    for p in &module.ports {
        let b = bbox[p.net.index()];
        let (cx, cy) = if b.pins > 0 { ((b.x0 + b.x1) / 2.0, (b.y0 + b.y1) / 2.0) } else { die.center() };
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

    let mut est = WireEstimates {
        hpwl_um: vec![0.0; n],
        cap_ff: vec![0.0; n],
        delay_ps: vec![0.0; n],
        total_wirelength_um: 0.0,
    };
    let mut totals = Vec::new();
    for lo in (0..n).step_by(8192) {
        let mut total = 0.0f64;
        for i in lo..n.min(lo + 8192) {
            let b = bbox[i];
            if b.pins < 2 {
                continue;
            }
            let l = ((b.x1 - b.x0) + (b.y1 - b.y0)) * DETOUR;
            est.hpwl_um[i] = l / DETOUR;
            est.cap_ff[i] = l * process.wire_cap_ff_per_um;
            est.delay_ps[i] = process.wire_delay_ps(l, pin_load[i]);
            total += l;
        }
        totals.push(total);
    }
    est.total_wirelength_um = totals.iter().sum();
    est
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The first column in which `got` and `want` differ by a bit, if any.
fn first_difference(got: &WireEstimates, want: &WireEstimates) -> Option<&'static str> {
    if bits(&got.hpwl_um) != bits(&want.hpwl_um) {
        Some("hpwl_um")
    } else if bits(&got.cap_ff) != bits(&want.cap_ff) {
        Some("cap_ff")
    } else if bits(&got.delay_ps) != bits(&want.delay_ps) {
        Some("delay_ps")
    } else if got.total_wirelength_um.to_bits() != want.total_wirelength_um.to_bits() {
        Some("total_wirelength_um")
    } else {
        None
    }
}

/// Extract `module` at 1, 2 and 8 workers and require the four-stripe
/// scatter's bits.
fn assert_matches_oracle(lib: &CellLibrary, module: &Module, label: &str) {
    let placement = place(module, lib, FloorplanConfig::default()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let conn = Connectivity::build(module).unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = stripe_scatter(module, lib, &placement, 4);
    for threads in [1, 2, 8] {
        let got = extract_wires_threads(module, lib, &placement, &conn, threads);
        if let Some(column) = first_difference(&got, &want) {
            panic!("{label}: `{column}` differs from the stripe scatter at {threads} workers");
        }
    }
}

fn paper_chip(lib: &CellLibrary) -> Module {
    assemble(lib, &MacroSpec::paper_test_chip(), &DesignChoice::default()).module
}

#[test]
fn extraction_matches_the_stripe_scatter_on_the_paper_chip() {
    let lib = CellLibrary::syn40();
    let mut m = paper_chip(&lib);
    assert_matches_oracle(&lib, &m, "paper chip, unoptimized");
    optimize(&mut m, &lib);
    assert_matches_oracle(&lib, &m, "paper chip, optimized");
}

#[test]
fn extraction_matches_the_stripe_scatter_on_generated_netlists() {
    let lib = CellLibrary::syn40();
    for seed in 0..cases() {
        let mut m = random_module(&lib, seed, 20..3_000);
        assert_matches_oracle(&lib, &m, &format!("seed {seed}, unoptimized"));
        optimize(&mut m, &lib);
        assert_matches_oracle(&lib, &m, &format!("seed {seed}, optimized"));
    }
}

/// The suite above would catch a load fold that forgot the quarters:
/// on these netlists one running sum moves some wire delay.
#[test]
fn a_running_sum_load_fold_fails_the_pin() {
    let lib = CellLibrary::syn40();
    let mut modules = vec![paper_chip(&lib)];
    modules.extend((0..DEFAULT_CASES).map(|seed| random_module(&lib, seed, 20..3_000)));
    let caught = modules.iter().any(|m| {
        let placement = place(m, &lib, FloorplanConfig::default()).unwrap();
        let quarters = stripe_scatter(m, &lib, &placement, 4);
        let running = stripe_scatter(m, &lib, &placement, 1);
        first_difference(&running, &quarters) == Some("delay_ps")
    });
    assert!(caught, "no netlist tells a running-sum load fold from the quarter fold");
}
