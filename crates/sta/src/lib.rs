//! # syndcim-sta — static timing analysis
//!
//! Graph-based STA over [`syndcim_netlist::Module`]s, playing the
//! PrimeTime role in the reproduction's sign-off loop:
//!
//! * arrival-time propagation in levelized order using the library's
//!   logical-effort arcs and real per-net loads (pin caps + annotated
//!   wire caps);
//! * setup checks at sequential endpoints and output ports, worst
//!   negative slack, and `f_max`;
//! * critical-path extraction with per-instance steps (the searcher uses
//!   the groups on the path to decide *which* subcircuit to fix);
//! * operating-point scaling (alpha-power voltage model + temperature
//!   derate) for shmoo generation.
//!
//! Hold analysis is not modelled: the zero-delay cycle simulator and the
//! single-clock macros make hold fixes a constant-margin detail that the
//! paper's search never optimizes over.
//!
//! ```
//! use syndcim_netlist::NetlistBuilder;
//! use syndcim_pdk::CellLibrary;
//! use syndcim_sta::Sta;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = CellLibrary::syn40();
//! let mut b = NetlistBuilder::new("pipe", &lib);
//! let a = b.input("a");
//! let x = b.xor2(a, a);
//! let q = b.dff(x);
//! b.output("q", q);
//! let m = b.finish();
//! let sta = Sta::new(&m, &lib)?;
//! let report = sta.analyze(1000.0);
//! assert!(report.wns_ps > 0.0, "a 1 ns clock is easy to meet");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use syndcim_ir::{net_loads_ff, Lowering};
use syndcim_netlist::{InstId, Module, NetId, NetlistError};
use syndcim_pdk::{CellLibrary, OperatingPoint};

pub mod artifact;
pub mod compiled;
pub mod variation;

pub use compiled::CompiledSta;
pub use variation::VariationModel;

/// Post-layout wire annotations, indexed by [`NetId::index`].
#[derive(Debug, Clone, Default)]
pub struct WireLoads {
    /// Extra capacitance per net in fF (added to pin loads).
    pub cap_ff: Vec<f64>,
    /// Extra (unscaled) wire delay per net in ps, added at the driver.
    pub delay_ps: Vec<f64>,
}

impl WireLoads {
    /// No-wire (pre-layout) annotation for a module with `nets` nets.
    pub fn zero(nets: usize) -> Self {
        WireLoads { cap_ff: vec![0.0; nets], delay_ps: vec![0.0; nets] }
    }

    /// The annotation contract of both analyzers: each table covers
    /// every one of `nets` nets.
    fn assert_covers(&self, nets: usize) {
        assert!(self.cap_ff.len() >= nets, "wire cap table too short");
        assert!(self.delay_ps.len() >= nets, "wire delay table too short");
    }
}

/// One step on a timing path, driver side.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Instance name (or `"<port>"` for the launching input port).
    pub through: String,
    /// Group name of the instance (`"top"` for ports).
    pub group: String,
    /// Net the step arrives on.
    pub net: String,
    /// Arrival time at that net in ps.
    pub arrival_ps: f64,
}

/// Result of one STA run at one operating point.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// Arrival time per net in ps (`NEG_INFINITY` = constant/unreached).
    pub arrival_ps: Vec<f64>,
    /// Worst path delay (including launch clk-to-q and capture setup).
    pub max_delay_ps: f64,
    /// Worst slack against the analyzed clock period.
    pub wns_ps: f64,
    /// Maximum operating frequency in MHz implied by `max_delay_ps`.
    pub fmax_mhz: f64,
    /// The critical path, launch to capture.
    pub critical_path: Vec<PathStep>,
    /// The clock period analyzed against, in ps.
    pub period_ps: f64,
}

impl TimingReport {
    /// `true` if every endpoint meets the analyzed period.
    pub fn met(&self) -> bool {
        self.wns_ps >= 0.0
    }

    /// Names of the groups traversed by the critical path (deduplicated,
    /// in path order). The searcher uses this to decide which subcircuit
    /// to substitute, retime or split.
    pub fn critical_groups(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.critical_path {
            if out.last().map(String::as_str) != Some(s.group.as_str()) {
                out.push(s.group.clone());
            }
        }
        out
    }
}

/// Static timing analyzer bound to one module.
///
/// `Sta` is the *reference* analyzer: a direct graph walk, kept simple
/// and obviously correct. The engine-style fast path,
/// [`CompiledSta::from_lowering`], compiles straight from the shared
/// lowering and is differentially pinned to this implementation.
#[derive(Debug)]
pub struct Sta<'a> {
    module: &'a Module,
    lib: &'a CellLibrary,
    /// Shared netlist lowering (connectivity + levelized order + dense
    /// slots), reused by [`Sta::compile`].
    low: Lowering,
    wires: WireLoads,
    /// Total load per net in fF ([`net_loads_ff`]: sink pins + port
    /// load + wire).
    load_ff: Vec<f64>,
}

impl<'a> Sta<'a> {
    /// Build an analyzer with zero wire parasitics (pre-layout timing).
    ///
    /// # Errors
    ///
    /// Fails if the netlist has connectivity errors or combinational
    /// loops.
    pub fn new(module: &'a Module, lib: &'a CellLibrary) -> Result<Self, NetlistError> {
        let low = Lowering::new(module, lib)?;
        Ok(Self::with_lowering(module, lib, low))
    }

    /// Build an analyzer over an already-performed [`Lowering`] of
    /// `module` (zero wire parasitics; annotate with
    /// [`Sta::with_wire_loads`] afterwards).
    ///
    /// This is how the shared-IR flow avoids re-walking the netlist:
    /// `syndcim-core` lowers a macro once and hands the same traversal
    /// to the simulation, timing and power compilers. The lowering must
    /// have been built from the same `module`.
    pub fn with_lowering(module: &'a Module, lib: &'a CellLibrary, low: Lowering) -> Self {
        debug_assert_eq!(low.net_count(), module.net_count(), "lowering belongs to a different module");
        let wires = WireLoads::zero(module.net_count());
        let load_ff = net_loads_ff(module, lib, &wires.cap_ff);
        Sta { module, lib, low, wires, load_ff }
    }

    /// Annotate post-layout wire parasitics (replacing any previous
    /// annotation) and return the analyzer.
    ///
    /// # Panics
    ///
    /// Panics if the annotation tables do not cover every net.
    pub fn with_wire_loads(mut self, wires: WireLoads) -> Self {
        wires.assert_covers(self.module.net_count());
        self.load_ff = net_loads_ff(self.module, self.lib, &wires.cap_ff);
        self.wires = wires;
        self
    }

    /// Analyze at the nominal operating point against `period_ps`.
    pub fn analyze(&self, period_ps: f64) -> TimingReport {
        self.analyze_at(period_ps, OperatingPoint::nominal(self.lib.process()))
    }

    /// Analyze against `period_ps` at an explicit operating point.
    /// Gate delays and setup/clk-to-q scale with the alpha-power voltage
    /// model; annotated wire delays are RC and do not scale.
    pub fn analyze_at(&self, period_ps: f64, op: OperatingPoint) -> TimingReport {
        let scale = op.delay_scale(self.lib.process());
        let process = self.lib.process();
        let n = self.module.net_count();
        let mut arrival = vec![f64::NEG_INFINITY; n];
        // Predecessor for path reconstruction: (driving inst, from net).
        let mut pred: Vec<Option<(InstId, NetId)>> = vec![None; n];

        for p in self.module.input_ports() {
            arrival[p.net.index()] = 0.0;
        }
        for (i, inst) in self.module.instances.iter().enumerate() {
            let cell = self.lib.cell(inst.cell);
            if let Some(seq) = cell.seq {
                let qnet = inst.outputs[0];
                let a = seq.clk_to_q_ps * scale + self.wire_delay(qnet);
                if a > arrival[qnet.index()] {
                    arrival[qnet.index()] = a;
                    pred[qnet.index()] = Some((InstId(i as u32), qnet));
                }
            }
        }

        for &id in self.low.order() {
            let inst = &self.module.instances[id.index()];
            let cell = self.lib.cell(inst.cell);
            for arc in &cell.arcs {
                let in_net = inst.inputs[arc.from_input];
                let a_in = arrival[in_net.index()];
                if a_in == f64::NEG_INFINITY {
                    continue; // constant input: no path through it
                }
                let out_net = inst.outputs[arc.to_output];
                let d = cell.arc_delay_ps(arc, process.tau_ps, self.load_ff[out_net.index()]) * scale
                    + self.wire_delay(out_net);
                let cand = a_in + d;
                if cand > arrival[out_net.index()] {
                    arrival[out_net.index()] = cand;
                    pred[out_net.index()] = Some((id, in_net));
                }
            }
        }

        // Endpoints.
        let mut max_delay = 0.0f64;
        let mut worst_net: Option<NetId> = None;
        let consider = |net: NetId, extra: f64, worst: &mut Option<NetId>, maxd: &mut f64| {
            let a = arrival[net.index()];
            if a == f64::NEG_INFINITY {
                return;
            }
            let total = a + extra;
            if total > *maxd {
                *maxd = total;
                *worst = Some(net);
            }
        };
        for p in self.module.output_ports() {
            consider(p.net, 0.0, &mut worst_net, &mut max_delay);
        }
        for inst in &self.module.instances {
            let cell = self.lib.cell(inst.cell);
            if let Some(seq) = cell.seq {
                for &dnet in &inst.inputs {
                    consider(dnet, seq.setup_ps * scale, &mut worst_net, &mut max_delay);
                }
            }
        }

        let critical_path = worst_net.map(|w| self.walk_path(w, &arrival, &pred)).unwrap_or_default();
        let fmax_mhz = if max_delay > 0.0 { 1e6 / max_delay } else { f64::INFINITY };
        TimingReport {
            arrival_ps: arrival,
            max_delay_ps: max_delay,
            wns_ps: period_ps - max_delay,
            fmax_mhz,
            critical_path,
            period_ps,
        }
    }

    fn wire_delay(&self, net: NetId) -> f64 {
        self.wires.delay_ps.get(net.index()).copied().unwrap_or(0.0)
    }

    fn walk_path(&self, end: NetId, arrival: &[f64], pred: &[Option<(InstId, NetId)>]) -> Vec<PathStep> {
        let mut steps = Vec::new();
        let mut cur = end;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > self.module.net_count() + 2 {
                break; // defensive: malformed pred chain
            }
            match pred[cur.index()] {
                Some((inst, from)) => {
                    let i = &self.module.instances[inst.index()];
                    steps.push(PathStep {
                        through: i.name.clone(),
                        group: self.module.group_name(i.group).to_string(),
                        net: self.module.nets[cur.index()].name.clone(),
                        arrival_ps: arrival[cur.index()],
                    });
                    if from == cur {
                        break; // sequential launch point
                    }
                    cur = from;
                }
                None => {
                    steps.push(PathStep {
                        through: "<port>".to_string(),
                        group: "top".to_string(),
                        net: self.module.nets[cur.index()].name.clone(),
                        arrival_ps: arrival[cur.index()],
                    });
                    break;
                }
            }
        }
        steps.reverse();
        steps
    }

    /// `f_max` in MHz at an operating point (the period argument does not
    /// affect arrival times, so no search is needed).
    pub fn fmax_mhz(&self, op: OperatingPoint) -> f64 {
        self.analyze_at(1.0, op).fmax_mhz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::CellKind;

    fn lib() -> CellLibrary {
        CellLibrary::syn40()
    }

    #[test]
    fn chain_delay_adds_up() {
        let lib = lib();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a");
        let mut x = a;
        for _ in 0..8 {
            x = b.not(x);
        }
        b.output("y", x);
        let m = b.finish();
        let sta = Sta::new(&m, &lib).unwrap();
        let r = sta.analyze(10_000.0);
        // 7 inverters drive one inverter load each, the last drives the
        // port load (4 units): 7·τ(1+1) + τ(1+4) = 19τ.
        let expect = lib.process().tau_ps * 19.0;
        assert!((r.max_delay_ps - expect).abs() < 1e-6, "got {} want {expect}", r.max_delay_ps);
        assert!(r.met());
        assert_eq!(r.critical_path.len(), 9); // port + 8 inverters
    }

    #[test]
    fn register_paths_include_clk_to_q_and_setup() {
        let lib = lib();
        let mut b = NetlistBuilder::new("r2r", &lib);
        let a = b.input("a");
        let q1 = b.dff(a);
        let x = b.not(q1);
        let q2 = b.dff(x);
        b.output("q", q2);
        let m = b.finish();
        let sta = Sta::new(&m, &lib).unwrap();
        let r = sta.analyze(10_000.0);
        let dff = lib.cell(lib.id_of(CellKind::Dff));
        let seq = dff.seq.unwrap();
        // clk2q + inv(load = dff d-pin cap) + setup
        let inv_delay =
            lib.process().tau_ps * (1.0 + 1.0 * (dff.input_cap_ff[0] / lib.process().cin_unit_ff));
        let expect = seq.clk_to_q_ps + inv_delay + seq.setup_ps;
        assert!((r.max_delay_ps - expect).abs() < 1e-6, "got {} want {expect}", r.max_delay_ps);
    }

    #[test]
    fn fmax_scales_down_with_voltage() {
        let lib = lib();
        let mut b = NetlistBuilder::new("f", &lib);
        let a = b.input("a");
        let x = b.xor2(a, a);
        let q = b.dff(x);
        b.output("q", q);
        let m = b.finish();
        let sta = Sta::new(&m, &lib).unwrap();
        let f09 = sta.fmax_mhz(OperatingPoint::at_voltage(0.9));
        let f12 = sta.fmax_mhz(OperatingPoint::at_voltage(1.2));
        let f07 = sta.fmax_mhz(OperatingPoint::at_voltage(0.7));
        assert!(f12 > f09 && f09 > f07, "f12={f12} f09={f09} f07={f07}");
    }

    #[test]
    fn wire_loads_slow_the_path() {
        let lib = lib();
        let mut b = NetlistBuilder::new("w", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let base = Sta::new(&m, &lib).unwrap().analyze(1_000.0).max_delay_ps;
        let mut wires = WireLoads::zero(m.net_count());
        for c in wires.cap_ff.iter_mut() {
            *c = 50.0;
        }
        for d in wires.delay_ps.iter_mut() {
            *d = 30.0;
        }
        let loaded = Sta::new(&m, &lib).unwrap().with_wire_loads(wires).analyze(1_000.0).max_delay_ps;
        assert!(loaded > base + 50.0, "base={base} loaded={loaded}");
    }

    #[test]
    fn constant_nets_do_not_create_paths() {
        let lib = lib();
        let mut b = NetlistBuilder::new("c", &lib);
        let a = b.input("a");
        let one = b.const1();
        let y = b.and2(a, one);
        b.output("y", y);
        let m = b.finish();
        let sta = Sta::new(&m, &lib).unwrap();
        let r = sta.analyze(1_000.0);
        // Path must start at port `a`, not at the tie cell.
        assert_eq!(r.critical_path.first().unwrap().through, "<port>");
    }

    #[test]
    fn critical_groups_name_the_culprit() {
        let lib = lib();
        let mut b = NetlistBuilder::new("g", &lib);
        let a = b.input("a");
        b.push_group("fast");
        let x = b.not(a);
        b.pop_group();
        b.push_group("slow");
        let mut y = x;
        for _ in 0..6 {
            y = b.xor2(y, y);
        }
        b.pop_group();
        b.output("y", y);
        let m = b.finish();
        let sta = Sta::new(&m, &lib).unwrap();
        let groups = sta.analyze(1_000.0).critical_groups();
        assert!(groups.contains(&"slow".to_string()), "{groups:?}");
    }

    #[test]
    fn wns_sign_tracks_period() {
        let lib = lib();
        let mut b = NetlistBuilder::new("p", &lib);
        let a = b.input("a");
        let mut x = a;
        for _ in 0..20 {
            x = b.xor2(x, x);
        }
        b.output("y", x);
        let m = b.finish();
        let sta = Sta::new(&m, &lib).unwrap();
        let d = sta.analyze(0.0).max_delay_ps;
        assert!(!sta.analyze(d - 1.0).met());
        assert!(sta.analyze(d + 1.0).met());
    }

    #[test]
    fn bitcell_launch_models_simultaneous_mac_and_update() {
        // Weight nets launch from the bitcell with its read access time —
        // this is what lets the flow check MAC timing while weights are
        // being updated (the "simultaneous MAC and write" property).
        let lib = lib();
        let mut b = NetlistBuilder::new("bc", &lib);
        let wwl = b.input("wwl");
        let wbl = b.input("wbl");
        let act = b.input("act");
        let rbl = b.add(CellKind::Sram6T2T, &[wwl, wbl])[0];
        let y = b.add(CellKind::MultNor, &[act, rbl])[0];
        b.output("y", y);
        let m = b.finish();
        let sta = Sta::new(&m, &lib).unwrap();
        let r = sta.analyze(10_000.0);
        let access = lib.cell(lib.id_of(CellKind::Sram6T2T)).seq.unwrap().clk_to_q_ps;
        assert!(r.max_delay_ps > access, "path must include the bitcell access time");
    }
}
