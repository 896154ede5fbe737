//! Levelized cycle-accurate two-value logic simulator with per-net
//! toggle counting.
//!
//! The simulator evaluates the combinational cone in one topological pass
//! per cycle (zero-delay semantics) and commits all sequential state at
//! the cycle boundary. Per-net toggle counts drive the power analysis,
//! playing the role gate-level simulation + SAIF plays in the paper's
//! PrimeTime sign-off.

use syndcim_ir::{Lowering, Symbols};
use syndcim_netlist::{InstId, Module, NetId, NetlistError};
use syndcim_pdk::{CellLibrary, SeqUpdate};

/// Cycle-accurate simulator bound to one module.
#[derive(Debug)]
pub struct Simulator<'a> {
    module: &'a Module,
    lib: &'a CellLibrary,
    order: Vec<InstId>,
    /// Current logic value per net.
    values: Vec<bool>,
    /// Stored state per instance (only meaningful for sequential cells).
    state: Vec<bool>,
    /// Rising+falling transition count per net since the last reset.
    toggles: Vec<u64>,
    /// Completed clock cycles since the last reset.
    cycles: u64,
    /// The lowering's interned name tables, through which ports resolve.
    symbols: Symbols,
    seq_insts: Vec<InstId>,
}

impl<'a> Simulator<'a> {
    /// Build a simulator for `module`, lowering it with
    /// [`Lowering::validated`].
    ///
    /// # Errors
    ///
    /// Returns [`Lowering::validated`]'s error: a net with multiple
    /// drivers, a combinational loop, or a net that is read but never
    /// driven.
    pub fn new(module: &'a Module, lib: &'a CellLibrary) -> Result<Self, NetlistError> {
        Ok(Self::with_lowering(module, lib, &Lowering::validated(module, lib)?))
    }

    /// Build a simulator over an already-performed [`Lowering`] of
    /// `module`, mirroring `Sta::with_lowering` /
    /// `PowerAnalyzer::from_lowering`: differential tests that run many
    /// interpreter instances against one compiled program reuse one
    /// connectivity walk and levelization. The lowering must have been
    /// built from the same `module`; it has already been validated, so
    /// construction cannot fail. Ports resolve through the lowering's
    /// shared [`Symbols`], a few `Arc` bumps per simulator.
    pub fn with_lowering(module: &'a Module, lib: &'a CellLibrary, low: &Lowering) -> Self {
        debug_assert_eq!(low.net_count(), module.net_count(), "lowering belongs to a different module");
        let seq_insts = module
            .instances()
            .enumerate()
            .filter(|(_, inst)| lib.cell(inst.cell).is_sequential())
            .map(|(i, _)| InstId(i as u32))
            .collect();
        Simulator {
            module,
            lib,
            order: low.order().to_vec(),
            values: vec![false; module.net_count()],
            state: vec![false; module.instance_count()],
            toggles: vec![0; module.net_count()],
            cycles: 0,
            symbols: low.symbols().clone(),
            seq_insts,
        }
    }

    /// The module being simulated.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Net bound to boundary port `port`, resolved through the
    /// lowering's shared [`Symbols`].
    pub fn port_net(&self, port: &str) -> Option<NetId> {
        self.symbols.port_net(port).map(NetId)
    }

    /// Set an input port by name.
    ///
    /// # Panics
    ///
    /// Panics if no port with that name exists.
    pub fn set(&mut self, port: &str, value: bool) {
        let net = self.port_net(port).unwrap_or_else(|| panic!("no port named `{port}`"));
        self.poke(net, value);
    }

    /// Set an input net directly.
    pub fn poke(&mut self, net: NetId, value: bool) {
        if self.values[net.index()] != value {
            self.toggles[net.index()] += 1;
            self.values[net.index()] = value;
        }
    }

    /// Drive a bit-blasted bus `name[0..]` with the two's-complement bits
    /// of `value`.
    pub fn set_bus(&mut self, base: &str, width: u32, value: i64) {
        for i in 0..width {
            self.set(&format!("{base}[{i}]"), (value as u64 >> i) & 1 == 1);
        }
    }

    /// Read a net's current value.
    pub fn peek(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Read a port by name.
    ///
    /// # Panics
    ///
    /// Panics if no port with that name exists.
    pub fn get(&self, port: &str) -> bool {
        let net = self.port_net(port).unwrap_or_else(|| panic!("no port named `{port}`"));
        self.peek(net)
    }

    /// Read a bit-blasted bus as an unsigned integer.
    pub fn get_bus_unsigned(&self, base: &str, width: u32) -> u64 {
        (0..width).fold(0u64, |acc, i| acc | (self.get(&format!("{base}[{i}]")) as u64) << i)
    }

    /// Read a bit-blasted bus as a signed (two's-complement) integer.
    pub fn get_bus_signed(&self, base: &str, width: u32) -> i64 {
        let u = self.get_bus_unsigned(base, width);
        let sign = 1u64 << (width - 1);
        if u & sign != 0 {
            (u as i64) - (1i64 << width)
        } else {
            u as i64
        }
    }

    /// Settle the combinational logic (no clock edge). Called implicitly
    /// by [`Simulator::step`]; call directly to observe outputs between
    /// input changes.
    pub fn settle(&mut self) {
        let mut ins = Vec::with_capacity(5);
        let mut outs = Vec::with_capacity(3);
        for &id in &self.order {
            let inst = self.module.instance(id);
            let cell = self.lib.cell(inst.cell);
            ins.clear();
            ins.extend(inst.inputs.iter().map(|n| self.values[n.index()]));
            cell.function.eval(&ins, false, &mut outs);
            for (pin, &v) in outs.iter().enumerate() {
                let net = inst.outputs[pin].index();
                if self.values[net] != v {
                    self.values[net] = v;
                    self.toggles[net] += 1;
                }
            }
        }
    }

    /// Advance one clock cycle: settle the combinational logic, then
    /// capture and commit every sequential element, then settle again so
    /// outputs reflect the new state.
    pub fn step(&mut self) {
        self.settle();
        // Capture phase: compute every next state from pre-edge values.
        let mut next: Vec<(InstId, bool)> = Vec::with_capacity(self.seq_insts.len());
        for &id in &self.seq_insts {
            let inst = self.module.instance(id);
            let cell = self.lib.cell(inst.cell);
            let seq = cell.seq.expect("seq_insts holds only sequential cells");
            let cur = self.state[id.index()];
            let nv = match seq.update {
                SeqUpdate::Edge => self.values[inst.inputs[0].index()],
                SeqUpdate::EdgeEnable => {
                    if self.values[inst.inputs[1].index()] {
                        self.values[inst.inputs[0].index()]
                    } else {
                        cur
                    }
                }
                SeqUpdate::BitcellWrite => {
                    if self.values[inst.inputs[0].index()] {
                        self.values[inst.inputs[1].index()]
                    } else {
                        cur
                    }
                }
            };
            next.push((id, nv));
        }
        // Commit phase: update states and their q nets.
        for (id, nv) in next {
            self.state[id.index()] = nv;
            let qnet = self.module.instance(id).outputs[0].index();
            if self.values[qnet] != nv {
                self.values[qnet] = nv;
                self.toggles[qnet] += 1;
            }
        }
        self.cycles += 1;
        self.settle();
    }

    /// Run `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Force a sequential instance's stored state (e.g. preloading
    /// weights without a write sequence). The q net is updated on the
    /// next [`Simulator::settle`]/[`Simulator::step`].
    pub fn force_state(&mut self, inst: InstId, value: bool) {
        self.state[inst.index()] = value;
        let qnet = self.module.instance(inst).outputs[0].index();
        if self.values[qnet] != value {
            self.values[qnet] = value;
            self.toggles[qnet] += 1;
        }
    }

    /// Current stored state of a sequential instance.
    pub fn state_of(&self, inst: InstId) -> bool {
        self.state[inst.index()]
    }

    /// Completed cycles since the last [`Simulator::reset_activity`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Transition count of one net.
    pub fn toggles_of(&self, net: NetId) -> u64 {
        self.toggles[net.index()]
    }

    /// The full per-net toggle table (indexed by [`NetId::index`]).
    pub fn toggle_table(&self) -> &[u64] {
        &self.toggles
    }

    /// Zero all toggle counters and the cycle counter (state and values
    /// are preserved) — used to exclude warm-up/weight-load activity from
    /// power measurement.
    pub fn reset_activity(&mut self) {
        self.toggles.iter_mut().for_each(|t| *t = 0);
        self.cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::{NetlistBuilder, Port, PortDir};
    use syndcim_pdk::CellKind;

    fn lib() -> CellLibrary {
        CellLibrary::syn40()
    }

    #[test]
    fn combinational_adder_settles() {
        let lib = lib();
        let mut b = NetlistBuilder::new("fa", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let ci = b.input("cin");
        let (s, co) = b.fa(a, c, ci);
        b.output("s", s);
        b.output("co", co);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for v in 0u32..8 {
            sim.set("a", v & 1 == 1);
            sim.set("b", v >> 1 & 1 == 1);
            sim.set("cin", v >> 2 & 1 == 1);
            sim.settle();
            let total = (v & 1) + (v >> 1 & 1) + (v >> 2 & 1);
            assert_eq!(sim.get("s"), total & 1 == 1);
            assert_eq!(sim.get("co"), total >= 2);
        }
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let lib = lib();
        let mut b = NetlistBuilder::new("reg", &lib);
        let d = b.input("d");
        let q = b.dff(d);
        b.output("q", q);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        sim.set("d", true);
        sim.settle();
        assert!(!sim.get("q"), "q must not change before the edge");
        sim.step();
        assert!(sim.get("q"), "q captures d at the edge");
        sim.set("d", false);
        sim.step();
        assert!(!sim.get("q"));
    }

    #[test]
    fn enabled_dff_holds_when_disabled() {
        let lib = lib();
        let mut b = NetlistBuilder::new("rege", &lib);
        let d = b.input("d");
        let en = b.input("en");
        let q = b.dffe(d, en);
        b.output("q", q);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        sim.set("d", true);
        sim.set("en", false);
        sim.step();
        assert!(!sim.get("q"));
        sim.set("en", true);
        sim.step();
        assert!(sim.get("q"));
        sim.set("d", false);
        sim.set("en", false);
        sim.step();
        assert!(sim.get("q"), "disabled register must hold");
    }

    #[test]
    fn bitcell_write_and_read() {
        let lib = lib();
        let mut b = NetlistBuilder::new("cellrw", &lib);
        let wwl = b.input("wwl");
        let wbl = b.input("wbl");
        let rbl = b.add(CellKind::Sram6T2T, &[wwl, wbl])[0];
        b.output("rbl", rbl);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        sim.set("wwl", true);
        sim.set("wbl", true);
        sim.step();
        assert!(sim.get("rbl"));
        // Deselect and change wbl: state must hold.
        sim.set("wwl", false);
        sim.set("wbl", false);
        sim.step();
        assert!(sim.get("rbl"), "stored bit must survive with wwl low");
    }

    #[test]
    fn toggle_counting_counts_transitions() {
        let lib = lib();
        let mut b = NetlistBuilder::new("inv", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let y_net = m.port("y").unwrap().net;
        let mut sim = Simulator::new(&m, &lib).unwrap();
        sim.settle(); // y rises to 1 (a=0): one toggle
        let t0 = sim.toggles_of(y_net);
        assert_eq!(t0, 1);
        for i in 0..10 {
            sim.set("a", i % 2 == 0);
            sim.settle();
        }
        assert_eq!(sim.toggles_of(y_net), t0 + 10);
        sim.reset_activity();
        assert_eq!(sim.toggles_of(y_net), 0);
        assert_eq!(sim.cycles(), 0);
    }

    /// `Simulator::new` fails with exactly [`Lowering::validated`]'s
    /// error, including which fault wins when a module has several.
    #[test]
    fn new_fails_exactly_like_lowering() {
        let lib = lib();
        let mut b = NetlistBuilder::new("faults", &lib);
        let a = b.input("a");
        let x = b.and2(a, a);
        let y = b.and2(x, x);
        let z = b.not(a);
        let dangling = b.net("dangling");
        b.output("y", y);
        b.output("z", z);
        let clean = b.finish();
        assert!(Simulator::new(&clean, &lib).is_ok());

        let mut multi = clean.clone();
        multi.ports.push(Port { name: "x".into(), dir: PortDir::Input, net: x });
        let mut looped = clean.clone();
        looped.inputs_mut(InstId(0))[1] = y;
        let mut floating = clean.clone();
        floating.inputs_mut(InstId(2))[0] = dangling;
        let mut both = looped.clone();
        both.inputs_mut(InstId(2))[0] = dangling;

        // The error both constructors return for `m`.
        let error = |m: &Module| {
            let err = Lowering::validated(m, &lib).unwrap_err();
            assert_eq!(Simulator::new(m, &lib).unwrap_err(), err);
            err
        };
        assert!(matches!(error(&multi), NetlistError::MultipleDrivers { .. }));
        assert!(matches!(error(&looped), NetlistError::CombinationalLoop { .. }));
        assert!(matches!(error(&floating), NetlistError::FloatingNet { .. }));
        // Levelization runs before the floating-read check.
        assert!(matches!(error(&both), NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn buses_roundtrip_signed_values() {
        let lib = lib();
        let mut b = NetlistBuilder::new("bus", &lib);
        let xs = b.input_bus("x", 8);
        b.output_bus("y", &xs);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for v in [-128i64, -1, 0, 1, 127, -77] {
            sim.set_bus("x", 8, v);
            sim.settle();
            assert_eq!(sim.get_bus_signed("y", 8), v);
        }
    }

    #[test]
    fn ripple_counter_counts() {
        // 3-bit ripple-free synchronous counter out of dffs and HAs.
        let lib = lib();
        let mut b = NetlistBuilder::new("cnt", &lib);
        let one = b.const1();
        // Build q registers with placeholder inputs, then patch.
        let p0 = b.net("p0");
        let p1 = b.net("p1");
        let p2 = b.net("p2");
        let q0 = b.add(CellKind::Dff, &[p0])[0];
        let q1 = b.add(CellKind::Dff, &[p1])[0];
        let q2 = b.add(CellKind::Dff, &[p2])[0];
        let (s0, c0) = b.ha(q0, one);
        let (s1, c1) = b.ha(q1, c0);
        let (s2, _c2) = b.ha(q2, c1);
        b.output_bus("q", &[q0, q1, q2]);
        let mut m = b.finish();
        m.inputs_mut(InstId(1))[0] = s0; // dff q0 (index 1; index 0 is tiehi)
        m.inputs_mut(InstId(2))[0] = s1;
        m.inputs_mut(InstId(3))[0] = s2;
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for expect in 1..=10u64 {
            sim.step();
            assert_eq!(sim.get_bus_unsigned("q", 3), expect % 8);
        }
    }
}
