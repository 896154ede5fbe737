//! Activity-based power analysis.
//!
//! Two modes, mirroring the paper's flow:
//!
//! * **simulation-driven** ([`PowerAnalyzer::from_activity`]) — consumes
//!   the per-net toggle counts produced by `syndcim_sim::Simulator` on
//!   realistic vectors, the way PrimeTime consumes SAIF from gate-level
//!   simulation;
//! * **static-activity** ([`PowerAnalyzer::from_static_activity`]) — a
//!   uniform toggle-rate estimate used during subcircuit library
//!   characterization scaling, where simulating every configuration
//!   would be wasteful.
//!
//! Energy per net transition is `½·C_net·V²` (pin + wire capacitance)
//! plus the driving cell's characterized internal energy. Zero-delay
//! simulation cannot see glitches, which matter in deep adder trees, so
//! combinational dynamic energy is multiplied by a configurable glitch
//! factor (default 1.25).

use std::collections::BTreeMap;

use syndcim_ir::{net_loads_ff, Lowering, Symbols};
use syndcim_netlist::{Connectivity, Module, NetlistError};
use syndcim_pdk::{CellLibrary, OperatingPoint};

/// Default glitch multiplier on combinational dynamic energy.
pub(crate) const DEFAULT_GLITCH_FACTOR: f64 = 1.25;

/// Clock-tree distribution overhead on top of register clock pins.
pub(crate) const CLOCK_TREE_OVERHEAD: f64 = 0.30;

/// Result of one power analysis run.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// Combinational + data-path dynamic power in µW.
    pub dynamic_uw: f64,
    /// Clock-tree + sequential clock-pin power in µW.
    pub clock_uw: f64,
    /// Leakage power in µW at the analyzed corner.
    pub leakage_uw: f64,
    /// Dynamic energy per cycle in pJ (excluding leakage).
    pub energy_per_cycle_pj: f64,
    /// The frequency the power numbers are quoted at, in MHz.
    pub freq_mhz: f64,
    /// Dynamic energy share per top-level group, in pJ/cycle.
    pub by_group_pj: BTreeMap<String, f64>,
}

impl PowerReport {
    /// Total power in µW.
    pub fn total_uw(&self) -> f64 {
        self.dynamic_uw + self.clock_uw + self.leakage_uw
    }

    /// Total power in mW.
    pub fn total_mw(&self) -> f64 {
        self.total_uw() / 1000.0
    }
}

/// Power analyzer bound to one module.
///
/// This is the *reference* analyzer: a direct walk over the module's
/// instances per report. The engine-style fast path,
/// [`CompiledPower::from_lowering`](crate::CompiledPower::from_lowering),
/// compiles straight from the shared lowering and is differentially
/// pinned to this implementation.
#[derive(Debug)]
pub struct PowerAnalyzer<'a> {
    pub(crate) module: &'a Module,
    pub(crate) lib: &'a CellLibrary,
    /// Load per net in fF (pins + wire).
    pub(crate) load_ff: Vec<f64>,
    /// Internal energy of each net's driver in fJ (0 for ports/ties).
    pub(crate) driver_internal_fj: Vec<f64>,
    /// Interned name tables — shared with the lowering when built via
    /// [`PowerAnalyzer::from_lowering`], interned locally otherwise.
    /// Group heads for breakdowns resolve through here (no per-instance
    /// `String` table), and [`PowerAnalyzer::compile`] hands the same
    /// handles to the compiled program.
    pub(crate) symbols: Symbols,
    /// Glitch multiplier on combinational dynamic energy.
    pub(crate) glitch_factor: f64,
    /// Clock-tree distribution overhead on top of register clock pins.
    pub(crate) clock_tree_overhead: f64,
}

impl<'a> PowerAnalyzer<'a> {
    /// Build an analyzer with zero wire capacitance (pre-layout power).
    ///
    /// # Errors
    ///
    /// Fails if the netlist has connectivity errors.
    pub fn new(module: &'a Module, lib: &'a CellLibrary) -> Result<Self, NetlistError> {
        Self::with_wire_caps(module, lib, &[])
    }

    /// Build an analyzer with per-net wire capacitance in fF (missing
    /// entries are treated as zero).
    ///
    /// # Errors
    ///
    /// Fails if the netlist has connectivity errors.
    pub fn with_wire_caps(
        module: &'a Module,
        lib: &'a CellLibrary,
        wire_cap_ff: &[f64],
    ) -> Result<Self, NetlistError> {
        // The walk itself never needs the connectivity tables; building
        // them here keeps the seed's error contract (reject multi-driven
        // nets) for callers that have not lowered the module yet.
        let _conn = Connectivity::build(module)?;
        Ok(Self::build(module, lib, wire_cap_ff, Symbols::from_module(module)))
    }

    /// Build an analyzer over an already-performed [`Lowering`] of
    /// `module` — the shared-IR path: the lowering has already built and
    /// checked connectivity, so no additional netlist walk happens here.
    /// The lowering must have been built from the same `module`.
    pub fn from_lowering(
        module: &'a Module,
        lib: &'a CellLibrary,
        low: &Lowering,
        wire_cap_ff: &[f64],
    ) -> Self {
        debug_assert_eq!(low.net_count(), module.net_count(), "lowering belongs to a different module");
        Self::build(module, lib, wire_cap_ff, low.symbols().clone())
    }

    /// The shared constructor body: per-net loads, driver internal
    /// energies and group heads in one instance pass.
    fn build(module: &'a Module, lib: &'a CellLibrary, wire_cap_ff: &[f64], symbols: Symbols) -> Self {
        let mut driver_internal = vec![0.0f64; module.net_count()];
        for inst in &module.instances {
            let cell = lib.cell(inst.cell);
            for &net in &inst.outputs {
                driver_internal[net.index()] = cell.internal_energy_fj;
            }
        }

        PowerAnalyzer {
            module,
            lib,
            load_ff: net_loads_ff(module, lib, wire_cap_ff),
            driver_internal_fj: driver_internal,
            symbols,
            glitch_factor: DEFAULT_GLITCH_FACTOR,
            clock_tree_overhead: CLOCK_TREE_OVERHEAD,
        }
    }

    /// Top-level group name of instance `idx` (the segment before the
    /// first `/`), resolved through the interned tables — the key the
    /// breakdown maps aggregate by. Identical to the seed's
    /// `group_name(..).split('/').next()` string.
    fn inst_group_head(&self, idx: usize) -> &str {
        self.symbols.resolve(self.symbols.group_head_sym(self.symbols.group_of(idx)))
    }

    /// Override the glitch multiplier (1.0 disables glitch padding).
    pub fn set_glitch_factor(&mut self, f: f64) {
        self.glitch_factor = f;
    }

    /// Power from measured per-net toggle counts over `cycles` cycles at
    /// `freq_mhz`, at operating point `op`.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0` or the toggle table is shorter than the
    /// net count.
    pub fn from_activity(
        &self,
        toggles: &[u64],
        cycles: u64,
        freq_mhz: f64,
        op: OperatingPoint,
    ) -> PowerReport {
        assert!(cycles > 0, "need at least one simulated cycle");
        assert!(toggles.len() >= self.module.net_count(), "toggle table too short");
        let escale = self.lib.process().energy_scale(op.vdd_v);
        let v = op.vdd_v;

        // Per-instance output energy, aggregated per group.
        let mut by_group: BTreeMap<String, f64> = BTreeMap::new();
        let mut switch_fj_total = 0.0f64;
        for (idx, inst) in self.module.instances.iter().enumerate() {
            let mut inst_fj = 0.0;
            for &net in &inst.outputs {
                let t = toggles[net.index()] as f64 / cycles as f64;
                let cap = self.load_ff[net.index()];
                inst_fj += t * (0.5 * cap * v * v + self.driver_internal_fj[net.index()] * escale);
            }
            inst_fj *= self.glitch_factor;
            switch_fj_total += inst_fj;
            *by_group.entry(self.inst_group_head(idx).to_string()).or_insert(0.0) += inst_fj / 1000.0;
        }
        // Input-port nets: charged by the external driver but loading our
        // pins still burns CV² in the receiving macro rail; count half.
        for p in self.module.input_ports() {
            let t = toggles[p.net.index()] as f64 / cycles as f64;
            switch_fj_total += 0.5 * t * 0.5 * self.load_ff[p.net.index()] * v * v;
        }

        let clock_fj = self.clock_energy_fj_per_cycle(escale);
        let leakage_uw = self.leakage_uw(op);
        let energy_per_cycle_pj = (switch_fj_total + clock_fj) / 1000.0;
        // fJ/cycle × MHz → 1e-3 µW.
        let dynamic_uw = switch_fj_total * freq_mhz * 1e-3;
        let clock_uw = clock_fj * freq_mhz * 1e-3;
        PowerReport { dynamic_uw, clock_uw, leakage_uw, energy_per_cycle_pj, freq_mhz, by_group_pj: by_group }
    }

    /// Power assuming every non-constant net toggles `alpha` times per
    /// cycle (static activity estimate).
    pub fn from_static_activity(&self, alpha: f64, freq_mhz: f64, op: OperatingPoint) -> PowerReport {
        let escale = self.lib.process().energy_scale(op.vdd_v);
        let v = op.vdd_v;
        let mut by_group: BTreeMap<String, f64> = BTreeMap::new();
        let mut switch_fj_total = 0.0f64;
        for (idx, inst) in self.module.instances.iter().enumerate() {
            let mut inst_fj = 0.0;
            for &net in &inst.outputs {
                let cap = self.load_ff[net.index()];
                inst_fj += alpha * (0.5 * cap * v * v + self.driver_internal_fj[net.index()] * escale);
            }
            inst_fj *= self.glitch_factor;
            switch_fj_total += inst_fj;
            *by_group.entry(self.inst_group_head(idx).to_string()).or_insert(0.0) += inst_fj / 1000.0;
        }
        let clock_fj = self.clock_energy_fj_per_cycle(escale);
        PowerReport {
            dynamic_uw: switch_fj_total * freq_mhz * 1e-3,
            clock_uw: clock_fj * freq_mhz * 1e-3,
            leakage_uw: self.leakage_uw(op),
            energy_per_cycle_pj: (switch_fj_total + clock_fj) / 1000.0,
            freq_mhz,
            by_group_pj: by_group,
        }
    }

    /// Per-cycle clock-pin energy per top-level group, in pJ/cycle,
    /// including the clock-tree distribution overhead. Every group head
    /// appears (0.0 for register-free groups); the values sum to the
    /// clock term of `energy_per_cycle_pj`. The compiled program's
    /// [`CompiledPower::clock_by_group_pj`](crate::CompiledPower::clock_by_group_pj)
    /// is differentially pinned bit-identical to this walk.
    pub fn clock_by_group_pj(&self, op: OperatingPoint) -> BTreeMap<String, f64> {
        let escale = self.lib.process().energy_scale(op.vdd_v);
        let mut raw: BTreeMap<String, f64> = BTreeMap::new();
        for (idx, inst) in self.module.instances.iter().enumerate() {
            let fj = raw.entry(self.inst_group_head(idx).to_string()).or_insert(0.0);
            if let Some(seq) = self.lib.cell(inst.cell).seq {
                *fj += seq.clk_energy_fj;
            }
        }
        let cscale = escale * (1.0 + self.clock_tree_overhead);
        raw.into_iter().map(|(head, fj)| (head, fj * cscale / 1000.0)).collect()
    }

    fn clock_energy_fj_per_cycle(&self, escale: f64) -> f64 {
        let regs: f64 = self
            .module
            .instances
            .iter()
            .filter_map(|i| self.lib.cell(i.cell).seq)
            .map(|s| s.clk_energy_fj)
            .sum();
        regs * escale * (1.0 + self.clock_tree_overhead)
    }

    /// Leakage power in µW at a corner.
    pub fn leakage_uw(&self, op: OperatingPoint) -> f64 {
        let scale = self.lib.process().leakage_scale(op.vdd_v, op.temp_c);
        let nw: f64 = self.module.instances.iter().map(|i| self.lib.cell(i.cell).leakage_nw).sum();
        nw * scale / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_sim::Simulator;

    fn toggler() -> (Module, CellLibrary) {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        b.push_group("datapath");
        let x = b.xor2(a, a); // constant 0 but still evaluated
        let y = b.not(a);
        b.pop_group();
        let q = b.dff(y);
        b.output("y", y);
        b.output("x", x);
        b.output("q", q);
        (b.finish(), lib)
    }

    #[test]
    fn toggling_input_produces_dynamic_power() {
        let (m, lib) = toggler();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for i in 0..100 {
            sim.set("a", i % 2 == 0);
            sim.step();
        }
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let r = pa.from_activity(sim.toggle_table(), sim.cycles(), 800.0, OperatingPoint::at_voltage(0.9));
        assert!(r.dynamic_uw > 0.0);
        assert!(r.clock_uw > 0.0);
        assert!(r.leakage_uw > 0.0);
        assert!(r.total_uw() > r.dynamic_uw);
        assert!(r.by_group_pj.contains_key("datapath"));
    }

    #[test]
    fn idle_circuit_burns_only_clock_and_leakage() {
        let (m, lib) = toggler();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        sim.step(); // settle constants
        sim.reset_activity();
        for _ in 0..50 {
            sim.step();
        }
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let r = pa.from_activity(sim.toggle_table(), sim.cycles(), 800.0, OperatingPoint::at_voltage(0.9));
        assert_eq!(r.dynamic_uw, 0.0, "no input toggles → no switching power");
        assert!(r.clock_uw > 0.0);
    }

    #[test]
    fn power_scales_quadratically_with_voltage() {
        let (m, lib) = toggler();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for i in 0..100 {
            sim.set("a", i % 2 == 0);
            sim.step();
        }
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let lo = pa.from_activity(sim.toggle_table(), sim.cycles(), 800.0, OperatingPoint::at_voltage(0.6));
        let hi = pa.from_activity(sim.toggle_table(), sim.cycles(), 800.0, OperatingPoint::at_voltage(1.2));
        let ratio = hi.dynamic_uw / lo.dynamic_uw;
        assert!((ratio - 4.0).abs() < 1e-6, "V² scaling: {ratio}");
    }

    #[test]
    fn static_activity_mode_is_monotone_in_alpha() {
        let (m, lib) = toggler();
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let op = OperatingPoint::at_voltage(0.9);
        let a1 = pa.from_static_activity(0.1, 800.0, op);
        let a2 = pa.from_static_activity(0.2, 800.0, op);
        assert!(a2.dynamic_uw > a1.dynamic_uw);
        assert_eq!(a1.clock_uw, a2.clock_uw);
    }

    #[test]
    fn wire_caps_increase_power() {
        let (m, lib) = toggler();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for i in 0..100 {
            sim.set("a", i % 2 == 0);
            sim.step();
        }
        let base = PowerAnalyzer::new(&m, &lib).unwrap().from_activity(
            sim.toggle_table(),
            sim.cycles(),
            800.0,
            OperatingPoint::at_voltage(0.9),
        );
        let caps = vec![25.0; m.net_count()];
        let wired = PowerAnalyzer::with_wire_caps(&m, &lib, &caps).unwrap().from_activity(
            sim.toggle_table(),
            sim.cycles(),
            800.0,
            OperatingPoint::at_voltage(0.9),
        );
        assert!(wired.dynamic_uw > base.dynamic_uw);
    }

    #[test]
    fn glitch_factor_scales_dynamic_only() {
        let (m, lib) = toggler();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for i in 0..100 {
            sim.set("a", i % 2 == 0);
            sim.step();
        }
        let mut pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let op = OperatingPoint::at_voltage(0.9);
        let with_glitch = pa.from_activity(sim.toggle_table(), sim.cycles(), 800.0, op);
        pa.set_glitch_factor(1.0);
        let without = pa.from_activity(sim.toggle_table(), sim.cycles(), 800.0, op);
        // Gate switching scales by 1.25; the (unscaled) input-port pin
        // charging keeps the overall ratio slightly below 1.25.
        let ratio = with_glitch.dynamic_uw / without.dynamic_uw;
        assert!(ratio > 1.05 && ratio <= 1.25, "ratio {ratio}");
        assert_eq!(with_glitch.clock_uw, without.clock_uw);
    }
}
