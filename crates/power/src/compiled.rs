//! Compiled power analysis: the engine-style fast path.
//!
//! [`PowerAnalyzer::from_activity`] walks the module's instances on
//! every call — pin lookups, per-instance output vectors, a
//! `BTreeMap<String, _>` group accumulation with one string clone per
//! instance — which is fine for one report but dominates the sign-off
//! loop once `shmoo_with_power` grids and SCL characterization ask for
//! hundreds of operating points over the *same* netlist. This module
//! applies the same compile-once/evaluate-many structure the simulation
//! engine and the compiled STA use: [`CompiledPower::from_lowering`]
//! bakes per-net switched capacitance, per-driver internal energy, clock-tree
//! load, leakage and group membership into dense struct-of-arrays
//! columns indexed by the shared IR's net slots, and every report is
//! then one linear `toggles·column` pass.
//!
//! The transformation is exact, not approximate. Per instance output
//! the reference computes `t · (½·C·V² + E_int·escale)` where only the
//! toggle rate `t` and the corner scalars depend on the query; the
//! compiler freezes the capacitance and internal-energy columns and the
//! runtime pass replays the identical arithmetic in the identical
//! order, so every report — totals *and* the `by_group_pj` breakdown —
//! is **bit-identical** to the reference analyzer. Pinned by
//! `tests/power_compiled_differential.rs` on the 64×64 paper test-chip
//! across corners, wire loads and glitch factors.

use std::collections::{BTreeMap, HashMap};

use syndcim_ir::{net_loads_ff, Lowering, Symbol, Symbols};
use syndcim_netlist::Module;
use syndcim_pdk::{CellLibrary, OperatingPoint, Process};
use syndcim_telemetry as telemetry;

use crate::analyzer::{PowerAnalyzer, PowerReport, CLOCK_TREE_OVERHEAD, DEFAULT_GLITCH_FACTOR};

/// A power analyzer compiled into struct-of-arrays form.
///
/// Build one from the shared lowering with
/// [`CompiledPower::from_lowering`] ([`PowerAnalyzer::compile`] runs
/// the same emitter on a configured, glitch-adjusted reference
/// analyzer). The compiled program has no borrow of the module and can
/// be stored in long-lived structures (`syndcim_core::CompiledMacro`
/// keeps one per implemented macro); the group names used for
/// breakdowns are interned
/// [`Symbols`] shared with the lowering and resolved lazily per report
/// — never owned `String` tables. Group membership is carried as a
/// hierarchical parent/prefix tree over the interned group ids, so the
/// seed-pinned top-level `by_group_pj` aggregation coexists with the
/// [`CompiledPower::by_path_pj`] per-subcircuit drill-down.
///
/// ```
/// use syndcim_netlist::NetlistBuilder;
/// use syndcim_pdk::{CellLibrary, OperatingPoint};
/// use syndcim_power::PowerAnalyzer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = CellLibrary::syn40();
/// let mut b = NetlistBuilder::new("pipe", &lib);
/// let a = b.input("a");
/// let x = b.not(a);
/// let q = b.dff(x);
/// b.output("q", q);
/// let m = b.finish();
///
/// let pa = PowerAnalyzer::new(&m, &lib)?;
/// let cp = pa.compile(); // one-time lowering
/// let toggles = vec![8u64; m.net_count()];
/// // One linear pass per report, bit-identical to the reference:
/// for v in [0.7, 0.9, 1.2] {
///     let op = OperatingPoint::at_voltage(v);
///     let fast = cp.report(&toggles, 16, 800.0, op);
///     let slow = pa.from_activity(&toggles, 16, 800.0, op);
///     assert_eq!(fast.total_uw(), slow.total_uw());
///     assert_eq!(fast.by_group_pj, slow.by_group_pj);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledPower {
    /// Process parameters (cloned so the program is self-contained).
    pub(crate) process: Process,
    pub(crate) net_count: usize,

    // Flattened instance outputs, instance-major in instance order
    // (SoA). `out_cap_ff` is the baked total load (pins + port + wire),
    // `out_internal_fj` the driving cell's internal energy.
    pub(crate) out_slot: Vec<u32>,
    pub(crate) out_cap_ff: Vec<f64>,
    pub(crate) out_internal_fj: Vec<f64>,
    /// Outputs of instance `i` span `inst_out_start[i]..inst_out_start[i+1]`.
    pub(crate) inst_out_start: Vec<u32>,
    /// Dense group-head index per instance (top-level aggregation, the
    /// seed semantics of `by_group_pj`).
    pub(crate) inst_group: Vec<u32>,
    /// Interned group-head names, indexed by `inst_group` values —
    /// resolved lazily against `syms`; the program owns no name
    /// `String`s.
    pub(crate) group_head_syms: Vec<Symbol>,
    /// Shared interned name tables (from the lowering's interner) —
    /// also carry the hierarchical group-path tree (`group_node` /
    /// `node_parent`) behind the [`CompiledPower::by_path_pj`]
    /// drill-down.
    pub(crate) syms: Symbols,

    // Input-port nets: pin load charged by the external driver.
    pub(crate) in_port_slot: Vec<u32>,
    pub(crate) in_port_load_ff: Vec<f64>,

    /// Sum of sequential clock-pin energies in fJ (instance order).
    pub(crate) clock_regs_fj: f64,
    /// Total cell leakage in nW (instance order).
    pub(crate) leakage_total_nw: f64,
    /// Raw sequential clock-pin fJ per dense group head, accumulated in
    /// instance order — the numerator of
    /// [`CompiledPower::clock_by_group_pj`]. Indexed like
    /// `group_head_syms`.
    pub(crate) head_clock_fj: Vec<f64>,
    /// Raw sequential clock-pin fJ per group-path node (instance
    /// order): each register's clock pin attributed to its own
    /// subcircuit, rolled up by [`CompiledPower::by_path_pj`].
    pub(crate) node_clock_fj: Vec<f64>,
    /// Raw cell leakage in nW per group-path node (instance order),
    /// behind [`CompiledPower::leakage_by_path_uw`].
    pub(crate) node_leakage_nw: Vec<f64>,
    pub(crate) glitch_factor: f64,
    pub(crate) clock_tree_overhead: f64,
}

impl PowerAnalyzer<'_> {
    /// Lower this analyzer into a [`CompiledPower`]: the emitter behind
    /// [`CompiledPower::from_lowering`], run over the analyzer's loads
    /// and its current glitch factor — call it *after*
    /// [`PowerAnalyzer::set_glitch_factor`].
    pub fn compile(&self) -> CompiledPower {
        telemetry::span!("power.compile");
        CompiledPower::emit(self.module, self.lib, &self.load_ff, self.symbols.clone(), self.glitch_factor)
    }
}

impl CompiledPower {
    /// Compile the power program of `module` straight from its shared
    /// [`Lowering`] (whose interned group tables the breakdowns resolve
    /// against), baking in the per-net wire capacitance in fF (missing
    /// entries count as zero) and the default glitch factor. The
    /// one-time cost is one load pass plus one linear pass over the
    /// instances; every subsequent report saves the module walk and the
    /// per-instance group-string churn.
    ///
    /// The lowering must have been built from the same `module`.
    pub fn from_lowering(low: &Lowering, module: &Module, lib: &CellLibrary, wire_cap_ff: &[f64]) -> Self {
        telemetry::span!("power.compile");
        debug_assert_eq!(low.net_count(), module.net_count(), "lowering belongs to a different module");
        let load_ff = net_loads_ff(module, lib, wire_cap_ff);
        Self::emit(module, lib, &load_ff, low.symbols().clone(), DEFAULT_GLITCH_FACTOR)
    }

    /// The emitter both compile paths share: one pass over the
    /// instances turning per-net loads (`load_ff`) into the
    /// struct-of-arrays columns.
    fn emit(module: &Module, lib: &CellLibrary, load_ff: &[f64], syms: Symbols, glitch_factor: f64) -> Self {
        let mut out_slot = Vec::new();
        let mut out_cap_ff = Vec::new();
        let mut out_internal_fj = Vec::new();
        let mut inst_out_start = vec![0u32];
        let mut inst_group = Vec::with_capacity(module.instance_count());
        // Dense head ids in first-encounter order — the exact dense
        // assignment the pre-interning compiler produced from head
        // strings, so the `by_group_pj` accumulation order (and thus
        // its floating-point result) is unchanged. Interning makes
        // symbol equality string equality, so keying by `Symbol` is
        // keying by name.
        let mut group_head_syms: Vec<Symbol> = Vec::new();
        let mut head_index: HashMap<Symbol, u32> = HashMap::new();
        let mut head_clock_fj: Vec<f64> = Vec::new();
        let mut node_clock_fj = vec![0.0f64; syms.node_count()];
        let mut node_leakage_nw = vec![0.0f64; syms.node_count()];

        for inst in module.instances.iter() {
            let cell = lib.cell(inst.cell);
            for &net in &inst.outputs {
                out_slot.push(net.index() as u32);
                out_cap_ff.push(load_ff[net.index()]);
                // Lowered netlists have one driver per net, so the
                // net's driver is this instance.
                out_internal_fj.push(cell.internal_energy_fj);
            }
            inst_out_start.push(out_slot.len() as u32);
            let head = syms.group_head_sym(inst.group.0);
            let g = *head_index.entry(head).or_insert_with(|| {
                group_head_syms.push(head);
                head_clock_fj.push(0.0);
                group_head_syms.len() as u32 - 1
            });
            inst_group.push(g);
            let node = syms.group_node(inst.group.0) as usize;
            node_leakage_nw[node] += cell.leakage_nw;
            if let Some(seq) = cell.seq {
                head_clock_fj[g as usize] += seq.clk_energy_fj;
                node_clock_fj[node] += seq.clk_energy_fj;
            }
        }

        let in_port_slot: Vec<u32> = module.input_ports().map(|p| p.net.index() as u32).collect();
        let in_port_load_ff: Vec<f64> = module.input_ports().map(|p| load_ff[p.net.index()]).collect();

        let clock_regs_fj: f64 =
            module.instances.iter().filter_map(|i| lib.cell(i.cell).seq).map(|s| s.clk_energy_fj).sum();
        let leakage_total_nw: f64 = module.instances.iter().map(|i| lib.cell(i.cell).leakage_nw).sum();

        let cp = CompiledPower {
            process: lib.process().clone(),
            net_count: module.net_count(),
            out_slot,
            out_cap_ff,
            out_internal_fj,
            inst_out_start,
            inst_group,
            group_head_syms,
            syms,
            in_port_slot,
            in_port_load_ff,
            clock_regs_fj,
            leakage_total_nw,
            head_clock_fj,
            node_clock_fj,
            node_leakage_nw,
            glitch_factor,
            clock_tree_overhead: CLOCK_TREE_OVERHEAD,
        };
        telemetry::gauge("power.retained_bytes").set(cp.retained_bytes() as u64);
        cp
    }

    /// Number of nets the program analyzes.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of top-level groups in the breakdown table.
    pub fn group_count(&self) -> usize {
        self.group_head_syms.len()
    }

    /// Number of nodes in the hierarchical group-path tree (full paths
    /// plus their ancestors; always ≥ [`CompiledPower::group_count`]).
    pub fn path_count(&self) -> usize {
        self.syms.node_count()
    }

    /// The interned name tables group breakdowns resolve against
    /// (shared with the lowering this program was compiled from).
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }

    /// Retained heap bytes of the compiled power program: the
    /// struct-of-arrays capacitance/energy/group columns plus its share
    /// of the interned name tables (`Arc`-shared with the lowering).
    /// Reported as the `power.retained_bytes` telemetry gauge at
    /// compile time.
    pub fn retained_bytes(&self) -> usize {
        let u32s =
            self.out_slot.len() + self.inst_out_start.len() + self.inst_group.len() + self.in_port_slot.len();
        let f64s = self.out_cap_ff.len()
            + self.out_internal_fj.len()
            + self.in_port_load_ff.len()
            + self.head_clock_fj.len()
            + self.node_clock_fj.len()
            + self.node_leakage_nw.len();
        u32s * std::mem::size_of::<u32>()
            + f64s * std::mem::size_of::<f64>()
            + self.group_head_syms.len() * std::mem::size_of::<Symbol>()
            + self.syms.heap_bytes()
    }

    /// Power from measured per-net toggle counts over `cycles` cycles
    /// at `freq_mhz`, at operating point `op` — the compiled equivalent
    /// of [`PowerAnalyzer::from_activity`], bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0` or the toggle table is shorter than the
    /// net count.
    pub fn report(&self, toggles: &[u64], cycles: u64, freq_mhz: f64, op: OperatingPoint) -> PowerReport {
        self.report_many(toggles, cycles, &[(freq_mhz, op)]).pop().expect("one report per point")
    }

    /// One report per `(freq_mhz, operating point)` over a shared
    /// activity measurement — the shmoo fast path. The toggle-rate
    /// column is resolved once and every corner is then a linear pass
    /// over the shared read-only arrays; each report equals the
    /// corresponding [`CompiledPower::report`] call exactly.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0` or the toggle table is shorter than the
    /// net count.
    pub fn report_many(
        &self,
        toggles: &[u64],
        cycles: u64,
        points: &[(f64, OperatingPoint)],
    ) -> Vec<PowerReport> {
        assert!(cycles > 0, "need at least one simulated cycle");
        assert!(toggles.len() >= self.net_count, "toggle table too short");
        telemetry::span!("power.report_many");
        telemetry::counter("power.report_batches").incr();
        telemetry::counter("power.report_points").add(points.len() as u64);
        let start = telemetry::enabled().then(std::time::Instant::now);
        let out_rate: Vec<f64> =
            self.out_slot.iter().map(|&s| toggles[s as usize] as f64 / cycles as f64).collect();
        let port_rate: Vec<f64> =
            self.in_port_slot.iter().map(|&s| toggles[s as usize] as f64 / cycles as f64).collect();
        let reports: Vec<PowerReport> = points
            .iter()
            .map(|&(freq_mhz, op)| self.pass(&out_rate, Some(&port_rate), freq_mhz, op))
            .collect();
        if let Some(t) = start {
            telemetry::histogram("power.report_batch_ns").record(t.elapsed());
        }
        reports
    }

    /// Power assuming every non-constant net toggles `alpha` times per
    /// cycle — the compiled equivalent of
    /// [`PowerAnalyzer::from_static_activity`], bit-identical to it.
    pub fn report_static(&self, alpha: f64, freq_mhz: f64, op: OperatingPoint) -> PowerReport {
        let out_rate = vec![alpha; self.out_slot.len()];
        self.pass(&out_rate, None, freq_mhz, op)
    }

    /// Leakage power in µW at a corner (mirrors
    /// [`PowerAnalyzer::leakage_uw`]).
    pub fn leakage_uw(&self, op: OperatingPoint) -> f64 {
        let scale = self.process.leakage_scale(op.vdd_v, op.temp_c);
        self.leakage_total_nw * scale / 1000.0
    }

    /// One corner's linear pass: per-instance switching energy from the
    /// rate columns (instance-major, replaying the reference analyzer's
    /// accumulation order exactly), plus the optional input-port pin
    /// charge, clock tree and leakage.
    fn pass(
        &self,
        out_rate: &[f64],
        port_rate: Option<&[f64]>,
        freq_mhz: f64,
        op: OperatingPoint,
    ) -> PowerReport {
        let escale = self.process.energy_scale(op.vdd_v);
        let v = op.vdd_v;

        let mut by_group = vec![0.0f64; self.group_head_syms.len()];
        let mut switch_fj_total = 0.0f64;
        for (i, &g) in self.inst_group.iter().enumerate() {
            let (s, e) = (self.inst_out_start[i] as usize, self.inst_out_start[i + 1] as usize);
            let mut inst_fj = 0.0;
            let rates = out_rate[s..e].iter();
            let cols = self.out_cap_ff[s..e].iter().zip(&self.out_internal_fj[s..e]);
            for (&t, (&cap, &internal)) in rates.zip(cols) {
                inst_fj += t * (0.5 * cap * v * v + internal * escale);
            }
            inst_fj *= self.glitch_factor;
            switch_fj_total += inst_fj;
            by_group[g as usize] += inst_fj / 1000.0;
        }
        if let Some(rates) = port_rate {
            // Input-port nets: charged by the external driver but loading
            // our pins still burns CV² in the receiving macro rail; count
            // half (the reference analyzer's exact expression).
            for (&t, &load) in rates.iter().zip(&self.in_port_load_ff) {
                switch_fj_total += 0.5 * t * 0.5 * load * v * v;
            }
        }

        let clock_fj = self.clock_regs_fj * escale * (1.0 + self.clock_tree_overhead);
        let leakage_uw = self.leakage_uw(op);
        let energy_per_cycle_pj = (switch_fj_total + clock_fj) / 1000.0;
        let dynamic_uw = switch_fj_total * freq_mhz * 1e-3;
        let clock_uw = clock_fj * freq_mhz * 1e-3;
        // Names materialize only here, per report — the program stores
        // interned symbols, never owned group-name strings.
        let by_group_pj: BTreeMap<String, f64> =
            self.group_head_syms.iter().map(|&s| self.syms.resolve(s).to_string()).zip(by_group).collect();
        PowerReport { dynamic_uw, clock_uw, leakage_uw, energy_per_cycle_pj, freq_mhz, by_group_pj }
    }

    /// Hierarchical drill-down of the per-cycle dynamic energy: one
    /// entry per full group path (e.g. `"regs"` *and* `"regs/bank0"`),
    /// in pJ/cycle, where every node **includes its descendants**.
    /// Each node carries its instances' switching energy plus the
    /// clock-pin energy of its registers (with the clock-tree overhead),
    /// so a root entry equals the corresponding
    /// [`PowerReport::by_group_pj`] head total *plus* the head's
    /// [`CompiledPower::clock_by_group_pj`] share (up to floating-point
    /// accumulation order), and drilling one level deeper splits both
    /// by subcircuit.
    ///
    /// Top-level aggregation semantics are untouched: `report*` still
    /// produce the seed-pinned `by_group_pj`; this accessor is the new
    /// per-subcircuit view over the same interned group-path tree.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0` or the toggle table is shorter than the
    /// net count.
    pub fn by_path_pj(&self, toggles: &[u64], cycles: u64, op: OperatingPoint) -> BTreeMap<String, f64> {
        assert!(cycles > 0, "need at least one simulated cycle");
        assert!(toggles.len() >= self.net_count, "toggle table too short");
        let escale = self.process.energy_scale(op.vdd_v);
        let v = op.vdd_v;
        let mut by_path = vec![0.0f64; self.syms.node_count()];
        for i in 0..self.inst_group.len() {
            let node = self.syms.group_node(self.syms.group_of(i));
            let (s, e) = (self.inst_out_start[i] as usize, self.inst_out_start[i + 1] as usize);
            let mut inst_fj = 0.0;
            for k in s..e {
                let t = toggles[self.out_slot[k] as usize] as f64 / cycles as f64;
                inst_fj += t * (0.5 * self.out_cap_ff[k] * v * v + self.out_internal_fj[k] * escale);
            }
            by_path[node as usize] += inst_fj * self.glitch_factor / 1000.0;
        }
        // Clock-pin energy lands at each register's own subcircuit node
        // (the clock tree serves the whole hierarchy, so its overhead
        // is applied uniformly, exactly as in the head-level totals).
        let cscale = escale * (1.0 + self.clock_tree_overhead);
        for (node, &fj) in self.node_clock_fj.iter().enumerate() {
            by_path[node] += fj * cscale / 1000.0;
        }
        // Parent node ids precede their children's by construction:
        // one reverse pass rolls every subtree up into its ancestors.
        for i in (0..by_path.len()).rev() {
            if let Some(parent) = self.syms.node_parent(i as u32) {
                let v = by_path[i];
                by_path[parent as usize] += v;
            }
        }
        (0..self.syms.node_count() as u32)
            .map(|n| (self.syms.node_name(n).to_string(), by_path[n as usize]))
            .collect()
    }

    /// Per-cycle clock-pin energy per top-level group, in pJ/cycle,
    /// including the clock-tree distribution overhead. Every head of
    /// [`PowerReport::by_group_pj`] appears (0.0 for register-free
    /// groups), and the values sum to the clock term of
    /// `energy_per_cycle_pj` — bit-identical to
    /// [`PowerAnalyzer::clock_by_group_pj`].
    pub fn clock_by_group_pj(&self, op: OperatingPoint) -> BTreeMap<String, f64> {
        let cscale = self.process.energy_scale(op.vdd_v) * (1.0 + self.clock_tree_overhead);
        self.group_head_syms
            .iter()
            .zip(&self.head_clock_fj)
            .map(|(&s, &fj)| (self.syms.resolve(s).to_string(), fj * cscale / 1000.0))
            .collect()
    }

    /// Hierarchical drill-down of leakage power at a corner: one entry
    /// per full group path in µW, every node including its descendants
    /// — the leakage analogue of [`CompiledPower::by_path_pj`]. The
    /// root entries sum to [`CompiledPower::leakage_uw`] (up to
    /// floating-point accumulation order).
    pub fn leakage_by_path_uw(&self, op: OperatingPoint) -> BTreeMap<String, f64> {
        let scale = self.process.leakage_scale(op.vdd_v, op.temp_c);
        let mut by_path: Vec<f64> = self.node_leakage_nw.iter().map(|&nw| nw * scale / 1000.0).collect();
        for i in (0..by_path.len()).rev() {
            if let Some(parent) = self.syms.node_parent(i as u32) {
                let v = by_path[i];
                by_path[parent as usize] += v;
            }
        }
        (0..self.syms.node_count() as u32)
            .map(|n| (self.syms.node_name(n).to_string(), by_path[n as usize]))
            .collect()
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
        let x = b.xor2(a, a);
        let y = b.not(a);
        b.pop_group();
        b.push_group("regs/bank0");
        let q = b.dff(y);
        b.pop_group();
        b.output("y", y);
        b.output("x", x);
        b.output("q", q);
        (b.finish(), lib)
    }

    fn measured_toggles(m: &Module, lib: &CellLibrary) -> (Vec<u64>, u64) {
        let mut sim = Simulator::new(m, lib).unwrap();
        for i in 0..100 {
            sim.set("a", i % 2 == 0);
            sim.step();
        }
        (sim.toggle_table().to_vec(), sim.cycles())
    }

    #[test]
    fn compiled_report_is_bit_identical_to_from_activity() {
        let (m, lib) = toggler();
        let (toggles, cycles) = measured_toggles(&m, &lib);
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let cp = pa.compile();
        assert_eq!(cp.net_count(), m.net_count());
        assert!(cp.group_count() >= 2, "datapath and regs heads");
        for v in [0.6, 0.9, 1.2] {
            let op = OperatingPoint::at_voltage(v);
            let slow = pa.from_activity(&toggles, cycles, 800.0, op);
            let fast = cp.report(&toggles, cycles, 800.0, op);
            assert_eq!(fast.dynamic_uw, slow.dynamic_uw);
            assert_eq!(fast.clock_uw, slow.clock_uw);
            assert_eq!(fast.leakage_uw, slow.leakage_uw);
            assert_eq!(fast.energy_per_cycle_pj, slow.energy_per_cycle_pj);
            assert_eq!(fast.by_group_pj, slow.by_group_pj);
        }
    }

    #[test]
    fn compiled_static_report_matches_reference() {
        let (m, lib) = toggler();
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let cp = pa.compile();
        let op = OperatingPoint::at_voltage(0.9);
        for alpha in [0.05, 0.2, 0.5] {
            let slow = pa.from_static_activity(alpha, 1000.0, op);
            let fast = cp.report_static(alpha, 1000.0, op);
            assert_eq!(fast.dynamic_uw, slow.dynamic_uw);
            assert_eq!(fast.by_group_pj, slow.by_group_pj);
            assert_eq!(fast.total_uw(), slow.total_uw());
        }
    }

    #[test]
    fn report_many_equals_per_point_reports() {
        let (m, lib) = toggler();
        let (toggles, cycles) = measured_toggles(&m, &lib);
        let cp = PowerAnalyzer::new(&m, &lib).unwrap().compile();
        let points: Vec<(f64, OperatingPoint)> = [(200.0, 0.7), (800.0, 0.9), (1500.0, 1.2)]
            .map(|(f, v)| (f, OperatingPoint::at_voltage(v)))
            .into();
        let batch = cp.report_many(&toggles, cycles, &points);
        for (&(f, op), got) in points.iter().zip(&batch) {
            let want = cp.report(&toggles, cycles, f, op);
            assert_eq!(got.total_uw(), want.total_uw());
            assert_eq!(got.by_group_pj, want.by_group_pj);
        }
    }

    #[test]
    fn by_path_pj_drills_down_and_roots_match_group_totals() {
        let (m, lib) = toggler();
        let (toggles, cycles) = measured_toggles(&m, &lib);
        let cp = PowerAnalyzer::new(&m, &lib).unwrap().compile();
        let op = OperatingPoint::at_voltage(0.9);
        let by_group = cp.report(&toggles, cycles, 800.0, op).by_group_pj;
        let by_path = cp.by_path_pj(&toggles, cycles, op);

        assert!(cp.path_count() >= cp.group_count(), "paths include every head plus descendants");
        for key in ["top", "datapath", "regs", "regs/bank0"] {
            assert!(by_path.contains_key(key), "missing path `{key}`: {by_path:?}");
        }
        // Root entries equal the seed-pinned head totals plus the
        // head's clock-pin share (modulo accumulation order).
        let clock = cp.clock_by_group_pj(op);
        for (head, &pj) in &by_group {
            let root = by_path[head];
            let want = pj + clock[head];
            assert!((root - want).abs() <= 1e-12 * want.abs().max(1.0), "{head}: {root} vs {want}");
        }
        // The dff lives under `regs/bank0`; the register-free
        // `datapath` carries no clock energy.
        assert!(clock["regs"] > 0.0);
        assert_eq!(clock["datapath"], 0.0);
        // `regs` has no direct instances, so its rollup equals its only
        // child exactly — clock-pin energy included.
        assert_eq!(by_path["regs"], by_path["regs/bank0"]);
        assert!(by_path["regs/bank0"] > by_group["regs"], "the drill-down includes the dff's clock pin");
    }

    #[test]
    fn clock_and_leakage_breakdowns_match_reference_and_totals() {
        let (m, lib) = toggler();
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let cp = pa.compile();
        for v in [0.6, 0.9, 1.2] {
            let op = OperatingPoint::at_voltage(v);
            // Head-level clock shares: bit-identical to the reference
            // walk, summing to the clock term of the report.
            let clock = cp.clock_by_group_pj(op);
            assert_eq!(clock, pa.clock_by_group_pj(op), "clock breakdown at {v} V");
            let report = cp.report(&vec![0u64; m.net_count()], 10, 800.0, op);
            let clock_pj: f64 = clock.values().sum();
            assert!(
                (clock_pj - report.energy_per_cycle_pj).abs() <= 1e-12 * report.energy_per_cycle_pj,
                "idle energy/cycle is all clock: {clock_pj} vs {}",
                report.energy_per_cycle_pj
            );
            // Leakage drill-down: roots sum to the corner's leakage.
            let by_path = cp.leakage_by_path_uw(op);
            let roots: f64 = by_path.iter().filter(|(p, _)| !p.contains('/')).map(|(_, &uw)| uw).sum();
            let want = cp.leakage_uw(op);
            assert!((roots - want).abs() <= 1e-12 * want, "leakage roots {roots} vs total {want} at {v} V");
            assert_eq!(by_path["regs"], by_path["regs/bank0"], "leakage rolls up through the path tree");
        }
    }

    #[test]
    fn glitch_and_wire_configuration_is_baked_at_compile_time() {
        let (m, lib) = toggler();
        let (toggles, cycles) = measured_toggles(&m, &lib);
        let caps = vec![12.5; m.net_count()];
        let mut pa = PowerAnalyzer::with_wire_caps(&m, &lib, &caps).unwrap();
        pa.set_glitch_factor(1.6);
        let cp = pa.compile();
        let op = OperatingPoint::at_voltage(0.9);
        let slow = pa.from_activity(&toggles, cycles, 800.0, op);
        let fast = cp.report(&toggles, cycles, 800.0, op);
        assert_eq!(fast.dynamic_uw, slow.dynamic_uw, "wire caps and glitch factor must be baked in");
        assert_eq!(fast.by_group_pj, slow.by_group_pj);
    }
}
