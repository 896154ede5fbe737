//! Compiled static timing analysis: the engine-style fast path.
//!
//! [`Sta::analyze_at`] walks the module graph on every call — instance
//! lookups, per-cell arc vectors, logical-effort evaluation — which is
//! fine for one report but dominates the sign-off loop once shmoo grids
//! and search ladders ask for hundreds of operating points. This module
//! applies the same compile-once/evaluate-many structure the simulation
//! engine uses: [`CompiledSta::from_lowering`] compiles the shared
//! netlist IR into a [`CompiledSta`] whose launches, timing arcs and
//! endpoints live in flat struct-of-arrays buffers over the engine's
//! dense net slots, and every analysis is then one linear pass over
//! those arrays.
//!
//! The transformation is exact, not approximate. Per arc the reference
//! computes `arc_delay_ps(arc, τ, load) · scale + wire`, where only
//! `scale` depends on the operating point; the compiler evaluates the
//! load-dependent factor once and the runtime pass replays the identical
//! `base · scale + wire` arithmetic in the identical order, so arrival
//! times, slacks, critical paths and `f_max` are **bit-identical** to
//! the reference analyzer — pinned by differential tests here, in
//! `tests/sta_compiled_differential.rs` and in the shmoo regression
//! suite.

use syndcim_ir::{net_loads_ff, parallel_map, Lowering, Symbols};
use syndcim_netlist::Module;
use syndcim_pdk::{CellLibrary, OperatingPoint, Process};
use syndcim_telemetry as telemetry;

use crate::{PathStep, Sta, TimingReport, WireLoads};

/// Sentinel for "no predecessor recorded" in the path-reconstruction
/// tables (the net is a primary input or unreached).
const NO_PRED: u32 = u32::MAX;

/// Corner count above which [`CompiledSta::fmax_many`] fans the batch
/// across worker threads. Each grid point is an independent pass over
/// shared read-only arrays, but one 16×16-macro pass is only ~10 µs —
/// below this, thread spawn overhead beats the parallel win.
const FMAX_PARALLEL_THRESHOLD: usize = 32;

/// Corners per parallel job: small enough to load-balance across
/// workers, large enough to amortize each job's arrival buffer.
const FMAX_PARALLEL_CHUNK: usize = 8;

/// A timing analyzer compiled into struct-of-arrays form.
///
/// Build one from the shared lowering with
/// [`CompiledSta::from_lowering`] ([`Sta::compile`] runs the same
/// emitter on a configured reference analyzer). The compiled program
/// has no borrow of the module and can be stored in long-lived
/// structures (`syndcim_core::ImplementedMacro` keeps one per
/// implemented macro);
/// the net/instance names used for critical-path reports are interned
/// [`Symbols`] shared with the lowering and resolved lazily — never
/// owned `String` tables.
///
/// ```
/// use syndcim_netlist::NetlistBuilder;
/// use syndcim_pdk::{CellLibrary, OperatingPoint};
/// use syndcim_sta::Sta;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = CellLibrary::syn40();
/// let mut b = NetlistBuilder::new("pipe", &lib);
/// let a = b.input("a");
/// let x = b.xor2(a, a);
/// let q = b.dff(x);
/// b.output("q", q);
/// let m = b.finish();
///
/// let sta = Sta::new(&m, &lib)?;
/// let csta = sta.compile(); // one-time lowering
/// // One forward pass per operating point, bit-identical to `sta`:
/// for v in [0.7, 0.9, 1.2] {
///     let op = OperatingPoint::at_voltage(v);
///     assert_eq!(csta.fmax_mhz(op), sta.fmax_mhz(op));
/// }
/// // Batch entry point for shmoo/search grids:
/// let ops: Vec<_> = [0.7, 0.9, 1.2].map(OperatingPoint::at_voltage).into();
/// assert_eq!(csta.fmax_many(&ops).len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSta {
    /// Process parameters (cloned so the program is self-contained).
    pub(crate) process: Process,
    pub(crate) net_count: usize,

    /// Slots of primary-input nets (arrival 0 at analysis start).
    pub(crate) input_slots: Vec<u32>,

    // Launch records — one per sequential instance, in instance order.
    pub(crate) launch_slot: Vec<u32>,
    pub(crate) launch_base_ps: Vec<f64>,
    pub(crate) launch_wire_ps: Vec<f64>,
    pub(crate) launch_inst: Vec<u32>,

    // Timing arcs in levelized order (SoA). `base_ps` is the
    // load-dependent logical-effort delay at the nominal corner;
    // `wire_ps` the unscaled RC wire delay at the arc's output net.
    pub(crate) arc_src: Vec<u32>,
    pub(crate) arc_dst: Vec<u32>,
    pub(crate) arc_base_ps: Vec<f64>,
    pub(crate) arc_wire_ps: Vec<f64>,
    pub(crate) arc_inst: Vec<u32>,

    // Endpoints: output ports first (no setup), then sequential data
    // pins (setup scales with the operating point) — the reference
    // analyzer's exact visitation order, so ties break identically.
    pub(crate) port_end_slot: Vec<u32>,
    pub(crate) seq_end_slot: Vec<u32>,
    pub(crate) seq_end_setup_ps: Vec<f64>,

    /// Interned net/instance/group names for critical-path
    /// reconstruction — shared `Arc` handles into the lowering's
    /// [`Symbols`], resolved lazily when a report is built. The
    /// compiled program owns **no** `String` tables: on a 10⁶-net macro
    /// the name footprint is the 4-byte symbol tables plus one shared
    /// interner, instead of three owned string clones per element.
    pub(crate) syms: Symbols,
}

impl Sta<'_> {
    /// Lower this analyzer into a [`CompiledSta`]: the emitter behind
    /// [`CompiledSta::from_lowering`], run over the analyzer's own
    /// lowering, loads and wire annotation — call it *after*
    /// [`Sta::with_wire_loads`].
    pub fn compile(&self) -> CompiledSta {
        telemetry::span!("sta.compile");
        CompiledSta::emit(&self.low, self.module, self.lib, &self.wires.delay_ps, &self.load_ff)
    }
}

/// Reusable per-analysis scratch buffers (arrival + predecessor
/// tables), so batch entry points allocate once per grid instead of
/// once per point.
#[derive(Debug, Default)]
struct Scratch {
    arrival: Vec<f64>,
    pred_inst: Vec<u32>,
    pred_from: Vec<u32>,
}

impl CompiledSta {
    /// Compile the timing program of `module` straight from its shared
    /// [`Lowering`] (levelized order and dense net slots), baking in
    /// the wire annotation. The one-time cost is one
    /// [`net_loads_ff`] pass plus one linear pass over the instances;
    /// every subsequent analysis saves the graph walk.
    ///
    /// The lowering must have been built from the same `module`.
    ///
    /// # Panics
    ///
    /// Panics if the annotation tables do not cover every net (the
    /// [`Sta::with_wire_loads`] contract).
    pub fn from_lowering(low: &Lowering, module: &Module, lib: &CellLibrary, wires: &WireLoads) -> Self {
        telemetry::span!("sta.compile");
        debug_assert_eq!(low.net_count(), module.net_count(), "lowering belongs to a different module");
        wires.assert_covers(module.net_count());
        let load_ff = net_loads_ff(module, lib, &wires.cap_ff);
        Self::emit(low, module, lib, &wires.delay_ps, &load_ff)
    }

    /// The emitter both compile paths share: one pass over the
    /// instances turning per-net loads (`load_ff`) and unscaled wire
    /// delays into the struct-of-arrays columns.
    fn emit(
        low: &Lowering,
        module: &Module,
        lib: &CellLibrary,
        wire_delay_ps: &[f64],
        load_ff: &[f64],
    ) -> Self {
        let process = lib.process();

        let input_slots = module.input_ports().map(|p| low.slot(p.net)).collect();

        let mut launch_slot = Vec::new();
        let mut launch_base_ps = Vec::new();
        let mut launch_wire_ps = Vec::new();
        let mut launch_inst = Vec::new();
        let mut seq_end_slot = Vec::new();
        let mut seq_end_setup_ps = Vec::new();
        for (i, inst) in module.instances.iter().enumerate() {
            let cell = lib.cell(inst.cell);
            let Some(seq) = cell.seq else { continue };
            let qnet = inst.outputs[0];
            launch_slot.push(low.slot(qnet));
            launch_base_ps.push(seq.clk_to_q_ps);
            launch_wire_ps.push(wire_delay_ps[qnet.index()]);
            launch_inst.push(i as u32);
            for &dnet in &inst.inputs {
                seq_end_slot.push(low.slot(dnet));
                seq_end_setup_ps.push(seq.setup_ps);
            }
        }

        let mut arc_src = Vec::new();
        let mut arc_dst = Vec::new();
        let mut arc_base_ps = Vec::new();
        let mut arc_wire_ps = Vec::new();
        let mut arc_inst = Vec::new();
        for &id in low.order() {
            let inst = &module.instances[id.index()];
            let cell = lib.cell(inst.cell);
            for arc in &cell.arcs {
                let in_net = inst.inputs[arc.from_input];
                let out_net = inst.outputs[arc.to_output];
                arc_src.push(low.slot(in_net));
                arc_dst.push(low.slot(out_net));
                arc_base_ps.push(cell.arc_delay_ps(arc, process.tau_ps, load_ff[out_net.index()]));
                arc_wire_ps.push(wire_delay_ps[out_net.index()]);
                arc_inst.push(id.index() as u32);
            }
        }

        let port_end_slot = module.output_ports().map(|p| low.slot(p.net)).collect();

        let csta = CompiledSta {
            process: process.clone(),
            net_count: module.net_count(),
            input_slots,
            launch_slot,
            launch_base_ps,
            launch_wire_ps,
            launch_inst,
            arc_src,
            arc_dst,
            arc_base_ps,
            arc_wire_ps,
            arc_inst,
            port_end_slot,
            seq_end_slot,
            seq_end_setup_ps,
            // A few Arc bumps — the lowering's interned tables are
            // shared, not cloned.
            syms: low.symbols().clone(),
        };
        telemetry::counter("sta.arcs_emitted").add(csta.arc_count() as u64);
        telemetry::gauge("sta.retained_bytes").set(csta.retained_bytes() as u64);
        csta
    }

    /// Number of nets the program analyzes.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of compiled timing arcs (diagnostics).
    pub fn arc_count(&self) -> usize {
        self.arc_src.len()
    }

    /// The interned name tables critical-path reports resolve against
    /// (shared with the lowering this program was compiled from).
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }

    /// Retained heap bytes of the compiled timing program: launch,
    /// arc and endpoint struct-of-arrays columns plus its share of the
    /// interned name tables (`Arc`-shared with the lowering). Reported
    /// as the `sta.retained_bytes` telemetry gauge at compile time.
    pub fn retained_bytes(&self) -> usize {
        let u32s = self.input_slots.len()
            + self.launch_slot.len()
            + self.launch_inst.len()
            + self.arc_src.len()
            + self.arc_dst.len()
            + self.arc_inst.len()
            + self.port_end_slot.len()
            + self.seq_end_slot.len();
        let f64s = self.launch_base_ps.len()
            + self.launch_wire_ps.len()
            + self.arc_base_ps.len()
            + self.arc_wire_ps.len()
            + self.seq_end_setup_ps.len();
        u32s * std::mem::size_of::<u32>() + f64s * std::mem::size_of::<f64>() + self.syms.heap_bytes()
    }

    /// Analyze at the nominal operating point against `period_ps`
    /// (mirrors [`Sta::analyze`]).
    pub fn analyze(&self, period_ps: f64) -> TimingReport {
        self.analyze_at(period_ps, OperatingPoint::nominal(&self.process))
    }

    /// Analyze against `period_ps` at an explicit operating point.
    ///
    /// One linear pass over the compiled arc arrays; the result —
    /// arrival times, worst slack, `f_max`, critical path — is
    /// bit-identical to [`Sta::analyze_at`] on the analyzer this
    /// program was compiled from.
    pub fn analyze_at(&self, period_ps: f64, op: OperatingPoint) -> TimingReport {
        let mut scratch = Scratch::default();
        self.analyze_into(period_ps, op, &mut scratch)
    }

    /// Analyze a batch of `(period_ps, operating point)` pairs, reusing
    /// scratch buffers across points. Equivalent to calling
    /// [`CompiledSta::analyze_at`] per point, minus the per-point
    /// allocations.
    pub fn analyze_many(&self, points: &[(f64, OperatingPoint)]) -> Vec<TimingReport> {
        telemetry::span!("sta.analyze_many");
        telemetry::counter("sta.analyze_points").add(points.len() as u64);
        let mut scratch = Scratch::default();
        points.iter().map(|&(period_ps, op)| self.analyze_into(period_ps, op, &mut scratch)).collect()
    }

    /// `f_max` in MHz at an operating point (mirrors
    /// [`Sta::fmax_mhz`]).
    pub fn fmax_mhz(&self, op: OperatingPoint) -> f64 {
        self.analyze_at(1.0, op).fmax_mhz
    }

    /// `f_max` in MHz at each operating point of a batch.
    ///
    /// This is the shmoo/search fast path: path reconstruction is
    /// skipped entirely (predecessor tracking off), so each point costs
    /// exactly one arrival pass plus the endpoint max-reduction. The
    /// values are identical to per-point [`CompiledSta::fmax_mhz`]
    /// calls — predecessor tracking never affects arrival times.
    ///
    /// Dense grids fan out across cores: every corner is an independent
    /// pass over the shared read-only arc arrays, so batches of
    /// `FMAX_PARALLEL_THRESHOLD` (32) or more corners are chunked onto
    /// the scoped-thread runner. Results come back in corner order and each
    /// corner runs the identical serial arithmetic, so the output is
    /// order-identical to the sequential evaluation (pinned by tests
    /// here and by the shmoo regression suite).
    pub fn fmax_many(&self, ops: &[OperatingPoint]) -> Vec<f64> {
        telemetry::span!("sta.fmax_many");
        telemetry::counter("sta.fmax_batches").incr();
        telemetry::counter("sta.fmax_points").add(ops.len() as u64);
        let start = telemetry::enabled().then(std::time::Instant::now);
        let out = if ops.len() >= FMAX_PARALLEL_THRESHOLD {
            let chunks: Vec<&[OperatingPoint]> = ops.chunks(FMAX_PARALLEL_CHUNK).collect();
            parallel_map(chunks, |_, chunk| self.fmax_serial(chunk)).into_iter().flatten().collect()
        } else {
            self.fmax_serial(ops)
        };
        if let Some(t) = start {
            telemetry::histogram("sta.fmax_batch_ns").record(t.elapsed());
        }
        out
    }

    /// Sequential `f_max` batch sharing one arrival buffer.
    fn fmax_serial(&self, ops: &[OperatingPoint]) -> Vec<f64> {
        let mut arrival = vec![f64::NEG_INFINITY; self.net_count];
        ops.iter()
            .map(|op| {
                let scale = op.delay_scale(&self.process);
                self.propagate::<false>(scale, &mut arrival, &mut [], &mut []);
                let (max_delay, _) = self.reduce_endpoints(scale, &arrival);
                if max_delay > 0.0 {
                    1e6 / max_delay
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// `f_max` at each `(operating point, gate-delay multiplier)` pair —
    /// the Monte-Carlo generalization of [`CompiledSta::fmax_many`].
    ///
    /// The multiplier models per-die process variation on top of the
    /// corner's voltage/temperature `delay_scale`: every gate delay and
    /// setup time scales by `delay_scale · mult` while unscaled wire
    /// delay stays fixed, exactly the "second column" split the timing
    /// model reserved. A multiplier of `1.0` reproduces the plain
    /// corner **bit-identically** (IEEE-754 multiplication by one is
    /// exact), so a zero-variation Monte-Carlo grid equals the nominal
    /// shmoo run. Batches at or above the parallel threshold fan out
    /// across cores with the same chunking — and therefore the same
    /// order-identical results — as `fmax_many`.
    pub fn fmax_many_scaled(&self, points: &[(OperatingPoint, f64)]) -> Vec<f64> {
        telemetry::span!("sta.fmax_many_scaled");
        telemetry::counter("sta.fmax_batches").incr();
        telemetry::counter("sta.fmax_points").add(points.len() as u64);
        let start = telemetry::enabled().then(std::time::Instant::now);
        let out = if points.len() >= FMAX_PARALLEL_THRESHOLD {
            let chunks: Vec<&[(OperatingPoint, f64)]> = points.chunks(FMAX_PARALLEL_CHUNK).collect();
            parallel_map(chunks, |_, chunk| self.fmax_serial_scaled(chunk)).into_iter().flatten().collect()
        } else {
            self.fmax_serial_scaled(points)
        };
        if let Some(t) = start {
            telemetry::histogram("sta.fmax_batch_ns").record(t.elapsed());
        }
        out
    }

    /// `f_max` of every Monte-Carlo sample at one operating point:
    /// `lane_scales[l]` is lane `l`'s gate-delay multiplier (drawn from
    /// a [`crate::VariationModel`]), and entry `l` of the result is
    /// that virtual die's `f_max`. A thin lane-indexed veneer over
    /// [`CompiledSta::fmax_many_scaled`], so 256 samples ride the same
    /// parallel batch machinery as a 256-corner shmoo row.
    pub fn fmax_distribution(&self, op: OperatingPoint, lane_scales: &[f64]) -> Vec<f64> {
        let points: Vec<(OperatingPoint, f64)> = lane_scales.iter().map(|&s| (op, s)).collect();
        self.fmax_many_scaled(&points)
    }

    /// Sequential scaled batch sharing one arrival buffer.
    fn fmax_serial_scaled(&self, points: &[(OperatingPoint, f64)]) -> Vec<f64> {
        let mut arrival = vec![f64::NEG_INFINITY; self.net_count];
        points
            .iter()
            .map(|&(op, mult)| {
                let scale = op.delay_scale(&self.process) * mult;
                self.propagate::<false>(scale, &mut arrival, &mut [], &mut []);
                let (max_delay, _) = self.reduce_endpoints(scale, &arrival);
                if max_delay > 0.0 {
                    1e6 / max_delay
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// One full analysis into caller-provided scratch space.
    fn analyze_into(&self, period_ps: f64, op: OperatingPoint, scratch: &mut Scratch) -> TimingReport {
        let scale = op.delay_scale(&self.process);
        scratch.arrival.resize(self.net_count, f64::NEG_INFINITY);
        scratch.pred_inst.clear();
        scratch.pred_inst.resize(self.net_count, NO_PRED);
        scratch.pred_from.clear();
        scratch.pred_from.resize(self.net_count, 0);

        self.propagate::<true>(scale, &mut scratch.arrival, &mut scratch.pred_inst, &mut scratch.pred_from);
        let (max_delay, worst_slot) = self.reduce_endpoints(scale, &scratch.arrival);

        let critical_path = worst_slot
            .map(|w| self.walk_path(w, &scratch.arrival, &scratch.pred_inst, &scratch.pred_from))
            .unwrap_or_default();
        let fmax_mhz = if max_delay > 0.0 { 1e6 / max_delay } else { f64::INFINITY };
        TimingReport {
            arrival_ps: scratch.arrival.clone(),
            max_delay_ps: max_delay,
            wns_ps: period_ps - max_delay,
            fmax_mhz,
            critical_path,
            period_ps,
        }
    }

    /// Forward arrival propagation: launches, then the levelized arc
    /// stream. With `TRACK` the predecessor tables record the winning
    /// arc per net for path reconstruction; without it the pass is pure
    /// SoA arithmetic.
    fn propagate<const TRACK: bool>(
        &self,
        scale: f64,
        arrival: &mut [f64],
        pred_inst: &mut [u32],
        pred_from: &mut [u32],
    ) {
        arrival.fill(f64::NEG_INFINITY);
        for &s in &self.input_slots {
            arrival[s as usize] = 0.0;
        }

        let launches = self.launch_slot.iter().zip(&self.launch_base_ps).zip(&self.launch_wire_ps);
        for (k, ((&slot, &base), &wire)) in launches.enumerate() {
            let q = slot as usize;
            let a = base * scale + wire;
            if a > arrival[q] {
                arrival[q] = a;
                if TRACK {
                    pred_inst[q] = self.launch_inst[k];
                    pred_from[q] = slot; // from == self: launch point
                }
            }
        }

        let arcs = self.arc_src.iter().zip(&self.arc_dst).zip(&self.arc_base_ps).zip(&self.arc_wire_ps);
        for (k, (((&src, &dst), &base), &wire)) in arcs.enumerate() {
            let a_in = arrival[src as usize];
            if a_in == f64::NEG_INFINITY {
                continue; // constant input: no path through it
            }
            let cand = a_in + (base * scale + wire);
            let dst = dst as usize;
            if cand > arrival[dst] {
                arrival[dst] = cand;
                if TRACK {
                    pred_inst[dst] = self.arc_inst[k];
                    pred_from[dst] = src;
                }
            }
        }
    }

    /// Max-reduce the endpoint set (ports, then sequential data pins
    /// with scaled setup), returning the worst total delay and the slot
    /// it ends on.
    fn reduce_endpoints(&self, scale: f64, arrival: &[f64]) -> (f64, Option<u32>) {
        let mut max_delay = 0.0f64;
        let mut worst: Option<u32> = None;
        for &s in &self.port_end_slot {
            let a = arrival[s as usize];
            if a == f64::NEG_INFINITY {
                continue;
            }
            if a > max_delay {
                max_delay = a;
                worst = Some(s);
            }
        }
        for k in 0..self.seq_end_slot.len() {
            let s = self.seq_end_slot[k];
            let a = arrival[s as usize];
            if a == f64::NEG_INFINITY {
                continue;
            }
            let total = a + self.seq_end_setup_ps[k] * scale;
            if total > max_delay {
                max_delay = total;
                worst = Some(s);
            }
        }
        (max_delay, worst)
    }

    /// Reconstruct the critical path from the predecessor tables
    /// (mirrors the reference analyzer's walk, using the owned name
    /// tables).
    fn walk_path(&self, end: u32, arrival: &[f64], pred_inst: &[u32], pred_from: &[u32]) -> Vec<PathStep> {
        let mut steps = Vec::new();
        let mut cur = end as usize;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > self.net_count + 2 {
                break; // defensive: malformed pred chain
            }
            let inst = pred_inst[cur];
            if inst == NO_PRED {
                steps.push(PathStep {
                    through: "<port>".to_string(),
                    group: "top".to_string(),
                    net: self.syms.net_name(cur).to_string(),
                    arrival_ps: arrival[cur],
                });
                break;
            }
            let from = pred_from[cur] as usize;
            steps.push(PathStep {
                through: self.syms.inst_name(inst as usize).to_string(),
                group: self.syms.group_name(self.syms.group_of(inst as usize)).to_string(),
                net: self.syms.net_name(cur).to_string(),
                arrival_ps: arrival[cur],
            });
            if from == cur {
                break; // sequential launch point
            }
            cur = from;
        }
        steps.reverse();
        steps
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

    /// A circuit touching every structural case: ports, constants,
    /// multi-output cells, three sequential kinds, named groups.
    fn mixed_module(lib: &CellLibrary) -> Module {
        let mut b = NetlistBuilder::new("mix", lib);
        let a = b.input("a");
        let c = b.input("c");
        b.push_group("front");
        let one = b.const1();
        let x = b.and2(a, one);
        let (s, co) = b.fa(x, c, a);
        b.pop_group();
        b.push_group("regs");
        let q0 = b.dff(s);
        let q1 = b.dffe(co, c);
        let rbl = b.add(CellKind::Sram6T2T, &[a, s])[0];
        b.pop_group();
        let mut y = b.xor2(q0, q1);
        for _ in 0..5 {
            y = b.xor2(y, rbl);
        }
        b.output("y", y);
        b.output("s_out", s);
        b.finish()
    }

    fn assert_reports_identical(r: &TimingReport, c: &TimingReport) {
        assert_eq!(r.arrival_ps, c.arrival_ps, "arrival times must be bit-identical");
        assert_eq!(r.max_delay_ps, c.max_delay_ps);
        assert_eq!(r.wns_ps, c.wns_ps);
        assert_eq!(r.fmax_mhz, c.fmax_mhz);
        assert_eq!(r.period_ps, c.period_ps);
        assert_eq!(r.critical_path, c.critical_path, "critical paths must match step for step");
    }

    #[test]
    fn compiled_matches_reference_across_operating_points() {
        let lib = lib();
        let m = mixed_module(&lib);
        let sta = Sta::new(&m, &lib).unwrap();
        let csta = sta.compile();
        for v in [0.6, 0.7, 0.9, 1.05, 1.2] {
            for period in [100.0, 850.0, 4000.0] {
                let op = OperatingPoint::at_voltage(v);
                assert_reports_identical(&sta.analyze_at(period, op), &csta.analyze_at(period, op));
            }
        }
    }

    #[test]
    fn compiled_matches_reference_with_wire_loads() {
        let lib = lib();
        let m = mixed_module(&lib);
        let mut wires = WireLoads::zero(m.net_count());
        for (i, c) in wires.cap_ff.iter_mut().enumerate() {
            *c = (i % 7) as f64 * 3.5;
        }
        for (i, d) in wires.delay_ps.iter_mut().enumerate() {
            *d = (i % 5) as f64 * 11.0;
        }
        let sta = Sta::new(&m, &lib).unwrap().with_wire_loads(wires);
        let csta = sta.compile();
        let op = OperatingPoint { vdd_v: 0.8, temp_c: 85.0 };
        assert_reports_identical(&sta.analyze_at(900.0, op), &csta.analyze_at(900.0, op));
    }

    #[test]
    fn fmax_many_equals_per_point_reference_fmax() {
        let lib = lib();
        let m = mixed_module(&lib);
        let sta = Sta::new(&m, &lib).unwrap();
        let csta = sta.compile();
        let ops: Vec<OperatingPoint> =
            [0.55, 0.62, 0.75, 0.9, 1.1, 1.2].iter().map(|&v| OperatingPoint::at_voltage(v)).collect();
        let batch = csta.fmax_many(&ops);
        for (op, f) in ops.iter().zip(&batch) {
            assert_eq!(*f, sta.fmax_mhz(*op), "batch fmax must equal the reference at {op:?}");
        }
    }

    /// Above the parallel threshold `fmax_many` fans corners across
    /// worker threads; the result must stay order-identical to the
    /// per-point serial queries, corner for corner.
    #[test]
    fn parallel_fmax_many_is_order_identical_to_serial() {
        let lib = lib();
        let m = mixed_module(&lib);
        let sta = Sta::new(&m, &lib).unwrap();
        let csta = sta.compile();
        let ops: Vec<OperatingPoint> = (0..(FMAX_PARALLEL_THRESHOLD * 2 + 3))
            .map(|i| OperatingPoint::at_voltage(0.55 + 0.01 * i as f64))
            .collect();
        assert!(ops.len() >= FMAX_PARALLEL_THRESHOLD);
        let batch = csta.fmax_many(&ops);
        assert_eq!(batch, csta.fmax_serial(&ops), "parallel batch must equal the serial pass");
        for (op, f) in ops.iter().zip(&batch) {
            assert_eq!(*f, sta.fmax_mhz(*op), "corner {op:?} must match the reference");
        }
    }

    #[test]
    fn analyze_many_matches_per_point_analyses() {
        let lib = lib();
        let m = mixed_module(&lib);
        let sta = Sta::new(&m, &lib).unwrap();
        let csta = sta.compile();
        let points: Vec<(f64, OperatingPoint)> = [(500.0, 0.9), (1200.0, 0.7), (250.0, 1.2)]
            .map(|(p, v)| (p, OperatingPoint::at_voltage(v)))
            .into();
        let many = csta.analyze_many(&points);
        for (&(period, op), got) in points.iter().zip(&many) {
            assert_reports_identical(&sta.analyze_at(period, op), got);
        }
    }

    #[test]
    fn below_threshold_supply_degrades_identically() {
        // delay_scale is infinite at/below Vth: both analyzers must agree
        // on the degenerate report (fmax 0, infinite delay).
        let lib = lib();
        let m = mixed_module(&lib);
        let sta = Sta::new(&m, &lib).unwrap();
        let csta = sta.compile();
        let op = OperatingPoint::at_voltage(0.3);
        let r = sta.analyze_at(1000.0, op);
        let c = csta.analyze_at(1000.0, op);
        assert_eq!(r.max_delay_ps, c.max_delay_ps);
        assert_eq!(r.fmax_mhz, c.fmax_mhz);
    }

    /// A unit multiplier must leave the batch bit-identical to the
    /// plain corner pass, and per-sample results must equal sequential
    /// single-sample queries in order.
    #[test]
    fn unit_multiplier_is_bit_identical_to_fmax_many() {
        let lib = lib();
        let m = mixed_module(&lib);
        let csta = Sta::new(&m, &lib).unwrap().compile();
        let ops: Vec<OperatingPoint> = (0..(FMAX_PARALLEL_THRESHOLD + 5))
            .map(|i| OperatingPoint::at_voltage(0.55 + 0.01 * i as f64))
            .collect();
        let unit: Vec<(OperatingPoint, f64)> = ops.iter().map(|&op| (op, 1.0)).collect();
        assert_eq!(csta.fmax_many_scaled(&unit), csta.fmax_many(&ops));
    }

    #[test]
    fn fmax_distribution_equals_sequential_single_sample_queries() {
        let lib = lib();
        let m = mixed_module(&lib);
        let csta = Sta::new(&m, &lib).unwrap().compile();
        let op = OperatingPoint::at_voltage(0.85);
        let scales = crate::VariationModel::gaussian(0.08).sample(0xD1E, 64);
        let batch = csta.fmax_distribution(op, &scales);
        for (l, &s) in scales.iter().enumerate() {
            assert_eq!(batch[l], csta.fmax_many_scaled(&[(op, s)])[0], "lane {l}");
        }
        // Slower dies (larger multipliers) can never be faster.
        for (l, &s) in scales.iter().enumerate() {
            if s > 1.0 {
                assert!(batch[l] <= csta.fmax_mhz(op), "lane {l}");
            }
        }
    }

    /// Sub-Vth corners degrade to fmax 0 instead of panicking, with or
    /// without a variation multiplier.
    #[test]
    fn scaled_sub_threshold_corner_degrades_gracefully() {
        let lib = lib();
        let m = mixed_module(&lib);
        let csta = Sta::new(&m, &lib).unwrap().compile();
        let op = OperatingPoint::at_voltage(0.3);
        assert_eq!(csta.fmax_many_scaled(&[(op, 0.9), (op, 1.1)]), vec![0.0, 0.0]);
    }

    #[test]
    fn critical_groups_match_reference() {
        let lib = lib();
        let m = mixed_module(&lib);
        let sta = Sta::new(&m, &lib).unwrap();
        let csta = sta.compile();
        let op = OperatingPoint::at_voltage(0.9);
        assert_eq!(sta.analyze_at(700.0, op).critical_groups(), csta.analyze_at(700.0, op).critical_groups());
    }
}
