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
//!
//! Batched `f_max` queries run die-major. The arrival table holds one
//! `[f64; 8]` row per net, one corner per lane, so each walk of the arc
//! columns serves eight corners, and every lane runs the scalar pass's
//! arithmetic in the scalar pass's order. The one difference is that the
//! scalar pass skips an arc whose input arrival is `−∞` (an unreached
//! net, e.g. a tie cell's output), while the lane pass applies the
//! select `if cand > d { cand } else { d }` to every arc. That changes
//! no bit: `−∞` plus a finite delay is `−∞`, `−∞` plus `+∞` (the delay
//! at a sub-threshold scale) is NaN, and neither compares greater than
//! any arrival, so the arrival keeps its value exactly as if the arc had
//! been skipped. The endpoint reduction's skip of unreached endpoints
//! becomes the same select for the same reason.
//!
//! A batch of more than 64 corners, the size that fans out across
//! cores, first prunes the program to its scale window `[lo, hi]`, the
//! smallest and largest total delay scale in the batch. The pruning is
//! exact. Take every scale finite and every arc base, launch base and
//! setup time finite and `≥ 0`. Then every candidate
//! `a_in + (base · s + wire)`, every arrival and every endpoint total is
//! non-decreasing in the scale `s`: the exact real values are, and
//! IEEE-754 round-to-nearest is monotone, so rounding keeps their order.
//! (A NaN only arises as `−∞ + ∞` on an unreached net, and never wins.)
//! One lane pass gives every net's arrival at `lo` and at `hi`. If an
//! arc's candidate at `hi` is below its output net's arrival at `lo`,
//! the candidate stays strictly below that net's arrival at every scale
//! in the window. The same holds for an endpoint whose total at `hi` is
//! below the worst delay at `lo`. Every select keeps the first candidate
//! equal to the maximum. A candidate strictly below the maximum is never
//! that one, so dropping it changes no bit. A reverse walk over the
//! levelized arcs drops such endpoints and arcs, and with them the arcs
//! that feed only dropped nets; ties are kept. The kept arcs hold the
//! winner of every select at every scale in the window. Their inputs are
//! kept nets, reproduced the same way, so every corner reads the full
//! program's bits. The full columns run when the argument does not
//! cover a batch: a `+∞` (sub-threshold) or NaN scale, or a negative or
//! non-finite base or setup. They also run for 64 corners or fewer,
//! where a prune costs more than it saves.

use syndcim_ir::{
    default_threads, net_loads_ff, parallel_map, parallel_map_threads, split_lengths, Lowering, Symbols,
    OVERLAP_MIN_INSTANCES,
};
use syndcim_netlist::{InstId, Module};
use syndcim_pdk::{CellLibrary, OperatingPoint, Process};
use syndcim_telemetry as telemetry;

use crate::{PathStep, Sta, TimingReport, WireLoads};

/// Sentinel for "no predecessor recorded" in the path-reconstruction
/// tables (the net is a primary input or unreached).
const NO_PRED: u32 = u32::MAX;

/// Corners per arrival row of the die-major `f_max` pass: one walk of
/// the arc columns serves this many corners.
const LANES: usize = 8;

/// Levelized instances per job of the arc emitter (fixed, so the jobs
/// never depend on the worker count).
const ARC_CHUNK: usize = 1 << 14;

/// Corners per `parallel_map` job of the batched `f_max` path (eight
/// lane passes sharing one row table); a batch this size or smaller
/// runs inline on the calling thread.
const FMAX_JOB: usize = 64;

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

/// The launch or arc (by index into its columns) that raised a net's
/// arrival in [`CompiledSta::propagate`].
#[derive(Debug, Clone, Copy)]
enum Winner {
    Launch(usize),
    Arc(usize),
}

/// Per-analysis scratch buffers: the predecessor tables, which batch
/// entry points allocate once per grid instead of once per point, and
/// the arrival table, which each report takes with it.
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

    /// The emitter both compile paths share: it counts the launch,
    /// endpoint and arc rows first, then fills presized
    /// struct-of-arrays columns from the per-net loads (`load_ff`) and
    /// unscaled wire delays.
    fn emit(
        low: &Lowering,
        module: &Module,
        lib: &CellLibrary,
        wire_delay_ps: &[f64],
        load_ff: &[f64],
    ) -> Self {
        let process = lib.process();

        let input_slots = module.input_ports().map(|p| p.net.index() as u32).collect();

        let (mut launches, mut seq_ends) = (0, 0);
        for inst in module.instances() {
            if lib.cell(inst.cell).seq.is_some() {
                launches += 1;
                seq_ends += inst.inputs.len();
            }
        }
        let mut launch_slot = Vec::with_capacity(launches);
        let mut launch_base_ps = Vec::with_capacity(launches);
        let mut launch_wire_ps = Vec::with_capacity(launches);
        let mut launch_inst = Vec::with_capacity(launches);
        let mut seq_end_slot = Vec::with_capacity(seq_ends);
        let mut seq_end_setup_ps = Vec::with_capacity(seq_ends);
        for (i, inst) in module.instances().enumerate() {
            let cell = lib.cell(inst.cell);
            let Some(seq) = cell.seq else { continue };
            let qnet = inst.outputs[0];
            launch_slot.push(qnet.index() as u32);
            launch_base_ps.push(seq.clk_to_q_ps);
            launch_wire_ps.push(wire_delay_ps[qnet.index()]);
            launch_inst.push(i as u32);
            for &dnet in inst.inputs {
                seq_end_slot.push(dnet.index() as u32);
                seq_end_setup_ps.push(seq.setup_ps);
            }
        }

        // Arc rows per fixed chunk of the levelized order. A row depends
        // only on its own instance, so above the overlap gate the chunks
        // fill their rows of the columns in parallel, with the same
        // result.
        let arcs_of_cell: Vec<usize> = lib.cells().iter().map(|c| c.arcs.len()).collect();
        let chunks: Vec<&[InstId]> = low.order().chunks(ARC_CHUNK).collect();
        let rows: Vec<usize> = chunks
            .iter()
            .map(|ids| ids.iter().map(|&id| arcs_of_cell[module.instance(id).cell.index()]).sum())
            .collect();
        let arcs = rows.iter().sum();
        let mut arc_src = vec![0u32; arcs];
        let mut arc_dst = vec![0u32; arcs];
        let mut arc_base_ps = vec![0.0f64; arcs];
        let mut arc_wire_ps = vec![0.0f64; arcs];
        let mut arc_inst = vec![0u32; arcs];
        let jobs: Vec<_> = chunks
            .into_iter()
            .zip(split_lengths(&mut arc_src, rows.iter().copied()))
            .zip(split_lengths(&mut arc_dst, rows.iter().copied()))
            .zip(split_lengths(&mut arc_base_ps, rows.iter().copied()))
            .zip(split_lengths(&mut arc_wire_ps, rows.iter().copied()))
            .zip(split_lengths(&mut arc_inst, rows.iter().copied()))
            .collect();
        let threads =
            if module.instance_count() >= OVERLAP_MIN_INSTANCES { default_threads(jobs.len()) } else { 1 };
        parallel_map_threads(jobs, threads, |_, (((((ids, src), dst), base), wire), arc_inst)| {
            let mut k = 0;
            for &id in ids {
                let inst = module.instance(id);
                let cell = lib.cell(inst.cell);
                for arc in &cell.arcs {
                    let in_net = inst.inputs[arc.from_input];
                    let out_net = inst.outputs[arc.to_output];
                    src[k] = in_net.index() as u32;
                    dst[k] = out_net.index() as u32;
                    base[k] = cell.arc_delay_ps(arc, process.tau_ps, load_ff[out_net.index()]);
                    wire[k] = wire_delay_ps[out_net.index()];
                    arc_inst[k] = id.index() as u32;
                    k += 1;
                }
            }
        });

        let port_end_slot = module.output_ports().map(|p| p.net.index() as u32).collect();

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
    /// [`Sta::fmax_mhz`]). The same arrival pass as
    /// [`CompiledSta::analyze_at`], arc for arc, without the
    /// predecessor tables and the critical path only a report needs.
    pub fn fmax_mhz(&self, op: OperatingPoint) -> f64 {
        let scale = op.delay_scale(&self.process);
        // `propagate` fills every entry first.
        let mut arrival = vec![0.0; self.net_count];
        self.propagate(scale, &mut arrival, |_, _| {});
        fmax_from_delay(self.reduce_endpoints(scale, &arrival).0)
    }

    /// `f_max` in MHz at each operating point of a batch, in corner
    /// order.
    ///
    /// This is the shmoo/search fast path: no predecessor tracking and
    /// no path reconstruction, and corners run die-major, so one walk of
    /// the arc columns serves eight corners (the module docs say why
    /// that changes no bit). The values are identical to per-point
    /// [`CompiledSta::fmax_mhz`] calls. Batches of more than 64 corners
    /// fan out across cores in 64-corner jobs and walk only the arcs
    /// that can set some corner's `f_max` in the batch's scale window
    /// (the module docs prove that exact); a corner's value does not
    /// depend on its job, its lane or its neighbours (pinned by tests
    /// here, in `tests/sta_compiled_differential.rs` and by the shmoo
    /// regression suite).
    pub fn fmax_many(&self, ops: &[OperatingPoint]) -> Vec<f64> {
        telemetry::span!("sta.fmax_many");
        let scales: Vec<f64> = ops.iter().map(|op| op.delay_scale(&self.process)).collect();
        self.fmax_batch(&scales)
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
    /// shmoo run. The batch runs on the same die-major pass, jobs and
    /// window prune as `fmax_many`.
    pub fn fmax_many_scaled(&self, points: &[(OperatingPoint, f64)]) -> Vec<f64> {
        telemetry::span!("sta.fmax_many_scaled");
        let scales: Vec<f64> =
            points.iter().map(|&(op, mult)| op.delay_scale(&self.process) * mult).collect();
        self.fmax_batch(&scales)
    }

    /// `f_max` of every Monte-Carlo sample at one operating point:
    /// `lane_scales[l]` is lane `l`'s gate-delay multiplier (drawn from
    /// a [`crate::VariationModel`]), and entry `l` of the result is
    /// that virtual die's `f_max`. A thin lane-indexed veneer over
    /// [`CompiledSta::fmax_many_scaled`]: eight dies share each arc
    /// pass, and a spread of more than 64 dies walks only the arcs that
    /// can time some die in its narrow scale window (a few percent of
    /// the paper chip's).
    pub fn fmax_distribution(&self, op: OperatingPoint, lane_scales: &[f64]) -> Vec<f64> {
        let points: Vec<(OperatingPoint, f64)> = lane_scales.iter().map(|&s| (op, s)).collect();
        self.fmax_many_scaled(&points)
    }

    /// The batch behind every `fmax_many*` entry point, one total delay
    /// scale per corner: 64-corner jobs, inline when there is only one.
    /// A fanned-out batch walks its window-pruned program when
    /// [`CompiledSta::prune`] finds one, the full columns otherwise.
    fn fmax_batch(&self, scales: &[f64]) -> Vec<f64> {
        telemetry::counter("sta.fmax_batches").incr();
        telemetry::counter("sta.fmax_points").add(scales.len() as u64);
        // Jobs hold whole lane groups except the last, so a batch takes
        // one arc pass per eight corners, rounded up.
        telemetry::counter("sta.fmax_lane_passes").add(scales.len().div_ceil(LANES) as u64);
        let start = telemetry::enabled().then(std::time::Instant::now);
        let pruned = (scales.len() > FMAX_JOB).then(|| self.prune(scales)).flatten();
        let program = pruned.as_ref().map_or_else(|| self.lane_program(), Columns::view);
        telemetry::counter("sta.fmax_kept_arcs").add(program.arc_src.len() as u64);
        let out = if scales.len() <= FMAX_JOB {
            program.fmax_job(scales)
        } else {
            let jobs: Vec<&[f64]> = scales.chunks(FMAX_JOB).collect();
            parallel_map(jobs, |_, job| program.fmax_job(job)).into_iter().flatten().collect()
        };
        if let Some(t) = start {
            telemetry::histogram("sta.fmax_batch_ns").record(t.elapsed());
        }
        out
    }

    /// The full compiled columns as a lane-pass program over one row
    /// per net.
    fn lane_program(&self) -> LaneProgram<'_> {
        Columns {
            rows: self.net_count,
            input_row: &self.input_slots,
            launch_row: &self.launch_slot,
            launch_base_ps: &self.launch_base_ps,
            launch_wire_ps: &self.launch_wire_ps,
            arc_src: &self.arc_src,
            arc_dst: &self.arc_dst,
            arc_base_ps: &self.arc_base_ps,
            arc_wire_ps: &self.arc_wire_ps,
            port_end_row: &self.port_end_slot,
            seq_end_row: &self.seq_end_slot,
            seq_end_setup_ps: &self.seq_end_setup_ps,
        }
    }

    /// The program restricted to the elements that can set some
    /// corner's `f_max` when every total delay scale lies in the
    /// batch's window `[lo, hi]`, or `None` when the pruning would not
    /// be exact (a non-finite scale; a negative or non-finite base delay
    /// or setup time) and the full columns must run. The module docs
    /// prove the kept program bit-identical to the full one.
    ///
    /// One lane pass gives every net's arrival at both ends of the
    /// window. A reverse walk then keeps an endpoint whose total at `hi`
    /// reaches the worst delay at `lo`, and an arc (or launch) whose
    /// output net is kept and whose candidate at `hi` reaches that net's
    /// arrival at `lo`, ties kept. Arcs are levelized, so every reader
    /// of a net has been visited before the walk reaches its writers.
    /// Kept elements stay in their original order; kept nets are
    /// renumbered onto dense rows in slot order.
    fn prune(&self, scales: &[f64]) -> Option<Columns<Vec<u32>, Vec<f64>>> {
        let finite_non_negative = |v: &[f64]| v.iter().all(|&x| x.is_finite() && x >= 0.0);
        let exact = scales.iter().all(|s| s.is_finite())
            && finite_non_negative(&self.arc_base_ps)
            && finite_non_negative(&self.launch_base_ps)
            && finite_non_negative(&self.seq_end_setup_ps);
        if !exact {
            return None;
        }
        let lo = scales.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = scales.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        // Lane 0 runs at `lo`, every other lane at `hi`.
        let full = self.lane_program();
        let mut scale = [hi; LANES];
        scale[0] = lo;
        let mut bound = vec![[f64::NEG_INFINITY; LANES]; self.net_count];
        full.propagate_lanes(&scale, &mut bound);
        let worst_lo = full.reduce_endpoints_lanes(&scale, &bound)[0];
        let at_lo = |slot: u32| bound[slot as usize][0];
        let at_hi = |slot: u32| bound[slot as usize][1];

        let ports: Vec<usize> =
            (0..self.port_end_slot.len()).filter(|&k| at_hi(self.port_end_slot[k]) >= worst_lo).collect();
        let seqs: Vec<usize> = (0..self.seq_end_slot.len())
            .filter(|&k| at_hi(self.seq_end_slot[k]) + self.seq_end_setup_ps[k] * hi >= worst_lo)
            .collect();
        let mut kept = vec![false; self.net_count];
        for &k in &ports {
            kept[self.port_end_slot[k] as usize] = true;
        }
        for &k in &seqs {
            kept[self.seq_end_slot[k] as usize] = true;
        }
        let mut arcs = Vec::new();
        for k in (0..self.arc_count()).rev() {
            let (src, dst) = (self.arc_src[k], self.arc_dst[k]);
            let cand_hi = at_hi(src) + (self.arc_base_ps[k] * hi + self.arc_wire_ps[k]);
            if kept[dst as usize] && cand_hi >= at_lo(dst) {
                kept[src as usize] = true;
                arcs.push(k);
            }
        }
        arcs.reverse();
        let launches: Vec<usize> = (0..self.launch_slot.len())
            .filter(|&k| {
                let q = self.launch_slot[k];
                kept[q as usize] && self.launch_base_ps[k] * hi + self.launch_wire_ps[k] >= at_lo(q)
            })
            .collect();

        let mut row = vec![u32::MAX; self.net_count];
        let mut rows = 0;
        for (r, _) in row.iter_mut().zip(&kept).filter(|(_, &k)| k) {
            *r = rows;
            rows += 1;
        }
        let inputs: Vec<usize> =
            (0..self.input_slots.len()).filter(|&k| kept[self.input_slots[k] as usize]).collect();
        let rows_of =
            |slots: &[u32], picks: &[usize]| picks.iter().map(|&k| row[slots[k] as usize]).collect();
        let values = |v: &[f64], picks: &[usize]| picks.iter().map(|&k| v[k]).collect();
        Some(Columns {
            rows: rows as usize,
            input_row: rows_of(&self.input_slots, &inputs),
            launch_row: rows_of(&self.launch_slot, &launches),
            launch_base_ps: values(&self.launch_base_ps, &launches),
            launch_wire_ps: values(&self.launch_wire_ps, &launches),
            arc_src: rows_of(&self.arc_src, &arcs),
            arc_dst: rows_of(&self.arc_dst, &arcs),
            arc_base_ps: values(&self.arc_base_ps, &arcs),
            arc_wire_ps: values(&self.arc_wire_ps, &arcs),
            port_end_row: rows_of(&self.port_end_slot, &ports),
            seq_end_row: rows_of(&self.seq_end_slot, &seqs),
            seq_end_setup_ps: values(&self.seq_end_setup_ps, &seqs),
        })
    }

    /// One full analysis into caller-provided scratch space.
    fn analyze_into(&self, period_ps: f64, op: OperatingPoint, scratch: &mut Scratch) -> TimingReport {
        let scale = op.delay_scale(&self.process);
        scratch.arrival.resize(self.net_count, f64::NEG_INFINITY);
        scratch.pred_inst.clear();
        scratch.pred_inst.resize(self.net_count, NO_PRED);
        scratch.pred_from.clear();
        scratch.pred_from.resize(self.net_count, 0);

        self.propagate_paths(scale, &mut scratch.arrival, &mut scratch.pred_inst, &mut scratch.pred_from);
        let (max_delay, worst_slot) = self.reduce_endpoints(scale, &scratch.arrival);

        let critical_path = worst_slot
            .map(|w| self.walk_path(w, &scratch.arrival, &scratch.pred_inst, &scratch.pred_from))
            .unwrap_or_default();
        let fmax_mhz = fmax_from_delay(max_delay);
        TimingReport {
            arrival_ps: std::mem::take(&mut scratch.arrival),
            max_delay_ps: max_delay,
            wns_ps: period_ps - max_delay,
            fmax_mhz,
            critical_path,
            period_ps,
        }
    }

    /// Forward arrival propagation at one corner: launches, then the
    /// levelized arc stream. `won(net, winner)` sees every launch or arc
    /// that raises a net's arrival, in pass order. The die-major
    /// `propagate_lanes` is pinned to this pass.
    fn propagate(&self, scale: f64, arrival: &mut [f64], mut won: impl FnMut(usize, Winner)) {
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
                won(q, Winner::Launch(k));
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
                won(dst, Winner::Arc(k));
            }
        }
    }

    /// [`CompiledSta::propagate`], with the predecessor tables recording
    /// the winning launch or arc per net for path reconstruction.
    fn propagate_paths(&self, scale: f64, arrival: &mut [f64], pred_inst: &mut [u32], pred_from: &mut [u32]) {
        self.propagate(scale, arrival, |net, winner| {
            (pred_inst[net], pred_from[net]) = match winner {
                // from == self: launch point
                Winner::Launch(k) => (self.launch_inst[k], self.launch_slot[k]),
                Winner::Arc(k) => (self.arc_inst[k], self.arc_src[k]),
            };
        });
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

/// The columns the die-major lane pass walks over `rows` arrival rows:
/// input rows, launches, arcs and endpoints, each in compiled order.
/// `U` and `F` are the storage: slices for a pass ([`LaneProgram`]),
/// vectors for a window-pruned copy ([`CompiledSta::prune`]).
struct Columns<U, F> {
    rows: usize,
    input_row: U,
    launch_row: U,
    launch_base_ps: F,
    launch_wire_ps: F,
    arc_src: U,
    arc_dst: U,
    arc_base_ps: F,
    arc_wire_ps: F,
    port_end_row: U,
    seq_end_row: U,
    seq_end_setup_ps: F,
}

/// A borrowed lane-pass program: the full compiled columns or a pruned
/// copy of them.
type LaneProgram<'a> = Columns<&'a [u32], &'a [f64]>;

impl Columns<Vec<u32>, Vec<f64>> {
    fn view(&self) -> LaneProgram<'_> {
        Columns {
            rows: self.rows,
            input_row: &self.input_row,
            launch_row: &self.launch_row,
            launch_base_ps: &self.launch_base_ps,
            launch_wire_ps: &self.launch_wire_ps,
            arc_src: &self.arc_src,
            arc_dst: &self.arc_dst,
            arc_base_ps: &self.arc_base_ps,
            arc_wire_ps: &self.arc_wire_ps,
            port_end_row: &self.port_end_row,
            seq_end_row: &self.seq_end_row,
            seq_end_setup_ps: &self.seq_end_setup_ps,
        }
    }
}

impl LaneProgram<'_> {
    /// One job: lane groups of eight corners over one row table. The
    /// last group pads with scale 1.0 and drops those lanes.
    fn fmax_job(&self, scales: &[f64]) -> Vec<f64> {
        let mut arrival = vec![[f64::NEG_INFINITY; LANES]; self.rows];
        let mut out = Vec::with_capacity(scales.len());
        for group in scales.chunks(LANES) {
            let mut scale = [1.0; LANES];
            scale[..group.len()].copy_from_slice(group);
            self.propagate_lanes(&scale, &mut arrival);
            let max_delay = self.reduce_endpoints_lanes(&scale, &arrival);
            out.extend(max_delay[..group.len()].iter().map(|&d| fmax_from_delay(d)));
        }
        out
    }

    /// `CompiledSta::propagate` for eight corners at once, without
    /// predecessor tracking: row `r` of `arrival` holds the arrival of
    /// the net on row `r` in every lane. The unreached-input skip is the
    /// `later` select, which the module docs show to be exact.
    fn propagate_lanes(&self, scale: &[f64; LANES], arrival: &mut [[f64; LANES]]) {
        arrival.fill([f64::NEG_INFINITY; LANES]);
        for &r in self.input_row {
            arrival[r as usize] = [0.0; LANES];
        }

        let launches = self.launch_row.iter().zip(self.launch_base_ps).zip(self.launch_wire_ps);
        for ((&r, &base), &wire) in launches {
            let q = &mut arrival[r as usize];
            for (d, &s) in q.iter_mut().zip(scale) {
                *d = later(base * s + wire, *d);
            }
        }

        let arcs = self.arc_src.iter().zip(self.arc_dst).zip(self.arc_base_ps).zip(self.arc_wire_ps);
        for (((&src, &dst), &base), &wire) in arcs {
            let a_in = arrival[src as usize];
            let row = &mut arrival[dst as usize];
            for ((d, &a), &s) in row.iter_mut().zip(&a_in).zip(scale) {
                *d = later(a + (base * s + wire), *d);
            }
        }
    }

    /// `CompiledSta::reduce_endpoints` for eight corners at once,
    /// without the worst slot: the worst total delay of every lane.
    fn reduce_endpoints_lanes(&self, scale: &[f64; LANES], arrival: &[[f64; LANES]]) -> [f64; LANES] {
        let mut max_delay = [0.0f64; LANES];
        for &r in self.port_end_row {
            for (m, &a) in max_delay.iter_mut().zip(&arrival[r as usize]) {
                *m = later(a, *m);
            }
        }
        for (&r, &setup) in self.seq_end_row.iter().zip(self.seq_end_setup_ps) {
            for ((m, &a), &sc) in max_delay.iter_mut().zip(&arrival[r as usize]).zip(scale) {
                *m = later(a + setup * sc, *m);
            }
        }
        max_delay
    }
}

/// The scalar pass's update rule as a select: `cand` if it is strictly
/// later than `cur`, else `cur`. A NaN or `−∞` candidate never wins.
#[inline(always)]
fn later(cand: f64, cur: f64) -> f64 {
    if cand > cur {
        cand
    } else {
        cur
    }
}

/// `f_max` in MHz for a worst total delay (infinite when no path is
/// timed, zero when the delay is infinite).
fn fmax_from_delay(max_delay: f64) -> f64 {
    if max_delay > 0.0 {
        1e6 / max_delay
    } else {
        f64::INFINITY
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

    /// Distinct, reproducible wire caps and delays for every net.
    fn synthetic_wires(m: &Module) -> WireLoads {
        let mut wires = WireLoads::zero(m.net_count());
        for (i, c) in wires.cap_ff.iter_mut().enumerate() {
            *c = (i % 7) as f64 * 3.5;
        }
        for (i, d) in wires.delay_ps.iter_mut().enumerate() {
            *d = (i % 5) as f64 * 11.0;
        }
        wires
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
        let sta = Sta::new(&m, &lib).unwrap().with_wire_loads(synthetic_wires(&m));
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

    /// The scalar oracle of the die-major pass: one tracking `propagate`
    /// plus `reduce_endpoints` per total delay scale.
    fn scalar_fmax(csta: &CompiledSta, scales: &[f64]) -> Vec<f64> {
        let n = csta.net_count;
        let (mut arrival, mut pred_inst, mut pred_from) = (vec![0.0; n], vec![NO_PRED; n], vec![0; n]);
        scales
            .iter()
            .map(|&scale| {
                csta.propagate_paths(scale, &mut arrival, &mut pred_inst, &mut pred_from);
                fmax_from_delay(csta.reduce_endpoints(scale, &arrival).0)
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Total delay scale of each die multiplier at `op`.
    fn total_scales(csta: &CompiledSta, op: OperatingPoint, mults: &[f64]) -> Vec<f64> {
        mults.iter().map(|&m| op.delay_scale(&csta.process) * m).collect()
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
        let ops: Vec<OperatingPoint> =
            (0..(FMAX_JOB + 3)).map(|i| OperatingPoint::at_voltage(0.55 + 0.01 * i as f64)).collect();
        assert!(ops.len() > FMAX_JOB);
        let batch = csta.fmax_many(&ops);
        let scales: Vec<f64> = ops.iter().map(|op| op.delay_scale(&csta.process)).collect();
        assert_eq!(batch, scalar_fmax(&csta, &scales), "parallel batch must equal the serial pass");
        for (op, f) in ops.iter().zip(&batch) {
            assert_eq!(*f, sta.fmax_mhz(*op), "corner {op:?} must match the reference");
        }
    }

    /// The lane pass equals the scalar pass bit for bit at every batch
    /// shape: one die, a ragged group, a full group, a group plus one, a
    /// full job, a job plus one (the first job seam) and 2,051 dies (32
    /// full jobs and a three-die tail), with and without wire delays.
    #[test]
    fn lane_pass_is_bit_identical_to_scalar_pass_at_ragged_batch_sizes() {
        let lib = lib();
        let m = mixed_module(&lib);
        let op = OperatingPoint::at_voltage(0.85);
        for wires in [WireLoads::zero(m.net_count()), synthetic_wires(&m)] {
            let csta = Sta::new(&m, &lib).unwrap().with_wire_loads(wires).compile();
            for n in [1, 7, 8, 9, 64, 65, 2051] {
                let mults = crate::VariationModel::gaussian(0.08).sample(n as u64, n);
                let got = csta.fmax_distribution(op, &mults);
                let want = scalar_fmax(&csta, &total_scales(&csta, op, &mults));
                assert_eq!(bits(&got), bits(&want), "{n} dies");
            }
        }
    }

    /// A lane group mixing sub-threshold lanes (`+∞` scale) with normal
    /// ones: every lane's arrival column and worst delay equal the
    /// scalar pass bit for bit. The AND2 fed by `const1` makes the
    /// `−∞ + ∞ = NaN` candidate real in the `+∞` lanes, and it must lose.
    #[test]
    fn sub_threshold_lanes_mix_bit_identically_with_normal_lanes() {
        let lib = lib();
        let m = mixed_module(&lib);
        let csta = Sta::new(&m, &lib).unwrap().compile();
        let (dead, live) = (OperatingPoint::at_voltage(0.3), OperatingPoint::at_voltage(0.85));
        let points =
            [(dead, 1.0), (live, 0.9), (live, 1.0), (dead, 0.7), (live, 1.3), (dead, 1.2), (live, 2.5)];
        let scales: Vec<f64> = points.iter().map(|&(op, m)| op.delay_scale(&csta.process) * m).collect();
        assert_eq!(scales.iter().filter(|s| s.is_infinite()).count(), 3);

        let mut lanes = [1.0; LANES];
        lanes[..scales.len()].copy_from_slice(&scales);
        let mut rows = vec![[0.0; LANES]; csta.net_count];
        csta.lane_program().propagate_lanes(&lanes, &mut rows);
        let max_delay = csta.lane_program().reduce_endpoints_lanes(&lanes, &rows);
        let n = csta.net_count;
        let (mut arrival, mut pred_inst, mut pred_from) = (vec![0.0; n], vec![NO_PRED; n], vec![0; n]);
        for (l, &s) in lanes.iter().enumerate() {
            csta.propagate_paths(s, &mut arrival, &mut pred_inst, &mut pred_from);
            let column: Vec<f64> = rows.iter().map(|r| r[l]).collect();
            assert_eq!(bits(&column), bits(&arrival), "lane {l} arrivals");
            assert_eq!(max_delay[l].to_bits(), csta.reduce_endpoints(s, &arrival).0.to_bits(), "lane {l}");
        }
        let nan_candidate = (0..csta.arc_count()).any(|k| {
            let a_in = rows[csta.arc_src[k] as usize][0];
            a_in == f64::NEG_INFINITY
                && (a_in + (csta.arc_base_ps[k] * lanes[0] + csta.arc_wire_ps[k])).is_nan()
        });
        assert!(nan_candidate, "some arc must read an unreached input at an infinite delay");

        let got = csta.fmax_many_scaled(&points);
        assert_eq!(bits(&got), bits(&scalar_fmax(&csta, &scales)));
        for (l, &(op, _)) in points.iter().enumerate() {
            assert_eq!(got[l] == 0.0, op == dead, "lane {l}: sub-threshold dies, and only they, read 0");
        }
    }

    /// One distinctive die moved through every lane position of two
    /// groups reads the same `f_max` wherever it sits, and its
    /// neighbours keep their scalar values.
    #[test]
    fn a_die_reads_the_same_in_every_lane_position() {
        let lib = lib();
        let m = mixed_module(&lib);
        let csta = Sta::new(&m, &lib).unwrap().compile();
        let op = OperatingPoint::at_voltage(0.85);
        let background = crate::VariationModel::gaussian(0.08).sample(0x1A4E, 2 * LANES);
        let probe = 1.37;
        let alone = csta.fmax_distribution(op, &[probe])[0];
        for pos in 0..background.len() {
            let mut mults = background.clone();
            mults[pos] = probe;
            let got = csta.fmax_distribution(op, &mults);
            assert_eq!(bits(&got), bits(&scalar_fmax(&csta, &total_scales(&csta, op, &mults))), "lane {pos}");
            assert_eq!(got[pos].to_bits(), alone.to_bits(), "lane {pos}");
        }
    }

    /// Two paths from input `a`: ten inverters with no wire delay, and
    /// one buffer driving a wire as slow as the inverters' lead over the
    /// buffer at `op`. Gate delay scales with the die and wire delay
    /// does not, so fast dies are timed through the wire and slow ones
    /// through the inverters. A one-inverter branch `short` is dominated
    /// at every scale. With `reconverge` the two paths meet in an AND2
    /// (the order flips between two arcs), which meets `short` in a
    /// second AND2 driving the only output. Otherwise each of the three
    /// drives an output port and a register's data pin, whose output
    /// nobody reads (the order flips between endpoints of both kinds).
    /// Returns the program, the slots of the inverters' output and of the
    /// wire, and the slots the prune must drop.
    fn crossover_program(
        lib: &CellLibrary,
        op: OperatingPoint,
        reconverge: bool,
    ) -> (CompiledSta, [u32; 2], Vec<u32>) {
        let mut b = NetlistBuilder::new("cross", lib);
        let a = b.input("a");
        let mut gates = a;
        for _ in 0..10 {
            gates = b.not(gates);
        }
        let wire = b.buf(a);
        let short = b.not(a);
        let mut dropped = vec![short];
        if reconverge {
            let z = b.and2(gates, wire);
            let y = b.and2(z, short);
            b.output("y", y);
        } else {
            for (name, net) in [("g", gates), ("w", wire), ("s", short)] {
                b.output(name, net);
                dropped.push(b.dff(net));
            }
        }
        let m = b.finish();
        let sta = Sta::new(&m, lib).unwrap();
        let nominal = sta.analyze_at(1.0, op).arrival_ps;
        let mut wires = WireLoads::zero(m.net_count());
        wires.delay_ps[wire.index()] = nominal[gates.index()] - nominal[wire.index()];
        let slot = |n: syndcim_netlist::NetId| n.index() as u32;
        (
            sta.with_wire_loads(wires).compile(),
            [slot(gates), slot(wire)],
            dropped.into_iter().map(slot).collect(),
        )
    }

    /// Paths whose order flips inside a fanned-out batch's scale window
    /// both survive the prune, whether they meet in a gate or end on
    /// endpoints: it drops exactly the dominated branch and the unread
    /// register outputs, and dies on both sides of the crossover read the
    /// scalar pass's bits.
    #[test]
    fn paths_that_trade_places_inside_the_window_are_both_kept() {
        let lib = lib();
        let op = OperatingPoint::at_voltage(0.85);
        let mults: Vec<f64> = (0..99).map(|i| 0.7 + 0.6 * f64::from(i) / 98.0).collect();
        for reconverge in [true, false] {
            let (csta, [gates, wire], dropped) = crossover_program(&lib, op, reconverge);
            let scales = total_scales(&csta, op, &mults);

            // Walk back from a die's worst endpoint to the path it took.
            let n = csta.net_count;
            let (mut arrival, mut pred_inst, mut pred_from) = (vec![0.0; n], vec![NO_PRED; n], vec![0; n]);
            let mut timed_through = |scale: f64| {
                csta.propagate_paths(scale, &mut arrival, &mut pred_inst, &mut pred_from);
                let mut net = csta.reduce_endpoints(scale, &arrival).1.unwrap();
                while net != gates && net != wire {
                    net = pred_from[net as usize];
                }
                net
            };
            assert_eq!(timed_through(scales[0]), wire, "the fastest die is timed through the wire");
            assert_eq!(timed_through(scales[98]), gates, "the slowest die is timed through the inverters");

            let pruned = csta.prune(&scales).expect("finite scales and delays prune");
            let live = |s: u32| !dropped.contains(&s);
            let row = |s: u32| s - dropped.iter().filter(|&&d| d < s).count() as u32;
            let rows =
                |slots: &[u32], keep: &[usize]| keep.iter().map(|&k| row(slots[k])).collect::<Vec<_>>();
            let pick = |v: &[f64], keep: &[usize]| keep.iter().map(|&k| v[k].to_bits()).collect::<Vec<_>>();
            let live_of = |slots: &[u32]| (0..slots.len()).filter(|&k| live(slots[k])).collect::<Vec<_>>();
            let arcs: Vec<usize> =
                (0..csta.arc_count()).filter(|&k| live(csta.arc_src[k]) && live(csta.arc_dst[k])).collect();
            let (launches, ports, seqs) =
                (live_of(&csta.launch_slot), live_of(&csta.port_end_slot), live_of(&csta.seq_end_slot));
            assert_eq!(pruned.rows, n - dropped.len());
            assert_eq!(pruned.arc_src, rows(&csta.arc_src, &arcs));
            assert_eq!(pruned.arc_dst, rows(&csta.arc_dst, &arcs));
            assert_eq!(bits(&pruned.arc_base_ps), pick(&csta.arc_base_ps, &arcs));
            assert_eq!(bits(&pruned.arc_wire_ps), pick(&csta.arc_wire_ps, &arcs));
            assert_eq!(pruned.launch_row, rows(&csta.launch_slot, &launches));
            assert_eq!(pruned.port_end_row, rows(&csta.port_end_slot, &ports));
            assert_eq!(pruned.seq_end_row, rows(&csta.seq_end_slot, &seqs));

            assert_eq!(bits(&csta.fmax_distribution(op, &mults)), bits(&scalar_fmax(&csta, &scales)));
        }
    }

    /// A zero-variation spread is a window of zero width, where every
    /// winning candidate ties the arrival it sets: the prune keeps ties,
    /// so every die reads the nominal corner's bits.
    #[test]
    fn a_zero_width_window_keeps_its_tied_winners() {
        let lib = lib();
        let m = mixed_module(&lib);
        let csta = Sta::new(&m, &lib).unwrap().with_wire_loads(synthetic_wires(&m)).compile();
        let op = OperatingPoint::at_voltage(0.85);
        let dies = crate::VariationModel::gaussian(0.0).sample(1, FMAX_JOB + 1);
        assert!(csta.prune(&total_scales(&csta, op, &dies)).is_some());
        let nominal = csta.fmax_mhz(op).to_bits();
        assert!(csta.fmax_distribution(op, &dies).iter().all(|f| f.to_bits() == nominal));
    }

    /// On the wire-annotated mixed module a fanned-out batch drops the
    /// branches that cannot set any die's `f_max`, and still reads the
    /// scalar pass's bits.
    #[test]
    fn dominated_branches_of_the_mixed_module_are_dropped() {
        let lib = lib();
        let m = mixed_module(&lib);
        let csta = Sta::new(&m, &lib).unwrap().with_wire_loads(synthetic_wires(&m)).compile();
        let op = OperatingPoint::at_voltage(0.85);
        let mults = crate::VariationModel::gaussian(0.05).sample(0xB0B, 2 * FMAX_JOB + 1);
        let scales = total_scales(&csta, op, &mults);
        let kept = csta.prune(&scales).expect("finite scales and delays prune").arc_src.len();
        assert!(kept < csta.arc_count(), "{kept} of {} arcs kept", csta.arc_count());
        assert_eq!(bits(&csta.fmax_distribution(op, &mults)), bits(&scalar_fmax(&csta, &scales)));
    }

    /// Fanned-out batches the prune cannot serve exactly — a `+∞`
    /// (sub-threshold) or NaN scale, or a negative arc base from a
    /// negative wire cap — run the full columns and stay bit-identical
    /// to the scalar pass.
    #[test]
    fn unprunable_batches_run_the_full_columns_bit_identically() {
        let lib = lib();
        let m = mixed_module(&lib);
        let (dead, live) = (OperatingPoint::at_voltage(0.3), OperatingPoint::at_voltage(0.85));
        let mults = crate::VariationModel::gaussian(0.08).sample(0xF00, FMAX_JOB + 9);
        let csta = Sta::new(&m, &lib).unwrap().compile();
        for (op, mult) in [(dead, 1.0), (live, f64::NAN)] {
            let mut points: Vec<(OperatingPoint, f64)> = mults.iter().map(|&s| (live, s)).collect();
            points[FMAX_JOB + 2] = (op, mult);
            let scales: Vec<f64> = points.iter().map(|&(op, m)| op.delay_scale(&csta.process) * m).collect();
            assert!(!scales[FMAX_JOB + 2].is_finite());
            assert!(csta.prune(&scales).is_none());
            assert_eq!(bits(&csta.fmax_many_scaled(&points)), bits(&scalar_fmax(&csta, &scales)));
        }

        let mut wires = synthetic_wires(&m);
        wires.cap_ff.fill(-60.0);
        let csta = Sta::new(&m, &lib).unwrap().with_wire_loads(wires).compile();
        assert!(csta.arc_base_ps.iter().any(|&b| b < 0.0), "a negative load makes a negative base");
        let scales = total_scales(&csta, live, &mults);
        assert!(csta.prune(&scales).is_none());
        assert_eq!(bits(&csta.fmax_distribution(live, &mults)), bits(&scalar_fmax(&csta, &scales)));
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
        let ops: Vec<OperatingPoint> =
            (0..(FMAX_JOB + 5)).map(|i| OperatingPoint::at_voltage(0.55 + 0.01 * i as f64)).collect();
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
