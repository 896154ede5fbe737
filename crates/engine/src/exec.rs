//! Bit-parallel execution of a compiled [`Program`].
//!
//! [`BatchExec`] is generic over its [`LaneWord`]: every slot holds one
//! word whose lane `l` is the logic value of one independent test
//! vector. The `u64` word (64 lanes) is the classic single-register hot
//! path; [`W256`] (`[u64; 4]`, 256 lanes) and [`W512`] (`[u64; 8]`, 512
//! lanes) multiply the vectors per pass on straight-line element-wise
//! code that LLVM lowers to whatever vector unit the pass is compiled
//! for. [`EngineSim`] picks the word at run time — the narrowest that
//! fits the lane count — and the frame its passes run in: the widest
//! detected ISA (overridable with `SYNDCIM_SIMD`, see
//! [`crate::SimdPolicy`]), so callers never pay the wide word for small
//! batches and never run a frame the CPU lacks.
//!
//! A settle is one linear pass over the op stream — no hash maps, no
//! per-cell dispatch through `Vec<bool>` buffers — and per-net toggles
//! accumulate as `popcount((prev ^ next) & lane_mask)`, which makes an
//! L-lane run report exactly the toggle totals of L separate interpreter
//! runs over the same per-lane stimulus, at any word width. An ISA
//! frame is one `#[target_feature]` method per pass and ISA: the pass
//! inlines into it down to the slot write, so the executor pays one
//! runtime branch per pass, never per op.
//!
//! # Activity-driven passes
//!
//! The program holds one op per cell and every op writes only nets (see
//! [`crate::program`]), so the executor keeps one slot per net and one
//! flag byte per net with two bits: *changed since the last settle* and
//! *changed since the last capture*. Every store that changes the word
//! in any lane, active or not, sets both bits. A settle evaluates an op
//! only if one of its input or output nets has the settle bit, then
//! clears every settle bit; output nets count so that a poke or a
//! stuck-at force on a gate output is still overwritten by the next
//! settle. A clock edge recaptures a state element only if its `in0`,
//! `in1` or `q` net has the capture bit, and clears every capture bit
//! before the commits write `q` (so a commit that changes `q` flags the
//! elements it feeds for the next edge). Checking flags costs about a
//! third of evaluating an op, so under stimulus that changes most nets
//! every cycle the checks cost more than they skip: after four settles
//! in a row that each evaluated at least five eighths of the ops, a
//! settle evaluates every op without checking, and every sixteenth
//! settle checks again to see whether the streak still holds.
//!
//! Skipping is exact. The op stream is levelized and each net has one
//! driver, so after every settle each op's outputs hold its function of
//! its inputs; an op none of whose nets changed would store the values
//! its outputs already hold, which flips no lane. A state element's
//! update `f(inputs, state)` is idempotent for all three rules
//! (`f(i, f(i, s)) = f(i, s)` for an edge, an enabled edge and a bitcell
//! write), and without faults an unflagged `q` equals the state, so a
//! skipped element would capture the state it already holds. Values,
//! toggle tables and per-lane toggles are therefore bit-identical to
//! evaluating everything. Fault masks void both premises — a masked
//! store need not be its op's function of its inputs, and a stuck `q`
//! need not equal the state — so nothing is skipped while a fault plan
//! is installed, and [`BatchExec::clear_faults`] flags every net, as
//! construction and [`BatchExec::load_image`] do.

use syndcim_netlist::{InstId, Module, NetId};
use syndcim_pdk::SeqUpdate;
use syndcim_sim::SimBackend;
use syndcim_telemetry as telemetry;

use crate::fault::{EngineError, FaultKind, FaultPlan};
use crate::program::{OpKind, Program};
use crate::simd::{SimdBackend, SimdPolicy};
use crate::word::{LaneWord, W256, W512};

/// Compiled form of an installed [`FaultPlan`]: dense per-net-slot
/// lane-mask tables consulted by every store in [`BatchExec::write`].
/// Only allocated when a non-empty plan is installed — the nominal path
/// carries a single predictable `Option` branch.
#[derive(Debug)]
struct FaultState<W> {
    /// Per-slot AND mask: stuck-at-0 lanes cleared, all others set.
    and: Vec<W>,
    /// Per-slot OR mask: stuck-at-1 lanes set.
    or: Vec<W>,
    /// Per-slot XOR mask: lanes of transient flips active *this* cycle.
    xor: Vec<W>,
    /// Pending transient flips `(cycle, net slot, lane)`, sorted by
    /// cycle; `next_flip` is the cursor of the first not-yet-activated
    /// entry.
    flips: Vec<(u64, u32, u32)>,
    next_flip: usize,
    /// Slots whose XOR mask is currently nonzero (this cycle's flips).
    active_xor: Vec<u32>,
    /// `step()` calls since the plan was installed.
    cycle: u64,
}

/// One lane's complete simulation state: its value on every net and in
/// every stored state, taken by
/// [`EngineSim::lane_image`] and broadcast to every lane of an executor
/// by [`EngineSim::load_image`]. Toggle counts are not part of it.
///
/// An image lets many executors start from one prepared state without
/// replaying the preparation: every lane is an independent simulation,
/// so a lane set to the image continues exactly as a lane that ran the
/// preparation itself would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneImage {
    slots: Vec<bool>,
    state: Vec<bool>,
}

/// Word-level batch executor over one compiled program, generic over
/// the lane word `W` (e.g. `BatchExec::<u64>::new`). Most callers use
/// the width- and frame-selecting [`EngineSim`].
#[derive(Debug)]
pub struct BatchExec<'a, W: LaneWord> {
    prog: &'a Program,
    module: &'a Module,
    /// Value word per net.
    slots: Vec<W>,
    /// Change flags per net: [`SETTLE`] and [`CAPTURE`] (module doc).
    flags: Vec<u8>,
    /// Stored state word per sequential element (dense commit order).
    state: Vec<W>,
    /// Next state per sequential element, valid for the elements in
    /// `captured`; both buffers are reused every step.
    next: Vec<W>,
    /// Elements the last clock edge captured, in commit order.
    captured: Vec<u32>,
    /// Settles in a row that evaluated at least [`DENSE_EIGHTHS`]/8 of
    /// the ops (see [`BatchExec::settle_pass`]).
    dense_streak: u32,
    /// Per-net toggle counts summed over active lanes.
    toggles: Vec<u64>,
    /// Optional per-lane toggle counts, `net * lanes + lane` — enabled
    /// by [`BatchExec::enable_lane_toggles`] for measurements that need
    /// per-lane energy attribution (e.g. write-energy variance).
    lane_toggles: Option<Vec<u64>>,
    /// Compiled fault-injection masks (`None` unless a non-empty
    /// [`FaultPlan`] is installed — the nominal write path pays one
    /// predictable branch, nothing else).
    faults: Option<Box<FaultState<W>>>,
    lanes: usize,
    mask: W,
    lane_cycles: u64,
    /// The frame every settle and capture/commit pass runs in. Only
    /// [`BatchExec::in_frame`] sets an ISA, after asserting
    /// [`SimdBackend::detected`].
    backend: SimdBackend,
    /// Cached telemetry handles, resolved once per executor so the
    /// settle hot path pays one relaxed atomic load per *pass* (never
    /// per op) when telemetry is off. Toggle and lane-cycle totals are
    /// flushed in bulk on [`BatchExec::reset_activity`]/drop instead of
    /// being counted per write — the per-op `write` path carries no
    /// instrumentation at all.
    ctr_settles: telemetry::Counter,
    ctr_ops: telemetry::Counter,
    ctr_ops_skipped: telemetry::Counter,
    ctr_captures_skipped: telemetry::Counter,
}

/// Flag bit: the net changed since the last settle.
const SETTLE: u8 = 1;
/// Flag bit: the net changed since the last clock edge's capture.
const CAPTURE: u8 = 2;
/// A settle that evaluates at least this many eighths of the ops is
/// dense: checking flags cost it more than skipping saved.
const DENSE_EIGHTHS: usize = 5;

impl<'a, W: LaneWord> BatchExec<'a, W> {
    /// Create an executor with `lanes` active lanes (`1..=W::LANES`).
    /// All nets and states start at logic 0 in every lane, matching a
    /// freshly constructed interpreter.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is outside `1..=W::LANES`, or if `module`'s net
    /// or instance counts disagree with the program (a shape check — the
    /// caller is responsible for pairing a program with the exact module
    /// it was compiled from).
    pub fn new(prog: &'a Program, module: &'a Module, lanes: usize) -> Self {
        Self::in_frame(prog, module, lanes, SimdBackend::Portable)
    }

    /// [`BatchExec::new`] running its passes in `backend`'s frame.
    ///
    /// # Panics
    ///
    /// As [`BatchExec::new`], and if this CPU cannot run `backend` —
    /// the passes enter its frame unchecked.
    fn in_frame(prog: &'a Program, module: &'a Module, lanes: usize, backend: SimdBackend) -> Self {
        assert!(backend.detected(), "SIMD backend `{backend}` is not supported by this CPU");
        assert_eq!(prog.net_count, module.net_count(), "program/module net-count mismatch");
        assert_eq!(prog.seq_of_inst.len(), module.instance_count(), "program/module instance-count mismatch");
        // A measurement builds a 1-lane template plus one executor per
        // worker thread, so this is the one engine counter that varies
        // with the worker count.
        telemetry::counter("engine.executors").incr();
        BatchExec {
            prog,
            module,
            slots: vec![W::splat(false); prog.net_count],
            flags: vec![SETTLE | CAPTURE; prog.net_count],
            state: vec![W::splat(false); prog.commits.len()],
            next: vec![W::splat(false); prog.commits.len()],
            captured: Vec::with_capacity(prog.commits.len()),
            dense_streak: 0,
            toggles: vec![0; prog.net_count],
            lane_toggles: None,
            faults: None,
            lanes,
            mask: W::mask(lanes),
            lane_cycles: 0,
            backend,
            ctr_settles: telemetry::counter("engine.settles"),
            ctr_ops: telemetry::counter("engine.ops_executed"),
            ctr_ops_skipped: telemetry::counter("engine.ops_skipped"),
            ctr_captures_skipped: telemetry::counter("engine.captures_skipped"),
        }
    }

    /// Add the activity accumulated since the last reset (toggle total
    /// across all nets, lane-cycles) to the flow-wide telemetry
    /// counters. Called from [`BatchExec::reset_activity`] and on drop,
    /// so totals are exact without any per-write instrumentation.
    fn flush_activity_telemetry(&self) {
        if telemetry::enabled() {
            telemetry::counter("engine.toggles").add(self.toggles.iter().sum());
            telemetry::counter("engine.lane_cycles").add(self.lane_cycles);
        }
    }

    /// The compiled program backing this executor.
    pub fn program(&self) -> &Program {
        self.prog
    }

    /// Shrink the active lane set. Deactivated lanes keep evaluating —
    /// their values stay those of independent runs, and a change in any
    /// lane, active or not, still marks its net changed, so the
    /// activity-driven passes skip nothing they need — but stop
    /// contributing toggles. Growing is rejected:
    /// a deactivated lane's uncounted transitions would corrupt the
    /// "toggles == sum of L independent runs" invariant if it were
    /// re-activated — create a new executor instead. Also rejected once
    /// per-lane toggle accounting is enabled (its storage is strided by
    /// the lane count at enable time, so resizing afterwards would
    /// corrupt the attribution) and while a fault plan is installed
    /// (its masks were validated against the lane set).
    pub fn set_lanes(&mut self, lanes: usize) -> Result<(), EngineError> {
        if lanes == 0 {
            return Err(EngineError::ZeroLanes);
        }
        if lanes > self.lanes {
            return Err(EngineError::LaneGrow { have: self.lanes, asked: lanes });
        }
        if self.lane_toggles.is_some() {
            return Err(EngineError::LaneTogglesPinned);
        }
        if self.faults.is_some() {
            return Err(EngineError::FaultPlanPinned);
        }
        self.lanes = lanes;
        self.mask = W::mask(lanes);
        Ok(())
    }

    /// Start per-lane toggle accounting (in addition to the aggregate
    /// table). Costs one extra pass over changed lanes per slot write,
    /// so it is off by default; enable it before driving stimulus.
    pub fn enable_lane_toggles(&mut self) {
        if self.lane_toggles.is_none() {
            self.lane_toggles = Some(vec![0; self.prog.net_count * self.lanes]);
        }
    }

    /// Per-net toggle counts of one lane (indexed by [`NetId::index`]),
    /// or `None` when [`BatchExec::enable_lane_toggles`] was never
    /// called or `lane` is not an active lane.
    pub fn lane_toggle_table(&self, lane: usize) -> Option<Vec<u64>> {
        if lane >= self.lanes {
            return None;
        }
        let lt = self.lane_toggles.as_ref()?;
        Some((0..self.prog.net_count).map(|n| lt[n * self.lanes + lane]).collect())
    }

    /// The single slot-write choke point: fault masks, change flags,
    /// aggregate and per-lane toggle accounting all hang here,
    /// width-generically. A store that changes the word in any lane
    /// sets both change flags of the net.
    /// `inline(always)` is load-bearing: every settle/commit op funnels
    /// through this function, and it must land inside the per-ISA
    /// `#[target_feature]` frame — outlined, it compiles without the
    /// ISA features and every op pays a vector-ABI call.
    #[inline(always)]
    fn write(&mut self, dst: u32, mut val: W) {
        let d = dst as usize;
        if let Some(f) = &self.faults {
            val = val.and(f.and[d]).or(f.or[d]).xor(f.xor[d]);
        }
        let diff = self.slots[d].xor(val);
        self.flags[d] |= u8::from(diff.any()) * (SETTLE | CAPTURE);
        let flips = diff.and(self.mask);
        flips.popcount_accum(W::splat(true), &mut self.toggles[d]);
        if let Some(lt) = &mut self.lane_toggles {
            for wi in 0..W::WORDS {
                let mut chunk = flips.get_u64(wi);
                while chunk != 0 {
                    let lane = wi * 64 + chunk.trailing_zeros() as usize;
                    lt[d * self.lanes + lane] += 1;
                    chunk &= chunk - 1;
                }
            }
        }
        self.slots[d] = val;
    }

    /// Install a [`FaultPlan`], compiling it into the per-slot mask
    /// tables the write path consults. The plan is validated against
    /// this executor's shape first; on error nothing changes. Stuck-at
    /// faults force their lanes immediately (toggle-accounted like any
    /// other transition); transient flips wait for their cycle, counted
    /// in [`SimBackend::step`] calls from this installation. Installing
    /// an empty plan is equivalent to [`BatchExec::clear_faults`].
    /// Replacing a plan flags nothing: while any plan is installed every
    /// op and state element is evaluated, so values the old plan forced
    /// are recomputed at the next settle and edge.
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), EngineError> {
        plan.validate(self.prog.net_count, self.lanes)?;
        if plan.is_empty() {
            self.clear_faults();
            return Ok(());
        }
        let n = self.prog.net_count;
        let mut st = Box::new(FaultState {
            and: vec![W::splat(true); n],
            or: vec![W::splat(false); n],
            xor: vec![W::splat(false); n],
            flips: Vec::new(),
            next_flip: 0,
            active_xor: Vec::new(),
            cycle: 0,
        });
        let mut stuck_slots: Vec<u32> = Vec::new();
        for f in plan.faults() {
            let d = f.net.index();
            match f.kind {
                FaultKind::StuckAt0 => {
                    st.and[d] = st.and[d].with_lane(f.lane, false);
                    stuck_slots.push(d as u32);
                }
                FaultKind::StuckAt1 => {
                    st.or[d] = st.or[d].with_lane(f.lane, true);
                    stuck_slots.push(d as u32);
                }
                FaultKind::FlipAtCycle(c) => st.flips.push((c, d as u32, f.lane as u32)),
            }
        }
        st.flips.sort_unstable();
        stuck_slots.sort_unstable();
        stuck_slots.dedup();
        self.faults = Some(st);
        // Force the stuck values onto the current slot contents so the
        // fault is live before the next settle (write re-applies the
        // masks and accounts the forced transitions as toggles).
        for d in stuck_slots {
            self.write(d, self.slots[d as usize]);
        }
        Ok(())
    }

    /// Remove the installed fault plan (if any). Slot values are left
    /// as they are — every net is flagged changed, so the next settle
    /// recomputes every internal net fault-free and the next edge
    /// recaptures every state element; input nets keep their last
    /// (possibly forced) value until re-driven.
    pub fn clear_faults(&mut self) {
        self.faults = None;
        self.flags.fill(SETTLE | CAPTURE);
    }

    /// Whether a non-empty fault plan is currently installed.
    pub fn faults_installed(&self) -> bool {
        self.faults.is_some()
    }

    /// Capture lane `lane`'s value of every slot and every stored state.
    ///
    /// # Errors
    ///
    /// [`EngineError::LaneOutOfRange`] if `lane` is not an active lane.
    pub fn lane_image(&self, lane: usize) -> Result<LaneImage, EngineError> {
        if lane >= self.lanes {
            return Err(EngineError::LaneOutOfRange { lane, lanes: self.lanes });
        }
        Ok(LaneImage {
            slots: self.slots.iter().map(|w| w.lane(lane)).collect(),
            state: self.state.iter().map(|w| w.lane(lane)).collect(),
        })
    }

    /// Set every lane of the word, active or not, to `image`, counting
    /// no toggles and flagging every net changed. Toggle and lane-cycle
    /// totals are kept, so an executor
    /// can accumulate activity over several batches that each start
    /// from the same prepared state.
    ///
    /// # Errors
    ///
    /// [`EngineError::ImageShape`] if the image comes from a program
    /// with other slot or state counts, and
    /// [`EngineError::FaultPlanPinned`] while a fault plan is installed
    /// (the loaded values would bypass its masks).
    pub fn load_image(&mut self, image: &LaneImage) -> Result<(), EngineError> {
        let shape = (image.slots.len(), image.state.len());
        let program = (self.slots.len(), self.state.len());
        if shape != program {
            return Err(EngineError::ImageShape { image: shape, program });
        }
        if self.faults.is_some() {
            return Err(EngineError::FaultPlanPinned);
        }
        for (w, &v) in self.slots.iter_mut().zip(&image.slots) {
            *w = W::splat(v);
        }
        for (w, &v) in self.state.iter_mut().zip(&image.state) {
            *w = W::splat(v);
        }
        self.flags.fill(SETTLE | CAPTURE);
        Ok(())
    }

    /// Per-lane compare of `net` against a designated golden lane:
    /// `ceil(lanes / 64)` 64-bit chunks, bit `l % 64` of chunk `l / 64`
    /// set iff lane `l` disagrees with `golden_lane`. The chunk count
    /// follows the *active lane count*, not the backing word width, so
    /// the result is identical across SIMD backends (a pinned AVX-512
    /// word running 256 lanes reports 4 chunks, like the portable
    /// word). Inactive lanes (and the golden lane itself) read as
    /// matching. Errors if `golden_lane` is not an active lane.
    pub fn mismatch_mask(&self, net: NetId, golden_lane: usize) -> Result<Vec<u64>, EngineError> {
        if golden_lane >= self.lanes {
            return Err(EngineError::LaneOutOfRange { lane: golden_lane, lanes: self.lanes });
        }
        if net.index() >= self.prog.net_count {
            return Err(EngineError::NetOutOfRange { net: net.index(), net_count: self.prog.net_count });
        }
        let w = self.slots[net.index()];
        let golden = w.lane(golden_lane);
        Ok((0..self.lanes.div_ceil(64))
            .map(|wi| {
                let chunk = w.get_u64(wi);
                (if golden { !chunk } else { chunk }) & self.mask.get_u64(wi)
            })
            .collect())
    }

    /// Advance the transient-flip schedule by one cycle: lift the
    /// previous cycle's XOR masks, arm this cycle's, and re-store every
    /// affected slot through the masked write path (so flips on nets
    /// nothing recomputes — primary inputs, idle state — still take
    /// effect, and every inversion is toggle-accounted). Called at the
    /// top of [`SimBackend::step`]; no-op without an installed plan.
    fn advance_fault_cycle(&mut self) {
        if self.faults.is_none() {
            return;
        }
        // Lift the previous cycle's flips: the XOR masks are still
        // armed, so re-storing a slot inverts it back to clean.
        let mut i = 0;
        while let Some(&d) = self.faults.as_ref().and_then(|f| f.active_xor.get(i)) {
            self.write(d, self.slots[d as usize]);
            i += 1;
        }
        let f = self.faults.as_mut().expect("checked above");
        for &d in &f.active_xor {
            f.xor[d as usize] = W::splat(false);
        }
        f.active_xor.clear();
        // Arm this cycle's flips.
        let cycle = f.cycle;
        while let Some(&(c, d, lane)) = f.flips.get(f.next_flip) {
            if c > cycle {
                break;
            }
            f.next_flip += 1;
            if c == cycle {
                f.xor[d as usize] = f.xor[d as usize].with_lane(lane as usize, true);
                f.active_xor.push(d);
            }
        }
        f.active_xor.sort_unstable();
        f.active_xor.dedup();
        f.cycle += 1;
        let mut i = 0;
        while let Some(&d) = self.faults.as_ref().and_then(|f| f.active_xor.get(i)) {
            self.write(d, self.slots[d as usize]);
            i += 1;
        }
    }

    /// One linear pass over the levelized op stream, evaluating the ops
    /// whose nets changed, then clearing every settle flag. Returns the
    /// ops evaluated. Every op is evaluated while a fault plan is
    /// installed, and after four dense settles in a row (stimulus that
    /// changes most nets every cycle), except on every sixteenth
    /// settle, which checks flags again and ends the streak if it finds
    /// the settle sparse. Evaluating an op none of whose nets changed
    /// stores what its outputs hold, so this changes no value or
    /// toggle. Keep it `inline(always)` so it compiles inside each
    /// per-ISA frame ([`SimBackend::settle`] picks the frame).
    #[inline(always)]
    fn settle_pass(&mut self) -> usize {
        let streak = self.dense_streak;
        let every = self.faults.is_some() || (streak >= 4 && !streak.is_multiple_of(16));
        let mut evaluated = 0;
        let prog = self.prog;
        for op in &prog.ops {
            let n = op.pins;
            if !every && n.iter().fold(0, |f, &x| f | self.flags[x as usize]) & SETTLE == 0 {
                continue;
            }
            evaluated += 1;
            let v = |p: usize| self.slots[n[p] as usize];
            match op.kind {
                OpKind::Const0 => self.write(n[0], W::splat(false)),
                OpKind::Const1 => self.write(n[0], W::splat(true)),
                OpKind::Copy => self.write(n[0], v(1)),
                OpKind::Not => self.write(n[0], v(1).not()),
                OpKind::And => self.write(n[0], v(1).and(v(2))),
                OpKind::Or => self.write(n[0], v(1).or(v(2))),
                OpKind::Xor => self.write(n[0], v(1).xor(v(2))),
                OpKind::Mux => self.write(n[0], W::mux(v(1), v(2), v(3))),
                OpKind::Nand => self.write(n[0], v(1).and(v(2)).not()),
                OpKind::Nor => self.write(n[0], v(1).or(v(2)).not()),
                OpKind::Xnor => self.write(n[0], v(1).xor(v(2)).not()),
                OpKind::Oai21 => self.write(n[0], v(1).or(v(2)).and(v(3)).not()),
                OpKind::Oai22 => self.write(n[0], v(1).or(v(2)).and(v(3).or(v(4))).not()),
                OpKind::Aoi21 => self.write(n[0], v(1).and(v(2)).or(v(3)).not()),
                OpKind::FullAdder => {
                    let (a, b, cin) = (v(2), v(3), v(4));
                    let x = a.xor(b);
                    self.write(n[0], x.xor(cin));
                    self.write(n[1], a.and(b).or(x.and(cin)));
                }
                OpKind::Compressor42 => {
                    let (a, b, c, d, cin) = (v(3), v(4), v(5), v(6), v(7));
                    let ab = a.xor(b);
                    let x = ab.xor(c.xor(d));
                    self.write(n[0], x.xor(cin));
                    self.write(n[1], W::mux(d, cin, x));
                    self.write(n[2], a.and(b).or(c.and(ab)));
                }
                OpKind::MultMux => self.write(n[0], v(1).and(W::mux(v(2), v(3), v(4)))),
            }
        }
        for f in &mut self.flags {
            *f &= !SETTLE;
        }
        let dense = evaluated * 8 >= prog.ops.len() * DENSE_EIGHTHS;
        self.dense_streak = if dense { streak.saturating_add(1) } else { 0 };
        evaluated
    }

    /// Capture the next state of every element whose `in0`, `in1` or `q`
    /// changed (every element while a fault plan is installed) from
    /// pre-edge values, clear every capture flag, then commit the
    /// captured states and q nets — the sequential half of
    /// [`SimBackend::step`]. Returns the elements captured.
    /// `inline(always)` like [`BatchExec::settle_pass`].
    #[inline(always)]
    fn capture_commit_pass(&mut self) -> usize {
        let every = self.faults.is_some();
        let prog = self.prog;
        self.captured.clear();
        for (i, c) in prog.commits.iter().enumerate() {
            let changed = self.flags[c.in0 as usize] | self.flags[c.in1 as usize] | self.flags[c.q as usize];
            if !every && changed & CAPTURE == 0 {
                continue;
            }
            let cur = self.state[i];
            self.next[i] = match c.update {
                SeqUpdate::Edge => self.slots[c.in0 as usize],
                SeqUpdate::EdgeEnable => W::mux(cur, self.slots[c.in0 as usize], self.slots[c.in1 as usize]),
                SeqUpdate::BitcellWrite => {
                    W::mux(cur, self.slots[c.in1 as usize], self.slots[c.in0 as usize])
                }
            };
            self.captured.push(i as u32);
        }
        for f in &mut self.flags {
            *f &= !CAPTURE;
        }
        for k in 0..self.captured.len() {
            let i = self.captured[k] as usize;
            let nv = self.next[i];
            self.state[i] = nv;
            self.write(prog.commits[i].q, nv);
        }
        self.captured.len()
    }

    // The ISA frames: one `#[target_feature]` method per pass and ISA,
    // into which the whole pass inlines. Each must call its pass
    // directly — a pass routed through a closure shared by several
    // frames gets outlined and compiles without the ISA.

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn settle_avx2(&mut self) -> usize {
        self.settle_pass()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn settle_avx512(&mut self) -> usize {
        self.settle_pass()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn capture_commit_avx2(&mut self) -> usize {
        self.capture_commit_pass()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    fn capture_commit_avx512(&mut self) -> usize {
        self.capture_commit_pass()
    }
}

impl<W: LaneWord> SimBackend for BatchExec<'_, W> {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn module(&self) -> &Module {
        self.module
    }

    fn poke_word_at(&mut self, net: NetId, word_idx: usize, word: u64) {
        assert!(word_idx < self.words(), "word {word_idx} out of range ({} lane words)", self.words());
        let mut val = self.slots[net.index()];
        val.set_u64(word_idx, word);
        self.write(net.index() as u32, val);
    }

    fn peek_word_at(&self, net: NetId, word_idx: usize) -> u64 {
        assert!(word_idx < self.words(), "word {word_idx} out of range ({} lane words)", self.words());
        self.slots[net.index()].get_u64(word_idx)
    }

    fn settle(&mut self) {
        // SAFETY (both ISA arms): `in_frame` asserted that the CPU has
        // `self.backend`'s features, which are all the frame enables.
        let evaluated = match self.backend {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.settle_avx2() },
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => unsafe { self.settle_avx512() },
            _ => self.settle_pass(),
        };
        self.ctr_settles.incr();
        self.ctr_ops.add(evaluated as u64);
        self.ctr_ops_skipped.add((self.prog.ops.len() - evaluated) as u64);
    }

    fn step(&mut self) {
        self.advance_fault_cycle();
        self.settle();
        // SAFETY (both ISA arms): as in `settle`.
        let captured = match self.backend {
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => unsafe { self.capture_commit_avx2() },
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => unsafe { self.capture_commit_avx512() },
            _ => self.capture_commit_pass(),
        };
        self.ctr_captures_skipped.add((self.prog.commits.len() - captured) as u64);
        self.lane_cycles += self.lanes as u64;
        self.settle();
    }

    fn force_state_word_at(&mut self, inst: InstId, word_idx: usize, word: u64) {
        assert!(word_idx < self.words(), "word {word_idx} out of range ({} lane words)", self.words());
        let seq = self.prog.seq_of_inst[inst.index()];
        assert_ne!(seq, u32::MAX, "instance {inst:?} is not sequential");
        let q = self.prog.commits[seq as usize].q;
        let mut val = self.state[seq as usize];
        val.set_u64(word_idx, word);
        self.state[seq as usize] = val;
        self.write(q, val);
    }

    fn state_word_at(&self, inst: InstId, word_idx: usize) -> u64 {
        assert!(word_idx < self.words(), "word {word_idx} out of range ({} lane words)", self.words());
        let seq = self.prog.seq_of_inst[inst.index()];
        assert_ne!(seq, u32::MAX, "instance {inst:?} is not sequential");
        self.state[seq as usize].get_u64(word_idx)
    }

    fn lane_cycles(&self) -> u64 {
        self.lane_cycles
    }

    fn reset_activity(&mut self) {
        self.flush_activity_telemetry();
        self.toggles.iter_mut().for_each(|t| *t = 0);
        if let Some(lt) = &mut self.lane_toggles {
            lt.iter_mut().for_each(|t| *t = 0);
        }
        self.lane_cycles = 0;
    }

    fn toggle_table(&self) -> &[u64] {
        &self.toggles
    }

    fn net_of(&self, port: &str) -> NetId {
        // Binary search on the lowering's shared sorted port table —
        // replaces the default linear scan over `module.ports` and
        // needs no per-executor name map.
        self.prog.syms.port_net(port).map(NetId).unwrap_or_else(|| panic!("no port named `{port}`"))
    }
}

impl<W: LaneWord> Drop for BatchExec<'_, W> {
    fn drop(&mut self) {
        self.flush_activity_telemetry();
    }
}

/// Width- and frame-selecting engine executor: the `u64` word for up to
/// 64 lanes, then the narrowest wide word that fits, its passes running
/// in the widest vector-ISA frame the CPU supports
/// ([`SimdPolicy::select`]). One type for callers that size their
/// batches at run time.
///
/// Set `SYNDCIM_SIMD=portable|avx2|avx512|auto` to pin the data
/// path; invalid or unsupported values are typed errors from
/// [`EngineSim::try_new`] (and panics from [`EngineSim::new`]), never a
/// silent fallback. Every construction records the selected backend on
/// the `engine.simd_backend` telemetry gauge.
///
/// ```
/// use syndcim_engine::{EngineSim, Program};
/// use syndcim_netlist::NetlistBuilder;
/// use syndcim_pdk::CellLibrary;
/// use syndcim_sim::SimBackend;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = CellLibrary::syn40();
/// let mut b = NetlistBuilder::new("inv", &lib);
/// let a = b.input("a");
/// let y = b.not(a);
/// b.output("y", y);
/// let m = b.finish();
/// let prog = Program::compile(&m, &lib)?;
///
/// // 100 lanes does not fit a u64, so the 256-lane [u64; 4] word is
/// // selected, running in the widest ISA frame the CPU has.
/// let mut sim = EngineSim::new(&prog, &m, 100);
/// assert_eq!(sim.lanes(), 100);
/// assert_eq!(sim.word_lanes(), 256);
/// let a_net = m.port("a").unwrap().net;
/// sim.poke_word_at(a_net, 0, !0); // drive lanes 0..64 high
/// sim.settle();
/// let y = sim.read_bus(&[sim.net_of("y")]); // a 1-bit bus reads high as −1
/// assert_eq!(y[3], 0); // inverted
/// assert_eq!(y[99], -1); // lane 99's input still low
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub enum EngineSim<'a> {
    /// `u64` lane word, 1..=64 lanes, never in an ISA frame.
    Narrow(BatchExec<'a, u64>),
    /// [`W256`] lane word, 65..=256 lanes.
    Wide(BatchExec<'a, W256>),
    /// [`W512`] lane word, 257..=512 lanes.
    Wide512(BatchExec<'a, W512>),
}

macro_rules! delegate {
    ($self:ident, $sim:ident => $body:expr) => {
        match $self {
            EngineSim::Narrow($sim) => $body,
            EngineSim::Wide($sim) => $body,
            EngineSim::Wide512($sim) => $body,
        }
    };
}

impl<'a> EngineSim<'a> {
    /// Most lanes one executor carries (the 512-lane word's capacity).
    pub const MAX_LANES: usize = W512::LANES;

    /// Create an executor for `lanes` lanes on the narrowest lane word
    /// that fits, in the widest vector-ISA frame the `SYNDCIM_SIMD`
    /// policy allows and the CPU supports.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`EngineSim::MAX_LANES`], if
    /// `SYNDCIM_SIMD` is invalid or unsupported on this CPU, or on a
    /// program/module shape mismatch. Flows that want these as values call
    /// [`EngineSim::try_new`] (and validate the policy once up front
    /// with [`SimdPolicy::from_env`]).
    pub fn new(prog: &'a Program, module: &'a Module, lanes: usize) -> Self {
        Self::try_new(prog, module, lanes).unwrap_or_else(|e| panic!("engine SIMD selection failed: {e}"))
    }

    /// [`EngineSim::new`] with the selection errors surfaced: consults
    /// `SYNDCIM_SIMD` ([`SimdPolicy::from_env`]), resolves the backend
    /// for `lanes` ([`SimdPolicy::select`]) and constructs on it.
    ///
    /// # Errors
    ///
    /// [`EngineError::SimdUnknown`] / [`EngineError::SimdUnsupported`]
    /// for a bad `SYNDCIM_SIMD` value, [`EngineError::SimdLaneCap`]
    /// when `lanes` exceeds [`EngineSim::MAX_LANES`], and
    /// [`EngineError::ZeroLanes`] for an empty lane set.
    pub fn try_new(prog: &'a Program, module: &'a Module, lanes: usize) -> Result<Self, EngineError> {
        Self::with_backend(prog, module, lanes, SimdPolicy::from_env()?.select(lanes)?)
    }

    /// Construct in an explicit [`SimdBackend`]'s frame — the knob the
    /// differential tests and benches use to compare frames on
    /// identical stimulus. Every backend picks the narrowest
    /// `u64`/[`W256`]/[`W512`] word that fits `lanes`; the `u64` word
    /// always runs outside any frame, so up to 64 lanes report
    /// [`SimdBackend::Portable`].
    ///
    /// # Errors
    ///
    /// [`EngineError::SimdUnsupported`] if this CPU cannot run
    /// `backend`, [`EngineError::SimdLaneCap`] if `lanes` exceeds
    /// [`EngineSim::MAX_LANES`], [`EngineError::ZeroLanes`] for an
    /// empty lane set.
    pub fn with_backend(
        prog: &'a Program,
        module: &'a Module,
        lanes: usize,
        backend: SimdBackend,
    ) -> Result<Self, EngineError> {
        if lanes == 0 {
            return Err(EngineError::ZeroLanes);
        }
        if !backend.detected() {
            return Err(EngineError::SimdUnsupported { backend });
        }
        if lanes > Self::MAX_LANES {
            return Err(EngineError::SimdLaneCap { backend, lanes, max: Self::MAX_LANES });
        }
        let sim = if lanes <= u64::LANES {
            EngineSim::Narrow(BatchExec::new(prog, module, lanes))
        } else if lanes <= W256::LANES {
            EngineSim::Wide(BatchExec::in_frame(prog, module, lanes, backend))
        } else {
            EngineSim::Wide512(BatchExec::in_frame(prog, module, lanes, backend))
        };
        telemetry::gauge("engine.simd_backend").set(sim.simd_backend().code());
        Ok(sim)
    }

    /// The frame this executor's passes run in.
    pub fn simd_backend(&self) -> SimdBackend {
        delegate!(self, s => s.backend)
    }

    /// Lane capacity of the selected word (≥ the active lane count).
    pub fn word_lanes(&self) -> usize {
        match self {
            EngineSim::Narrow(_) => u64::LANES,
            EngineSim::Wide(_) => W256::LANES,
            EngineSim::Wide512(_) => W512::LANES,
        }
    }

    /// Shrink the active lane set (see [`BatchExec::set_lanes`]).
    pub fn set_lanes(&mut self, lanes: usize) -> Result<(), EngineError> {
        delegate!(self, s => s.set_lanes(lanes))
    }

    /// Start per-lane toggle accounting (see
    /// [`BatchExec::enable_lane_toggles`]).
    pub fn enable_lane_toggles(&mut self) {
        delegate!(self, s => s.enable_lane_toggles())
    }

    /// Per-net toggle counts of one lane (see
    /// [`BatchExec::lane_toggle_table`]).
    pub fn lane_toggle_table(&self, lane: usize) -> Option<Vec<u64>> {
        delegate!(self, s => s.lane_toggle_table(lane))
    }

    /// Install a per-lane fault plan (see [`BatchExec::install_faults`]).
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), EngineError> {
        delegate!(self, s => s.install_faults(plan))
    }

    /// Remove the installed fault plan (see [`BatchExec::clear_faults`]).
    pub fn clear_faults(&mut self) {
        delegate!(self, s => s.clear_faults())
    }

    /// Whether a non-empty fault plan is installed.
    pub fn faults_installed(&self) -> bool {
        delegate!(self, s => s.faults_installed())
    }

    /// Capture one lane's state (see [`BatchExec::lane_image`]).
    pub fn lane_image(&self, lane: usize) -> Result<LaneImage, EngineError> {
        delegate!(self, s => s.lane_image(lane))
    }

    /// Set every lane to a captured state without counting toggles (see
    /// [`BatchExec::load_image`]).
    pub fn load_image(&mut self, image: &LaneImage) -> Result<(), EngineError> {
        delegate!(self, s => s.load_image(image))
    }

    /// Per-lane compare against a golden lane (see
    /// [`BatchExec::mismatch_mask`]).
    pub fn mismatch_mask(&self, net: NetId, golden_lane: usize) -> Result<Vec<u64>, EngineError> {
        delegate!(self, s => s.mismatch_mask(net, golden_lane))
    }
}

impl SimBackend for EngineSim<'_> {
    fn lanes(&self) -> usize {
        delegate!(self, s => s.lanes())
    }

    fn module(&self) -> &Module {
        delegate!(self, s => SimBackend::module(s))
    }

    fn poke_word_at(&mut self, net: NetId, word_idx: usize, word: u64) {
        delegate!(self, s => s.poke_word_at(net, word_idx, word))
    }

    fn peek_word_at(&self, net: NetId, word_idx: usize) -> u64 {
        delegate!(self, s => s.peek_word_at(net, word_idx))
    }

    fn settle(&mut self) {
        delegate!(self, s => s.settle())
    }

    fn step(&mut self) {
        delegate!(self, s => s.step())
    }

    fn force_state_word_at(&mut self, inst: InstId, word_idx: usize, word: u64) {
        delegate!(self, s => s.force_state_word_at(inst, word_idx, word))
    }

    fn state_word_at(&self, inst: InstId, word_idx: usize) -> u64 {
        delegate!(self, s => s.state_word_at(inst, word_idx))
    }

    fn lane_cycles(&self) -> u64 {
        delegate!(self, s => s.lane_cycles())
    }

    fn reset_activity(&mut self) {
        delegate!(self, s => s.reset_activity())
    }

    fn toggle_table(&self) -> &[u64] {
        delegate!(self, s => s.toggle_table())
    }

    fn net_of(&self, port: &str) -> NetId {
        delegate!(self, s => s.net_of(port))
    }
}
