//! Bit-parallel execution of a compiled [`Program`].
//!
//! [`BatchExec`] is generic over its [`LaneWord`]: every slot holds one
//! word whose lane `l` is the logic value of one independent test
//! vector. [`BatchSim`] (`u64`, 64 lanes) is the classic single-register
//! hot path; [`BatchSim256`] (`[u64; 4]`, 256 lanes) and
//! [`BatchSim512`] (`[u64; 8]`, 512 lanes) multiply the vectors per
//! pass on straight-line element-wise code that LLVM lowers to the
//! target's vector unit; the ISA-native words in the arch-gated
//! `crate::word::x86_64` module run the same generic passes on explicit
//! AVX2/AVX-512 intrinsics.
//! [`EngineSim`] picks the word at run time — narrowest width that
//! fits the lane count, widest detected ISA for that width (overridable
//! with `SYNDCIM_SIMD`, see [`crate::SimdPolicy`]) — so callers never
//! pay the wide word for small batches and never select a data path the
//! CPU lacks.
//!
//! A settle is one linear pass over the op stream — no hash maps, no
//! per-cell dispatch through `Vec<bool>` buffers — and per-net toggles
//! accumulate as `popcount((prev ^ next) & lane_mask)`, which makes an
//! L-lane run report exactly the toggle totals of L separate interpreter
//! runs over the same per-lane stimulus, at any word width. Each pass
//! runs inside one [`LaneWord::dispatch`] call, so an ISA word pays one
//! runtime dispatch per settle (never per op) and its intrinsic leaf
//! functions inline into the pass.

use syndcim_netlist::{InstId, Module, NetId};
use syndcim_pdk::SeqUpdate;
use syndcim_sim::SimBackend;
use syndcim_telemetry as telemetry;

use crate::fault::{EngineError, FaultKind, FaultPlan};
use crate::program::{Op, Program};
use crate::simd::{SimdBackend, SimdPolicy};
#[cfg(target_arch = "x86_64")]
use crate::word::x86_64::{W256Avx2, W512Avx512};
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

/// Word-level batch executor over one compiled program, generic over
/// the lane word `W`. Use the [`BatchSim`] / [`BatchSim256`] aliases or
/// the width-selecting [`EngineSim`].
#[derive(Debug)]
pub struct BatchExec<'a, W: LaneWord> {
    prog: &'a Program,
    module: &'a Module,
    /// Value word per slot (net slots first, then scratch).
    slots: Vec<W>,
    /// Stored state word per sequential element (dense commit order).
    state: Vec<W>,
    /// Capture buffer reused every step.
    next: Vec<W>,
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
    /// Cached telemetry handles, resolved once per executor so the
    /// settle hot path pays one relaxed atomic load per *pass* (never
    /// per op) when telemetry is off. Toggle and lane-cycle totals are
    /// flushed in bulk on [`BatchExec::reset_activity`]/drop instead of
    /// being counted per write — the per-op `write` path carries no
    /// instrumentation at all.
    ctr_settles: telemetry::Counter,
    ctr_ops: telemetry::Counter,
}

/// The 64-lane executor (one `u64` per slot).
pub type BatchSim<'a> = BatchExec<'a, u64>;

/// The 256-lane wide-word executor (`[u64; 4]` per slot).
pub type BatchSim256<'a> = BatchExec<'a, W256>;

/// The 512-lane wide-word executor (`[u64; 8]` per slot).
pub type BatchSim512<'a> = BatchExec<'a, W512>;

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
        assert_eq!(prog.net_count, module.net_count(), "program/module net-count mismatch");
        assert_eq!(prog.seq_of_inst.len(), module.instance_count(), "program/module instance-count mismatch");
        telemetry::counter("engine.executors").incr();
        BatchExec {
            prog,
            module,
            slots: vec![W::splat(false); prog.slot_count],
            state: vec![W::splat(false); prog.commits.len()],
            next: vec![W::splat(false); prog.commits.len()],
            toggles: vec![0; prog.net_count],
            lane_toggles: None,
            faults: None,
            lanes,
            mask: W::mask(lanes),
            lane_cycles: 0,
            ctr_settles: telemetry::counter("engine.settles"),
            ctr_ops: telemetry::counter("engine.ops_executed"),
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

    /// Shrink the active lane set (values in deactivated lanes keep
    /// evaluating but stop contributing toggles). Growing is rejected:
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

    /// The single slot-write choke point: fault masks, aggregate and
    /// per-lane toggle accounting all hang here, width-generically.
    /// `inline(always)` is load-bearing: every settle/commit op funnels
    /// through this function, and it must land inside the
    /// `#[target_feature]` dispatch frame — outlined, it compiles
    /// without the ISA features and every op pays a vector-ABI call.
    #[inline(always)]
    fn write(&mut self, dst: u32, mut val: W) {
        let d = dst as usize;
        if d < self.prog.net_count {
            if let Some(f) = &self.faults {
                val = val.and(f.and[d]).or(f.or[d]).xor(f.xor[d]);
            }
            let old = self.slots[d];
            let flips = old.xor(val).and(self.mask);
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
    pub fn install_faults(&mut self, plan: &FaultPlan) -> Result<(), EngineError> {
        plan.validate(self.prog.net_count, self.lanes)?;
        self.faults = None;
        if plan.is_empty() {
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
    /// as they are — the next settle recomputes every internal net
    /// fault-free; input nets keep their last (possibly forced) value
    /// until re-driven.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Whether a non-empty fault plan is currently installed.
    pub fn faults_installed(&self) -> bool {
        self.faults.is_some()
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

    /// Drive one lane of a net, leaving the others unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not an active lane.
    pub fn poke_lane(&mut self, net: NetId, lane: usize, value: bool) {
        assert!(lane < self.lanes, "lane {lane} out of range (executor has {} lanes)", self.lanes);
        let word = self.slots[net.index()].with_lane(lane, value);
        self.write(net.index() as u32, word);
    }

    /// One linear pass over the levelized op stream. Runs inside
    /// [`LaneWord::dispatch`] (see [`SimBackend::settle`]) so an ISA
    /// word's intrinsic leaf functions inline here; keep it
    /// `inline(always)` so the closure body actually lands in the
    /// `#[target_feature]` trampoline.
    #[inline(always)]
    fn settle_pass(&mut self) {
        for k in 0..self.prog.ops.len() {
            let op = self.prog.ops[k];
            let val = match op {
                Op::Const { ones, .. } => W::splat(ones),
                Op::Copy { a, .. } => self.slots[a as usize],
                Op::Not { a, .. } => self.slots[a as usize].not(),
                Op::And { a, b, .. } => self.slots[a as usize].and(self.slots[b as usize]),
                Op::Or { a, b, .. } => self.slots[a as usize].or(self.slots[b as usize]),
                Op::Xor { a, b, .. } => self.slots[a as usize].xor(self.slots[b as usize]),
                Op::Mux { d0, d1, s, .. } => {
                    W::mux(self.slots[d0 as usize], self.slots[d1 as usize], self.slots[s as usize])
                }
            };
            let dst = match op {
                Op::Const { dst, .. }
                | Op::Copy { dst, .. }
                | Op::Not { dst, .. }
                | Op::And { dst, .. }
                | Op::Or { dst, .. }
                | Op::Xor { dst, .. }
                | Op::Mux { dst, .. } => dst,
            };
            self.write(dst, val);
        }
    }

    /// Capture every next state from pre-edge values, then commit
    /// states and q nets — the sequential half of [`SimBackend::step`].
    /// Runs inside [`LaneWord::dispatch`] like [`BatchExec::settle_pass`].
    #[inline(always)]
    fn capture_commit_pass(&mut self) {
        for (i, c) in self.prog.commits.iter().enumerate() {
            let cur = self.state[i];
            self.next[i] = match c.update {
                SeqUpdate::Edge => self.slots[c.in0 as usize],
                SeqUpdate::EdgeEnable => W::mux(cur, self.slots[c.in0 as usize], self.slots[c.in1 as usize]),
                SeqUpdate::BitcellWrite => {
                    W::mux(cur, self.slots[c.in1 as usize], self.slots[c.in0 as usize])
                }
            };
        }
        for i in 0..self.prog.commits.len() {
            let nv = self.next[i];
            let q = self.prog.commits[i].q;
            self.state[i] = nv;
            self.write(q, nv);
        }
    }
}

impl<W: LaneWord> SimBackend for BatchExec<'_, W> {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn module(&self) -> &Module {
        self.module
    }

    fn poke_word(&mut self, net: NetId, word: u64) {
        self.poke_word_at(net, 0, word);
    }

    fn peek_word(&self, net: NetId) -> u64 {
        self.slots[net.index()].get_u64(0)
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
        self.ctr_settles.incr();
        self.ctr_ops.add(self.prog.ops.len() as u64);
        // One runtime dispatch for the whole pass: the closure compiles
        // inside the word's `#[target_feature]` trampoline (identity
        // for portable words).
        W::dispatch(|| self.settle_pass());
    }

    fn step(&mut self) {
        self.advance_fault_cycle();
        self.settle();
        W::dispatch(|| self.capture_commit_pass());
        self.lane_cycles += self.lanes as u64;
        self.settle();
    }

    fn force_state_word(&mut self, inst: InstId, word: u64) {
        self.force_state_word_at(inst, 0, word);
    }

    fn state_word(&self, inst: InstId) -> u64 {
        self.state_word_at(inst, 0)
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

/// Width- and ISA-selecting engine executor: [`BatchSim`] (`u64`) for
/// up to 64 lanes, then the narrowest wide word that fits — on the
/// widest vector ISA the CPU supports ([`SimdPolicy::select`]). One
/// type for callers that size their batches at run time.
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
/// // 100 lanes does not fit a u64, so a 256-lane word is selected —
/// // AVX2 if the CPU has it, portable [u64; 4] otherwise.
/// let mut sim = EngineSim::new(&prog, &m, 100);
/// assert_eq!(sim.lanes(), 100);
/// assert_eq!(sim.word_lanes(), 256);
/// let a_net = m.port("a").unwrap().net;
/// sim.poke_word_at(a_net, 0, !0); // drive lanes 0..64 high
/// sim.settle();
/// assert!(!sim.get_lane("y", 3)); // inverted
/// assert!(sim.get_lane("y", 99)); // lane 99 still low
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub enum EngineSim<'a> {
    /// `u64` lane word, 1..=64 lanes.
    Narrow(BatchSim<'a>),
    /// Portable `[u64; 4]` lane word, 65..=256 lanes.
    Wide(BatchSim256<'a>),
    /// Portable `[u64; 8]` lane word, 257..=512 lanes.
    Wide512(BatchSim512<'a>),
    /// AVX2 `__m256i` lane word, 65..=256 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2(BatchExec<'a, W256Avx2>),
    /// AVX-512 `__m512i` lane word, 65..=512 lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512(BatchExec<'a, W512Avx512>),
}

macro_rules! delegate {
    ($self:ident, $sim:ident => $body:expr) => {
        match $self {
            EngineSim::Narrow($sim) => $body,
            EngineSim::Wide($sim) => $body,
            EngineSim::Wide512($sim) => $body,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx2($sim) => $body,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx512($sim) => $body,
        }
    };
}

impl<'a> EngineSim<'a> {
    /// Most lanes one executor carries (the 512-lane word's capacity).
    pub const MAX_LANES: usize = W512::LANES;

    /// Create an executor for `lanes` lanes on the narrowest lane word
    /// that fits, using the widest vector ISA the `SYNDCIM_SIMD` policy
    /// allows and the CPU supports.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds what the policy carries
    /// ([`EngineSim::MAX_LANES`] under `auto`), if `SYNDCIM_SIMD` is
    /// invalid or unsupported on this CPU, or on a program/module shape
    /// mismatch. Flows that want these as values call
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
    /// when `lanes` exceeds the policy's widest word, and
    /// [`EngineError::ZeroLanes`] for an empty lane set.
    pub fn try_new(prog: &'a Program, module: &'a Module, lanes: usize) -> Result<Self, EngineError> {
        Self::with_policy(prog, module, lanes, SimdPolicy::from_env()?)
    }

    /// [`EngineSim::try_new`] with an explicit [`SimdPolicy`] instead
    /// of the environment.
    ///
    /// # Errors
    ///
    /// As [`EngineSim::try_new`], minus the environment parse.
    pub fn with_policy(
        prog: &'a Program,
        module: &'a Module,
        lanes: usize,
        policy: SimdPolicy,
    ) -> Result<Self, EngineError> {
        if lanes == 0 {
            return Err(EngineError::ZeroLanes);
        }
        Self::with_backend(prog, module, lanes, policy.select(lanes)?)
    }

    /// Construct on an explicit [`SimdBackend`] — the knob the
    /// differential tests and benches use to compare data paths on
    /// identical stimulus. The portable backend still picks the
    /// narrowest `u64`/[`W256`]/[`W512`] word that fits `lanes`.
    ///
    /// # Errors
    ///
    /// [`EngineError::SimdUnsupported`] if this CPU cannot run
    /// `backend`, [`EngineError::SimdLaneCap`] if `lanes` exceeds the
    /// backend's word, [`EngineError::ZeroLanes`] for an empty lane
    /// set.
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
        if lanes > backend.max_lanes() {
            return Err(EngineError::SimdLaneCap { backend, lanes, max: backend.max_lanes() });
        }
        let sim = match backend {
            SimdBackend::Portable => {
                if lanes <= u64::LANES {
                    EngineSim::Narrow(BatchExec::new(prog, module, lanes))
                } else if lanes <= W256::LANES {
                    EngineSim::Wide(BatchExec::new(prog, module, lanes))
                } else {
                    EngineSim::Wide512(BatchExec::new(prog, module, lanes))
                }
            }
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => EngineSim::Avx2(BatchExec::new(prog, module, lanes)),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => EngineSim::Avx512(BatchExec::new(prog, module, lanes)),
            #[allow(unreachable_patterns)]
            _ => unreachable!("backend {backend} passed detection on an architecture without it"),
        };
        telemetry::gauge("engine.simd_backend").set(backend.code());
        Ok(sim)
    }

    /// Force the portable wide (`[u64; 4]`) word even for small lane
    /// counts — the historical knob width-comparison tests use; ISA
    /// comparisons go through [`EngineSim::with_backend`].
    pub fn new_wide(prog: &'a Program, module: &'a Module, lanes: usize) -> Self {
        EngineSim::Wide(BatchExec::new(prog, module, lanes))
    }

    /// Which SIMD data path this executor runs on.
    pub fn simd_backend(&self) -> SimdBackend {
        match self {
            EngineSim::Narrow(_) | EngineSim::Wide(_) | EngineSim::Wide512(_) => SimdBackend::Portable,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx2(_) => SimdBackend::Avx2,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx512(_) => SimdBackend::Avx512,
        }
    }

    /// Lane capacity of the selected word (≥ the active lane count).
    pub fn word_lanes(&self) -> usize {
        match self {
            EngineSim::Narrow(_) => u64::LANES,
            EngineSim::Wide(_) => W256::LANES,
            EngineSim::Wide512(_) => W512::LANES,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx2(_) => W256Avx2::LANES,
            #[cfg(target_arch = "x86_64")]
            EngineSim::Avx512(_) => W512Avx512::LANES,
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

    fn poke_word(&mut self, net: NetId, word: u64) {
        delegate!(self, s => s.poke_word(net, word))
    }

    fn peek_word(&self, net: NetId) -> u64 {
        delegate!(self, s => s.peek_word(net))
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

    fn force_state_word(&mut self, inst: InstId, word: u64) {
        delegate!(self, s => s.force_state_word(inst, word))
    }

    fn state_word(&self, inst: InstId) -> u64 {
        delegate!(self, s => s.state_word(inst))
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
