//! The compiled program representation.
//!
//! A [`Program`] is the netlist lowered into a flat, levelized stream of
//! word-level micro-ops over dense *slots*. Slots `0..net_count` mirror
//! the module's nets one-to-one (so per-net toggle accounting stays
//! compatible with the interpreter and the power analyzer); slots
//! `net_count..slot_count` are scratch registers reused by every
//! multi-op cell lowering. Sequential cells contribute no combinational
//! ops — they appear as `Commit` records executed once per clock
//! cycle.

use syndcim_ir::Symbols;
use syndcim_pdk::SeqUpdate;

/// Number of scratch slots appended after the net slots. The widest
/// lowering (the 4-2 compressor) uses five temporaries.
pub(crate) const SCRATCH_SLOTS: usize = 8;

/// One word-level micro-op. All operands are slot indices; every lane
/// (bit of the `u64` word) evaluates independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `slot[dst] = ones ? !0 : 0`.
    Const { dst: u32, ones: bool },
    /// `slot[dst] = slot[a]`.
    Copy { dst: u32, a: u32 },
    /// `slot[dst] = !slot[a]`.
    Not { dst: u32, a: u32 },
    /// `slot[dst] = slot[a] & slot[b]`.
    And { dst: u32, a: u32, b: u32 },
    /// `slot[dst] = slot[a] | slot[b]`.
    Or { dst: u32, a: u32, b: u32 },
    /// `slot[dst] = slot[a] ^ slot[b]`.
    Xor { dst: u32, a: u32, b: u32 },
    /// `slot[dst] = (s & d1) | (!s & d0)` — per-lane 2:1 select.
    Mux { dst: u32, d0: u32, d1: u32, s: u32 },
}

/// Per-cycle state-update record of one sequential instance.
///
/// Commits are stored in instance order; their position in
/// [`Program::commits`] is the dense sequential-state index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Commit {
    /// State-update rule (shared with the interpreter's semantics).
    pub update: SeqUpdate,
    /// First data input slot (`d` / `wwl`).
    pub in0: u32,
    /// Second data input slot (`en` / `wbl`; equals `in0` when unused).
    pub in1: u32,
    /// Output (`q`) net slot, updated at commit.
    pub q: u32,
}

/// A compiled, levelized bit-parallel simulation program.
///
/// Build one with [`Program::compile`][crate::Program::compile]; execute
/// it with [`EngineSim`][crate::EngineSim]. Compiling is a one-time cost —
/// the same program can back any number of concurrent executors.
#[derive(Debug, Clone)]
pub struct Program {
    /// Number of real net slots (== the module's net count).
    pub(crate) net_count: usize,
    /// Total slots including scratch registers.
    pub(crate) slot_count: usize,
    /// Levelized combinational op stream (one settle = one linear pass).
    pub(crate) ops: Vec<Op>,
    /// Sequential commits, in instance order.
    pub(crate) commits: Vec<Commit>,
    /// Instance index → dense sequential index (`u32::MAX` for
    /// combinational instances).
    pub(crate) seq_of_inst: Vec<u32>,
    /// Interned net/instance names (shared `Arc` handles into the
    /// lowering's [`Symbols`]) — resolved lazily by the label helpers;
    /// the program owns no `String` tables.
    pub(crate) syms: Symbols,
}

impl Program {
    /// Number of nets the program simulates.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of micro-ops in the combinational stream.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of sequential state elements.
    pub fn seq_count(&self) -> usize {
        self.commits.len()
    }

    /// The interned name tables this program resolves labels against
    /// (shared with the lowering it was compiled from).
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }

    /// Retained heap bytes of the compiled program: the op stream, the
    /// commit table, the instance→sequential map, plus its share of the
    /// interned name tables (which are `Arc`-shared with the lowering
    /// and the other compiled artifacts of the same macro, so the name
    /// layer is counted once per holder, not duplicated per holder).
    /// Reported as the `engine.retained_bytes` telemetry gauge at
    /// compile time.
    pub fn retained_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<Op>()
            + self.commits.len() * std::mem::size_of::<Commit>()
            + self.seq_of_inst.len() * std::mem::size_of::<u32>()
            + self.syms.heap_bytes()
    }

    /// Name of the net mirrored by `slot`, or `None` for scratch slots
    /// (`net_count..slot_count`), resolved lazily against the shared
    /// interner.
    pub fn net_label(&self, slot: u32) -> Option<&str> {
        ((slot as usize) < self.net_count).then(|| self.syms.net_name(slot as usize))
    }

    /// Human-readable description of micro-op `idx` with its
    /// destination labelled by real net name (scratch destinations show
    /// as `%<slot>`) — the diagnostic view of the op stream.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn op_label(&self, idx: usize) -> String {
        let slot = |s: u32| match self.net_label(s) {
            Some(name) => format!("`{name}`"),
            None => format!("%{s}"),
        };
        match self.ops[idx] {
            Op::Const { dst, ones } => format!("{} = const {}", slot(dst), u8::from(ones)),
            Op::Copy { dst, a } => format!("{} = {}", slot(dst), slot(a)),
            Op::Not { dst, a } => format!("{} = !{}", slot(dst), slot(a)),
            Op::And { dst, a, b } => format!("{} = {} & {}", slot(dst), slot(a), slot(b)),
            Op::Or { dst, a, b } => format!("{} = {} | {}", slot(dst), slot(a), slot(b)),
            Op::Xor { dst, a, b } => format!("{} = {} ^ {}", slot(dst), slot(a), slot(b)),
            Op::Mux { dst, d0, d1, s } => {
                format!("{} = {} ? {} : {}", slot(dst), slot(s), slot(d1), slot(d0))
            }
        }
    }
}
