//! The compiled program representation.
//!
//! A [`Program`] is the netlist lowered into a flat, levelized stream of
//! word-level ops over dense *slots* that mirror the module's nets
//! one-to-one (so per-net toggle accounting stays compatible with the
//! interpreter and the power analyzer). There is one op per
//! combinational cell (the half adder alone takes two, an XOR and an
//! AND over the same inputs): an op reads its input nets once and then
//! writes its output nets, so no op needs a temporary and the executor
//! keeps no scratch slots. Sequential cells contribute no combinational
//! ops — they appear as `Commit` records executed once per clock cycle.
//!
//! Because every value an op computes lands on a net, the executor can
//! tell from per-net change flags alone whether an op would store
//! anything new, which is what lets a settle skip it (see
//! [`crate::exec`]).

use syndcim_ir::Symbols;
use syndcim_pdk::SeqUpdate;

/// Most pins (outputs plus inputs) one op has: the 4-2 compressor's
/// three outputs and five inputs.
pub(crate) const MAX_PINS: usize = 8;

/// The boolean function of one op, lane by lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// `y = 0`.
    Const0,
    /// `y = 1`.
    Const1,
    /// `y = a`.
    Copy,
    /// `y = !a`.
    Not,
    /// `y = a & b`.
    And,
    /// `y = a | b`.
    Or,
    /// `y = a ^ b`.
    Xor,
    /// `y = s ? d1 : d0`, inputs `d0, d1, s`.
    Mux,
    /// `y = !(a & b)`.
    Nand,
    /// `y = !(a | b)`.
    Nor,
    /// `y = !(a ^ b)`.
    Xnor,
    /// `y = !((a | b) & c)`.
    Oai21,
    /// `y = !((a | b) & (c | d))`.
    Oai22,
    /// `y = !((a & b) | c)`.
    Aoi21,
    /// Outputs `s = a ^ b ^ cin`, `co = maj(a, b, cin)`.
    FullAdder,
    /// Inputs `a, b, c, d, cin`; with `x = a ^ b ^ c ^ d`, outputs
    /// `s = x ^ cin`, `carry = x ? cin : d`, `cout = maj(a, b, c)`.
    Compressor42,
    /// `y = act & (s ? w1 : w0)`, inputs `act, w0, w1, s`.
    MultMux,
}

impl OpKind {
    /// Every kind, in declaration order: `kind as u8` is a kind's
    /// position here, which is also its `.scim` kind tag.
    pub(crate) const ALL: [OpKind; 17] = [
        OpKind::Const0,
        OpKind::Const1,
        OpKind::Copy,
        OpKind::Not,
        OpKind::And,
        OpKind::Or,
        OpKind::Xor,
        OpKind::Mux,
        OpKind::Nand,
        OpKind::Nor,
        OpKind::Xnor,
        OpKind::Oai21,
        OpKind::Oai22,
        OpKind::Aoi21,
        OpKind::FullAdder,
        OpKind::Compressor42,
        OpKind::MultMux,
    ];

    /// Number of output pins.
    pub(crate) fn outputs(self) -> usize {
        match self {
            OpKind::FullAdder => 2,
            OpKind::Compressor42 => 3,
            _ => 1,
        }
    }

    /// Number of pins, outputs plus inputs.
    pub(crate) fn pins(self) -> usize {
        match self {
            OpKind::Const0 | OpKind::Const1 => 1,
            OpKind::Copy | OpKind::Not => 2,
            OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Nand | OpKind::Nor | OpKind::Xnor => 3,
            OpKind::Mux | OpKind::Oai21 | OpKind::Aoi21 => 4,
            OpKind::Oai22 | OpKind::FullAdder | OpKind::MultMux => 5,
            OpKind::Compressor42 => 8,
        }
    }
}

/// One op: its kind and its net slots, the outputs first and then the
/// inputs in the cell's pin order. Pins past [`OpKind::pins`] repeat
/// pin 0, so the executor's change check reads all [`MAX_PINS`] slots
/// without a length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Op {
    pub kind: OpKind,
    pub pins: [u32; MAX_PINS],
}

impl Op {
    /// An op of `kind` over `pins` (outputs, then inputs).
    ///
    /// # Panics
    ///
    /// Panics if `pins` holds other than `kind.pins()` slots.
    pub(crate) fn new(kind: OpKind, pins: &[u32]) -> Op {
        assert_eq!(pins.len(), kind.pins(), "{kind:?} takes {} pins", kind.pins());
        Op { kind, pins: std::array::from_fn(|i| pins.get(i).copied().unwrap_or(pins[0])) }
    }

    /// The output slots.
    pub(crate) fn outputs(&self) -> &[u32] {
        &self.pins[..self.kind.outputs()]
    }

    /// The input slots.
    pub(crate) fn inputs(&self) -> &[u32] {
        &self.pins[self.kind.outputs()..self.kind.pins()]
    }
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
    /// Number of net slots (== the module's net count).
    pub(crate) net_count: usize,
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

    /// Number of ops in the combinational stream: one per
    /// combinational cell, two per half adder.
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

    /// Name of the net mirrored by `slot`, resolved lazily against the
    /// shared interner, or `None` past the last net.
    pub fn net_label(&self, slot: u32) -> Option<&str> {
        ((slot as usize) < self.net_count).then(|| self.syms.net_name(slot as usize))
    }

    /// Human-readable description of op `idx`, every operand labelled
    /// by its net name — the diagnostic view of the op stream.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn op_label(&self, idx: usize) -> String {
        let op = &self.ops[idx];
        let name = |s: u32| format!("`{}`", self.net_label(s).unwrap_or("?"));
        let outs = op.outputs().iter().map(|&s| name(s)).collect::<Vec<_>>().join(", ");
        let i: Vec<String> = op.inputs().iter().map(|&s| name(s)).collect();
        let rhs = match op.kind {
            OpKind::Const0 => "const 0".to_string(),
            OpKind::Const1 => "const 1".to_string(),
            OpKind::Copy => i[0].clone(),
            OpKind::Not => format!("!{}", i[0]),
            OpKind::And => format!("{} & {}", i[0], i[1]),
            OpKind::Or => format!("{} | {}", i[0], i[1]),
            OpKind::Xor => format!("{} ^ {}", i[0], i[1]),
            OpKind::Mux => format!("{} ? {} : {}", i[2], i[1], i[0]),
            OpKind::Nand => format!("!({} & {})", i[0], i[1]),
            OpKind::Nor => format!("!({} | {})", i[0], i[1]),
            OpKind::Xnor => format!("!({} ^ {})", i[0], i[1]),
            OpKind::Oai21 => format!("!(({} | {}) & {})", i[0], i[1], i[2]),
            OpKind::Oai22 => format!("!(({} | {}) & ({} | {}))", i[0], i[1], i[2], i[3]),
            OpKind::Aoi21 => format!("!(({} & {}) | {})", i[0], i[1], i[2]),
            OpKind::FullAdder => format!("fa({})", i.join(", ")),
            OpKind::Compressor42 => format!("c42({})", i.join(", ")),
            OpKind::MultMux => format!("{} & ({} ? {} : {})", i[0], i[3], i[2], i[1]),
        };
        format!("{outs} = {rhs}")
    }
}
