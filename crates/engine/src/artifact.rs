//! `.scim` codec for the compiled simulation [`Program`]
//! ([`SectionId::Program`](syndcim_ir::artifact::SectionId)).
//!
//! The section stores the op stream as AND/OR/XOR/NOT/MUX/CONST
//! micro-ops over slots: each op expands through its kind's
//! *template*, a fixed micro-op sequence over the op's pins and scratch
//! slots `net_count..net_count + SCRATCH_SLOTS`. The templates are the
//! encoding only — the executor runs the fused op and holds no scratch
//! slots. Micro-op types are packed two per byte as 4-bit nibbles while
//! the operand slots follow as one contiguous `u32` stream in micro-op
//! order; each type has a fixed operand arity, so the nibble alone
//! determines how many operands to pull.
//!
//! Decoding accepts exactly the template expansions: it matches a
//! template at every position of the micro-op stream, binding pins to
//! net slots and requiring every scratch operand to be that template's
//! own temporary. Anything else is [`ArtifactError::Malformed`]: a
//! scratch operand outside a template, a template cut off by the end of
//! the stream, an op that writes one of its own inputs (its micro-ops
//! would then read the new value where the fused op reads the old one),
//! or any slot past the scratch range. Commit slots and `seq_of_inst`
//! entries are re-validated too, so a hostile artifact can never make
//! [`BatchExec`](crate::BatchExec) read out of bounds, and a decoded
//! program re-encodes to the same bytes.

use syndcim_ir::artifact::{ArtifactError, SectionReader, SectionWriter};
use syndcim_ir::Symbols;
use syndcim_pdk::SeqUpdate;

use crate::program::{Commit, Op, OpKind, Program, MAX_PINS};

/// Micro-op nibbles (two per byte, low nibble first). `Const` splits by
/// its immediate so the operand stream stays pure slot indices.
const OP_CONST0: u8 = 0;
const OP_CONST1: u8 = 1;
const OP_COPY: u8 = 2;
const OP_NOT: u8 = 3;
const OP_AND: u8 = 4;
const OP_OR: u8 = 5;
const OP_XOR: u8 = 6;
const OP_MUX: u8 = 7;

/// Operand count of a micro-op nibble (`None` for an unknown nibble).
fn arity(nib: u8) -> Option<usize> {
    match nib {
        OP_CONST0 | OP_CONST1 => Some(1),
        OP_COPY | OP_NOT => Some(2),
        OP_AND | OP_OR | OP_XOR => Some(3),
        OP_MUX => Some(4),
        _ => None,
    }
}

/// Sequential-update tags.
const SEQ_EDGE: u8 = 0;
const SEQ_EDGE_ENABLE: u8 = 1;
const SEQ_BITCELL_WRITE: u8 = 2;

/// Sentinel mirrored from `seq_of_inst`: "combinational instance".
const NO_SEQ: u32 = u32::MAX;

/// Scratch slots the format reserves past the nets (the widest
/// template, the 4-2 compressor's, uses five); the section's slot count
/// is always `net_count + SCRATCH_SLOTS`.
const SCRATCH_SLOTS: usize = 8;

/// A template operand: pin `p` of the op (outputs first, then inputs),
/// or scratch temporary `t` (slot `net_count + t`).
#[derive(Clone, Copy)]
enum Arg {
    P(usize),
    T(u32),
}
use Arg::{P, T};

/// The micro-op sequence `kind` encodes as, each micro-op its nibble
/// and operands (destination first; a mux reads `d0, d1, s`).
fn template(kind: OpKind) -> &'static [(u8, &'static [Arg])] {
    match kind {
        OpKind::Const0 => &[(OP_CONST0, &[P(0)])],
        OpKind::Const1 => &[(OP_CONST1, &[P(0)])],
        OpKind::Copy => &[(OP_COPY, &[P(0), P(1)])],
        OpKind::Not => &[(OP_NOT, &[P(0), P(1)])],
        OpKind::And => &[(OP_AND, &[P(0), P(1), P(2)])],
        OpKind::Or => &[(OP_OR, &[P(0), P(1), P(2)])],
        OpKind::Xor => &[(OP_XOR, &[P(0), P(1), P(2)])],
        OpKind::Mux => &[(OP_MUX, &[P(0), P(1), P(2), P(3)])],
        OpKind::Nand => &[(OP_AND, &[T(0), P(1), P(2)]), (OP_NOT, &[P(0), T(0)])],
        OpKind::Nor => &[(OP_OR, &[T(0), P(1), P(2)]), (OP_NOT, &[P(0), T(0)])],
        OpKind::Xnor => &[(OP_XOR, &[T(0), P(1), P(2)]), (OP_NOT, &[P(0), T(0)])],
        // !((a | b) & c)
        OpKind::Oai21 => {
            &[(OP_OR, &[T(0), P(1), P(2)]), (OP_AND, &[T(1), T(0), P(3)]), (OP_NOT, &[P(0), T(1)])]
        }
        // !((a | b) & (c | d))
        OpKind::Oai22 => &[
            (OP_OR, &[T(0), P(1), P(2)]),
            (OP_OR, &[T(1), P(3), P(4)]),
            (OP_AND, &[T(2), T(0), T(1)]),
            (OP_NOT, &[P(0), T(2)]),
        ],
        // !((a & b) | c)
        OpKind::Aoi21 => {
            &[(OP_AND, &[T(0), P(1), P(2)]), (OP_OR, &[T(1), T(0), P(3)]), (OP_NOT, &[P(0), T(1)])]
        }
        // s = a ^ b ^ cin; co = (a & b) | ((a ^ b) & cin)
        OpKind::FullAdder => &[
            (OP_XOR, &[T(0), P(2), P(3)]),
            (OP_AND, &[T(1), P(2), P(3)]),
            (OP_AND, &[T(2), T(0), P(4)]),
            (OP_XOR, &[P(0), T(0), P(4)]),
            (OP_OR, &[P(1), T(1), T(2)]),
        ],
        // x = a^b^c^d; s = x^cin; carry = x ? cin : d;
        // cout = (a & b) | (c & (a ^ b))
        OpKind::Compressor42 => &[
            (OP_XOR, &[T(0), P(3), P(4)]),
            (OP_XOR, &[T(1), P(5), P(6)]),
            (OP_XOR, &[T(2), T(0), T(1)]),
            (OP_XOR, &[P(0), T(2), P(7)]),
            (OP_MUX, &[P(1), P(6), P(7), T(2)]),
            (OP_AND, &[T(3), P(3), P(4)]),
            (OP_AND, &[T(4), P(5), T(0)]),
            (OP_OR, &[P(2), T(3), T(4)]),
        ],
        // act & (s ? w1 : w0)
        OpKind::MultMux => &[(OP_MUX, &[T(0), P(2), P(3), P(4)]), (OP_AND, &[P(0), P(1), T(0)])],
    }
}

/// Encode `prog` into a [`SectionId::Program`](syndcim_ir::artifact::SectionId) payload. The shared
/// [`Symbols`] are *not* written here — they live in their own section
/// and are re-attached on decode, so the name layer is stored exactly
/// once per artifact no matter how many programs reference it.
pub fn encode_program(prog: &Program) -> SectionWriter {
    let mut w = SectionWriter::new();
    let scratch = prog.net_count as u32;
    w.put_u64(prog.net_count as u64);
    w.put_u64((prog.net_count + SCRATCH_SLOTS) as u64);

    let mut nibbles = Vec::new();
    let mut operands = Vec::new();
    for op in &prog.ops {
        for &(nib, args) in template(op.kind) {
            nibbles.push(nib);
            operands.extend(args.iter().map(|&arg| match arg {
                P(p) => op.pins[p],
                T(t) => scratch + t,
            }));
        }
    }
    w.put_u32(nibbles.len() as u32);
    for pair in nibbles.chunks(2) {
        w.put_u8(pair[0] | pair.get(1).map_or(0, |hi| hi << 4));
    }
    w.put_u32s(&operands);

    w.put_u32(prog.commits.len() as u32);
    for c in &prog.commits {
        w.put_u8(match c.update {
            SeqUpdate::Edge => SEQ_EDGE,
            SeqUpdate::EdgeEnable => SEQ_EDGE_ENABLE,
            SeqUpdate::BitcellWrite => SEQ_BITCELL_WRITE,
        });
        w.put_u32(c.in0);
        w.put_u32(c.in1);
        w.put_u32(c.q);
    }
    w.put_u32s(&prog.seq_of_inst);
    w
}

/// Match `kind`'s template against the micro-ops starting at nibble
/// `at` and operand `cursor`, binding its pins to net slots. Returns the
/// op and the operands it consumed, or `None` if the stream differs
/// anywhere (including running out).
fn match_template(
    kind: OpKind,
    nibbles: &[u8],
    operands: &[u32],
    at: usize,
    cursor: usize,
    net_count: usize,
) -> Option<(Op, usize)> {
    let tpl = template(kind);
    let mut pins = [None::<u32>; MAX_PINS];
    let mut used = 0;
    for (k, &(nib, args)) in tpl.iter().enumerate() {
        if nibbles.get(at + k) != Some(&nib) {
            return None;
        }
        for (&arg, &slot) in args.iter().zip(operands.get(cursor + used..)?) {
            let ok = match arg {
                T(t) => slot as usize == net_count + t as usize,
                P(p) => (slot as usize) < net_count && *pins[p].get_or_insert(slot) == slot,
            };
            if !ok {
                return None;
            }
        }
        used += args.len();
        if cursor + used > operands.len() {
            return None;
        }
    }
    let pins: [u32; MAX_PINS] = std::array::from_fn(|p| pins[p].unwrap_or(0));
    Some((Op::new(kind, &pins[..kind.pins()]), used))
}

/// Decode a [`SectionId::Program`](syndcim_ir::artifact::SectionId) payload against the already-decoded
/// shared `symbols`, re-validating every slot and index bound and
/// folding each template back into its op.
pub fn decode_program(r: &mut SectionReader<'_>, symbols: &Symbols) -> Result<Program, ArtifactError> {
    let net_count = r.get_u64("program net count")? as usize;
    if net_count != symbols.net_count() {
        return Err(
            r.malformed(format!("net count {net_count} disagrees with symbols ({})", symbols.net_count()))
        );
    }
    let slot_count = r.get_u64("program slot count")?;
    if slot_count != (net_count + SCRATCH_SLOTS) as u64 {
        return Err(r.malformed(format!(
            "slot count {slot_count} is not {net_count} nets plus {SCRATCH_SLOTS} scratch slots"
        )));
    }

    let micro_count = r.get_count(1, "op nibbles")?;
    let mut nibbles = Vec::with_capacity(micro_count + 1);
    for _ in 0..micro_count.div_ceil(2) {
        let b = r.get_u8("op nibble")?;
        nibbles.extend([b & 0xF, b >> 4]);
    }
    // A stray high nibble on an odd-count tail is corruption too.
    if nibbles.len() > micro_count && nibbles.pop() != Some(0) {
        return Err(r.malformed("nonzero padding nibble after the op stream"));
    }
    if let Some(&nib) = nibbles.iter().find(|&&nib| arity(nib).is_none()) {
        return Err(r.malformed(format!("unknown op nibble {nib}")));
    }
    let operands = r.get_u32s("op operands")?;
    // The kinds whose template starts with each nibble, so a position
    // tries only the templates that can start there.
    let mut by_first: [Vec<OpKind>; 8] = Default::default();
    for kind in OpKind::ALL {
        by_first[usize::from(template(kind)[0].0)].push(kind);
    }
    let mut ops = Vec::new();
    let (mut at, mut cursor) = (0usize, 0usize);
    while at < micro_count {
        let Some((op, used)) = by_first[usize::from(nibbles[at])]
            .iter()
            .find_map(|&kind| match_template(kind, &nibbles, &operands, at, cursor, net_count))
        else {
            return Err(r.malformed(format!(
                "micro-op {at} starts no cell template (scratch operand outside a template, \
                 slot out of range, or a template cut off)"
            )));
        };
        if op.outputs().iter().any(|o| op.inputs().contains(o)) {
            return Err(r.malformed(format!("micro-op {at}: a {:?} op writes one of its inputs", op.kind)));
        }
        at += template(op.kind).len();
        cursor += used;
        ops.push(op);
    }
    if cursor != operands.len() {
        return Err(r.malformed(format!("{} operand(s) beyond the op stream", operands.len() - cursor)));
    }

    let commit_count = r.get_count(13, "commit table")?;
    let mut commits = Vec::with_capacity(commit_count);
    let check_net = |r: &SectionReader<'_>, s: u32, what: &'static str| {
        if (s as usize) < net_count {
            Ok(s)
        } else {
            Err(r.malformed(format!("{what}: slot {s} out of range (program has {net_count} nets)")))
        }
    };
    for _ in 0..commit_count {
        let update = match r.get_u8("commit update tag")? {
            SEQ_EDGE => SeqUpdate::Edge,
            SEQ_EDGE_ENABLE => SeqUpdate::EdgeEnable,
            SEQ_BITCELL_WRITE => SeqUpdate::BitcellWrite,
            t => return Err(r.malformed(format!("unknown sequential update tag {t}"))),
        };
        let in0 = r.get_u32("commit in0")?;
        let in1 = r.get_u32("commit in1")?;
        let q = r.get_u32("commit q")?;
        let in0 = check_net(r, in0, "commit in0")?;
        let in1 = check_net(r, in1, "commit in1")?;
        let q = check_net(r, q, "commit q")?;
        commits.push(Commit { update, in0, in1, q });
    }

    let seq_of_inst = r.get_u32s("sequential index map")?;
    if seq_of_inst.len() != symbols.inst_count() {
        return Err(r.malformed(format!(
            "sequential index map covers {} instances, symbols have {}",
            seq_of_inst.len(),
            symbols.inst_count()
        )));
    }
    for &s in &seq_of_inst {
        if s != NO_SEQ && s as usize >= commit_count {
            return Err(r.malformed(format!("sequential index {s} beyond {commit_count} commits")));
        }
    }

    Ok(Program { net_count, ops, commits, seq_of_inst, syms: symbols.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_ir::artifact::{ArtifactReader, ArtifactWriter, SectionId};
    use syndcim_ir::Lowering;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::{CellKind, CellLibrary};

    /// Every combinational cell of the library over shared inputs, plus
    /// all three sequential update rules.
    fn sample() -> (Program, Symbols) {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("mix", &lib);
        let ins: Vec<_> = (0..5).map(|i| b.input(format!("in{i}"))).collect();
        let mut acc = b.xor2(ins[0], ins[1]);
        for cell in lib.cells().iter().filter(|c| !c.is_sequential()) {
            for out in b.add(cell.kind, &ins[..cell.function.input_count()]) {
                acc = b.xor2(acc, out);
            }
        }
        let q = b.dff(acc);
        let qe = b.dffe(acc, ins[0]);
        let rbl = b.add(CellKind::Sram6T2T, &[ins[0], ins[1]])[0];
        let m1 = b.xor2(q, qe);
        let y = b.xor2(m1, rbl);
        b.output("y", y);
        let m = b.finish();
        let low = Lowering::validated(&m, &lib).unwrap();
        let prog = Program::from_lowering(&low, &m, &lib);
        (prog, low.symbols().clone())
    }

    fn frame(payload: SectionWriter) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ArtifactWriter::new(&mut out, 1).unwrap();
        w.write_section(SectionId::Program, payload).unwrap();
        w.finish().unwrap();
        out
    }

    fn decode(bytes: &[u8], syms: &Symbols) -> Result<Program, ArtifactError> {
        let reader = ArtifactReader::parse(bytes).unwrap();
        let mut r = reader.reader(SectionId::Program).unwrap();
        let prog = decode_program(&mut r, syms)?;
        r.finish().unwrap();
        Ok(prog)
    }

    #[test]
    fn every_template_names_each_pin_and_fits_its_micro_op_arity() {
        for kind in OpKind::ALL {
            let mut named = vec![false; kind.pins()];
            for &(nib, args) in template(kind) {
                assert_eq!(arity(nib), Some(args.len()), "{kind:?}");
                for &arg in args {
                    match arg {
                        P(p) => named[p] = true,
                        T(t) => assert!((t as usize) < SCRATCH_SLOTS, "{kind:?}"),
                    }
                }
            }
            assert!(named.iter().all(|&n| n), "{kind:?} leaves a pin unnamed");
        }
    }

    #[test]
    fn program_codec_roundtrips_ops_commits_and_seq_map() {
        let (prog, syms) = sample();
        let kinds: Vec<OpKind> = prog.ops.iter().map(|op| op.kind).collect();
        assert!(OpKind::ALL.iter().all(|k| kinds.contains(k)), "the sample holds every op kind");
        let bytes = frame(encode_program(&prog));
        let back = decode(&bytes, &syms).unwrap();
        assert_eq!(back.net_count, prog.net_count);
        assert_eq!(back.ops, prog.ops);
        assert_eq!(back.seq_of_inst, prog.seq_of_inst);
        assert_eq!(back.commits.len(), prog.commits.len());
        for (a, b) in back.commits.iter().zip(&prog.commits) {
            assert_eq!((a.update, a.in0, a.in1, a.q), (b.update, b.in0, b.in1, b.q));
        }
        assert_eq!(frame(encode_program(&back)), bytes, "a decoded program re-encodes to its bytes");
    }

    #[test]
    fn hostile_slots_and_tags_are_rejected() {
        let (prog, syms) = sample();

        // An operand slot beyond the scratch range.
        let mut mutated = prog.clone();
        let last = mutated.ops.last_mut().unwrap();
        assert_eq!(last.kind, OpKind::Xor, "sample ends in an xor");
        last.pins[1] = u32::MAX;
        let bytes = frame(encode_program(&mutated));
        assert!(matches!(decode(&bytes, &syms), Err(ArtifactError::Malformed { .. })));

        // A dangling sequential index.
        let mut mutated = prog.clone();
        let seq_slot =
            mutated.seq_of_inst.iter().position(|&s| s != NO_SEQ).expect("sample has sequential cells");
        mutated.seq_of_inst[seq_slot] = 1000;
        let bytes = frame(encode_program(&mutated));
        assert!(matches!(decode(&bytes, &syms), Err(ArtifactError::Malformed { .. })));
    }
}
