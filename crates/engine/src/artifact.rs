//! `.scim` codec for the compiled simulation [`Program`]
//! ([`SectionId::Program`](syndcim_ir::artifact::SectionId)).
//!
//! The section stores the ops the executor runs, as columns: one kind
//! tag byte per op (the kind's position in `OpKind::ALL`), then one
//! `u32` pin stream holding every op's pins in op order, outputs first,
//! so the tag alone says how many pins an op takes. The commits follow
//! as four columns (update tags, `in0`, `in1`, `q`), then the
//! instance → commit map. The net count is not stored: it is the
//! shared [`Symbols`]' net count.
//!
//! Decoding rejects as [`ArtifactError::Malformed`] an unknown kind or
//! update tag, a pin or commit slot that is not a net, a pin stream
//! longer or shorter than its tags need, commit columns of unequal
//! length, a map entry that is neither `NO_SEQ` nor a commit, and an
//! op that writes one of its own inputs — a one-op loop, over which the
//! executor's skip rule (see [`crate::exec`]) would not be exact. A
//! hostile artifact can therefore never make
//! [`BatchExec`](crate::BatchExec) read out of bounds, and a decoded
//! program re-encodes to the same bytes.

use syndcim_ir::artifact::{ArtifactError, SectionReader, SectionWriter};
use syndcim_ir::Symbols;
use syndcim_pdk::SeqUpdate;

use crate::program::{Commit, Op, OpKind, Program};

/// Sequential-update tags.
const SEQ_EDGE: u8 = 0;
const SEQ_EDGE_ENABLE: u8 = 1;
const SEQ_BITCELL_WRITE: u8 = 2;

/// Sentinel mirrored from `seq_of_inst`: "combinational instance".
const NO_SEQ: u32 = u32::MAX;

/// Encode `prog` into a [`SectionId::Program`](syndcim_ir::artifact::SectionId) payload. The shared
/// [`Symbols`] are *not* written here — they live in their own section
/// and are re-attached on decode, so the name layer is stored exactly
/// once per artifact no matter how many programs reference it.
pub fn encode_program(prog: &Program) -> SectionWriter {
    let mut w = SectionWriter::new();
    w.put_u8s(&prog.ops.iter().map(|op| op.kind as u8).collect::<Vec<_>>());
    w.put_u32s(&prog.ops.iter().flat_map(|op| &op.pins[..op.kind.pins()]).copied().collect::<Vec<_>>());

    let tags: Vec<u8> = prog
        .commits
        .iter()
        .map(|c| match c.update {
            SeqUpdate::Edge => SEQ_EDGE,
            SeqUpdate::EdgeEnable => SEQ_EDGE_ENABLE,
            SeqUpdate::BitcellWrite => SEQ_BITCELL_WRITE,
        })
        .collect();
    w.put_u8s(&tags);
    let columns: [fn(&Commit) -> u32; 3] = [|c| c.in0, |c| c.in1, |c| c.q];
    for column in columns {
        w.put_u32s(&prog.commits.iter().map(column).collect::<Vec<_>>());
    }
    w.put_u32s(&prog.seq_of_inst);
    w
}

/// Decode a [`SectionId::Program`](syndcim_ir::artifact::SectionId) payload against the already-decoded
/// shared `symbols`, re-validating every tag, slot and index.
pub fn decode_program(r: &mut SectionReader<'_>, symbols: &Symbols) -> Result<Program, ArtifactError> {
    let net_count = symbols.net_count();
    let kinds = r
        .get_u8s("op kind tags")?
        .iter()
        .map(|&t| {
            OpKind::ALL
                .get(usize::from(t))
                .copied()
                .ok_or_else(|| r.malformed(format!("unknown op kind tag {t}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let pins = r.get_indices(net_count, "op pins")?;
    let needed: usize = kinds.iter().map(|k| k.pins()).sum();
    if pins.len() != needed {
        return Err(r.malformed(format!("{} op pins where the kind tags need {needed}", pins.len())));
    }
    let mut ops = Vec::with_capacity(kinds.len());
    let mut rest = &pins[..];
    for (k, kind) in kinds.into_iter().enumerate() {
        let (op_pins, tail) = rest.split_at(kind.pins());
        rest = tail;
        let op = Op::new(kind, op_pins);
        if op.outputs().iter().any(|o| op.inputs().contains(o)) {
            return Err(r.malformed(format!("op {k}: a {kind:?} op writes one of its inputs")));
        }
        ops.push(op);
    }

    let tags = r.get_u8s("commit update tags")?;
    let in0 = r.get_indices(net_count, "commit in0")?;
    let in1 = r.get_indices(net_count, "commit in1")?;
    let q = r.get_indices(net_count, "commit q")?;
    if [in0.len(), in1.len(), q.len()] != [tags.len(); 3] {
        return Err(r.malformed("commit columns disagree in length"));
    }
    let mut commits = Vec::with_capacity(tags.len());
    for (i, &tag) in tags.iter().enumerate() {
        let update = match tag {
            SEQ_EDGE => SeqUpdate::Edge,
            SEQ_EDGE_ENABLE => SeqUpdate::EdgeEnable,
            SEQ_BITCELL_WRITE => SeqUpdate::BitcellWrite,
            t => return Err(r.malformed(format!("unknown sequential update tag {t}"))),
        };
        commits.push(Commit { update, in0: in0[i], in1: in1[i], q: q[i] });
    }

    let seq_of_inst = r.get_u32s("sequential index map")?;
    if seq_of_inst.len() != symbols.inst_count() {
        return Err(r.malformed(format!(
            "sequential index map covers {} instances, symbols have {}",
            seq_of_inst.len(),
            symbols.inst_count()
        )));
    }
    if let Some(s) = seq_of_inst.iter().find(|&&s| s != NO_SEQ && s as usize >= commits.len()) {
        return Err(r.malformed(format!("sequential index {s} beyond {} commits", commits.len())));
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

        // A pin beyond the nets.
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
