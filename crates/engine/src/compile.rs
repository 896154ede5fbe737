//! Netlist → [`Program`] compilation.
//!
//! The shared [`Lowering`] pass validates connectivity and levelizes
//! the combinational instances (the same `syndcim_netlist::levelize`
//! order the interpreter uses, so both backends agree on evaluation
//! semantics); this module then maps every cell's [`CellFunction`] to
//! one op over the cell's net slots (the half adder to an XOR and an
//! AND), so only real nets are ever computed or toggle-accounted. The
//! compiled timing
//! program in `syndcim-sta` consumes the same [`Lowering`], emitting
//! delay arcs where this module emits boolean ops.

use syndcim_netlist::{Module, NetlistError};
use syndcim_pdk::{CellFunction, CellLibrary};
use syndcim_telemetry as telemetry;

use syndcim_ir::Lowering;

use crate::program::{Commit, Op, OpKind, Program, MAX_PINS};

impl Program {
    /// Compile `module` against `lib`.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist fails validation (floating nets,
    /// multiple drivers) or contains a combinational loop — the same
    /// conditions under which the interpreter refuses the module.
    pub fn compile(module: &Module, lib: &CellLibrary) -> Result<Program, NetlistError> {
        let low = Lowering::validated(module, lib)?;
        Ok(Self::from_lowering(&low, module, lib))
    }

    /// Lower an already-traversed module into a simulation program.
    ///
    /// This is the back half of [`Program::compile`]: callers that
    /// already hold a [`Lowering`] (for example to also build a compiled
    /// timing program from the same traversal) skip re-levelizing the
    /// netlist.
    pub fn from_lowering(low: &Lowering, module: &Module, lib: &CellLibrary) -> Program {
        telemetry::span!("engine.compile");
        // One op per cell, two per half adder (about 6% of the paper
        // chip's cells): a quarter more than the cell count keeps the
        // stream from regrowing while it is written.
        let mut ops = Vec::with_capacity(low.order().len() + low.order().len() / 4);
        for &id in low.order() {
            let inst = module.instance(id);
            let kind = match lib.cell(inst.cell).function {
                CellFunction::Const(false) => OpKind::Const0,
                CellFunction::Const(true) => OpKind::Const1,
                CellFunction::Identity => OpKind::Copy,
                CellFunction::Not => OpKind::Not,
                CellFunction::And => OpKind::And,
                CellFunction::Or => OpKind::Or,
                CellFunction::Xor => OpKind::Xor,
                CellFunction::Mux2 => OpKind::Mux,
                CellFunction::Nand => OpKind::Nand,
                CellFunction::Nor => OpKind::Nor,
                CellFunction::Xnor => OpKind::Xnor,
                CellFunction::Oai21 => OpKind::Oai21,
                CellFunction::Oai22 => OpKind::Oai22,
                CellFunction::Aoi21 => OpKind::Aoi21,
                CellFunction::FullAdder => OpKind::FullAdder,
                CellFunction::Compressor42 => OpKind::Compressor42,
                CellFunction::MultMuxFused => OpKind::MultMux,
                CellFunction::HalfAdder => {
                    // s = a ^ b; co = a & b — two plain ops, no scratch.
                    let (i, o) = (inst.inputs, inst.outputs);
                    let (a, b) = (i[0].index() as u32, i[1].index() as u32);
                    ops.push(Op::new(OpKind::Xor, &[o[0].index() as u32, a, b]));
                    ops.push(Op::new(OpKind::And, &[o[1].index() as u32, a, b]));
                    continue;
                }
                CellFunction::SeqQ => unreachable!("sequential cells are excluded from levelize order"),
            };
            let (outs, ins) = (inst.outputs, inst.inputs);
            debug_assert_eq!(outs.len() + ins.len(), kind.pins(), "{kind:?} pin count");
            let mut pins = [outs[0].index() as u32; MAX_PINS];
            for (pin, net) in pins.iter_mut().zip(outs.iter().chain(ins)) {
                *pin = net.index() as u32;
            }
            ops.push(Op { kind, pins });
        }

        let mut commits = Vec::new();
        let mut seq_of_inst = vec![u32::MAX; module.instance_count()];
        for (idx, inst) in module.instances().enumerate() {
            let cell = lib.cell(inst.cell);
            let Some(seq) = cell.seq else { continue };
            seq_of_inst[idx] = commits.len() as u32;
            let in0 = inst.inputs[0].index() as u32;
            let in1 = inst.inputs.get(1).map_or(in0, |n| n.index() as u32);
            commits.push(Commit { update: seq.update, in0, in1, q: inst.outputs[0].index() as u32 });
        }

        let prog =
            Program { net_count: low.net_count(), ops, commits, seq_of_inst, syms: low.symbols().clone() };
        telemetry::counter("engine.ops_emitted").add(prog.op_count() as u64);
        telemetry::gauge("engine.retained_bytes").set(prog.retained_bytes() as u64);
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::{InstId, NetId, NetlistBuilder};
    use syndcim_pdk::CellKind;

    #[test]
    fn compiles_every_combinational_cell_kind() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("all", &lib);
        let ins: Vec<_> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let mut outs = Vec::new();
        for cell in lib.cells() {
            if cell.is_sequential() {
                continue;
            }
            let n = cell.function.input_count();
            outs.extend(b.add(cell.kind, &ins[..n]));
        }
        for (k, &o) in outs.iter().enumerate() {
            b.output(format!("o{k}"), o);
        }
        let m = b.finish();
        let p = Program::compile(&m, &lib).unwrap();
        assert!(p.op_count() > 0);
        assert_eq!(p.seq_count(), 0);
    }

    #[test]
    fn sequential_cells_become_commits() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("seq", &lib);
        let d = b.input("d");
        let en = b.input("en");
        let q0 = b.dff(d);
        let q1 = b.dffe(d, en);
        let rbl = b.add(CellKind::Sram6T2T, &[en, d])[0];
        b.output("q0", q0);
        b.output("q1", q1);
        b.output("rbl", rbl);
        let m = b.finish();
        let p = Program::compile(&m, &lib).unwrap();
        assert_eq!(p.seq_count(), 3);
        assert_eq!(p.op_count(), 0);
    }

    #[test]
    fn net_and_op_labels_resolve_through_the_interner() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("lbl", &lib);
        let a = b.input("a");
        let c = b.input("c");
        let y = b.add(CellKind::Nand2, &[a, c])[0];
        b.output("y", y);
        let m = b.finish();
        let p = Program::compile(&m, &lib).unwrap();
        // Every slot resolves to its net name; nothing past the nets does.
        for i in 0..m.net_count() as u32 {
            assert_eq!(p.net_label(i), Some(m.net_name(NetId(i))));
        }
        assert_eq!(p.net_label(m.net_count() as u32), None, "no slot past the nets");
        // The NAND is one fused op reading `a` and `c` into `y`'s net.
        assert_eq!(p.op_count(), 1);
        assert_eq!(p.op_label(0), format!("`{}` = !(`a` & `c`)", m.net_name(y)));
    }

    #[test]
    fn rejects_combinational_loops_like_the_interpreter() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("loop", &lib);
        let a = b.input("a");
        let x = b.and2(a, a);
        let y = b.and2(x, x);
        b.output("y", y);
        let mut m = b.finish();
        let y_net = m.instance(InstId(1)).outputs[0];
        m.inputs_mut(InstId(0))[1] = y_net;
        assert!(Program::compile(&m, &lib).is_err());
    }
}
