//! Netlist cleanup passes: constant propagation and dead-gate sweep.
//!
//! These play the gate-level-optimization role of the logic-synthesis
//! stage: subcircuit generators may tie unused legs to constants (e.g.
//! a half-populated compressor row, or a disabled MCR bank), and these
//! passes fold such constants through the logic and remove gates whose
//! outputs reach no port and no sequential element.

use crate::graph::{GroupId, InstId, Module, NetId, PortDir};
use syndcim_pdk::{CellFunction, CellKind, CellLibrary};
use syndcim_telemetry as telemetry;

/// Result of running [`optimize`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Gates removed by constant folding.
    pub folded: usize,
    /// Gates removed as dead logic.
    pub swept: usize,
    /// Number of passes run until fixpoint.
    pub passes: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Known {
    Unknown,
    Const(bool),
}

/// Fold constants through combinational gates and sweep dead logic until
/// fixpoint. Ports and sequential elements are preserved; the module is
/// rebuilt with unused instances removed (net ids are preserved — nets
/// may become dangling, which is harmless for all downstream consumers).
///
/// A pass that folds nothing also ends the loop once its constant
/// propagation settled: the sweep computes the full liveness closure in
/// one go and removes no gate a survivor reads, so a further pass would
/// see the same constants and could neither fold nor sweep anything.
///
/// Returns a report of the work done.
pub fn optimize(module: &mut Module, lib: &CellLibrary) -> OptReport {
    let mut report = OptReport::default();
    loop {
        report.passes += 1;
        let (folded, settled) = {
            telemetry::span!("optimize.fold");
            fold_constants(module, lib)
        };
        let swept = {
            telemetry::span!("optimize.sweep");
            sweep_dead(module, lib)
        };
        report.folded += folded;
        report.swept += swept;
        if folded == 0 && (swept == 0 || settled) {
            return report;
        }
        // Safety valve: the passes strictly shrink the instance list, so
        // this terminates; the cap only guards an internal logic error.
        if report.passes > 64 {
            return report;
        }
    }
}

/// One pass of constant folding. A gate all of whose *controlling* inputs
/// are known constants is replaced by rewiring its output to a tie net.
/// Returns the number of gates removed, and whether the propagation
/// reached its fixpoint (rather than its iteration cap).
///
/// Gates without a single known-constant input are skipped before any
/// evaluation. The skip is exact: with every input unknown the check
/// below enumerates the cell's whole truth table, and no library function
/// that has inputs is constant over all of them (only the input-less tie
/// cells are), so such a gate can never fold.
fn fold_constants(module: &mut Module, lib: &CellLibrary) -> (usize, bool) {
    let mut known = vec![Known::Unknown; module.net_count()];
    // Seed with tie cells.
    for inst in module.instances() {
        let cell = lib.cell(inst.cell);
        if let CellFunction::Const(v) = cell.function {
            known[inst.outputs[0].index()] = Known::Const(v);
        }
    }
    // Propagate in instance order repeatedly (cheap fixpoint; the graphs
    // we build are shallow in constants). The evaluation buffers are reused
    // by every gate that reaches evaluation.
    let mut ins: Vec<bool> = Vec::new();
    let mut unknowns: Vec<usize> = Vec::new();
    let mut out_buf = Vec::new();
    let mut changed = true;
    let mut evals = 0usize;
    while changed && evals < 8 {
        changed = false;
        evals += 1;
        for inst in module.instances() {
            if inst.inputs.iter().all(|n| known[n.index()] == Known::Unknown) {
                continue;
            }
            let cell = lib.cell(inst.cell);
            if cell.is_sequential() || matches!(cell.function, CellFunction::Const(_)) {
                continue;
            }
            // A cell output is constant iff it agrees across every
            // assignment of the unknown inputs (cells have ≤ 5 inputs, so
            // this exact check costs at most 16 evaluations here).
            ins.clear();
            unknowns.clear();
            for (pin, n) in inst.inputs.iter().enumerate() {
                match known[n.index()] {
                    Known::Const(v) => ins.push(v),
                    Known::Unknown => {
                        ins.push(false);
                        unknowns.push(pin);
                    }
                }
            }
            // Bit `pin` of `seen[v]` is set once output `pin` took value `v`.
            let mut seen = [0u8; 2];
            for combo in 0u32..(1 << unknowns.len()) {
                for (k, &pin) in unknowns.iter().enumerate() {
                    ins[pin] = combo >> k & 1 == 1;
                }
                cell.function.eval(&ins, false, &mut out_buf);
                for (pin, &v) in out_buf.iter().enumerate() {
                    seen[v as usize] |= 1 << pin;
                }
            }
            for (pin, &net) in inst.outputs.iter().enumerate() {
                let v = match (seen[0] >> pin & 1, seen[1] >> pin & 1) {
                    (1, 0) => false,
                    (0, 1) => true,
                    _ => continue,
                };
                if known[net.index()] != Known::Const(v) {
                    known[net.index()] = Known::Const(v);
                    changed = true;
                }
            }
        }
    }

    // Rewire: every constant net driven by a non-tie combinational gate
    // gets its sinks redirected onto the tie cell; gates all of whose
    // outputs are constant are removed outright.
    let mut subst: Vec<Option<NetId>> = vec![None; module.net_count()];
    let mut to_fold: Vec<InstId> = Vec::new();
    for (i, inst) in module.instances().enumerate() {
        let cell = lib.cell(inst.cell);
        if cell.is_sequential() || matches!(cell.function, CellFunction::Const(_)) {
            continue;
        }
        if inst.outputs.iter().any(|n| matches!(known[n.index()], Known::Const(_))) {
            to_fold.push(InstId(i as u32));
        }
    }
    let settled = !changed;
    if to_fold.is_empty() {
        return (0, settled);
    }
    let need = |v: bool| {
        to_fold
            .iter()
            .any(|&i| module.instance(i).outputs.iter().any(|n| known[n.index()] == Known::Const(v)))
    };
    let (need0, need1) = (need(false), need(true));
    let tie0 = if need0 { Some(ensure_tie(module, lib, false)) } else { None };
    let tie1 = if need1 { Some(ensure_tie(module, lib, true)) } else { None };
    for &i in &to_fold {
        for &out in module.instance(i).outputs {
            match known[out.index()] {
                Known::Const(false) => subst[out.index()] = Some(tie0.expect("tie0 exists")),
                Known::Const(true) => subst[out.index()] = Some(tie1.expect("tie1 exists")),
                Known::Unknown => {}
            }
        }
    }
    for i in 0..module.instance_count() {
        for n in module.inputs_mut(InstId(i as u32)) {
            if let Some(t) = subst[n.index()] {
                *n = t;
            }
        }
    }
    for p in module.ports.iter_mut() {
        if p.dir == PortDir::Output {
            if let Some(t) = subst[p.net.index()] {
                p.net = t;
            }
        }
    }
    // Remove gates whose every output folded (their nets now drive nothing).
    let mut keep = vec![true; module.instance_count()];
    for &i in &to_fold {
        keep[i.index()] = !module.instance(i).outputs.iter().all(|n| subst[n.index()].is_some());
    }
    let before = module.instance_count();
    module.retain_instances(&keep);
    (before - module.instance_count(), settled)
}

fn ensure_tie(module: &mut Module, lib: &CellLibrary, value: bool) -> NetId {
    let kind = if value { CellKind::TieHi } else { CellKind::TieLo };
    if let Some(tie) = module.instances().find(|inst| lib.cell(inst.cell).kind == kind) {
        return tie.outputs[0];
    }
    let id = module.add_net(if value { "_tie1" } else { "_tie0" });
    module.add_instance(if value { "_tiehi" } else { "_tielo" }, lib.id_of(kind), GroupId::TOP, &[], &[id]);
    id
}

/// Driver-table entry of a net nothing drives.
const UNDRIVEN: u32 = u32::MAX;
/// Driver-table entry of a net driven by an input port.
const PORT: u32 = u32::MAX - 1;

/// One pass of dead-gate sweeping: remove combinational instances none of
/// whose outputs reach an output port or any other live instance.
/// Returns the number removed.
///
/// Only drivers are needed, so the pass builds a flat per-net driver table
/// instead of a full [`Connectivity`](crate::Connectivity). A module with a
/// multiply-driven net is transiently inconsistent and is left untouched.
fn sweep_dead(module: &mut Module, lib: &CellLibrary) -> usize {
    let mut driver = vec![UNDRIVEN; module.net_count()];
    for p in module.input_ports() {
        if driver[p.net.index()] != UNDRIVEN {
            return 0;
        }
        driver[p.net.index()] = PORT;
    }
    for (i, inst) in module.instances().enumerate() {
        for &net in inst.outputs {
            if driver[net.index()] != UNDRIVEN {
                return 0;
            }
            driver[net.index()] = i as u32;
        }
    }
    let n = module.instance_count();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mark = |net: NetId, live: &mut [bool], stack: &mut Vec<usize>| {
        let d = driver[net.index()];
        if d < PORT && !live[d as usize] {
            live[d as usize] = true;
            stack.push(d as usize);
        }
    };

    // Roots: drivers of output ports, and all sequential instances (their
    // state is observable behaviour), plus everything feeding a sequential
    // data pin.
    for p in module.output_ports() {
        mark(p.net, &mut live, &mut stack);
    }
    for (i, inst) in module.instances().enumerate() {
        if lib.cell(inst.cell).is_sequential() && !live[i] {
            live[i] = true;
            stack.push(i);
        }
    }
    while let Some(i) = stack.pop() {
        for &net in module.instance(InstId(i as u32)).inputs {
            mark(net, &mut live, &mut stack);
        }
    }

    let before = module.instance_count();
    module.retain_instances(&live);
    before - module.instance_count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{validate, Connectivity, Driver};
    use crate::builder::NetlistBuilder;

    #[test]
    fn constant_and_folds_away() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let zero = b.const0();
        let dead = b.and2(a, zero); // always 0
        let y = b.or2(dead, a); // reduces to buffer-of-a behaviourally
        b.output("y", y);
        let mut m = b.finish();
        let before = m.instance_count();
        let rep = optimize(&mut m, &lib);
        assert!(rep.folded >= 1, "AND with constant 0 must fold: {rep:?}");
        assert!(m.instance_count() < before);
        let conn = Connectivity::build(&m).unwrap();
        validate(&m, &conn).unwrap();
    }

    #[test]
    fn fully_constant_cone_leaves_only_ties() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let one = b.const1();
        let zero = b.const0();
        let x = b.and2(one, zero);
        let y = b.xor2(x, one);
        b.output("y", y);
        let mut m = b.finish();
        optimize(&mut m, &lib);
        // Everything but tie cells should be gone.
        assert!(m.instances().all(|i| matches!(lib.cell(i.cell).kind, CellKind::TieHi | CellKind::TieLo)));
        // And the output must now be driven by the tie-1 (1&0=0, 0^1=1).
        let conn = Connectivity::build(&m).unwrap();
        let out = m.port("y").unwrap().net;
        match conn.driver_of(out) {
            Driver::Inst { inst, .. } => {
                assert_eq!(lib.cell(m.instance(inst).cell).kind, CellKind::TieHi);
            }
            other => panic!("expected tie driver, got {other:?}"),
        }
    }

    #[test]
    fn dead_logic_swept_registers_kept() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let _unused = b.xor2(a, a); // drives nothing
        let q = b.dff(a); // sequential: kept even though q is unused
        let y = b.not(a);
        b.output("y", y);
        let _ = q;
        let mut m = b.finish();
        let rep = optimize(&mut m, &lib);
        assert!(rep.swept >= 1);
        assert_eq!(
            m.instances().filter(|i| lib.cell(i.cell).is_sequential()).count(),
            1,
            "register must survive the sweep"
        );
    }

    #[test]
    fn constants_deeper_than_one_pass_still_fold() {
        // A half-adder carry chain stored in reverse order: each
        // propagation iteration learns one more constant carry, so one
        // pass hits its iteration cap having folded nothing (every half
        // adder keeps a live-looking sum). The loop must not stop there.
        const DEPTH: usize = 12;
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let zero = b.const0();
        let _dead = b.not(a);
        let first = b.module().instance_count();
        let carries: Vec<NetId> = (0..DEPTH).map(|_| b.ha(a, a).1).collect();
        // Instance `first + k` is chain level `DEPTH - 1 - k`.
        for k in 0..DEPTH {
            let feed = if k == DEPTH - 1 { zero } else { carries[k + 1] };
            b.patch_instance_input(first + k, 0, feed);
        }
        let y = b.and2(carries[0], a);
        b.output("y", y);
        let mut m = b.finish();
        let rep = optimize(&mut m, &lib);
        assert_eq!(rep.folded, 1, "the AND at the end of the chain folds: {rep:?}");
        assert!(rep.passes > 1, "{rep:?}");
        let conn = Connectivity::build(&m).unwrap();
        match conn.driver_of(m.port("y").unwrap().net) {
            Driver::Inst { inst, .. } => {
                assert_eq!(lib.cell(m.instance(inst).cell).kind, CellKind::TieLo)
            }
            other => panic!("expected tie driver, got {other:?}"),
        }
    }

    #[test]
    fn optimize_is_idempotent() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let zero = b.const0();
        let x = b.and2(a, zero);
        let y = b.or2(x, a);
        b.output("y", y);
        let mut m = b.finish();
        optimize(&mut m, &lib);
        let snapshot = m.clone();
        let rep2 = optimize(&mut m, &lib);
        assert_eq!(rep2.folded, 0);
        assert_eq!(rep2.swept, 0);
        assert_eq!(m, snapshot);
    }
}
