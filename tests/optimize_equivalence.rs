//! `optimize` preserves observable behaviour.
//!
//! Constant folding and the dead-gate sweep rewrite the netlist every
//! `implement` signs off, so they must never change what the macro does.
//! Each case here builds a seeded random levelized netlist — tie-fed
//! constant cones, DFF/DFFE registers and SRAM bitcells with feedback,
//! dead logic and multi-output cells (HA/FA/C42) — and runs the
//! reference `Simulator` on the module before and after `optimize`
//! under the same random stimulus. Every output port must agree on every
//! cycle, before and after the clock edge, and so must every register's
//! stored state; registers are matched by instance name because the
//! sweep re-indexes instances. The paper chip gets the same check.
//!
//! Cases run as seeded loops in the `tests/properties.rs` style; set
//! `SYNDCIM_FUZZ_CASES=N` to run more of them (CI runs a larger count).

mod support;

use std::collections::HashMap;

use rand::Rng;
use support::random_module;
use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_netlist::{
    optimize, validate, Connectivity, Driver, InstId, Module, NetId, NetlistBuilder, OptReport,
};
use syndcim_pdk::{CellKind, CellLibrary};
use syndcim_sim::vectors::seeded_rng;
use syndcim_sim::Simulator;

/// Cases run by plain `cargo test`.
const DEFAULT_CASES: u64 = 24;
/// Clock cycles each case is simulated for.
const CYCLES: usize = 40;

fn cases() -> u64 {
    std::env::var("SYNDCIM_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_CASES)
}

/// Simulate `before` and `after` side by side under one seeded random
/// stimulus and assert identical outputs and register states.
fn assert_equivalent(lib: &CellLibrary, before: &Module, after: &Module, seed: u64, label: &str) {
    let mut rng = seeded_rng(seed ^ 0x5717);
    let mut sims = [Simulator::new(before, lib).unwrap(), Simulator::new(after, lib).unwrap()];
    let inputs: Vec<&str> = before.input_ports().map(|p| p.name.as_str()).collect();
    let outputs: Vec<&str> = before.output_ports().map(|p| p.name.as_str()).collect();
    let by_name = names(after);
    let regs: Vec<(InstId, InstId)> = (0..before.instance_count() as u32)
        .map(InstId)
        .filter(|&i| lib.cell(before.instance(i).cell).is_sequential())
        .map(|i| {
            let name = before.inst_name(i);
            (i, *by_name.get(name).unwrap_or_else(|| panic!("{label}: register `{name}` swept")))
        })
        .collect();
    assert_eq!(
        regs.len(),
        after.instances().filter(|i| lib.cell(i.cell).is_sequential()).count(),
        "{label}: register count"
    );

    for cycle in 0..CYCLES {
        for name in &inputs {
            let v = rng.gen_bool(0.5);
            for sim in &mut sims {
                sim.set(name, v);
            }
        }
        for phase in ["settle", "step"] {
            for sim in &mut sims {
                if phase == "settle" {
                    sim.settle();
                } else {
                    sim.step();
                }
            }
            let [a, b] = &sims;
            for name in &outputs {
                assert_eq!(a.get(name), b.get(name), "{label}: output `{name}` at cycle {cycle} ({phase})");
            }
            for &(ra, rb) in &regs {
                assert_eq!(
                    a.state_of(ra),
                    b.state_of(rb),
                    "{label}: register {ra:?} at cycle {cycle} ({phase})"
                );
            }
        }
    }
}

/// Each instance of `m` by name.
fn names(m: &Module) -> HashMap<&str, InstId> {
    (0..m.instance_count() as u32).map(|i| (m.inst_name(InstId(i)), InstId(i))).collect()
}

/// `optimize` only removes instances, adds tie cells and rewires
/// inputs: every other instance of `after` keeps its place in
/// `before`'s order and its name, cell, group and output pins, and
/// each input pin is its original net or a tie cell's.
fn assert_survivors_intact(lib: &CellLibrary, before: &Module, after: &Module, label: &str) {
    let conn = Connectivity::build(after).unwrap();
    let is_tie =
        |inst: InstId| matches!(lib.cell(after.instance(inst).cell).kind, CellKind::TieLo | CellKind::TieHi);
    let tie_net = |net: NetId| matches!(conn.driver_of(net), Driver::Inst { inst, .. } if is_tie(inst));
    let by_name = names(before);
    let mut last = None;
    for j in (0..after.instance_count() as u32).map(InstId) {
        let name = after.inst_name(j);
        let Some(&i) = by_name.get(name) else {
            assert!(is_tie(j), "{label}: `{name}` is neither a survivor nor a new tie cell");
            continue;
        };
        assert!(last < Some(i), "{label}: `{name}` moved out of order");
        last = Some(i);
        let (was, is) = (before.instance(i), after.instance(j));
        assert_eq!((was.cell, was.group, was.outputs), (is.cell, is.group, is.outputs), "{label}: `{name}`");
        for (pin, (&old, &new)) in was.inputs.iter().zip(is.inputs).enumerate() {
            assert!(old == new || tie_net(new), "{label}: `{name}` input {pin} rewired off a tie");
        }
    }
}

#[test]
fn compaction_keeps_each_survivor_on_random_netlists() {
    let lib = CellLibrary::syn40();
    for case in 0..cases() {
        let seed = 0x0F7_0000 + case;
        let before = random_module(&lib, seed, 20..300);
        let mut rng = seeded_rng(seed ^ 0xC0);
        let keep: Vec<bool> = (0..before.instance_count()).map(|_| rng.gen_bool(0.7)).collect();
        let mut kept = before.clone();
        kept.retain_instances(&keep);
        let survivors: Vec<InstId> =
            (0..before.instance_count() as u32).map(InstId).filter(|i| keep[i.index()]).collect();
        assert_eq!(kept.instance_count(), survivors.len(), "case {case}");
        for (j, &i) in survivors.iter().enumerate() {
            let j = InstId(j as u32);
            assert_eq!(kept.inst_name(j), before.inst_name(i), "case {case}: name of {i:?}");
            assert_eq!(kept.instance(j), before.instance(i), "case {case}: cell, group and pins of {i:?}");
        }
        assert_eq!(kept.net_count(), before.net_count());
    }
}

#[test]
fn optimize_preserves_behaviour_on_random_netlists() {
    let lib = CellLibrary::syn40();
    let mut total = OptReport::default();
    for case in 0..cases() {
        let seed = 0x0F7_0000 + case;
        let before = random_module(&lib, seed, 20..300);
        let mut after = before.clone();
        let rep = optimize(&mut after, &lib);
        validate(&after, &Connectivity::build(&after).unwrap()).unwrap();
        assert_survivors_intact(&lib, &before, &after, &format!("case {case}"));
        assert_equivalent(&lib, &before, &after, seed, &format!("case {case} (seed {seed:#x}, {rep:?})"));
        total.folded += rep.folded;
        total.swept += rep.swept;
    }
    // The generator must actually exercise both passes.
    assert!(total.folded > 0 && total.swept > 0, "{total:?}");
}

#[test]
fn optimize_preserves_behaviour_on_the_paper_chip() {
    let lib = CellLibrary::syn40();
    let before = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default()).module;
    let mut after = before.clone();
    let rep = optimize(&mut after, &lib);
    assert!(rep.swept > 0, "{rep:?}");
    assert_survivors_intact(&lib, &before, &after, "paper chip");
    assert_equivalent(&lib, &before, &after, 1, "paper chip");
}

/// The fold path at volume: 12k tie-controlled gates over several cell
/// kinds plus a second rank fed by the first, so every rewire step has
/// thousands of folded gates to mask. Counts are exact.
#[test]
fn folding_ten_thousand_tie_fed_gates_is_exact() {
    const RANK: usize = 6_000;
    let lib = CellLibrary::syn40();
    let mut b = NetlistBuilder::new("ties", &lib);
    let a = b.input("a");
    let mut expect: Vec<(NetId, bool)> = Vec::new();
    for i in 0..RANK {
        let (y, v) = match i % 5 {
            0 => {
                let zero = b.const0();
                (b.and2(a, zero), false)
            }
            1 => {
                let one = b.const1();
                (b.or2(one, a), true)
            }
            2 => {
                let zero = b.const0();
                (b.nand2(a, zero), true)
            }
            3 => {
                let one = b.const1();
                (b.nor2(a, one), false)
            }
            _ => {
                let zero = b.const0();
                (b.add(CellKind::Oai21, &[a, a, zero])[0], true)
            }
        };
        // Second rank: XOR with a constant operand is constant too, and
        // only folds once the first rank's value is known.
        let one = b.const1();
        expect.push((b.xor2(y, one), !v));
        expect.push((y, v));
    }
    // A half adder with one tie input keeps its live sum; only its carry
    // is constant, so it is rewired but not removed.
    let zero = b.const0();
    let (s, c) = b.ha(a, zero);
    let outs: Vec<NetId> = expect.iter().map(|&(n, _)| n).chain([s, c]).collect();
    b.output_bus("y", &outs);
    let mut m = b.finish();

    let rep = optimize(&mut m, &lib);
    // The sweep count depends on how many replicated tie cells the
    // rewire leaves unread, so only the fold count and passes are pinned.
    assert_eq!((rep.folded, rep.passes), (2 * RANK, 2), "{rep:?}");
    let conn = Connectivity::build(&m).unwrap();
    validate(&m, &conn).unwrap();
    let tie_value = |net: NetId| match conn.driver_of(net) {
        Driver::Inst { inst, .. } => match lib.cell(m.instance(inst).cell).kind {
            CellKind::TieLo => Some(false),
            CellKind::TieHi => Some(true),
            _ => None,
        },
        _ => None,
    };
    for (i, &(_, v)) in expect.iter().enumerate() {
        let port = m.port(&format!("y[{i}]")).unwrap();
        assert_eq!(tie_value(port.net), Some(v), "y[{i}]");
    }
    let n = expect.len();
    assert_eq!(tie_value(m.port(&format!("y[{n}]")).unwrap().net), None, "the sum stays live");
    assert_eq!(tie_value(m.port(&format!("y[{}]", n + 1)).unwrap().net), Some(false), "carry of a + 0");
    let gates = m.instances().filter(|i| !matches!(lib.cell(i.cell).kind, CellKind::TieLo | CellKind::TieHi));
    assert_eq!(gates.count(), 1, "only the half adder survives");
}
