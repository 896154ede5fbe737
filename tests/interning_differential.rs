//! Differential pinning of the interned-name layer on the 64×64 paper
//! test-chip netlist.
//!
//! PR 5 removed every owned `String` name table from the compiled
//! artifacts — `Program`, `CompiledSta`, `CompiledPower` now resolve
//! names lazily through the lowering's shared `Interner`. Lazy must not
//! mean *different*: every name a compiled backend prints — critical
//! path steps, critical-group summaries, per-group power keys — has to
//! be **string-identical** to what the reference backends produce from
//! the module's own tables. These tests hold that bar on the real
//! workload, plus the structural invariants of the new hierarchical
//! group-path tree behind `CompiledPower::by_path_pj`.

use std::collections::HashMap;

use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_engine::Program;
use syndcim_ir::{Lowering, Symbols};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::PowerAnalyzer;
use syndcim_sim::Simulator;
use syndcim_sta::Sta;

/// Critical-path and group names from the compiled STA must equal the
/// reference analyzer's, character for character, across corners.
#[test]
fn compiled_sta_names_are_string_identical_to_reference() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    let module = &mac.module;
    let sta = Sta::new(module, &lib).unwrap();
    let csta = sta.compile();

    for v in [0.7, 0.9, 1.2] {
        let op = OperatingPoint::at_voltage(v);
        let reference = sta.analyze_at(1_000.0, op);
        let compiled = csta.analyze_at(1_000.0, op);
        assert!(!reference.critical_path.is_empty(), "the paper chip has a critical path");
        for (r, c) in reference.critical_path.iter().zip(&compiled.critical_path) {
            assert_eq!(r.through, c.through, "instance name at {v} V");
            assert_eq!(r.group, c.group, "group path at {v} V");
            assert_eq!(r.net, c.net, "net name at {v} V");
        }
        assert_eq!(reference.critical_groups(), compiled.critical_groups(), "group summary at {v} V");
    }

    // The interned tables cover the whole module, not just the path.
    let syms = csta.symbols();
    for (i, net) in module.nets.iter().enumerate() {
        assert_eq!(syms.net_name(i), net.name, "net slot {i}");
    }
    for (i, inst) in module.instances.iter().enumerate() {
        assert_eq!(syms.inst_name(i), inst.name, "instance {i}");
        assert_eq!(syms.group_name(syms.group_of(i)), module.group_name(inst.group), "group of {i}");
    }
}

/// Per-group power breakdown keys (and values) from the compiled
/// backend must be identical to the reference analyzer's string-keyed
/// accumulation, and the hierarchical path drill-down must be
/// consistent with it.
#[test]
fn compiled_power_group_names_and_paths_match_reference() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    let module = &mac.module;
    let pa = PowerAnalyzer::new(module, &lib).unwrap();
    let cp = pa.compile();

    // Deterministic synthetic activity over every net.
    let toggles: Vec<u64> = (0..module.net_count() as u64).map(|i| (i * 7) % 23).collect();
    let cycles = 64u64;

    for v in [0.7, 0.9, 1.2] {
        let op = OperatingPoint::at_voltage(v);
        let reference = pa.from_activity(&toggles, cycles, 800.0, op);
        let compiled = cp.report(&toggles, cycles, 800.0, op);
        assert_eq!(
            reference.by_group_pj, compiled.by_group_pj,
            "group keys and energies must be identical at {v} V"
        );

        // Hierarchical drill-down: every head key reappears as a path
        // root whose rolled-up total equals the head's switching total
        // plus its clock-pin share (same additions, possibly
        // reassociated — allow only rounding).
        let by_path = cp.by_path_pj(&toggles, cycles, op);
        let clock = cp.clock_by_group_pj(op);
        assert_eq!(clock, pa.clock_by_group_pj(op), "clock breakdown keys and energies at {v} V");
        for (head, &pj) in &reference.by_group_pj {
            let root =
                by_path.get(head).unwrap_or_else(|| panic!("head `{head}` missing from by_path_pj at {v} V"));
            let want = pj + clock[head];
            assert!(
                (root - want).abs() <= 1e-9 * want.abs().max(1.0),
                "path root `{head}` = {root} vs head switching+clock total {want} at {v} V"
            );
        }
        // Every non-root path hangs under an existing prefix, and a
        // parent's rollup is at least each child's.
        for (path, &pj) in &by_path {
            if let Some((prefix, _)) = path.rsplit_once('/') {
                let parent =
                    by_path.get(prefix).unwrap_or_else(|| panic!("prefix `{prefix}` of `{path}` missing"));
                assert!(
                    *parent >= pj - 1e-9 * pj.abs().max(1.0),
                    "`{prefix}` ({parent}) must include `{path}` ({pj})"
                );
            }
        }
    }
    assert!(cp.path_count() >= cp.group_count(), "paths include every head");
}

/// The simulation program's label helpers resolve every real slot to
/// its net name through the shared interner (and no scratch slot leaks
/// a name).
#[test]
fn program_net_labels_match_module_names() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);
    for (i, net) in module.nets.iter().enumerate() {
        assert_eq!(prog.net_label(i as u32), Some(net.name.as_str()), "slot {i}");
    }
    assert_eq!(prog.net_label(module.net_count() as u32), None, "scratch slots are anonymous");
    assert!(prog.op_count() > 0);
    // Spot-check the op diagnostics render without panicking and name
    // at least one real net.
    let rendered = prog.op_label(0);
    assert!(rendered.contains('='), "op label must describe an assignment: {rendered}");
}

/// `Simulator::with_lowering` (the satellite API) is bit-identical to
/// `Simulator::new` on the paper chip — same values, same toggles —
/// while reusing the compiled program's traversal.
#[test]
fn interpreter_with_lowering_is_bit_identical_on_paper_chip() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();

    let mut fresh = Simulator::new(module, &lib).unwrap();
    let mut shared = Simulator::with_lowering(module, &lib, &low).unwrap();
    let in_nets: Vec<_> = module.input_ports().map(|p| p.net).collect();
    for c in 0..8u64 {
        for (k, &net) in in_nets.iter().enumerate() {
            let bit = (c.wrapping_mul(0x9E37_79B9) >> (k % 31)) & 1 == 1;
            fresh.poke(net, bit);
            shared.poke(net, bit);
        }
        fresh.step();
        shared.step();
    }
    for n in 0..module.net_count() {
        let id = syndcim_netlist::NetId(n as u32);
        assert_eq!(fresh.peek(id), shared.peek(id), "net {n} diverges");
    }
    assert_eq!(fresh.toggle_table(), shared.toggle_table(), "toggle tables must be bit-identical");
    assert_eq!(fresh.cycles(), shared.cycles());
}

/// Every symbol of the paper chip's `Symbols` — net, instance, group,
/// group head, path-tree node and port — carries exactly the id a plain
/// `HashMap<String, u32>` assigns in first-occurrence order over the
/// same interning sequence, and the interner holds nothing else. The
/// ids are what the `.scim` symbol section stores, so this pins the
/// builder's index implementation out of the artifact bytes.
#[test]
fn paper_chip_symbol_ids_match_first_occurrence_reference() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    let m = &mac.module;
    let syms = Symbols::from_module(m);

    let mut index: HashMap<String, u32> = HashMap::new();
    let mut id = |s: &str| {
        let next = index.len() as u32;
        *index.entry(s.to_string()).or_insert(next) as usize
    };
    for (i, net) in m.nets.iter().enumerate() {
        assert_eq!(syms.net_sym(i).index(), id(&net.name), "net {i}");
    }
    for (i, inst) in m.instances.iter().enumerate() {
        assert_eq!(syms.inst_sym(i).index(), id(&inst.name), "instance {i}");
    }
    for (g, name) in m.groups.iter().enumerate() {
        let g = g as u32;
        assert_eq!(syms.group_sym(g).index(), id(name), "group {name}");
        assert_eq!(syms.group_head_sym(g).index(), id(name.split('/').next().unwrap()), "head of {name}");
        for (end, _) in name.match_indices('/') {
            id(&name[..end]);
        }
        assert_eq!(syms.node_sym(syms.group_node(g)), syms.group_sym(g), "node of {name}");
    }
    let mut ports: Vec<&str> = m.ports.iter().map(|p| p.name.as_str()).collect();
    ports.sort_unstable();
    assert_eq!(syms.port_count(), ports.len());
    for (i, name) in ports.iter().enumerate() {
        assert_eq!(syms.port_sym(i).index(), id(name), "port {name}");
    }
    assert_eq!(syms.interner().len(), index.len(), "no symbol beyond the reference sequence");

    // Path-tree nodes: one per distinct full path or `/`-prefix, each
    // resolving to its reference id and hanging under its parent path.
    let mut paths: Vec<&str> = m
        .groups
        .iter()
        .flat_map(|name| name.match_indices('/').map(|(end, _)| &name[..end]).chain([name.as_str()]))
        .collect();
    paths.sort_unstable();
    paths.dedup();
    assert_eq!(syms.node_count(), paths.len());
    for node in 0..syms.node_count() as u32 {
        let name = syms.node_name(node);
        assert_eq!(syms.node_sym(node).index() as u32, index[name], "node {name}");
        let parent = syms.node_parent(node).map(|p| syms.node_name(p));
        assert_eq!(parent, name.rsplit_once('/').map(|(head, _)| head), "parent of {name}");
    }
}
