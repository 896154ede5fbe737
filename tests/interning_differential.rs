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
//! group-path tree behind `CompiledPower::by_path_pj`. The symbol ids
//! themselves are pinned on the paper chip and on seeded generated
//! netlists whose names collide across namespaces.

mod support;

use std::collections::HashMap;

use support::random_module;
use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_engine::Program;
use syndcim_ir::{Lowering, Symbols};
use syndcim_netlist::{GroupId, InstId, Module, NetId};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::PowerAnalyzer;
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
    for i in 0..module.net_count() {
        assert_eq!(syms.net_name(i), module.net_name(NetId(i as u32)), "net slot {i}");
    }
    for (i, inst) in module.instances().enumerate() {
        assert_eq!(syms.inst_name(i), module.inst_name(InstId(i as u32)), "instance {i}");
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

/// The simulation program's label helpers resolve every slot to its
/// net name through the shared interner (and nothing past the nets
/// resolves).
#[test]
fn program_net_labels_match_module_names() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);
    for i in 0..module.net_count() as u32 {
        assert_eq!(prog.net_label(i), Some(module.net_name(NetId(i))), "slot {i}");
    }
    assert_eq!(prog.net_label(module.net_count() as u32), None, "no slot past the nets");
    assert!(prog.op_count() > 0);
    // Spot-check the op diagnostics render without panicking and name
    // at least one real net.
    let rendered = prog.op_label(0);
    assert!(rendered.contains('='), "op label must describe an assignment: {rendered}");
}

/// Every symbol of `m`'s `Symbols` — net, instance, group, group head,
/// path-tree node and port — carries exactly the id a plain
/// `HashMap<String, u32>` assigns in first-occurrence order over the
/// interning sequence (every net, every instance, every group's path
/// followed by its `/`-prefixes, the ports in name order), and the
/// interner holds nothing else. The ids are what the `.scim` symbol
/// section stores, so this pins the batch interner out of the artifact
/// bytes.
fn assert_symbol_ids_match_reference(m: &Module, what: &str) {
    let syms = Symbols::from_module(m);

    let mut index: HashMap<String, u32> = HashMap::new();
    let mut id = |s: &str| {
        let next = index.len() as u32;
        *index.entry(s.to_string()).or_insert(next) as usize
    };
    for i in 0..m.net_count() {
        assert_eq!(syms.net_sym(i).index(), id(m.net_name(NetId(i as u32))), "{what}: net {i}");
    }
    for i in 0..m.instance_count() {
        assert_eq!(syms.inst_sym(i).index(), id(m.inst_name(InstId(i as u32))), "{what}: instance {i}");
    }
    let groups: Vec<&str> = (0..m.group_count() as u32).map(|g| m.group_name(GroupId(g))).collect();
    for (g, name) in groups.iter().enumerate() {
        let g = g as u32;
        assert_eq!(syms.group_sym(g).index(), id(name), "{what}: group {name}");
        let head = name.split('/').next().unwrap();
        assert_eq!(syms.group_head_sym(g).index(), id(head), "{what}: head of {name}");
        for (end, _) in name.match_indices('/') {
            id(&name[..end]);
        }
        assert_eq!(syms.node_sym(syms.group_node(g)), syms.group_sym(g), "{what}: node of {name}");
    }
    let mut ports: Vec<&str> = m.ports.iter().map(|p| p.name.as_str()).collect();
    ports.sort_unstable();
    assert_eq!(syms.port_count(), ports.len());
    for (i, name) in ports.iter().enumerate() {
        assert_eq!(syms.port_sym(i).index(), id(name), "{what}: port {name}");
    }
    assert_eq!(syms.interner().len(), index.len(), "{what}: no symbol beyond the reference sequence");

    // Path-tree nodes: one per distinct full path or `/`-prefix, each
    // resolving to its reference id and hanging under its parent path.
    let mut paths: Vec<&str> = groups
        .iter()
        .flat_map(|name| name.match_indices('/').map(|(end, _)| &name[..end]).chain([*name]))
        .collect();
    paths.sort_unstable();
    paths.dedup();
    assert_eq!(syms.node_count(), paths.len(), "{what}: path-tree nodes");
    for node in 0..syms.node_count() as u32 {
        let name = syms.node_name(node);
        assert_eq!(syms.node_sym(node).index() as u32, index[name], "{what}: node {name}");
        let parent = syms.node_parent(node).map(|p| syms.node_name(p));
        assert_eq!(parent, name.rsplit_once('/').map(|(head, _)| head), "{what}: parent of {name}");
    }
}

#[test]
fn paper_chip_symbol_ids_match_first_occurrence_reference() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    assert_symbol_ids_match_reference(&mac.module, "paper chip");
}

/// Generated netlists the pin below runs on: the three fixed ones by
/// default, `SYNDCIM_FUZZ_CASES` in all when that is larger (CI runs
/// 500).
fn generated_cases() -> u64 {
    std::env::var("SYNDCIM_FUZZ_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(3).max(3)
}

/// The same pin on generated netlists: nested and repeated group paths
/// (one segment under several parents, re-pushed paths, a segment equal
/// to a net name), instances named like nets, explicit names shaped
/// like the builder's counters (canonical, with a leading zero, past the
/// sequence length, in both namespaces) and a port named like a group
/// prefix. The largest fixed case interns over several partitions;
/// further seeds only run the pin.
#[test]
fn generated_symbol_ids_match_first_occurrence_reference() {
    let lib = CellLibrary::syn40();
    let fixed = [(1, 20..300), (2, 300..2_000), (3, 12_000..12_001)];
    for (seed, gates) in fixed.iter().cloned() {
        let m = random_module(&lib, seed, gates);
        let is_net = |name: &str| (0..m.net_count() as u32).any(|n| m.net_name(NetId(n)) == name);
        let is_inst = |name: &str| (0..m.instance_count() as u32).any(|i| m.inst_name(InstId(i)) == name);
        let named_like_a_net = (0..m.instance_count() as u32).any(|i| is_net(m.inst_name(InstId(i))));
        assert!(named_like_a_net, "seed {seed}: an instance named like a net");
        let net_like_an_inst = (0..m.net_count() as u32).any(|n| is_inst(m.net_name(NetId(n))));
        let shaped = |name: &str| name.starts_with("u0") || name.starts_with("_n0") || name.len() > 12;
        let odd_counters = (0..m.instance_count() as u32).any(|i| shaped(m.inst_name(InstId(i))))
            && (0..m.net_count() as u32).any(|n| shaped(m.net_name(NetId(n))));
        assert!(net_like_an_inst && odd_counters, "seed {seed}: counter-shaped names in both namespaces");
        let group = |name: &str| (0..m.group_count() as u32).any(|g| m.group_name(GroupId(g)) == name);
        assert!(group("col1/tree") && group("col1/_n3") && is_net("_n3"), "seed {seed}: nested groups");
        assert!(m.path_count() < m.group_count(), "seed {seed}: repeated group paths");
        assert!(m.port("col0").is_some(), "seed {seed}: a port named like a group prefix");
        assert_symbol_ids_match_reference(&m, &format!("seed {seed}"));
    }
    for seed in fixed.len() as u64 + 1..=generated_cases() {
        let m = random_module(&lib, seed, 20..3_000);
        assert_symbol_ids_match_reference(&m, &format!("seed {seed}"));
    }
}
