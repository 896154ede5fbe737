//! Netlist statistics: gate counts, area, leakage, per-group breakdowns.

use crate::graph::{GroupId, Module};
use std::collections::BTreeMap;
use syndcim_pdk::{CellKind, CellLibrary};

/// Aggregated statistics for a module or a group within it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetlistStats {
    /// Number of cell instances.
    pub instances: usize,
    /// Number of sequential instances (flip-flops + bitcells).
    pub sequential: usize,
    /// Total standard-cell area in µm² (pre-placement, 100 % utilization).
    pub cell_area_um2: f64,
    /// Total leakage at the nominal corner, in nW.
    pub leakage_nw: f64,
    /// Total transistor count.
    pub transistors: u64,
    /// Instance count per cell kind.
    pub by_kind: BTreeMap<CellKind, usize>,
}

impl NetlistStats {
    /// Compute statistics over every instance of `module`.
    pub fn of(module: &Module, lib: &CellLibrary) -> Self {
        Self::filtered(module, lib, |_| true)
    }

    /// Compute statistics over the instances of one group (exact match on
    /// the group id — nested groups are separate).
    pub fn of_group(module: &Module, lib: &CellLibrary, group: GroupId) -> Self {
        Self::filtered(module, lib, |g| g == group)
    }

    /// Compute statistics over groups whose *name* starts with `prefix`
    /// (so `"adder_tree"` aggregates `adder_tree/col0`, `adder_tree/col1` …).
    pub fn of_group_prefix(module: &Module, lib: &CellLibrary, prefix: &str) -> Self {
        let matching: Vec<bool> =
            (0..module.path_count() as u32).map(|p| module.path_name(p).starts_with(prefix)).collect();
        Self::filtered(module, lib, |g| matching[module.group_path(g) as usize])
    }

    fn filtered(module: &Module, lib: &CellLibrary, keep: impl Fn(GroupId) -> bool) -> Self {
        let mut s = NetlistStats::default();
        for inst in module.instances() {
            if !keep(inst.group) {
                continue;
            }
            let cell = lib.cell(inst.cell);
            s.instances += 1;
            if cell.is_sequential() {
                s.sequential += 1;
            }
            s.cell_area_um2 += cell.area_um2;
            s.leakage_nw += cell.leakage_nw;
            s.transistors += cell.transistor_count as u64;
            *s.by_kind.entry(cell.kind).or_insert(0) += 1;
        }
        s
    }

    /// Per-group-prefix area breakdown, keyed by the first path component
    /// of each group name.
    pub fn area_breakdown(module: &Module, lib: &CellLibrary) -> BTreeMap<String, f64> {
        let mut map: BTreeMap<String, f64> = BTreeMap::new();
        for inst in module.instances() {
            let gname = module.group_name(inst.group);
            let head = gname.split('/').next().unwrap_or(gname).to_string();
            *map.entry(head).or_insert(0.0) += lib.cell(inst.cell).area_um2;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn stats_sum_area_and_kinds() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let c = b.input("b");
        b.push_group("arith");
        let (s, _) = b.fa(a, c, a);
        b.pop_group();
        let q = b.dff(s);
        b.output("q", q);
        let m = b.finish();

        let all = NetlistStats::of(&m, &lib);
        assert_eq!(all.instances, 2);
        assert_eq!(all.sequential, 1);
        assert_eq!(all.by_kind[&CellKind::Fa], 1);
        assert!(all.cell_area_um2 > 0.0 && all.leakage_nw > 0.0);

        let arith = NetlistStats::of_group_prefix(&m, &lib, "arith");
        assert_eq!(arith.instances, 1);
        assert_eq!(arith.by_kind[&CellKind::Fa], 1);

        let breakdown = NetlistStats::area_breakdown(&m, &lib);
        assert!(breakdown.contains_key("arith"));
        assert!(breakdown.contains_key("top"));
    }
}
