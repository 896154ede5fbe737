//! Netlist statistics: gate counts, area, leakage.

use crate::graph::Module;
use std::collections::BTreeMap;
use syndcim_pdk::{CellKind, CellLibrary};

/// Aggregated statistics for a module.
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
        let mut s = NetlistStats::default();
        for inst in module.instances() {
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
        let (s, _) = b.fa(a, c, a);
        let q = b.dff(s);
        b.output("q", q);
        let m = b.finish();

        let all = NetlistStats::of(&m, &lib);
        assert_eq!(all.instances, 2);
        assert_eq!(all.sequential, 1);
        assert_eq!(all.by_kind[&CellKind::Fa], 1);
        assert!(all.cell_area_um2 > 0.0 && all.leakage_nw > 0.0);
    }
}
