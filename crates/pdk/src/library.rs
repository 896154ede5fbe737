//! The characterized cell library for the synthetic 40 nm process.
//!
//! Contains every standard cell and custom DCIM cell used by the
//! subcircuit generators. Relative cell properties encode the qualitative
//! trade-offs the paper describes in §II-B:
//!
//! * the 4-2 compressor ([`CellKind::C42`]) reduces four partial sums per
//!   stage and is smaller and more energy-efficient than the two full
//!   adders it replaces, but its sum path is slower — so a pure-compressor
//!   tree loses to a full-adder (3:2) tree under strict timing;
//! * full-adder carry outputs are faster than sum outputs, which the
//!   carry-reorder optimization exploits;
//! * the 1T pass-gate mux is the smallest column mux but pays a
//!   threshold-drop penalty in delay and energy; the fused OAI22
//!   multiplier-mux is the most energy-efficient but only supports
//!   MCR ≤ 2; the transmission-gate + NOR combination is the scalable
//!   middle ground.

use crate::cell::{Cell, CellFunction, CellKind, SeqTiming, SeqUpdate};
use crate::characterize::{characterize, CellSpec, DensityClass};
use crate::process::Process;

/// Opaque index of a cell within a [`CellLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A characterized cell library bound to a process.
#[derive(Debug, Clone)]
pub struct CellLibrary {
    process: Process,
    cells: Vec<Cell>,
    /// The first cell of each kind, indexed by the kind's position in
    /// [`CellKind::ALL`] (its discriminant).
    by_kind: [Option<CellId>; CellKind::ALL.len()],
}

impl CellLibrary {
    /// Build the full syn40 library (standard cells + custom DCIM cells),
    /// running every [`CellSpec`] through the characterization flow.
    pub fn syn40() -> Self {
        let process = Process::syn40();
        let cells: Vec<Cell> = cell_specs().iter().map(|s| characterize(s, &process)).collect();
        let mut by_kind = [None; CellKind::ALL.len()];
        for (i, cell) in cells.iter().enumerate().rev() {
            by_kind[cell.kind as usize] = Some(CellId(i as u32));
        }
        CellLibrary { process, cells, by_kind }
    }

    /// The process this library was characterized against.
    pub fn process(&self) -> &Process {
        &self.process
    }

    /// All cells, indexable by [`CellId::index`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Look up a cell by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this library.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Find the id of the (unique) cell with the given kind: one table
    /// lookup, made for every instance a generator adds.
    ///
    /// # Panics
    ///
    /// Panics if the library has no cell of that kind — the syn40 library
    /// covers every [`CellKind`], so this only fires on a malformed custom
    /// library.
    pub fn id_of(&self, kind: CellKind) -> CellId {
        self.by_kind[kind as usize].unwrap_or_else(|| panic!("cell library has no cell of kind {kind}"))
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the library is empty (never the case for syn40).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

fn dff_timing(setup_ps: f64, clk_to_q_ps: f64, clk_energy_fj: f64, update: SeqUpdate) -> SeqTiming {
    SeqTiming { setup_ps, hold_ps: 3.0, clk_to_q_ps, clk_energy_fj, update }
}

/// The declarative spec table for every cell in the syn40 library.
///
/// Arc tuples are `(from_input, to_output, parasitic_p, logical_effort_g)`.
#[allow(clippy::vec_init_then_push)] // declarative spec table, one push per cell
pub fn cell_specs() -> Vec<CellSpec> {
    use CellFunction as F;
    use CellKind as K;
    use DensityClass::{Logic, SramArray};

    let mut v = Vec::new();

    v.push(CellSpec {
        kind: K::TieLo,
        name: "TIELO",
        inputs: vec![],
        outputs: vec!["y"],
        function: F::Const(false),
        tcount: 2,
        density: Logic,
        cin_rel: vec![],
        arcs: vec![],
        internal_energy_fj: 0.0,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::TieHi,
        name: "TIEHI",
        inputs: vec![],
        outputs: vec!["y"],
        function: F::Const(true),
        tcount: 2,
        density: Logic,
        cin_rel: vec![],
        arcs: vec![],
        internal_energy_fj: 0.0,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Inv,
        name: "INVX1",
        inputs: vec!["a"],
        outputs: vec!["y"],
        function: F::Not,
        tcount: 2,
        density: Logic,
        cin_rel: vec![1.0],
        arcs: vec![(0, 0, 1.0, 1.0)],
        internal_energy_fj: 0.35,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Buf,
        name: "BUFX1",
        inputs: vec!["a"],
        outputs: vec!["y"],
        function: F::Identity,
        tcount: 4,
        density: Logic,
        cin_rel: vec![1.4],
        arcs: vec![(0, 0, 2.0, 1.0)],
        internal_energy_fj: 0.6,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::BufX4,
        name: "BUFX4",
        inputs: vec!["a"],
        outputs: vec!["y"],
        function: F::Identity,
        tcount: 10,
        density: Logic,
        cin_rel: vec![4.0],
        arcs: vec![(0, 0, 2.5, 1.0)],
        internal_energy_fj: 1.8,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::BufX16,
        name: "BUFX16",
        inputs: vec!["a"],
        outputs: vec!["y"],
        function: F::Identity,
        tcount: 22,
        density: Logic,
        cin_rel: vec![16.0],
        arcs: vec![(0, 0, 3.0, 1.0)],
        internal_energy_fj: 6.0,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Nand2,
        name: "NAND2X1",
        inputs: vec!["a", "b"],
        outputs: vec!["y"],
        function: F::Nand,
        tcount: 4,
        density: Logic,
        cin_rel: vec![4.0 / 3.0, 4.0 / 3.0],
        arcs: vec![(0, 0, 1.5, 4.0 / 3.0), (1, 0, 1.5, 4.0 / 3.0)],
        internal_energy_fj: 0.5,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Nor2,
        name: "NOR2X1",
        inputs: vec!["a", "b"],
        outputs: vec!["y"],
        function: F::Nor,
        tcount: 4,
        density: Logic,
        cin_rel: vec![5.0 / 3.0, 5.0 / 3.0],
        arcs: vec![(0, 0, 1.8, 5.0 / 3.0), (1, 0, 1.8, 5.0 / 3.0)],
        internal_energy_fj: 0.5,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::And2,
        name: "AND2X1",
        inputs: vec!["a", "b"],
        outputs: vec!["y"],
        function: F::And,
        tcount: 6,
        density: Logic,
        cin_rel: vec![4.0 / 3.0, 4.0 / 3.0],
        arcs: vec![(0, 0, 2.3, 1.4), (1, 0, 2.3, 1.4)],
        internal_energy_fj: 0.8,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Or2,
        name: "OR2X1",
        inputs: vec!["a", "b"],
        outputs: vec!["y"],
        function: F::Or,
        tcount: 6,
        density: Logic,
        cin_rel: vec![5.0 / 3.0, 5.0 / 3.0],
        arcs: vec![(0, 0, 2.6, 1.7), (1, 0, 2.6, 1.7)],
        internal_energy_fj: 0.8,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Xor2,
        name: "XOR2X1",
        inputs: vec!["a", "b"],
        outputs: vec!["y"],
        function: F::Xor,
        tcount: 10,
        density: Logic,
        cin_rel: vec![2.0, 2.0],
        arcs: vec![(0, 0, 3.0, 2.2), (1, 0, 3.0, 2.2)],
        internal_energy_fj: 1.6,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Xnor2,
        name: "XNOR2X1",
        inputs: vec!["a", "b"],
        outputs: vec!["y"],
        function: F::Xnor,
        tcount: 10,
        density: Logic,
        cin_rel: vec![2.0, 2.0],
        arcs: vec![(0, 0, 3.1, 2.2), (1, 0, 3.1, 2.2)],
        internal_energy_fj: 1.6,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Mux2,
        name: "MUX2X1",
        inputs: vec!["d0", "d1", "s"],
        outputs: vec!["y"],
        function: F::Mux2,
        tcount: 8,
        density: Logic,
        cin_rel: vec![1.2, 1.2, 2.2],
        arcs: vec![(0, 0, 2.0, 1.8), (1, 0, 2.0, 1.8), (2, 0, 2.6, 2.2)],
        internal_energy_fj: 1.2,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Oai21,
        name: "OAI21X1",
        inputs: vec!["a", "b", "c"],
        outputs: vec!["y"],
        function: F::Oai21,
        tcount: 6,
        density: Logic,
        cin_rel: vec![1.7, 1.7, 1.3],
        arcs: vec![(0, 0, 1.9, 1.7), (1, 0, 1.9, 1.7), (2, 0, 1.9, 1.3)],
        internal_energy_fj: 0.7,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Oai22,
        name: "OAI22X1",
        inputs: vec!["a", "b", "c", "d"],
        outputs: vec!["y"],
        function: F::Oai22,
        tcount: 8,
        density: Logic,
        cin_rel: vec![1.8, 1.8, 1.8, 1.8],
        arcs: vec![(0, 0, 2.2, 1.8), (1, 0, 2.2, 1.8), (2, 0, 2.2, 1.8), (3, 0, 2.2, 1.8)],
        internal_energy_fj: 0.9,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Aoi21,
        name: "AOI21X1",
        inputs: vec!["a", "b", "c"],
        outputs: vec!["y"],
        function: F::Aoi21,
        tcount: 6,
        density: Logic,
        cin_rel: vec![1.6, 1.6, 1.4],
        arcs: vec![(0, 0, 1.9, 1.6), (1, 0, 1.9, 1.6), (2, 0, 1.9, 1.4)],
        internal_energy_fj: 0.7,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Ha,
        name: "HAX1",
        inputs: vec!["a", "b"],
        outputs: vec!["s", "c"],
        function: F::HalfAdder,
        tcount: 12,
        density: Logic,
        cin_rel: vec![1.9, 1.9],
        arcs: vec![(0, 0, 3.0, 2.2), (1, 0, 3.0, 2.2), (0, 1, 1.8, 1.3), (1, 1, 1.8, 1.3)],
        internal_energy_fj: 2.0,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Fa,
        name: "FAX1",
        inputs: vec!["a", "b", "cin"],
        outputs: vec!["s", "co"],
        function: F::FullAdder,
        tcount: 28,
        density: Logic,
        cin_rel: vec![2.0, 2.0, 1.8],
        arcs: vec![
            (0, 0, 4.5, 2.4),
            (1, 0, 4.5, 2.4),
            (2, 0, 3.6, 2.2),
            (0, 1, 2.6, 1.7),
            (1, 1, 2.6, 1.7),
            (2, 1, 1.9, 1.5),
        ],
        internal_energy_fj: 3.2,
        seq: None,
    });
    // 4-2 compressor: internally two fused FA stages — the sum path costs
    // about two FA sum delays, but the cell is smaller and cheaper in
    // energy than the two discrete FAs it replaces.
    v.push(CellSpec {
        kind: K::C42,
        name: "CMPR42X1",
        inputs: vec!["a", "b", "c", "d", "cin"],
        outputs: vec!["s", "carry", "cout"],
        function: F::Compressor42,
        tcount: 44,
        density: Logic,
        cin_rel: vec![1.7, 1.7, 1.7, 1.7, 1.6],
        arcs: vec![
            (0, 0, 10.5, 3.0),
            (1, 0, 10.5, 3.0),
            (2, 0, 10.5, 3.0),
            (3, 0, 8.5, 2.8),
            (4, 0, 3.8, 2.2),
            (0, 1, 5.5, 1.9),
            (1, 1, 5.5, 1.9),
            (2, 1, 5.5, 1.9),
            (3, 1, 4.2, 1.8),
            (4, 1, 2.4, 1.6),
            (0, 2, 3.0, 1.7),
            (1, 2, 3.0, 1.7),
            (2, 2, 3.0, 1.7),
        ],
        internal_energy_fj: 4.8,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::Dff,
        name: "DFFX1",
        inputs: vec!["d"],
        outputs: vec!["q"],
        function: F::SeqQ,
        tcount: 24,
        density: Logic,
        cin_rel: vec![1.0],
        arcs: vec![],
        internal_energy_fj: 4.0,
        seq: Some(dff_timing(25.0, 60.0, 1.2, SeqUpdate::Edge)),
    });
    v.push(CellSpec {
        kind: K::DffEn,
        name: "DFFEX1",
        inputs: vec!["d", "en"],
        outputs: vec!["q"],
        function: F::SeqQ,
        tcount: 30,
        density: Logic,
        cin_rel: vec![1.0, 1.1],
        arcs: vec![],
        internal_energy_fj: 4.4,
        seq: Some(dff_timing(28.0, 65.0, 1.3, SeqUpdate::EdgeEnable)),
    });
    // Bitcells. `setup_ps` models the write time (gates the weight-update
    // frequency); `clk_to_q_ps` models the read access time.
    v.push(CellSpec {
        kind: K::Sram6T2T,
        name: "SRAM6T2T",
        inputs: vec!["wwl", "wbl"],
        outputs: vec!["rbl"],
        function: F::SeqQ,
        tcount: 8,
        density: SramArray,
        cin_rel: vec![0.8, 0.6],
        arcs: vec![],
        internal_energy_fj: 0.20,
        seq: Some(dff_timing(90.0, 85.0, 0.05, SeqUpdate::BitcellWrite)),
    });
    v.push(CellSpec {
        kind: K::Latch8T,
        name: "LATCH8T",
        inputs: vec!["wwl", "wbl"],
        outputs: vec!["rbl"],
        function: F::SeqQ,
        tcount: 10,
        density: SramArray,
        cin_rel: vec![0.9, 0.7],
        arcs: vec![],
        internal_energy_fj: 0.25,
        seq: Some(dff_timing(70.0, 70.0, 0.06, SeqUpdate::BitcellWrite)),
    });
    // The 12T OAI-gate cell is standard-cell compatible ("design
    // feasibility") and therefore pays logic density, not pushed SRAM rules.
    v.push(CellSpec {
        kind: K::Oai12T,
        name: "OAI12T",
        inputs: vec!["wwl", "wbl"],
        outputs: vec!["rbl"],
        function: F::SeqQ,
        tcount: 12,
        density: Logic,
        cin_rel: vec![1.0, 0.8],
        arcs: vec![],
        internal_energy_fj: 0.30,
        seq: Some(dff_timing(110.0, 100.0, 0.07, SeqUpdate::BitcellWrite)),
    });
    v.push(CellSpec {
        kind: K::MultNor,
        name: "MULTNOR",
        inputs: vec!["act", "w"],
        outputs: vec!["y"],
        function: F::And,
        tcount: 4,
        density: Logic,
        cin_rel: vec![5.0 / 3.0, 5.0 / 3.0],
        arcs: vec![(0, 0, 1.8, 5.0 / 3.0), (1, 0, 1.8, 5.0 / 3.0)],
        internal_energy_fj: 0.55,
        seq: None,
    });
    // 1T pass-gate mux: smallest, but threshold-voltage drop makes it slow
    // and burns short-circuit energy in the receiver.
    v.push(CellSpec {
        kind: K::MuxPg2,
        name: "MUXPG2",
        inputs: vec!["d0", "d1", "s"],
        outputs: vec!["y"],
        function: F::Mux2,
        tcount: 2,
        density: Logic,
        cin_rel: vec![0.5, 0.5, 1.0],
        arcs: vec![(0, 0, 2.8, 2.4), (1, 0, 2.8, 2.4), (2, 0, 3.2, 2.6)],
        internal_energy_fj: 1.1,
        seq: None,
    });
    v.push(CellSpec {
        kind: K::MuxTg2,
        name: "MUXTG2",
        inputs: vec!["d0", "d1", "s"],
        outputs: vec!["y"],
        function: F::Mux2,
        tcount: 6,
        density: Logic,
        cin_rel: vec![0.7, 0.7, 1.4],
        arcs: vec![(0, 0, 1.6, 2.0), (1, 0, 1.6, 2.0), (2, 0, 2.0, 2.2)],
        internal_energy_fj: 0.9,
        seq: None,
    });
    // Fused OAI22 multiplier+mux: single-stage, energy-efficient, but the
    // topology only provides two weight legs (MCR ≤ 2).
    v.push(CellSpec {
        kind: K::Oai22Fused,
        name: "OAI22MM",
        inputs: vec!["act", "w0", "w1", "s"],
        outputs: vec!["y"],
        function: F::MultMuxFused,
        tcount: 8,
        density: Logic,
        cin_rel: vec![1.8, 1.5, 1.5, 1.6],
        arcs: vec![(0, 0, 2.0, 1.8), (1, 0, 2.2, 1.8), (2, 0, 2.2, 1.8), (3, 0, 2.4, 2.0)],
        internal_energy_fj: 0.85,
        seq: None,
    });

    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_covers_every_cell_kind() {
        let lib = CellLibrary::syn40();
        for (i, &kind) in CellKind::ALL.iter().enumerate() {
            assert_eq!(kind as usize, i, "`id_of` indexes its table by discriminant");
            let id = lib.id_of(kind);
            assert_eq!(lib.cell(id).kind, kind);
            let first = lib.cells().iter().position(|c| c.kind == kind);
            assert_eq!(Some(id.index()), first, "{kind}: the first cell of the kind");
        }
        assert_eq!(lib.len(), CellKind::ALL.len());
    }

    #[test]
    fn pin_counts_match_functions() {
        let lib = CellLibrary::syn40();
        for cell in lib.cells() {
            if cell.function == CellFunction::SeqQ {
                // Sequential cells: inputs are consumed by the state-update
                // rule, not the output function.
                assert!(cell.seq.is_some(), "{}", cell.name);
                continue;
            }
            assert_eq!(cell.inputs.len(), cell.function.input_count(), "{}", cell.name);
            assert_eq!(cell.outputs.len(), cell.function.output_count(), "{}", cell.name);
            assert_eq!(cell.input_cap_ff.len(), cell.inputs.len(), "{}", cell.name);
        }
    }

    #[test]
    fn every_combinational_output_has_an_arc_and_every_arc_is_in_range() {
        let lib = CellLibrary::syn40();
        for cell in lib.cells() {
            for arc in &cell.arcs {
                assert!(arc.from_input < cell.inputs.len(), "{}", cell.name);
                assert!(arc.to_output < cell.outputs.len(), "{}", cell.name);
                assert!(arc.parasitic > 0.0 && arc.logical_effort > 0.0, "{}", cell.name);
            }
            if cell.seq.is_none() && !matches!(cell.kind, CellKind::TieLo | CellKind::TieHi) {
                for o in 0..cell.outputs.len() {
                    assert!(
                        cell.arcs.iter().any(|a| a.to_output == o),
                        "{} output {o} has no timing arc",
                        cell.name
                    );
                }
            }
        }
    }

    #[test]
    fn fa_carry_is_faster_than_sum() {
        let lib = CellLibrary::syn40();
        let fa = lib.cell(lib.id_of(CellKind::Fa));
        let p = lib.process();
        let load = 2.0 * p.cin_unit_ff;
        let sum = fa
            .arcs
            .iter()
            .filter(|a| a.to_output == 0)
            .map(|a| fa.arc_delay_ps(a, p.tau_ps, load))
            .fold(0.0, f64::max);
        let carry = fa
            .arcs
            .iter()
            .filter(|a| a.to_output == 1)
            .map(|a| fa.arc_delay_ps(a, p.tau_ps, load))
            .fold(0.0, f64::max);
        assert!(carry < sum, "carry ({carry} ps) must beat sum ({sum} ps)");
    }

    #[test]
    fn compressor_is_cheaper_but_slower_than_two_fas() {
        // The paper's central adder trade-off: per 4→2 reduction, one C42
        // beats two FAs on area and energy but loses on the sum path by
        // more than the Wallace-depth ratio log2/log1.5 ≈ 1.71.
        let lib = CellLibrary::syn40();
        let p = lib.process();
        let fa = lib.cell(lib.id_of(CellKind::Fa));
        let c42 = lib.cell(lib.id_of(CellKind::C42));
        assert!(c42.area_um2 < 2.0 * fa.area_um2);
        assert!(c42.internal_energy_fj < 2.0 * fa.internal_energy_fj);
        let load = 2.0 * p.cin_unit_ff;
        let fa_sum = fa
            .arcs
            .iter()
            .filter(|a| a.to_output == 0)
            .map(|a| fa.arc_delay_ps(a, p.tau_ps, load))
            .fold(0.0, f64::max);
        let c42_sum = c42
            .arcs
            .iter()
            .filter(|a| a.to_output == 0)
            .map(|a| c42.arc_delay_ps(a, p.tau_ps, load))
            .fold(0.0, f64::max);
        assert!(
            c42_sum > 1.71 * fa_sum,
            "C42 sum ({c42_sum:.1} ps) must exceed 1.71× FA sum ({fa_sum:.1} ps) for the FA substitution to pay off"
        );
    }

    #[test]
    fn bitcell_density_ordering() {
        // 6T+2T (pushed rules) < 8T latch (pushed rules) < 12T OAI
        // (standard-cell compatible → logic density).
        let lib = CellLibrary::syn40();
        let a6 = lib.cell(lib.id_of(CellKind::Sram6T2T)).area_um2;
        let a8 = lib.cell(lib.id_of(CellKind::Latch8T)).area_um2;
        let a12 = lib.cell(lib.id_of(CellKind::Oai12T)).area_um2;
        assert!(a6 < a8 && a8 < a12);
    }

    #[test]
    fn mux_variant_tradeoffs_hold() {
        let lib = CellLibrary::syn40();
        let p = lib.process();
        let load = 2.0 * p.cin_unit_ff;
        let pg = lib.cell(lib.id_of(CellKind::MuxPg2));
        let tg = lib.cell(lib.id_of(CellKind::MuxTg2));
        // Pass-gate is smaller but slower and hungrier than transmission gate.
        assert!(pg.area_um2 < tg.area_um2);
        assert!(pg.worst_delay_ps(p.tau_ps, load) > tg.worst_delay_ps(p.tau_ps, load));
        assert!(pg.internal_energy_fj > tg.internal_energy_fj);
        // Fused OAI22 beats discrete TG mux + NOR mult on energy.
        let fused = lib.cell(lib.id_of(CellKind::Oai22Fused));
        let nor = lib.cell(lib.id_of(CellKind::MultNor));
        assert!(fused.internal_energy_fj < tg.internal_energy_fj + nor.internal_energy_fj);
    }

    #[test]
    fn weight_update_speed_ordering() {
        // Latch8T is the robust/fast-write cell; OAI12T the slowest.
        let lib = CellLibrary::syn40();
        let s6 = lib.cell(lib.id_of(CellKind::Sram6T2T)).seq.unwrap().setup_ps;
        let s8 = lib.cell(lib.id_of(CellKind::Latch8T)).seq.unwrap().setup_ps;
        let s12 = lib.cell(lib.id_of(CellKind::Oai12T)).seq.unwrap().setup_ps;
        assert!(s8 < s6 && s6 < s12);
    }
}
