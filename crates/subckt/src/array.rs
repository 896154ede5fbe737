//! Memory array generator: bitcells, column multiplexers (MCR banks) and
//! bitwise multipliers.
//!
//! Reproduces the three multiplier/multiplexer styles of §II-B:
//!
//! * [`MultMuxKind::PassGate1T`] — AutoDCIM's 1T pass gate: smallest, but
//!   the threshold-voltage drop costs delay and power;
//! * [`MultMuxKind::Oai22Fused`] — fused OAI22 multiplier+mux: saves
//!   wiring but "becomes less scalable when the MCR exceeds 2";
//! * [`MultMuxKind::TgNor`] — 2T transmission gate + NOR multiplier, the
//!   commonly adopted scalable approach;
//!
//! and the three bitcell styles (6T+2T SRAM, 8T D-latch, 12T OAI).

use syndcim_netlist::{Counter, GroupId, InstId, NetId, NetlistBuilder};
use syndcim_pdk::CellKind;

/// Bitcell topology selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BitcellKind {
    /// 6T SRAM cell + 2T read port (pushed-rule layout).
    Sram6T2T,
    /// 8T D-latch cell — robust read/write, fastest weight updates.
    Latch8T,
    /// 12T OAI-gate cell — standard-cell compatible ("design
    /// feasibility"), largest and slowest to write.
    Oai12T,
}

impl BitcellKind {
    /// The library cell implementing this bitcell.
    pub fn cell_kind(&self) -> CellKind {
        match self {
            BitcellKind::Sram6T2T => CellKind::Sram6T2T,
            BitcellKind::Latch8T => CellKind::Latch8T,
            BitcellKind::Oai12T => CellKind::Oai12T,
        }
    }

    /// All bitcell variants.
    pub const ALL: &'static [BitcellKind] =
        &[BitcellKind::Sram6T2T, BitcellKind::Latch8T, BitcellKind::Oai12T];
}

impl std::fmt::Display for BitcellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitcellKind::Sram6T2T => write!(f, "6T+2T"),
            BitcellKind::Latch8T => write!(f, "8T-latch"),
            BitcellKind::Oai12T => write!(f, "12T-OAI"),
        }
    }
}

/// Multiplier/multiplexer topology selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MultMuxKind {
    /// 1T pass-gate mux + NOR multiplier (AutoDCIM style).
    PassGate1T,
    /// 2T transmission-gate mux + NOR multiplier (scalable standard).
    TgNor,
    /// Fused OAI22 multiplier+mux (MCR ≤ 2 only).
    Oai22Fused,
}

impl MultMuxKind {
    /// `true` if this style supports the given memory-compute ratio.
    pub fn supports_mcr(&self, mcr: usize) -> bool {
        match self {
            MultMuxKind::Oai22Fused => mcr <= 2,
            _ => true,
        }
    }

    /// All multiplier/mux variants.
    pub const ALL: &'static [MultMuxKind] =
        &[MultMuxKind::PassGate1T, MultMuxKind::TgNor, MultMuxKind::Oai22Fused];
}

impl std::fmt::Display for MultMuxKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultMuxKind::PassGate1T => write!(f, "1T-passgate"),
            MultMuxKind::TgNor => write!(f, "TG+NOR"),
            MultMuxKind::Oai22Fused => write!(f, "fused-OAI22"),
        }
    }
}

/// Array configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayConfig {
    /// Rows (activations reduced per column).
    pub h: usize,
    /// Columns (1-bit weight columns).
    pub w: usize,
    /// Memory-compute ratio: weight banks per compute site (1, 2 or 4).
    pub mcr: usize,
    /// Bitcell style.
    pub bitcell: BitcellKind,
    /// Multiplier/multiplexer style.
    pub multmux: MultMuxKind,
}

/// Location record for one placed bitcell (used to preload weights in
/// simulation and to reproduce write sequences).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitcellRef {
    /// Column index.
    pub col: usize,
    /// Row index.
    pub row: usize,
    /// Bank index (0..MCR).
    pub bank: usize,
    /// The bitcell instance.
    pub inst: InstId,
}

/// Result of [`build_array`].
#[derive(Debug, Clone)]
pub struct ArrayOut {
    /// `products[col][row]`: the 1-bit partial products feeding each
    /// column's adder tree.
    pub products: Vec<Vec<NetId>>,
    /// Every bitcell with its (col, row, bank) coordinates.
    pub bitcells: Vec<BitcellRef>,
}

/// Build the memory/multiplier array.
///
/// * `act[r]` — the (driven) activation bit of row `r`;
/// * `wwl[bank][r]` — write word line per bank and row;
/// * `wbl[c]` — write bit line per column;
/// * `bank_sel[c]` — `log2(mcr)` bank-select bits for column `c`
///   (buffered per column by the caller; empty inner vectors for
///   MCR = 1).
///
/// Instances are grouped `col{c}/bitcells` and `col{c}/mult` so SDP
/// placement tiles them correctly. Each row pushes both groups anew
/// (one [`GroupId`] per push), by the paths the column's first row
/// spelled.
///
/// # Panics
///
/// Panics if the port slices disagree with `cfg`, if `mcr` is not 1, 2
/// or 4, or if the mult/mux style does not support the MCR.
pub fn build_array(
    b: &mut NetlistBuilder<'_>,
    cfg: ArrayConfig,
    act: &[NetId],
    wwl: &[Vec<NetId>],
    wbl: &[NetId],
    bank_sel: &[Vec<NetId>],
) -> ArrayOut {
    assert_eq!(act.len(), cfg.h, "need one activation net per row");
    assert_eq!(wwl.len(), cfg.mcr, "need one wwl bank set per MCR bank");
    assert!(wwl.iter().all(|w| w.len() == cfg.h), "each bank needs H write word lines");
    assert_eq!(wbl.len(), cfg.w, "need one write bit line per column");
    assert!(matches!(cfg.mcr, 1 | 2 | 4), "MCR must be 1, 2 or 4");
    assert_eq!(bank_sel.len(), cfg.w, "need one bank-select bundle per column");
    assert!(
        bank_sel.iter().all(|s| s.len() == cfg.mcr.trailing_zeros() as usize),
        "need log2(MCR) select bits per column"
    );
    assert!(cfg.multmux.supports_mcr(cfg.mcr), "{} does not scale to MCR={}", cfg.multmux, cfg.mcr);

    let bitcell = cfg.bitcell.cell_kind();
    let mut products = Vec::with_capacity(cfg.w);
    let mut bitcells = Vec::new();

    for c in 0..cfg.w {
        b.push_group(&format!("col{c}"));
        let mut col_products = Vec::with_capacity(cfg.h);
        // The column's `bitcells` and `mult` groups of row 0, whose paths
        // every later row re-enters.
        let mut row0: Option<(GroupId, GroupId)> = None;
        for r in 0..cfg.h {
            // Bitcells for each bank.
            let cells_group = match row0 {
                Some((cells, _)) => b.push_group_like(cells),
                None => b.push_group("bitcells"),
            };
            // Read bit lines of the row's banks (MCR ≤ 4, asserted above).
            let mut rbl = [NetId(0); 4];
            for (bank, wwl_bank) in wwl.iter().enumerate().take(cfg.mcr) {
                let name = Counter(&[("bc_c", c as u64), ("_r", r as u64), ("_b", bank as u64)]);
                let out = b.add_named(name, bitcell, &[wwl_bank[r], wbl[c]]);
                let inst = InstId((b.module().instance_count() - 1) as u32);
                bitcells.push(BitcellRef { col: c, row: r, bank, inst });
                rbl[bank] = out[0];
            }
            b.pop_group();

            let mult_group = match row0 {
                Some((_, mult)) => b.push_group_like(mult),
                None => b.push_group("mult"),
            };
            row0.get_or_insert((cells_group, mult_group));
            let product = match (cfg.multmux, cfg.mcr) {
                (MultMuxKind::Oai22Fused, 1) => {
                    let zero = b.const0();
                    b.add(CellKind::Oai22Fused, &[act[r], rbl[0], zero, zero])[0]
                }
                (MultMuxKind::Oai22Fused, 2) => {
                    b.add(CellKind::Oai22Fused, &[act[r], rbl[0], rbl[1], bank_sel[c][0]])[0]
                }
                (style, mcr) => {
                    let mux_kind = match style {
                        MultMuxKind::PassGate1T => CellKind::MuxPg2,
                        MultMuxKind::TgNor => CellKind::MuxTg2,
                        MultMuxKind::Oai22Fused => unreachable!("checked by supports_mcr"),
                    };
                    let selected = match mcr {
                        1 => rbl[0],
                        2 => b.add(mux_kind, &[rbl[0], rbl[1], bank_sel[c][0]])[0],
                        4 => {
                            let lo = b.add(mux_kind, &[rbl[0], rbl[1], bank_sel[c][0]])[0];
                            let hi = b.add(mux_kind, &[rbl[2], rbl[3], bank_sel[c][0]])[0];
                            b.add(mux_kind, &[lo, hi, bank_sel[c][1]])[0]
                        }
                        _ => unreachable!("mcr validated above"),
                    };
                    b.add(CellKind::MultNor, &[act[r], selected])[0]
                }
            };
            col_products.push(product);
            b.pop_group();
        }
        b.pop_group();
        products.push(col_products);
    }

    ArrayOut { products, bitcells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::Module;
    use syndcim_pdk::CellLibrary;
    use syndcim_sim::Simulator;

    struct Harness {
        module: Module,
        out: ArrayOut,
    }

    fn build(cfg: ArrayConfig) -> (Harness, CellLibrary) {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("array", &lib);
        let act = b.input_bus("act", cfg.h);
        let mut wwl = Vec::new();
        for bank in 0..cfg.mcr {
            wwl.push(b.input_bus(&format!("wwl{bank}"), cfg.h));
        }
        let wbl = b.input_bus("wbl", cfg.w);
        let sel_bits = b.input_bus("sel", cfg.mcr.trailing_zeros() as usize);
        let bank_sel = vec![sel_bits; cfg.w];
        let out = build_array(&mut b, cfg, &act, &wwl, &wbl, &bank_sel);
        for (c, col) in out.products.iter().enumerate() {
            b.output_bus(&format!("p{c}"), col);
        }
        (Harness { module: b.finish(), out }, lib)
    }

    fn exercise(cfg: ArrayConfig) {
        let (h, lib) = build(cfg);
        let mut sim = Simulator::new(&h.module, &lib).unwrap();
        // Write bank-distinguishable weights through the write port:
        // bank b, row r, col c stores ((r + c + b) % 2 == 0).
        for bank in 0..cfg.mcr {
            for r in 0..cfg.h {
                for bb in 0..cfg.mcr {
                    for rr in 0..cfg.h {
                        sim.set(&format!("wwl{bb}[{rr}]"), bb == bank && rr == r);
                    }
                }
                for c in 0..cfg.w {
                    sim.set(&format!("wbl[{c}]"), (r + c + bank) % 2 == 0);
                }
                sim.step();
            }
        }
        for bb in 0..cfg.mcr {
            for rr in 0..cfg.h {
                sim.set(&format!("wwl{bb}[{rr}]"), false);
            }
        }
        // Check products = act & selected-bank weight for every bank.
        for sel in 0..cfg.mcr {
            for (k, s) in (0..cfg.mcr.trailing_zeros() as usize).enumerate() {
                sim.set(&format!("sel[{s}]"), (sel >> k) & 1 == 1);
            }
            for r in 0..cfg.h {
                sim.set(&format!("act[{r}]"), r % 3 != 0);
            }
            sim.settle();
            for c in 0..cfg.w {
                for r in 0..cfg.h {
                    let w = (r + c + sel) % 2 == 0;
                    let a = r % 3 != 0;
                    let got = sim.peek(h.out.products[c][r]);
                    assert_eq!(got, a && w, "cfg={cfg:?} sel={sel} c={c} r={r}");
                }
            }
        }
    }

    #[test]
    fn all_styles_mcr1_and_2() {
        for bitcell in BitcellKind::ALL {
            exercise(ArrayConfig { h: 4, w: 3, mcr: 1, bitcell: *bitcell, multmux: MultMuxKind::TgNor });
        }
        for style in MultMuxKind::ALL {
            exercise(ArrayConfig { h: 4, w: 3, mcr: 2, bitcell: BitcellKind::Sram6T2T, multmux: *style });
        }
    }

    #[test]
    fn mcr4_with_scalable_styles() {
        exercise(ArrayConfig {
            h: 3,
            w: 2,
            mcr: 4,
            bitcell: BitcellKind::Sram6T2T,
            multmux: MultMuxKind::TgNor,
        });
        exercise(ArrayConfig {
            h: 3,
            w: 2,
            mcr: 4,
            bitcell: BitcellKind::Latch8T,
            multmux: MultMuxKind::PassGate1T,
        });
    }

    #[test]
    #[should_panic(expected = "does not scale")]
    fn fused_oai22_rejects_mcr4() {
        build(ArrayConfig {
            h: 2,
            w: 2,
            mcr: 4,
            bitcell: BitcellKind::Sram6T2T,
            multmux: MultMuxKind::Oai22Fused,
        });
    }

    #[test]
    fn bitcell_refs_cover_the_array() {
        let cfg =
            ArrayConfig { h: 3, w: 2, mcr: 2, bitcell: BitcellKind::Sram6T2T, multmux: MultMuxKind::TgNor };
        let (h, lib) = build(cfg);
        assert_eq!(h.out.bitcells.len(), cfg.h * cfg.w * cfg.mcr);
        // Forcing a bitcell state must show up on its product.
        let mut sim = Simulator::new(&h.module, &lib).unwrap();
        let bc = h.out.bitcells.iter().find(|r| r.col == 1 && r.row == 2 && r.bank == 0).unwrap();
        sim.force_state(bc.inst, true);
        sim.set("act[2]", true);
        sim.set("sel[0]", false);
        sim.settle();
        assert!(sim.peek(h.out.products[1][2]));
    }

    #[test]
    fn supports_mcr_matrix() {
        assert!(MultMuxKind::Oai22Fused.supports_mcr(2));
        assert!(!MultMuxKind::Oai22Fused.supports_mcr(4));
        assert!(MultMuxKind::TgNor.supports_mcr(4));
        assert!(MultMuxKind::PassGate1T.supports_mcr(4));
    }
}
