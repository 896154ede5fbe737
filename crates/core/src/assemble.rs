//! Full-macro netlist assembly: every subcircuit instantiated and wired
//! according to one [`DesignChoice`].
//!
//! The assembled macro implements the complete bit-serial DCIM pipeline:
//!
//! ```text
//! act ──WL drivers──► array (bitcells×MCR, mux, mult) ──► adder trees
//!        (per column, optionally split / retimed / carry-save)
//!     ──[psum regs]──► shift-&-add accumulators ──► OFU fusion levels
//! wbl ──BL drivers──► write decoder ──► bitcell write ports
//! fp  ──alignment unit──► registered aligned mantissas (FP mode)
//! ```
//!
//! Every level of the OFU is exposed as output ports, so one macro
//! serves INT1 … INT`w_bits` (and the FP formats riding on them) at
//! runtime, exactly like the reconfigurable test chip.

use syndcim_netlist::{Module, NetId, NetlistBuilder};
use syndcim_pdk::CellLibrary;
use syndcim_sim::FpFormat;
use syndcim_subckt::arith::{count_bits, rca, zero_extend};
use syndcim_subckt::{
    build_adder_tree, build_array, build_drivers, build_ofu, build_shift_add, negate_levels, AdderTreeConfig,
    ArrayConfig, BitcellRef, DriverRole, FpRowPorts, OfuConfig, ShiftAddConfig, TreeOutput,
};

use crate::design::DesignChoice;
use crate::spec::MacroSpec;

/// The assembled macro netlist plus the metadata the evaluation and
/// implementation stages need.
#[derive(Debug, Clone)]
pub struct MacroNetlist {
    /// The flat gate-level netlist.
    pub module: Module,
    /// Every bitcell with (col, row, bank) coordinates, for weight
    /// preloading and write-sequence reproduction.
    pub bitcells: Vec<BitcellRef>,
    /// Array height.
    pub h: usize,
    /// Array width (1-bit weight columns).
    pub w: usize,
    /// Memory-compute ratio.
    pub mcr: usize,
    /// Serial activation bits the datapath is built for.
    pub act_bits: u32,
    /// Columns fused per channel group.
    pub w_bits: u32,
    /// S&A accumulator width.
    pub sa_bits: usize,
    /// Number of channel groups (`w / w_bits`).
    pub groups: usize,
    /// The OFU configuration used (level widths derive from it).
    pub ofu_cfg: OfuConfig,
    /// Cycles of pipeline between the activation bits entering and the
    /// corresponding partial sum reaching the S&A accumulator input.
    pub mac_pipeline_depth: usize,
    /// The FP format served by the alignment unit, if any.
    pub fp: Option<FpFormat>,
    /// The design choice this macro implements.
    pub choice: DesignChoice,
}

impl MacroNetlist {
    /// Output port base name for channel `i` of level `k` in group `g`
    /// (bit-blasted as `name[bit]`).
    pub fn output_port(&self, g: usize, k: usize, i: usize) -> String {
        format!("out_g{g}_l{k}_{i}")
    }

    /// Width of a level-`k` output bus.
    pub fn output_width(&self, k: usize) -> usize {
        self.ofu_cfg.level_width(k)
    }
}

/// Two-level buffer distribution of a global control: one root buffer
/// feeding `copies` leaf buffers; consumers attach to leaves.
fn fanout_tree(b: &mut NetlistBuilder<'_>, src: NetId, copies: usize) -> Vec<NetId> {
    let root = b.add(syndcim_pdk::CellKind::BufX16, &[src])[0];
    (0..copies.max(1)).map(|_| b.add(syndcim_pdk::CellKind::BufX16, &[root])[0]).collect()
}

/// Assemble the complete macro for `spec` under `choice`.
///
/// # Panics
///
/// Panics if `choice.tree_retimed` is set without `choice.pipe_tree_sa`
/// (retiming moves an existing register; there must be one), or if the
/// spec is internally inconsistent (call [`MacroSpec::validate`] first).
pub fn assemble(lib: &CellLibrary, spec: &MacroSpec, choice: &DesignChoice) -> MacroNetlist {
    assert!(
        choice.pipe_tree_sa || !choice.tree_retimed,
        "tree retiming requires the tree/S&A pipeline register"
    );
    let h = spec.h;
    let w = spec.w;
    let mcr = spec.mcr;
    let act_bits = spec.act_bits();
    let w_bits = spec.weight_bits() as usize;
    let groups = w / w_bits;
    let psum_bits = count_bits(h);
    let sa_bits = psum_bits + act_bits as usize;
    let levels = w_bits.trailing_zeros() as usize;

    let mut b = NetlistBuilder::new(format!("syndcim_{h}x{w}_mcr{mcr}"), lib);

    // ---- boundary + drivers ------------------------------------------
    let act_in = b.input_bus("act", h);
    let act = build_drivers(&mut b, DriverRole::WordLine, &act_in, w);

    let wr_en = b.input("wr_en");
    let row_addr_bits = h.trailing_zeros() as usize;
    let bank_addr_bits = mcr.trailing_zeros() as usize;
    let wr_row = b.input_bus("wr_row", row_addr_bits);
    let wr_bank = b.input_bus("wr_bank", bank_addr_bits);
    let wbl_in = b.input_bus("wbl", w);
    let wbl = build_drivers(&mut b, DriverRole::BitLine, &wbl_in, h * mcr);

    // Write address decoder (lives with the WL drivers).
    b.push_group("wl_drivers");
    let wr_row_n: Vec<NetId> = wr_row.iter().map(|&n| b.not(n)).collect();
    let wr_bank_n: Vec<NetId> = wr_bank.iter().map(|&n| b.not(n)).collect();
    let mut wwl_raw: Vec<Vec<NetId>> = Vec::with_capacity(mcr);
    for bank in 0..mcr {
        let mut bank_match = wr_en;
        for (k, (&bit, &nbit)) in wr_bank.iter().zip(&wr_bank_n).enumerate() {
            let sel = if (bank >> k) & 1 == 1 { bit } else { nbit };
            bank_match = b.and2(bank_match, sel);
        }
        let mut rows = Vec::with_capacity(h);
        for r in 0..h {
            let mut m = bank_match;
            for (k, (&bit, &nbit)) in wr_row.iter().zip(&wr_row_n).enumerate() {
                let sel = if (r >> k) & 1 == 1 { bit } else { nbit };
                m = b.and2(m, sel);
            }
            rows.push(m);
        }
        wwl_raw.push(rows);
    }
    b.pop_group();
    let wwl: Vec<Vec<NetId>> =
        wwl_raw.iter().map(|rows| build_drivers(&mut b, DriverRole::WriteWordLine, rows, w)).collect();

    let bank_sel_in = b.input_bus("bank_sel", bank_addr_bits);
    let neg_in = b.input("neg");
    let clear_in = b.input("clear");
    let prec_in = b.input_bus("prec", levels + 1);

    // Global controls fan out to every column: distribute them through
    // buffer spines (one copy per 16-column bucket) so post-layout RC
    // stays bounded — the control-distribution network of a real macro.
    let ctrl_buckets = w.div_ceil(16);
    b.push_group("ctrl_spine");
    let neg_c = fanout_tree(&mut b, neg_in, ctrl_buckets);
    let clear_c = fanout_tree(&mut b, clear_in, ctrl_buckets);
    let prec_c: Vec<Vec<NetId>> = prec_in.iter().map(|&p| fanout_tree(&mut b, p, groups.max(1))).collect();
    // Bank selects drive every mux site of a column (H pins): give each
    // column its own strong leaf fed from a per-8-column spine of X16
    // buffers.
    let bank_sel: Vec<Vec<NetId>> = {
        let per_bit: Vec<Vec<NetId>> = bank_sel_in
            .iter()
            .map(|&s| {
                let root = b.add(syndcim_pdk::CellKind::BufX16, &[s])[0];
                let mids: Vec<NetId> =
                    (0..w.div_ceil(8)).map(|_| b.add(syndcim_pdk::CellKind::BufX16, &[root])[0]).collect();
                (0..w).map(|c| b.add(syndcim_pdk::CellKind::BufX16, &[mids[c / 8]])[0]).collect()
            })
            .collect();
        (0..w).map(|c| per_bit.iter().map(|v| v[c]).collect()).collect()
    };
    b.pop_group();

    // ---- array --------------------------------------------------------
    let arr_cfg = ArrayConfig { h, w, mcr, bitcell: choice.bitcell, multmux: choice.multmux };
    let arr = build_array(&mut b, arr_cfg, &act, &wwl, &wbl, &bank_sel);

    // Per-(group, position) negate controls for retimed OFU sign
    // handling: the column at position jj within its group is negated
    // when any active precision makes it the weight MSB of its channel.
    let retimed_neg: Option<Vec<Vec<NetId>>> = if choice.ofu_negate_retimed {
        Some(
            (0..groups)
                .map(|g| {
                    (0..w_bits)
                        .map(|jj| {
                            let ks = negate_levels(jj, w_bits);
                            let mut ctrl = prec_c[ks[0]][g];
                            for &k in &ks[1..] {
                                ctrl = b.or2(ctrl, prec_c[k][g]);
                            }
                            // Effective per-cycle sign = serial MSB flag
                            // XOR the precision-MSB control.
                            let neg_local = neg_c[(g * w_bits) / 16];
                            b.xor2(neg_local, ctrl)
                        })
                        .collect()
                })
                .collect(),
        )
    } else {
        None
    };

    // ---- per-column datapath -------------------------------------------
    let tree_cfg = AdderTreeConfig {
        kind: choice.tree_kind,
        carry_reorder: choice.carry_reorder,
        final_cpa: !choice.tree_retimed,
    };
    let split = choice.column_split.max(1);
    assert!(split.is_power_of_two() && h.is_multiple_of(split), "column split must divide H");

    let mut sa_buses: Vec<Vec<NetId>> = Vec::with_capacity(w);
    for c in 0..w {
        b.push_group(&format!("col{c}"));

        // Adder tree(s) over this column's products.
        b.push_group("tree");
        let chunk = h / split;
        let mut parts: Vec<Vec<NetId>> = Vec::with_capacity(split);
        for s in 0..split {
            let slice = &arr.products[c][s * chunk..(s + 1) * chunk];
            match build_adder_tree(&mut b, slice, tree_cfg) {
                TreeOutput::Binary(sum) => parts.push(sum),
                TreeOutput::CarrySave { a, b: bb } => {
                    // Retimed: register the redundant pair here.
                    let ra = b.dff_bus(&a);
                    let rb = b.dff_bus(&bb);
                    // CPA after the register (runs in the S&A stage); the
                    // tree guarantees no overflow past the pair's width.
                    parts.push(rca(&mut b, &ra, &rb, None).0);
                }
            }
        }
        // Recombine split chunks to the full count (unsigned adds).
        let mut psum = combine_counts(&mut b, parts);
        psum.truncate(psum_bits);
        while psum.len() < psum_bits {
            let zero = b.const0();
            psum.push(zero);
        }
        // Pipeline register between tree and S&A (unless pruned/retimed —
        // when retimed the register already sits inside the tree stage).
        if choice.pipe_tree_sa && !choice.tree_retimed {
            psum = b.dff_bus(&psum);
        }
        b.pop_group();

        // Shift-and-add accumulator.
        b.push_group("sa");
        let col_neg = match &retimed_neg {
            Some(ctrl) => ctrl[c / w_bits][c % w_bits],
            None => neg_c[c / 16],
        };
        let sa = build_shift_add(
            &mut b,
            ShiftAddConfig { psum_bits, act_bits: act_bits as usize },
            &psum,
            col_neg,
            clear_c[c / 16],
        );
        b.pop_group();
        b.pop_group();
        sa_buses.push(sa.acc);
    }

    // ---- output fusion --------------------------------------------------
    let ofu_cfg = OfuConfig {
        w_bits,
        sa_bits,
        negate_stage: !choice.ofu_negate_retimed,
        extra_pipeline: choice.ofu_extra_pipe,
    };
    b.push_group("ofu");
    for g in 0..groups {
        // Per-group subgroup so SDP placement stacks each group's fusion
        // levels vertically in its own sub-strip.
        b.push_group(&format!("g{g}"));
        let slice = &sa_buses[g * w_bits..(g + 1) * w_bits];
        let prec_g: Vec<NetId> = prec_c.iter().map(|v| v[g]).collect();
        let out = build_ofu(&mut b, ofu_cfg, slice, &prec_g);
        for (k, level) in out.levels.iter().enumerate() {
            for (i, bus) in level.iter().enumerate() {
                b.output_bus(&format!("out_g{g}_l{k}_{i}"), bus);
            }
        }
        b.pop_group();
    }
    b.pop_group();

    // ---- FP & INT alignment ---------------------------------------------
    let fp = spec.widest_fp();
    if let Some(fmt) = fp {
        let rows: Vec<FpRowPorts> = (0..h)
            .map(|r| FpRowPorts {
                sign: b.input(format!("fp_s{r}")),
                exp: b.input_bus(&format!("fp_e{r}"), fmt.exp_bits as usize),
                man: b.input_bus(&format!("fp_m{r}"), fmt.man_bits as usize),
            })
            .collect();
        let al = syndcim_subckt::build_align_pipelined(&mut b, fmt, &rows, choice.align_pipelined);
        b.push_group("align");
        for (r, bus) in al.aligned.iter().enumerate() {
            let reg = b.dff_bus(bus);
            b.output_bus(&format!("al{r}"), &reg);
        }
        let emax_reg = b.dff_bus(&al.e_max);
        b.output_bus("emax", &emax_reg);
        b.pop_group();
    }

    MacroNetlist {
        module: b.finish(),
        bitcells: arr.bitcells,
        h,
        w,
        mcr,
        act_bits,
        w_bits: w_bits as u32,
        sa_bits,
        groups,
        ofu_cfg,
        mac_pipeline_depth: usize::from(choice.pipe_tree_sa),
        fp,
        choice: *choice,
    }
}

/// Combine several unsigned partial counts into their total by pairwise
/// ripple-carry addition (used when a column is split into H/2 or H/4
/// trees).
fn combine_counts(b: &mut NetlistBuilder<'_>, mut parts: Vec<Vec<NetId>>) -> Vec<NetId> {
    assert!(!parts.is_empty());
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(p) = it.next() {
            match it.next() {
                Some(q) => {
                    let wid = p.len().max(q.len());
                    let zero = b.const0();
                    let pe = zero_extend(&p, wid, zero);
                    let qe = zero_extend(&q, wid, zero);
                    let (mut s, c) = rca(b, &pe, &qe, None);
                    s.push(c);
                    next.push(s);
                }
                None => next.push(p),
            }
        }
        parts = next;
    }
    parts.pop().expect("one total remains")
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::{validate, Connectivity};
    use syndcim_sim::Simulator;

    #[test]
    fn combine_counts_totals_correctly() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let p0 = b.input_bus("p0", 3);
        let p1 = b.input_bus("p1", 3);
        let p2 = b.input_bus("p2", 3);
        let total = combine_counts(&mut b, vec![p0, p1, p2]);
        b.output_bus("t", &total);
        let width = total.len() as u32;
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for (a, c, d) in [(7u64, 7u64, 7u64), (1, 2, 3), (0, 0, 0), (5, 0, 6)] {
            sim.set_bus("p0", 3, a as i64);
            sim.set_bus("p1", 3, c as i64);
            sim.set_bus("p2", 3, d as i64);
            sim.settle();
            assert_eq!(sim.get_bus_unsigned("t", width), a + c + d);
        }
    }

    fn tiny_spec() -> MacroSpec {
        MacroSpec {
            h: 8,
            w: 8,
            mcr: 2,
            int_precisions: vec![1, 2, 4],
            fp_precisions: vec![],
            f_mac_mhz: 500.0,
            f_wu_mhz: 500.0,
            vdd_v: 0.9,
            ppa: Default::default(),
        }
    }

    #[test]
    fn assembled_macro_is_well_formed() {
        let lib = CellLibrary::syn40();
        let spec = tiny_spec();
        let m = assemble(&lib, &spec, &DesignChoice::default());
        let conn = Connectivity::build(&m.module).unwrap();
        validate(&m.module, &conn).unwrap();
        assert_eq!(m.bitcells.len(), 8 * 8 * 2);
        assert_eq!(m.groups, 2); // 8 columns / 4-bit weights
        assert_eq!(m.act_bits, 4);
        assert_eq!(m.sa_bits, 4 + 4); // count_bits(8) + act_bits
                                      // Output ports exist for every level.
        assert!(m.module.port(&format!("{}[0]", m.output_port(0, 0, 0))).is_some());
        assert!(m.module.port(&format!("{}[0]", m.output_port(1, 2, 0))).is_some());
    }

    #[test]
    fn all_choice_shapes_assemble() {
        let lib = CellLibrary::syn40();
        let spec = tiny_spec();
        for retimed in [false, true] {
            for split in [1usize, 2] {
                for merged in [false, true] {
                    if merged && retimed {
                        continue;
                    }
                    for neg_retime in [false, true] {
                        let choice = DesignChoice {
                            tree_retimed: retimed,
                            column_split: split,
                            pipe_tree_sa: !merged,
                            ofu_negate_retimed: neg_retime,
                            ofu_extra_pipe: split == 2,
                            ..DesignChoice::default()
                        };
                        let m = assemble(&lib, &spec, &choice);
                        let conn = Connectivity::build(&m.module).unwrap();
                        validate(&m.module, &conn).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "retiming requires")]
    fn retiming_without_register_is_rejected() {
        let lib = CellLibrary::syn40();
        let spec = tiny_spec();
        let choice = DesignChoice { tree_retimed: true, pipe_tree_sa: false, ..DesignChoice::default() };
        assemble(&lib, &spec, &choice);
    }

    #[test]
    fn fp_spec_adds_alignment_ports() {
        let lib = CellLibrary::syn40();
        let mut spec = tiny_spec();
        spec.fp_precisions = vec![FpFormat::FP4];
        let m = assemble(&lib, &spec, &DesignChoice::default());
        assert!(m.fp.is_some());
        assert!(m.module.port("fp_s0").is_some());
        assert!(m.module.port("al0[0]").is_some());
    }
}
