//! Adder-tree generators — the subcircuit family at the heart of the
//! paper's contribution (§III-B, Fig. 4–5).
//!
//! Three topologies are provided:
//!
//! * [`AdderTreeKind::RcaTree`] — the conventional signed ripple-carry
//!   binary tree (the baseline the paper calls "logically complex" and
//!   throughput-limiting);
//! * [`AdderTreeKind::CompressorCsa`] — the pure bit-wise 4-2-compressor
//!   carry-save tree (power- and area-efficient but slow sum paths);
//! * [`AdderTreeKind::MixedCsa`] — the paper's proposal: the first
//!   `fa_rounds` reduction rounds use full-adder (3:2) stages to shorten
//!   the critical path under strict timing, the rest use 4-2 compressors
//!   to save power and area under loose timing.
//!
//! Two further options reproduce the paper's optimizations:
//!
//! * **carry reorder** — because carry outputs are faster than sum
//!   outputs, reconnecting late-arriving bits onto the fast `cin` ports
//!   re-balances the paths ("reordering the connections between cells");
//! * **carry-save output** ([`AdderTreeConfig::final_cpa`] = false) — the
//!   tree stops before the final ripple-carry stage so the searcher can
//!   *retime*: "moving the registers at the output of the adder to the
//!   front of the last RCA stage".

use std::collections::VecDeque;

use crate::arith::{count_bits, rca, zero_extend};
use syndcim_netlist::{NetId, NetlistBuilder};

/// Topology selector for [`build_adder_tree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AdderTreeKind {
    /// Binary tree of ripple-carry adders (conventional baseline).
    RcaTree,
    /// Pure 4-2 compressor carry-save tree.
    CompressorCsa,
    /// Mixed tree: the first `fa_rounds` carry-save rounds use full
    /// adders (3:2), the remainder 4-2 compressors.
    MixedCsa {
        /// Number of leading full-adder rounds.
        fa_rounds: usize,
    },
}

impl AdderTreeKind {
    /// The speed-ordered ladder the multi-spec searcher climbs when the
    /// timing check fails: pure compressor → progressively more FA
    /// rounds. (`RcaTree` is a baseline, not on the ladder.)
    pub fn speed_ladder(max_fa_rounds: usize) -> Vec<AdderTreeKind> {
        let mut v = vec![AdderTreeKind::CompressorCsa];
        v.extend((1..=max_fa_rounds).map(|r| AdderTreeKind::MixedCsa { fa_rounds: r }));
        v
    }
}

impl std::fmt::Display for AdderTreeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdderTreeKind::RcaTree => write!(f, "rca"),
            AdderTreeKind::CompressorCsa => write!(f, "csa-c42"),
            AdderTreeKind::MixedCsa { fa_rounds } => write!(f, "csa-mixed{fa_rounds}"),
        }
    }
}

/// Full configuration of one adder tree instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdderTreeConfig {
    /// Topology.
    pub kind: AdderTreeKind,
    /// Apply the carry-reorder connection optimization.
    pub carry_reorder: bool,
    /// Emit the final carry-propagate (ripple) stage. When `false` the
    /// tree returns its redundant carry-save pair so the register can be
    /// retimed in front of the last RCA stage.
    pub final_cpa: bool,
}

impl Default for AdderTreeConfig {
    fn default() -> Self {
        AdderTreeConfig { kind: AdderTreeKind::CompressorCsa, carry_reorder: true, final_cpa: true }
    }
}

/// Output of [`build_adder_tree`].
#[derive(Debug, Clone)]
pub enum TreeOutput {
    /// Fully assimilated binary sum, LSB first.
    Binary(Vec<NetId>),
    /// Redundant carry-save pair: the sum equals `a + b` (equal widths).
    CarrySave {
        /// First operand (LSB first).
        a: Vec<NetId>,
        /// Second operand (LSB first).
        b: Vec<NetId>,
    },
}

impl TreeOutput {
    /// Width in bits of the (binary or redundant) result.
    pub fn width(&self) -> usize {
        match self {
            TreeOutput::Binary(s) => s.len(),
            TreeOutput::CarrySave { a, .. } => a.len(),
        }
    }
}

/// A bit inside the reduction network, with an arrival estimate in
/// normalized delay units for the carry-reorder optimization.
#[derive(Debug, Clone, Copy)]
struct Bit {
    net: NetId,
    arr: f64,
}

// Arrival-estimate increments mirroring the library's parasitic delays
// (see `syndcim_pdk::library`): used only to *order* connections.
const FA_SUM: f64 = 4.5;
const FA_CIN_SUM: f64 = 3.6;
const FA_CARRY: f64 = 2.6;
const FA_CIN_CARRY: f64 = 1.9;
const C42_SUM: f64 = 10.5;
const C42_CIN_SUM: f64 = 3.8;
const C42_CARRY: f64 = 5.5;
const C42_CIN_CARRY: f64 = 2.4;
const C42_COUT: f64 = 3.0;

/// Build an adder tree reducing `inputs` (equal-weight 1-bit partial
/// products) to their sum. Returns [`TreeOutput::Binary`] of width
/// `count_bits(H)` when `cfg.final_cpa`, else the carry-save pair.
///
/// # Panics
///
/// Panics if `inputs.len() < 2`.
pub fn build_adder_tree(b: &mut NetlistBuilder<'_>, inputs: &[NetId], cfg: AdderTreeConfig) -> TreeOutput {
    assert!(inputs.len() >= 2, "adder tree needs at least two inputs");
    match cfg.kind {
        AdderTreeKind::RcaTree => build_rca_tree(b, inputs, cfg.final_cpa),
        AdderTreeKind::CompressorCsa => build_csa(b, inputs, 0, cfg),
        AdderTreeKind::MixedCsa { fa_rounds } => build_csa(b, inputs, fa_rounds, cfg),
    }
}

fn build_rca_tree(b: &mut NetlistBuilder<'_>, inputs: &[NetId], final_cpa: bool) -> TreeOutput {
    // Operands start as 1-bit numbers; pairwise RCA until one remains.
    let mut ops: Vec<Vec<NetId>> = inputs.iter().map(|&n| vec![n]).collect();
    while ops.len() > 1 {
        let mut next = Vec::with_capacity(ops.len().div_ceil(2));
        let mut it = ops.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(x) => {
                    let w = a.len().max(x.len());
                    let zero = b.const0();
                    let ae = zero_extend(&a, w, zero);
                    let xe = zero_extend(&x, w, zero);
                    let (mut s, c) = rca(b, &ae, &xe, None);
                    s.push(c);
                    next.push(s);
                }
                None => next.push(a),
            }
        }
        ops = next;
    }
    let sum = ops.pop().expect("one operand remains");
    let width = count_bits(inputs.len());
    let mut sum = sum;
    sum.truncate(width);
    if final_cpa {
        TreeOutput::Binary(sum)
    } else {
        // An RCA tree has no redundant form; hand back sum + zero so the
        // retimed pipeline shape stays uniform.
        let zero = b.const0();
        let z = vec![zero; sum.len()];
        TreeOutput::CarrySave { a: sum, b: z }
    }
}

/// A column of bits of one weight, consumed from the front.
type Column = VecDeque<Bit>;

/// Prepare a column for its round. With reorder, a column that will feed
/// a cell (three bits or more, in either kind of round) is sorted by
/// arrival once, so the *earliest* bits feed the slow inputs and the
/// latest the fast cin port (the caller picks cin last). That equals
/// sorting before every pick: a stable sort leaves a sorted column, and
/// what remains of it after picks from the front, as it is.
fn order(col: &mut Column, reorder: bool) {
    if reorder && col.len() >= 3 {
        col.make_contiguous().sort_by(|a, b| a.arr.partial_cmp(&b.arr).expect("finite arrivals"));
    }
}

/// Take the next `N` bits from the front of a column.
fn pick<const N: usize>(col: &mut Column) -> [Bit; N] {
    std::array::from_fn(|_| col.pop_front().expect("the caller checked the column's length"))
}

fn build_csa(
    b: &mut NetlistBuilder<'_>,
    inputs: &[NetId],
    fa_rounds: usize,
    cfg: AdderTreeConfig,
) -> TreeOutput {
    let width = count_bits(inputs.len());
    let mut cols: Vec<Column> = vec![Column::new(); width + 2];
    for &n in inputs {
        cols[0].push_back(Bit { net: n, arr: 0.0 });
    }

    let mut round = 0usize;
    while cols.iter().any(|c| c.len() > 2) {
        let use_fa = round < fa_rounds;
        round += 1;
        let mut next: Vec<Column> = vec![Column::new(); cols.len()];
        if use_fa {
            // 3:2 full-adder round.
            for w in 0..cols.len() {
                let col = &mut cols[w];
                order(col, cfg.carry_reorder);
                while col.len() >= 3 {
                    let [x, y, z] = pick::<3>(col);
                    let (s, c) = b.fa(x.net, y.net, z.net);
                    let s_arr = (x.arr + FA_SUM).max(y.arr + FA_SUM).max(z.arr + FA_CIN_SUM);
                    let c_arr = (x.arr + FA_CARRY).max(y.arr + FA_CARRY).max(z.arr + FA_CIN_CARRY);
                    next[w].push_back(Bit { net: s, arr: s_arr });
                    next[w + 1].push_back(Bit { net: c, arr: c_arr });
                }
                next[w].append(col);
            }
        } else {
            // 4-2 compressor round. Each cell is used as a 5-3 carry-save
            // counter (paper [14]): the cin port takes the chained cout of
            // the lower-weight compressor when one exists, otherwise a
            // fifth data bit.
            let mut chain: Vec<Option<Bit>> = vec![None; cols.len() + 1];
            for w in 0..cols.len() {
                let col = &mut cols[w];
                order(col, cfg.carry_reorder);
                // An unconsumed chained cout becomes an ordinary bit.
                let mut pending = chain[w].take();
                while col.len() >= 5 || (col.len() >= 4 && pending.is_some()) {
                    let [p, q, r, s4] = pick::<4>(col);
                    let cin = match pending.take() {
                        Some(bit) => bit,
                        None => pick::<1>(col)[0],
                    };
                    let (s, carry, cout) = b.c42(p.net, q.net, r.net, s4.net, cin.net);
                    let slow = p.arr.max(q.arr).max(r.arr).max(s4.arr);
                    next[w].push_back(Bit { net: s, arr: (slow + C42_SUM).max(cin.arr + C42_CIN_SUM) });
                    next[w + 1]
                        .push_back(Bit { net: carry, arr: (slow + C42_CARRY).max(cin.arr + C42_CIN_CARRY) });
                    let cout_arr = p.arr.max(q.arr).max(r.arr) + C42_COUT;
                    if chain[w + 1].is_none() {
                        chain[w + 1] = Some(Bit { net: cout, arr: cout_arr });
                    } else {
                        next[w + 1].push_back(Bit { net: cout, arr: cout_arr });
                    }
                }
                if let Some(bit) = pending {
                    next[w].push_back(bit);
                }
                // Tail cases: 4 leftover bits use a compressor with a
                // grounded cin (4:3), 3 use an FA; 1–2 pass through.
                if col.len() == 4 {
                    let [p, q, r, s4] = pick::<4>(col);
                    let zero = b.const0();
                    let (s, carry, cout) = b.c42(p.net, q.net, r.net, s4.net, zero);
                    let slow = p.arr.max(q.arr).max(r.arr).max(s4.arr);
                    next[w].push_back(Bit { net: s, arr: slow + C42_SUM });
                    next[w + 1].push_back(Bit { net: carry, arr: slow + C42_CARRY });
                    next[w + 1].push_back(Bit { net: cout, arr: p.arr.max(q.arr).max(r.arr) + C42_COUT });
                }
                if col.len() == 3 {
                    let [x, y, z] = pick::<3>(col);
                    let (s, c) = b.fa(x.net, y.net, z.net);
                    next[w].push_back(Bit { net: s, arr: x.arr.max(y.arr).max(z.arr) + FA_SUM });
                    next[w + 1].push_back(Bit { net: c, arr: x.arr.max(y.arr).max(z.arr) + FA_CARRY });
                }
                next[w].append(col);
            }
            for (w, slot) in chain.into_iter().enumerate() {
                if let Some(bit) = slot {
                    if w < next.len() {
                        next[w].push_back(bit);
                    }
                }
            }
        }
        cols = next;
        // Safety valve against a logic error: reduction must terminate.
        assert!(round < 64, "carry-save reduction failed to converge");
    }

    // Assemble the ≤2 bits per column into the redundant pair.
    let zero = b.const0();
    let mut op_a = Vec::with_capacity(width);
    let mut op_b = Vec::with_capacity(width);
    for col in cols.iter().take(width) {
        op_a.push(col.front().map(|x| x.net).unwrap_or(zero));
        op_b.push(col.get(1).map(|x| x.net).unwrap_or(zero));
    }
    // Columns beyond `width` cannot carry real weight for a sum ≤ H; any
    // bits there are structurally zero and dropped.

    if cfg.final_cpa {
        let (sum, _carry) = rca(b, &op_a, &op_b, None);
        TreeOutput::Binary(sum)
    } else {
        TreeOutput::CarrySave { a: op_a, b: op_b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::{Module, NetlistStats};
    use syndcim_pdk::CellLibrary;
    use syndcim_sim::Simulator;
    use syndcim_sta::Sta;

    fn build(h: usize, cfg: AdderTreeConfig) -> (Module, CellLibrary) {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("tree", &lib);
        let ins = b.input_bus("in", h);
        match build_adder_tree(&mut b, &ins, cfg) {
            TreeOutput::Binary(s) => b.output_bus("sum", &s),
            TreeOutput::CarrySave { a, b: bb } => {
                b.output_bus("csa_a", &a);
                b.output_bus("csa_b", &bb);
            }
        }
        (b.finish(), lib)
    }

    fn check_counts(h: usize, cfg: AdderTreeConfig) {
        let (m, lib) = build(h, cfg);
        let mut sim = Simulator::new(&m, &lib).unwrap();
        let w = count_bits(h) as u32;
        let mut x: u64 = 0xDEADBEEF ^ (h as u64) << 1;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let mut expect = 0u64;
            for i in 0..h {
                let bit = (x >> (i % 64)).wrapping_mul(0x9E37).wrapping_add(x >> (i / 3)) & 1 == 1;
                sim.set(&format!("in[{i}]"), bit);
                expect += bit as u64;
            }
            sim.settle();
            let got = if cfg.final_cpa {
                sim.get_bus_unsigned("sum", w)
            } else {
                let wa = m.bus("csa_a", w as usize).map(|v| v.len()).unwrap_or(0) as u32;
                (sim.get_bus_unsigned("csa_a", wa) + sim.get_bus_unsigned("csa_b", wa)) & ((1 << w) - 1)
            };
            assert_eq!(got, expect, "h={h} cfg={cfg:?}");
        }
    }

    #[test]
    fn all_variants_count_correctly() {
        for h in [4usize, 8, 16, 21, 64] {
            for kind in [
                AdderTreeKind::RcaTree,
                AdderTreeKind::CompressorCsa,
                AdderTreeKind::MixedCsa { fa_rounds: 1 },
                AdderTreeKind::MixedCsa { fa_rounds: 3 },
                AdderTreeKind::MixedCsa { fa_rounds: 99 },
            ] {
                for reorder in [false, true] {
                    check_counts(h, AdderTreeConfig { kind, carry_reorder: reorder, final_cpa: true });
                }
            }
        }
    }

    #[test]
    fn carry_save_output_sums_correctly() {
        for kind in
            [AdderTreeKind::CompressorCsa, AdderTreeKind::MixedCsa { fa_rounds: 2 }, AdderTreeKind::RcaTree]
        {
            check_counts(32, AdderTreeConfig { kind, carry_reorder: true, final_cpa: false });
        }
    }

    #[test]
    fn exhaustive_small_tree() {
        let cfg = AdderTreeConfig::default();
        let (m, lib) = build(4, cfg);
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for v in 0..16u64 {
            for i in 0..4 {
                sim.set(&format!("in[{i}]"), v >> i & 1 == 1);
            }
            sim.settle();
            assert_eq!(sim.get_bus_unsigned("sum", 3), v.count_ones() as u64);
        }
    }

    #[test]
    fn paper_tradeoff_compressor_cheapest_fa_fastest() {
        // §III-B: compressors minimize power/area; FAs shorten the path;
        // the conventional RCA tree is the most expensive in cells/area
        // (its delay parity pre-layout erodes post-layout through its
        // much larger cell and wire count — see the macro-level benches).
        let h = 64;
        let mk = |kind| build(h, AdderTreeConfig { kind, carry_reorder: true, final_cpa: true });
        let (mc, lib_c) = mk(AdderTreeKind::CompressorCsa);
        let (mf, lib_f) = mk(AdderTreeKind::MixedCsa { fa_rounds: 99 });
        let (mr, lib_r) = mk(AdderTreeKind::RcaTree);
        let area_c = NetlistStats::of(&mc, &lib_c).cell_area_um2;
        let area_f = NetlistStats::of(&mf, &lib_f).cell_area_um2;
        let area_r = NetlistStats::of(&mr, &lib_r).cell_area_um2;
        assert!(area_c < area_f, "compressor tree must be smaller: {area_c} vs {area_f}");
        assert!(area_r > area_c, "RCA baseline must cost the most area: rca={area_r} c42={area_c}");
        let d_c = Sta::new(&mc, &lib_c).unwrap().analyze(1e6).max_delay_ps;
        let d_f = Sta::new(&mf, &lib_f).unwrap().analyze(1e6).max_delay_ps;
        assert!(d_f < d_c, "full-adder tree must be faster: {d_f} vs {d_c}");
    }

    #[test]
    fn ladder_spans_the_delay_space() {
        // The ladder is a *candidate set*; the SCL orders it by measured
        // delay. The extremes must bracket it: pure FA (large fa_rounds)
        // strictly beats pure compressor, and no mixed point is slower
        // than the pure-compressor start.
        let h = 64;
        let base = {
            let (m, lib) = build(h, AdderTreeConfig::default());
            Sta::new(&m, &lib).unwrap().analyze(1e6).max_delay_ps
        };
        let mut best = f64::INFINITY;
        for kind in AdderTreeKind::speed_ladder(8) {
            let (m, lib) = build(h, AdderTreeConfig { kind, carry_reorder: true, final_cpa: true });
            let d = Sta::new(&m, &lib).unwrap().analyze(1e6).max_delay_ps;
            best = best.min(d);
        }
        assert!(
            best < base * 0.95,
            "the fastest mixed tree ({best}) must clearly beat pure compressor ({base})"
        );
    }

    #[test]
    fn carry_reorder_does_not_hurt() {
        let h = 64;
        for kind in [AdderTreeKind::CompressorCsa, AdderTreeKind::MixedCsa { fa_rounds: 2 }] {
            let (m0, lib0) = build(h, AdderTreeConfig { kind, carry_reorder: false, final_cpa: true });
            let (m1, lib1) = build(h, AdderTreeConfig { kind, carry_reorder: true, final_cpa: true });
            let d0 = Sta::new(&m0, &lib0).unwrap().analyze(1e6).max_delay_ps;
            let d1 = Sta::new(&m1, &lib1).unwrap().analyze(1e6).max_delay_ps;
            assert!(d1 <= d0 * 1.02, "reorder should not slow the tree: {d1} vs {d0} ({kind})");
        }
    }

    #[test]
    fn speed_ladder_shape() {
        let l = AdderTreeKind::speed_ladder(3);
        assert_eq!(l.len(), 4);
        assert_eq!(l[0], AdderTreeKind::CompressorCsa);
        assert_eq!(l[3], AdderTreeKind::MixedCsa { fa_rounds: 3 });
    }
}
