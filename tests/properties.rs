//! Property-based tests on the core invariants.
//!
//! Written as seeded-RNG sampling loops (24 cases each, mirroring the
//! original proptest configuration) because the offline build environment
//! has no `proptest`. Each case derives all of its inputs from
//! `syndcim_sim::vectors::seeded_rng`, so failures reproduce exactly.

use rand::Rng;
use syndcim_netlist::NetlistBuilder;
use syndcim_pdk::CellLibrary;
use syndcim_sim::golden::{fp_align, int_dot, DcimChannelTrace};
use syndcim_sim::vectors::seeded_rng;
use syndcim_sim::{FpFormat, FpValue, Simulator};
use syndcim_subckt::{build_adder_tree, AdderTreeConfig, AdderTreeKind, TreeOutput};

const CASES: u64 = 24;

/// Any adder-tree variant counts any input pattern exactly.
#[test]
fn adder_tree_counts() {
    let lib = CellLibrary::syn40();
    for case in 0..CASES {
        let mut rng = seeded_rng(0xADDE0 + case);
        let n = rng.gen_range(4usize..40);
        let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let fa_rounds = rng.gen_range(0usize..4);
        let reorder = rng.gen_bool(0.5);

        let mut b = NetlistBuilder::new("t", &lib);
        let ins = b.input_bus("in", bits.len());
        let kind =
            if fa_rounds == 0 { AdderTreeKind::CompressorCsa } else { AdderTreeKind::MixedCsa { fa_rounds } };
        let cfg = AdderTreeConfig { kind, carry_reorder: reorder, final_cpa: true };
        let out = match build_adder_tree(&mut b, &ins, cfg) {
            TreeOutput::Binary(s) => s,
            TreeOutput::CarrySave { .. } => unreachable!("final_cpa = true"),
        };
        let width = out.len() as u32;
        b.output_bus("sum", &out);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for (i, &v) in bits.iter().enumerate() {
            sim.set(&format!("in[{i}]"), v);
        }
        sim.settle();
        let want = bits.iter().filter(|&&x| x).count() as u64;
        assert_eq!(sim.get_bus_unsigned("sum", width), want, "case {case}: n={n} fa_rounds={fa_rounds}");
    }
}

/// The golden bit-serial channel model equals the plain dot product for
/// every signed precision combination: INT8 × INT4, and the equal
/// precisions `measure_int` checks against `int_dot` at up to the paper
/// chip's 64 rows.
#[test]
fn golden_channel_is_exact() {
    for case in 0..CASES {
        let mut rng = seeded_rng(0x601D + case);
        let n = rng.gen_range(1usize..24);
        let acts: Vec<i64> = (0..n).map(|_| rng.gen_range(-128i64..=127)).collect();
        let ws: Vec<i64> = (0..n).map(|_| rng.gen_range(-8i64..=7)).collect();
        let tr = DcimChannelTrace::run(&acts, &ws, 8, 4);
        assert_eq!(tr.output, int_dot(&acts, &ws), "case {case}");

        let p = [1u32, 2, 4, 8][rng.gen_range(0usize..4)];
        let n = rng.gen_range(1usize..=64);
        let lim = 1i64 << (p - 1);
        let acts: Vec<i64> = (0..n).map(|_| rng.gen_range(-lim..lim)).collect();
        let ws: Vec<i64> = (0..n).map(|_| rng.gen_range(-lim..lim)).collect();
        let tr = DcimChannelTrace::run(&acts, &ws, p, p);
        assert_eq!(tr.output, int_dot(&acts, &ws), "case {case}: INT{p}, n={n}");
    }
}

/// FP alignment never increases magnitude and preserves sign.
#[test]
fn fp_align_bounds() {
    let fmt = FpFormat::FP8;
    for case in 0..CASES {
        let mut rng = seeded_rng(0xF9 + case);
        let n = rng.gen_range(2usize..12);
        let vals: Vec<FpValue> = (0..n)
            .map(|_| {
                let v = FpValue::from_bits(rng.gen_range(0u32..256), fmt);
                if v.exp_field == 0 {
                    FpValue::ZERO
                } else {
                    v
                }
            })
            .collect();
        let (aligned, emax) = fp_align(&vals, fmt);
        for (v, &a) in vals.iter().zip(&aligned) {
            assert!(a.unsigned_abs() <= (1 << (fmt.man_bits + 1)), "case {case}: mantissa bound");
            if a != 0 {
                assert_eq!(a < 0, v.sign, "case {case}: sign preserved");
            }
            if !v.is_zero() {
                assert!(emax >= v.exp_field as i32, "case {case}: emax is the max exponent");
            }
        }
    }
}

/// Pareto frontier points never dominate each other.
#[test]
fn pareto_non_domination() {
    use syndcim_core::{pareto_frontier, DesignChoice, DesignPoint, PpaEstimate};
    for case in 0..CASES {
        let mut rng = seeded_rng(0x9A_0E70 + case);
        let n = rng.gen_range(1usize..40);
        let pts: Vec<DesignPoint> = (0..n)
            .map(|_| DesignPoint {
                choice: DesignChoice::default(),
                est: PpaEstimate {
                    power_uw: rng.gen_range(1u32..1000) as f64,
                    area_um2: rng.gen_range(1u32..1000) as f64,
                    latency_cycles: rng.gen_range(1usize..20),
                    timing_met: true,
                    ..Default::default()
                },
            })
            .collect();
        let f = pareto_frontier(&pts);
        assert!(!f.is_empty(), "case {case}");
        for x in &f {
            for y in &f {
                let dom = x.est.power_uw <= y.est.power_uw
                    && x.est.area_um2 <= y.est.area_um2
                    && x.est.latency_cycles <= y.est.latency_cycles
                    && (x.est.power_uw < y.est.power_uw
                        || x.est.area_um2 < y.est.area_um2
                        || x.est.latency_cycles < y.est.latency_cycles);
                assert!(!dom, "case {case}: frontier contains dominated point");
            }
        }
    }
}

/// STA arrival times never decrease along the critical path.
#[test]
fn sta_arrivals_monotone() {
    use syndcim_sta::Sta;
    let lib = CellLibrary::syn40();
    for case in 0..CASES {
        let mut rng = seeded_rng(0x57A + case);
        let depth = rng.gen_range(2usize..24);
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a");
        let mut x = a;
        for i in 0..depth {
            x = if i % 2 == 0 { b.xor2(x, x) } else { b.not(x) };
        }
        b.output("y", x);
        let m = b.finish();
        let sta = Sta::new(&m, &lib).unwrap();
        let rep = sta.analyze(1e9);
        let mut prev = -1.0;
        for s in &rep.critical_path {
            assert!(s.arrival_ps >= prev, "case {case}: arrivals must be monotone");
            prev = s.arrival_ps;
        }
    }
}
