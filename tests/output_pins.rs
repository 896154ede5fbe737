//! Bit-for-bit pins of sign-off and search outputs.
//!
//! Each literal below is the output of the code as it stood before the
//! shmoo walk, the weight-update burst, the SCL record cache and the
//! search's per-choice derivation were each given one implementation;
//! any change to those outputs' bytes fails here.
//!
//! - an 8×8 macro's Monte-Carlo [`YieldReport`] (one voltage below the
//!   retention limit) and both shmoo renderings;
//! - one fault campaign on it (a stuck-at that escapes at a cost, an
//!   in-burst flip and an after-burst flip) and the weight-update
//!   measurement at 8 and 72 patterns (a wide lane word);
//! - a digest of every feasible point `search` finds for the paper test
//!   chip, with the frontier size, the rejection count and the SCL
//!   record count.

use syndcim_core::{
    implement, measure_weight_update, measure_weight_update_coverage, port_net, search, shmoo, DesignChoice,
    FaultKind, ImplementedMacro, MacroSpec, VariationModel, YieldReport,
};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_scl::Scl;

/// FNV-1a, 64-bit: a fixed hash whose value cannot change with the
/// toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed string, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn macro_8x8() -> (ImplementedMacro, CellLibrary) {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec {
        h: 8,
        w: 8,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 400.0,
        f_wu_mhz: 400.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    };
    let im = implement(&lib, &spec, &DesignChoice::default()).expect("8x8 macro implements");
    (im, lib)
}

const VOLTAGES: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

fn freqs() -> Vec<f64> {
    (1..=8).map(|i| i as f64 * 250.0).collect()
}

#[test]
fn yield_report_and_shmoo_renderings_are_pinned() {
    let (im, lib) = macro_8x8();
    let fs = freqs();
    let r = YieldReport::generate(&im, &VOLTAGES, &fs, VariationModel::gaussian(0.08), 64, 0xD1CE).unwrap();
    assert_eq!(
        r.to_json(),
        "{\"schema\":\"syndcim-yield-report-v1\",\"sigma\":0.08,\"mean\":1,\"seed\":53710,\"samples\":64,\
         \"voltages\":[0.5,0.6,0.7,0.8,0.9,1],\"freqs_mhz\":[250,500,750,1000,1250,1500,1750,2000],\
         \"pass_fraction\":[[0,0,0,0,0,0,0,0],[0.171875,0,0,0,0,0,0,0],[1,0.40625,0,0,0,0,0,0],\
         [1,1,0.640625,0.015625,0,0,0,0],[1,1,1,0.71875,0.015625,0,0,0],[1,1,1,1,0.71875,0.015625,0,0]]}"
    );
    assert_eq!(
        r.shmoo.render(),
        "  V\\f(MHz)    250   500   750  1000  1250  1500  1750  2000\n     \
         1.00V      ■     ■     ■     ■     ▒     ░     ·     ·\n     \
         0.90V      ■     ■     ■     ▒     ░     ·     ·     ·\n     \
         0.80V      ■     ■     ▒     ░     ·     ·     ·     ·\n     \
         0.70V      ■     ▒     ·     ·     ·     ·     ·     ·\n     \
         0.60V      ░     ·     ·     ·     ·     ·     ·     ·\n     \
         0.50V      ·     ·     ·     ·     ·     ·     ·     ·\n"
    );
    assert_eq!(
        shmoo(&im, &lib, &VOLTAGES, &fs).render(),
        "  V\\f(MHz)    250   500   750  1000  1250  1500  1750  2000\n     \
         1.00V      ■     ■     ■     ■     ■     ·     ·     ·\n     \
         0.90V      ■     ■     ■     ■     ·     ·     ·     ·\n     \
         0.80V      ■     ■     ■     ·     ·     ·     ·     ·\n     \
         0.70V      ■     ·     ·     ·     ·     ·     ·     ·\n     \
         0.60V      ·     ·     ·     ·     ·     ·     ·     ·\n     \
         0.50V      ·     ·     ·     ·     ·     ·     ·     ·\n"
    );
}

#[test]
fn fault_coverage_report_and_weight_update_energy_are_pinned() {
    let (im, lib) = macro_8x8();
    let op = OperatingPoint::at_voltage(0.9);
    let wbl0 = port_net(&im, "wbl[0]").unwrap();
    let writes = (im.mac.h * im.mac.mcr) as u64;
    let faults = [
        (port_net(&im, "act[0]").unwrap(), FaultKind::StuckAt1),
        (wbl0, FaultKind::FlipAtCycle(writes / 2)),
        (wbl0, FaultKind::FlipAtCycle(writes + 10)),
    ];
    let c = measure_weight_update_coverage(&im, op, 400.0, 0x5EED, &faults).unwrap();
    assert_eq!(
        c.to_json(),
        "{\"schema\":\"syndcim-fault-coverage-v1\",\"injected\":3,\"detected\":1,\
         \"coverage\":0.3333333333333333,\"survivors\":[0,2],\
         \"survivor_energy_per_bit_fj\":[49.44599251047793,3.9180175094917544],\
         \"golden_energy_per_bit_fj\":45.527975000986174,\"bits_written\":128,\"seed\":24301}"
    );
    for (patterns, mean, std) in [
        (8, 0x4046_1aaf_bc96_b089u64, 0x3fe8_fd3a_4113_a833u64),
        (72, 0x4045_cc4c_e900_6f7f, 0x3ff0_acfa_6399_765a),
    ] {
        let m = measure_weight_update(&im, &lib, op, 400.0, 0x5EED, patterns).unwrap();
        assert_eq!(m.energy_per_bit_fj.to_bits(), mean, "{patterns} patterns: {m:?}");
        assert_eq!(m.energy_per_bit_std_fj.to_bits(), std, "{patterns} patterns: {m:?}");
    }
}

#[test]
fn paper_chip_search_is_pinned() {
    let spec = MacroSpec::paper_test_chip();
    let scl = Scl::new();
    let res = search(&spec, &scl);
    let mut h = Fnv::new();
    h.u64(res.feasible.len() as u64);
    for p in &res.feasible {
        h.str(&p.choice.label());
        for v in [p.est.critical_delay_ps, p.est.power_uw, p.est.area_um2, p.est.tops_1b] {
            h.u64(v.to_bits());
        }
        h.u64(u64::from(p.est.timing_met));
        h.u64(p.est.latency_cycles as u64);
    }
    assert_eq!(
        (res.feasible.len(), res.frontier.len(), res.rejected, scl.len(), h.0),
        (72, 6, 0, 25, 0x25b3_9ccf_47e8_2d9b)
    );
}
