//! Byte-for-byte pin of `assemble`'s output.
//!
//! Each case hashes everything the assembled netlist holds: every net
//! name, every instance (name, cell, group id, group path, pins), the
//! group-path table in first-use order and every port, so any change to
//! a name's bytes, to `GroupId` numbering, to path first-use order or to
//! a generator's wiring fails here. The generators' fast paths (names
//! spelled by the decimal writer, row groups pushed by path, adder-tree
//! columns consumed from the front) must reproduce these digests.
//!
//! The cases cover the default choice (a compressor tree with carry
//! reorder), every baseline template, the fused OAI22 site at MCR 1
//! (tie cells inside the array), MCR 4, a spec with FP alignment and a
//! mixed full-adder/compressor tree with carry reorder, at 16×16 and
//! 64×64; under `SYNDCIM_SLOW_TESTS=1` also at the 256×256 scale tier.

use syndcim_core::{assemble, BaselineKind, DesignChoice, MacroSpec};
use syndcim_netlist::{GroupId, InstId, Module, NetId};
use syndcim_pdk::CellLibrary;
use syndcim_subckt::{AdderTreeKind, MultMuxKind};

/// FNV-1a, 64-bit: a fixed hash whose value cannot change with the
/// toolchain.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed string, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn module_digest(m: &Module) -> u64 {
    let mut h = Fnv::new();
    h.str(&m.name);
    h.u64(m.net_count() as u64);
    for n in 0..m.net_count() as u32 {
        h.str(m.net_name(NetId(n)));
    }
    h.u64(m.path_count() as u64);
    for p in 0..m.path_count() as u32 {
        h.str(m.path_name(p));
    }
    h.u64(m.group_count() as u64);
    for g in 0..m.group_count() as u32 {
        h.u64(u64::from(m.group_path(GroupId(g))));
    }
    h.u64(m.instance_count() as u64);
    for (i, inst) in m.instances().enumerate() {
        h.str(m.inst_name(InstId(i as u32)));
        h.u64(u64::from(inst.cell.0));
        h.u64(u64::from(inst.group.0));
        h.str(m.group_name(inst.group));
        h.u64(inst.inputs.len() as u64);
        for net in inst.inputs.iter().chain(inst.outputs) {
            h.u64(u64::from(net.0));
        }
        h.u64(inst.outputs.len() as u64);
    }
    h.u64(m.ports.len() as u64);
    for p in &m.ports {
        h.str(&p.name);
        h.u64(p.dir as u64);
        h.u64(u64::from(p.net.0));
    }
    h.0
}

/// An INT-only `n`×`n` spec.
fn int_spec(n: usize) -> MacroSpec {
    MacroSpec {
        h: n,
        w: n,
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        ..MacroSpec::paper_test_chip()
    }
}

/// Every case at array size `n`: a label, the spec and the choice.
fn cases(n: usize) -> Vec<(String, MacroSpec, DesignChoice)> {
    let int = int_spec(n);
    let mut cases = vec![(format!("{n}x{n} default"), int.clone(), DesignChoice::default())];
    for kind in BaselineKind::ALL {
        cases.push((format!("{n}x{n} {kind:?}"), int.clone(), kind.choice()));
    }
    let fused = DesignChoice { multmux: MultMuxKind::Oai22Fused, ..DesignChoice::default() };
    cases.push((format!("{n}x{n} fused mcr1"), MacroSpec { mcr: 1, ..int.clone() }, fused));
    cases.push((format!("{n}x{n} mcr4"), MacroSpec { mcr: 4, ..int }, DesignChoice::default()));
    let fp = MacroSpec { h: n, w: n, ..MacroSpec::paper_test_chip() };
    cases.push((format!("{n}x{n} fp"), fp, DesignChoice::default()));
    // Full-adder rounds with carry reorder, then compressor rounds.
    let mixed =
        DesignChoice { tree_kind: AdderTreeKind::MixedCsa { fa_rounds: 2 }, ..DesignChoice::default() };
    cases.push((format!("{n}x{n} mixed reorder"), int_spec(n), mixed));
    cases
}

/// The pinned digests, in `cases` order per size.
const DIGESTS: [(usize, [u64; 8]); 3] = [
    (
        16,
        [
            0x1c2c_c49d_e4d8_b1e1,
            0xff8e_3167_c5e6_4ccf,
            0x9edc_03fb_a3c3_8fd5,
            0x9639_6bfd_f121_981c,
            0xaf45_6a7c_5a94_67f9,
            0x009c_9b19_0dba_0b39,
            0xbcf3_19b3_6186_3612,
            0x52db_4fe3_b696_8b0d,
        ],
    ),
    (
        64,
        [
            0xdeeb_34b8_ed18_ae6b,
            0x19b8_f6bd_6a53_802e,
            0x3bb9_3e51_3a8e_0941,
            0xb82b_49c0_6f34_ce7d,
            0xa08e_661d_90a5_7562,
            0x06e7_3400_1202_56f9,
            0x3fbf_4071_727f_6f3b,
            0x3d68_8243_a097_f4ea,
        ],
    ),
    (
        256,
        [
            0xb926_441a_ee18_6c55,
            0x70f2_d077_b500_c38d,
            0xebda_bce2_c2a1_ecff,
            0xd88d_2b67_65ec_e332,
            0x1f57_2bcf_2419_8110,
            0xa76d_9128_936e_fc86,
            0xf2a0_65ff_1c83_4681,
            0x562a_1dd4_5e33_14e8,
        ],
    ),
];

#[test]
fn assembled_netlists_match_their_pinned_digests() {
    let lib = CellLibrary::syn40();
    let slow = std::env::var("SYNDCIM_SLOW_TESTS").is_ok_and(|v| v == "1");
    let mut mismatches = Vec::new();
    for (n, want) in DIGESTS {
        if n == 256 && !slow {
            eprintln!("skipping the 256x256 cases (set SYNDCIM_SLOW_TESTS=1 to run)");
            continue;
        }
        for ((label, spec, choice), want) in cases(n).into_iter().zip(want) {
            let got = module_digest(&assemble(&lib, &spec, &choice).module);
            println!("{label}: {got:#018x}");
            if got != want {
                mismatches.push(format!("{label}: got {got:#018x}, pinned {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "assembled netlists changed:\n{}", mismatches.join("\n"));
}
