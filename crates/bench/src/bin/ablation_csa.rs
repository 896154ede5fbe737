//! Ablation (§III-B, Fig. 4–5): adder-tree topology sweep — delay, area
//! and energy per variant, with and without carry reorder.
use syndcim_scl::Scl;
use syndcim_subckt::{AdderTreeConfig, AdderTreeKind};

fn main() {
    let mut scl = Scl::new();
    println!("Adder-tree ablation (per-column tree, pre-layout SCL characterization)");
    println!(
        "{:<16}{:>6}{:>12}{:>12}{:>14}{:>10}",
        "variant", "H", "delay ps", "area um2", "energy fJ/cy", "reorder"
    );
    for h in [16usize, 32, 64, 128] {
        for kind in [
            AdderTreeKind::RcaTree,
            AdderTreeKind::CompressorCsa,
            AdderTreeKind::MixedCsa { fa_rounds: 1 },
            AdderTreeKind::MixedCsa { fa_rounds: 2 },
            AdderTreeKind::MixedCsa { fa_rounds: 3 },
            AdderTreeKind::MixedCsa { fa_rounds: 99 },
        ] {
            for reorder in [false, true] {
                let cfg = AdderTreeConfig { kind, carry_reorder: reorder, final_cpa: true };
                let r = scl.adder_tree(h, cfg);
                println!(
                    "{:<16}{:>6}{:>12.0}{:>12.0}{:>14.0}{:>10}",
                    kind.to_string(),
                    h,
                    r.delay_ps,
                    r.area_um2,
                    r.energy_fj_per_cycle,
                    reorder
                );
            }
        }
    }
    println!("\npaper shape: compressor tree cheapest in area/energy; FA substitution shortens the path; reorder never hurts");
}
