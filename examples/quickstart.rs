//! Quickstart: specify a DCIM macro, search, implement, verify, report.
//!
//! Run with: `cargo run --release --example quickstart`
use syndcim_core::{implement, measure_int, search, MacroSpec};
use syndcim_pdk::OperatingPoint;
use syndcim_scl::Scl;
use syndcim_sim::vectors::{random_ints, seeded_rng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The specification: a 16x16, MCR=2 macro for INT1/2/4 at 500 MHz.
    let spec = MacroSpec {
        h: 16,
        w: 16,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    };
    spec.validate()?;

    // 2. Multi-spec-oriented search over the subcircuit library.
    let mut scl = Scl::new();
    let result = search(&spec, &mut scl);
    println!(
        "search: {} feasible points, {} on the Pareto frontier",
        result.feasible.len(),
        result.frontier.len()
    );
    let best = result.best(&spec).expect("spec is feasible");
    println!("selected: {}", best.choice.label());

    // 3. Implementation: assembly, cleanup, SDP place, DRC, parasitics.
    let lib = scl.cell_library().clone();
    let im = implement(&lib, &spec, &best.choice)?;
    println!(
        "implemented: {} cells, {:.4} mm2, post-layout wns {:.0} ps at {} MHz",
        im.mac.module.instance_count(),
        im.area_mm2(),
        im.timing.wns_ps,
        spec.f_mac_mhz
    );

    // 4. Verified measurement: every output checked against the golden
    //    bit-serial MAC model.
    let mut rng = seeded_rng(1);
    let weights: Vec<Vec<i64>> = (0..4).map(|_| random_ints(&mut rng, 16, 4)).collect();
    let acts: Vec<Vec<i64>> = (0..4).map(|_| random_ints(&mut rng, 16, 4)).collect();
    let m = measure_int(&im, &lib, 4, &acts, &weights, OperatingPoint::at_voltage(0.9), 500.0)?;
    println!(
        "measured INT4: {} outputs verified, {:.1} TOPS/W ({:.0} TOPS/W at 1bx1b), {:.1} fJ/MAC",
        m.checked_outputs, m.tops_per_w, m.tops_per_w_1b, m.energy_per_mac_fj
    );
    Ok(())
}
