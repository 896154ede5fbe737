//! Edge-NPU co-design: a wearable-device accelerator wants the most
//! energy-efficient INT4 macro that still sustains 200 MHz at 0.7 V —
//! the "different acceleration scenarios need different optimizations"
//! story from the paper's introduction. Sweeps MCR and compares the
//! energy- vs area-leaning Pareto picks.
use syndcim_core::{implement, measure_int, search, MacroSpec, PpaWeights};
use syndcim_pdk::OperatingPoint;
use syndcim_scl::Scl;
use syndcim_sim::vectors::{ints_with_bit_density, seeded_rng, sparse_ints};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("wearable NPU: INT4, 200 MHz @ 0.7 V, sparse keyword-spotting workload\n");
    println!(
        "{:<6}{:<44}{:>10}{:>12}{:>14}",
        "MCR", "selected design", "area mm2", "power uW", "TOPS/W (1b)"
    );
    let mut rng = seeded_rng(3);
    for mcr in [1usize, 2, 4] {
        let spec = MacroSpec {
            h: 32,
            w: 32,
            mcr,
            int_precisions: vec![1, 2, 4],
            fp_precisions: vec![],
            f_mac_mhz: 200.0,
            f_wu_mhz: 200.0,
            vdd_v: 0.7,
            ppa: PpaWeights::energy_leaning(),
        };
        let scl = Scl::new();
        let res = search(&spec, &scl);
        let Some(best) = res.best(&spec) else {
            println!("{:<6}infeasible", mcr);
            continue;
        };
        let lib = scl.cell_library().clone();
        let im = implement(&lib, &spec, &best.choice)?;
        // Keyword spotting: very sparse activations, half-zero weights.
        let weights: Vec<Vec<i64>> = (0..8).map(|_| sparse_ints(&mut rng, 32, 4, 0.5)).collect();
        let acts: Vec<Vec<i64>> = (0..4).map(|_| ints_with_bit_density(&mut rng, 32, 4, 0.125)).collect();
        let m = measure_int(&im, &lib, 4, &acts, &weights, OperatingPoint::at_voltage(0.7), 200.0)?;
        println!(
            "{:<6}{:<44}{:>10.4}{:>12.0}{:>14.0}",
            mcr,
            best.choice.label(),
            im.area_mm2(),
            m.power.total_uw(),
            m.tops_per_w_1b
        );
    }
    println!("\nhigher MCR buys on-macro weight capacity (fewer off-macro reloads) at some area/energy cost");
    Ok(())
}
