//! Fig. 8 — searched Pareto frontier vs fixed-template baselines for the
//! spec H=W=64, MCR=2, INT4/8 + FP4/8, 800 MHz @ 0.9 V.
use syndcim_core::{implement, search, BaselineKind, MacroSpec, PpaWeights};
use syndcim_scl::Scl;

fn main() {
    let spec = MacroSpec::paper_test_chip();
    let mut scl = Scl::new();
    let res = search(&spec, &mut scl);
    let lib = scl.cell_library().clone();
    println!(
        "Fig. 8: MSO search over H=W=64, MCR=2, INT4/8+FP4/8, 800 MHz @0.9V — {} feasible, {} on the frontier",
        res.feasible.len(),
        res.frontier.len()
    );
    println!("\nPareto frontier (search estimates):");
    println!("{:<54}{:>12}{:>12}{:>9}", "design point", "power uW", "area um2", "latency");
    for p in &res.frontier {
        println!(
            "{:<54}{:>12.0}{:>12.0}{:>9}",
            p.choice.label(),
            p.est.power_uw,
            p.est.area_um2,
            p.est.latency_cycles
        );
    }

    // Implement four representative picks + the baselines through the
    // same flow for post-layout comparison.
    println!("\nimplemented comparison (post-layout):");
    println!("{:<54}{:>10}{:>12}{:>12}", "design", "area mm2", "fmax@0.9 MHz", "cells");
    let mut spec_e = spec.clone();
    spec_e.ppa = PpaWeights::energy_leaning();
    let mut spec_a = spec.clone();
    spec_a.ppa = PpaWeights::area_leaning();
    let picks = [
        ("searched: energy-leaning", res.best(&spec_e).unwrap().choice),
        ("searched: balanced", res.best(&spec).unwrap().choice),
        ("searched: area-leaning", res.best(&spec_a).unwrap().choice),
    ];
    for (name, choice) in picks {
        let im = implement(&lib, &spec, &choice).expect("flow");
        let f = im.fmax_mhz(&lib, syndcim_pdk::OperatingPoint::at_voltage(0.9));
        println!(
            "{:<54}{:>10.3}{:>12.0}{:>12}",
            format!("{name} [{}]", choice.label()),
            im.area_mm2(),
            f,
            im.mac.module.instance_count()
        );
    }
    for kind in BaselineKind::ALL {
        let im = implement(&lib, &spec, &kind.choice()).expect("flow");
        let f = im.fmax_mhz(&lib, syndcim_pdk::OperatingPoint::at_voltage(0.9));
        println!(
            "{:<54}{:>10.3}{:>12.0}{:>12}",
            kind.label(),
            im.area_mm2(),
            f,
            im.mac.module.instance_count()
        );
    }
    println!("\npaper shape: searched points span energy- and area-leaning corners; fixed templates sit off the frontier");
}
