//! Cloud-accelerator Pareto exploration: one spec, many valid answers.
//! Shows the full searched frontier for the paper's test-chip spec and
//! how the PPA preference weights pick different corners (Fig. 8 story).
use syndcim_core::{search, MacroSpec, PpaWeights};
use syndcim_scl::Scl;

fn main() {
    let spec = MacroSpec::paper_test_chip();
    let scl = Scl::new();
    let res = search(&spec, &scl);
    println!("spec: H=W=64, MCR=2, INT4/8+FP4/8, 800 MHz @0.9V");
    println!("frontier ({} points of {} feasible):\n", res.frontier.len(), res.feasible.len());
    println!("{:<56}{:>12}{:>12}{:>9}", "design", "power uW", "area um2", "latency");
    for p in &res.frontier {
        println!(
            "{:<56}{:>12.0}{:>12.0}{:>9}",
            p.choice.label(),
            p.est.power_uw,
            p.est.area_um2,
            p.est.latency_cycles
        );
    }
    for (name, ppa) in [
        ("energy-leaning pick", PpaWeights::energy_leaning()),
        ("balanced pick", PpaWeights::default()),
        ("area-leaning pick", PpaWeights::area_leaning()),
    ] {
        let mut s = spec.clone();
        s.ppa = ppa;
        let b = res.best(&s).unwrap();
        println!("\n{name}: {} ({:.0} uW, {:.0} um2)", b.choice.label(), b.est.power_uw, b.est.area_um2);
    }
}
