//! Ablation (§III-C): contribution of each Algorithm-1 move to the
//! frontier — what disappears when a move is disallowed.
use syndcim_core::{pareto_frontier, search, DesignPoint, MacroSpec};
use syndcim_scl::Scl;

/// A predicate keeping the design points a disallowed move would not have produced.
type MoveFilter = Box<dyn Fn(&DesignPoint) -> bool>;

fn frontier_stats(points: &[DesignPoint]) -> (usize, f64, f64) {
    let f = pareto_frontier(points);
    let best_p = f.iter().map(|p| p.est.power_uw).fold(f64::INFINITY, f64::min);
    let best_a = f.iter().map(|p| p.est.area_um2).fold(f64::INFINITY, f64::min);
    (f.len(), best_p, best_a)
}

fn main() {
    // A tight clock exercises every move.
    let mut spec = MacroSpec::paper_test_chip();
    spec.f_mac_mhz = 850.0;
    let scl = Scl::new();
    let res = search(&spec, &scl);
    println!("Search-move ablation @ {} MHz ({} feasible points)", spec.f_mac_mhz, res.feasible.len());
    println!("{:<34}{:>10}{:>16}{:>16}", "allowed moves", "frontier", "min power uW", "min area um2");
    let all = frontier_stats(&res.feasible);
    println!("{:<34}{:>10}{:>16.0}{:>16.0}", "all moves", all.0, all.1, all.2);
    let cases: Vec<(&str, MoveFilter)> = vec![
        ("no tree retiming", Box::new(|p: &DesignPoint| !p.choice.tree_retimed)),
        ("no column split", Box::new(|p: &DesignPoint| p.choice.column_split == 1)),
        ("no register merging", Box::new(|p: &DesignPoint| p.choice.pipe_tree_sa)),
        ("no OFU negate retiming", Box::new(|p: &DesignPoint| !p.choice.ofu_negate_retimed)),
        ("no OFU extra pipeline", Box::new(|p: &DesignPoint| !p.choice.ofu_extra_pipe)),
    ];
    for (name, keep) in cases {
        let subset: Vec<DesignPoint> = res.feasible.iter().filter(|p| keep(p)).cloned().collect();
        if subset.is_empty() {
            println!("{:<34}{:>10}{:>16}{:>16}", name, 0, "-", "-");
            continue;
        }
        let s = frontier_stats(&subset);
        println!("{:<34}{:>10}{:>16.0}{:>16.0}", name, s.0, s.1, s.2);
    }
}
