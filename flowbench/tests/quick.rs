//! The benchmark's own tests, in quick mode (small specs, seconds per
//! workload): every workload's op, checks and traced replay run clean,
//! the design digest is seed-invariant, and a planted wrong output
//! counts as a failed op, never a pass.
//!
//! Run with `cargo test --release --manifest-path flowbench/Cargo.toml`.

use flowbench::{
    committed_design_digest, run, Config, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER,
};

fn quick(workload: Workload, seed: u64, trace: bool) -> Config {
    Config { workload, seed, seconds: 0.0, trace, quick: true }
}

#[test]
fn every_workload_runs_clean_in_quick_mode() {
    for w in Workload::ALL {
        let expected = committed_design_digest(w, true);
        let e2e = run(&quick(w, DEFAULT_SEED, false), expected).unwrap();
        assert_eq!(e2e.failed, 0, "{}: {:?}", w.name(), e2e.notes);
        assert!(e2e.attempted > 1);
        let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n), "{}", w.name());
        for m in &e2e.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
        assert!(e2e.to_json().starts_with("{\"correct\": true, "));

        let traced = run(&quick(w, DEFAULT_SEED, true), expected).unwrap();
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.notes);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n), "{}", w.name());
        let coverage = traced.metric("trace.coverage").unwrap();
        assert!((0.95..=1.0).contains(&coverage), "{}: coverage {coverage}", w.name());
    }
}

#[test]
fn design_digests_do_not_depend_on_the_seed() {
    for w in Workload::ALL {
        let r = run(&quick(w, HELD_OUT_SEED, false), committed_design_digest(w, true)).unwrap();
        assert_eq!(r.failed, 0, "{}: {:?}", w.name(), r.notes);
    }
}

#[test]
fn a_planted_wrong_output_fails_every_op() {
    for w in Workload::ALL {
        // A tampered expectation stands in for a wrong output: the
        // digest covers placement, timing and the QoR bits.
        let tampered = committed_design_digest(w, true) ^ 1;
        let r = run(&quick(w, DEFAULT_SEED, false), tampered).unwrap();
        // Every op fails; only the reference-oracle check passes.
        assert_eq!(r.failed, r.attempted - 1, "{}: {:?}", w.name(), r.notes);
        assert!(r.to_json().starts_with("{\"correct\": false, "));
    }
}

#[test]
fn the_tail_keeps_ten_samples_beyond_it() {
    let v: Vec<f64> = (1..=40).map(f64::from).collect();
    assert_eq!(flowbench::tail(&v), Some((30.0, 75.0)));
    assert_eq!(flowbench::tail(&v[..10]), None);
    assert_eq!(flowbench::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(flowbench::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}
