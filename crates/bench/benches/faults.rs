//! Fault-injection overhead guard on the paper test-chip MAC netlist.
//!
//! The per-lane fault masks live behind an `Option` inside the
//! engine's write path, so a run with **no plan installed** (and an
//! installed *empty* plan, which is the same state) must cost nothing.
//! This bench measures three arms on identical stimulus:
//!
//! * `nominal` — no fault plan was ever installed;
//! * `empty` — `install_faults(&FaultPlan::new())`, which must leave
//!   no state behind;
//! * `dormant` — a plan with one transient flip scheduled far past the
//!   run, so the mask tables are allocated and the masked write branch
//!   executes on every slot write while staying semantically neutral.
//!
//! It fails if the empty-plan arm loses more than 2% of the
//! `BENCH_baseline.json` `engine64_vps` throughput. The dormant-arm
//! cost is reported (and archived) as the price of an *active*
//! campaign. All keys merge into `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_engine::{BatchExec, FaultPlan, Program};
use syndcim_netlist::NetId;
use syndcim_pdk::CellLibrary;
use syndcim_sim::SimBackend;

/// Cheap xorshift stimulus source (identical cost in every arm).
fn next_word(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn bench_faults(c: &mut Criterion) {
    // Measure the engine alone, not the ambient tracing mode.
    syndcim_telemetry::set_mode(syndcim_telemetry::Mode::Off);

    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let prog = Program::compile(module, &lib).expect("paper test chip compiles");
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    let nominal = c.bench_stats("engine_64vectors_no_plan", |b| {
        let mut sim = BatchExec::<u64>::new(&prog, module, 64);
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                sim.poke_word_at(net, 0, next_word(&mut state));
            }
            sim.step();
        });
    });

    let empty = c.bench_stats("engine_64vectors_empty_plan", |b| {
        let mut sim = BatchExec::<u64>::new(&prog, module, 64);
        sim.install_faults(&FaultPlan::new()).expect("empty plan installs");
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                sim.poke_word_at(net, 0, next_word(&mut state));
            }
            sim.step();
        });
    });

    let dormant = c.bench_stats("engine_64vectors_dormant_plan", |b| {
        let mut sim = BatchExec::<u64>::new(&prog, module, 64);
        let mut plan = FaultPlan::new();
        plan.flip_at(in_nets[0], 0, u64::MAX);
        sim.install_faults(&plan).expect("dormant plan installs");
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                sim.poke_word_at(net, 0, next_word(&mut state));
            }
            sim.step();
        });
    });

    let nominal_vps = 64.0 * 1e9 / nominal.ns_per_iter;
    let empty_vps = 64.0 * 1e9 / empty.ns_per_iter;
    let dormant_vps = 64.0 * 1e9 / dormant.ns_per_iter;
    println!("no plan:      {nominal_vps:>12.0} vectors/s");
    println!("empty plan:   {empty_vps:>12.0} vectors/s");
    println!("dormant plan: {dormant_vps:>12.0} vectors/s");

    // Empty-plan guard: within 2% of the *committed baseline* engine
    // throughput — the same yardstick the telemetry off-mode guard
    // uses, so a slow write path cannot hide behind run-to-run noise
    // in the nominal arm.
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let baseline = std::fs::read_to_string(baseline_path)
        .map(|text| syndcim_bench::parse_bench_artifact(&text))
        .unwrap_or_default();
    let empty_overhead_pct = baseline
        .get("engine64_vps")
        .map_or(0.0, |&base_vps| ((base_vps - empty_vps) / base_vps * 100.0).max(0.0));
    let dormant_overhead_pct = ((nominal_vps - dormant_vps) / nominal_vps * 100.0).max(0.0);
    println!("empty-plan overhead vs baseline engine64 vps: {empty_overhead_pct:.2}%");
    println!("dormant-plan overhead vs nominal arm:         {dormant_overhead_pct:.2}%");

    syndcim_bench::merge_bench_artifact(
        &["faults_"],
        &[
            ("faults_nominal_vps", nominal_vps),
            ("faults_empty_plan_vps", empty_vps),
            ("faults_dormant_plan_vps", dormant_vps),
            ("faults_empty_plan_overhead_pct", empty_overhead_pct),
            ("faults_dormant_plan_overhead_pct", dormant_overhead_pct),
        ],
    );

    assert!(
        empty_overhead_pct <= 2.0,
        "an empty fault plan must cost <= 2% of baseline engine64 throughput, lost {empty_overhead_pct:.2}%"
    );
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);
