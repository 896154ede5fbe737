//! Interpreter vs. compiled-engine vector throughput on the paper
//! test-chip MAC netlist (64×64, MCR 2, INT1–8 + FP4/FP8), plus the
//! engine-backed SCL characterization and parallel Pareto-search
//! timings.
//!
//! One "vector" is a full random input assignment stepped through one
//! clock cycle. The interpreter simulates one vector per step; the
//! `u64` engine 64 (one per lane); the wide `[u64; 4]` engine 256 and
//! the `[u64; 8]` engine 512, each outside any ISA frame (portable) and,
//! where the CPU has them, inside the AVX2 and AVX-512 frames.
//! These arms toggle every input port every cycle, so most ops are
//! re-evaluated each settle. `engine_mac_pass_vps` measures the
//! workload the activity-driven passes are built for instead: INT4
//! bit-serial passes on weights preloaded once, driving only the
//! activation and S&A control ports, at 512 lanes in the widest detected
//! frame (one vector per lane per cycle).
//! The bench reports iteration times, derived per-vector throughput
//! ratios and wall-clock timings for `Scl` warm-up and `search`, and
//! fails if
//!
//! * the `u64` engine is not ≥ 10× the interpreter (PR 1's bar),
//! * the 256-lane wide backend is not ≥ 2× the `u64` backend,
//! * an ISA frame (AVX2 on W256, AVX-512 on W512, measured only where
//!   the CPU supports it) is slower than the same word outside any
//!   frame, or W512 in the AVX-512 frame is not ≥ 1.5× the portable
//!   W256 in vectors/sec — the gate that catches a pass compiled outside
//!   its frame,
//! * disabled-mode telemetry costs more than 2% of the baseline's
//!   `engine64_vps` (`BENCH_baseline.json`).
//!
//! All measured numbers are also written to `BENCH_engine.json`
//! (override the path with the `BENCH_ENGINE_JSON` env var) so CI can
//! archive the perf trajectory across PRs.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_core::{assemble, search, DesignChoice, MacroSpec};
use syndcim_engine::{BatchExec, EngineSim, Program, SimdBackend, SimdPolicy};
use syndcim_netlist::NetId;
use syndcim_pdk::CellLibrary;
use syndcim_scl::Scl;
use syndcim_sim::{SimBackend, Simulator};
use syndcim_subckt::{AdderTreeConfig, BitcellKind, MultMuxKind, ShiftAddConfig};

/// Cheap xorshift stimulus source (identical cost in every arm).
fn next_word(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Wall-clock one closure, in milliseconds.
fn time_ms<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Warm one SCL with a fixed, search-representative record set.
fn warm_scl(scl: &Scl) {
    let cfg = AdderTreeConfig::default();
    for h in [8, 16, 32, 64] {
        scl.adder_tree(h, cfg);
    }
    scl.column(16, 2, BitcellKind::Sram6T2T, MultMuxKind::TgNor);
    scl.shift_add(ShiftAddConfig { psum_bits: 7, act_bits: 8 });
    scl.driver(16);
    scl.driver(64);
}

fn bench_engine(c: &mut Criterion) {
    // The hot loops below are instrumented with telemetry sites; this
    // bench measures (and guards) their *disabled* cost, so pin the
    // mode regardless of the ambient `SYNDCIM_TRACE`.
    syndcim_telemetry::set_mode(syndcim_telemetry::Mode::Off);

    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let prog = Program::compile(module, &lib).expect("paper test chip compiles");
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    let interp = c.bench_stats("interpreter_vector_paper_chip", |b| {
        let mut sim = Simulator::new(module, &lib).unwrap();
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                sim.poke(net, next_word(&mut state) & 1 == 1);
            }
            Simulator::step(&mut sim);
        });
    });

    let engine64 = c.bench_stats("engine_64vectors_paper_chip", |b| {
        let mut sim = BatchExec::<u64>::new(&prog, module, 64);
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                sim.poke_word_at(net, 0, next_word(&mut state));
            }
            sim.step();
        });
    });

    let engine256 = c.bench_stats("engine_256vectors_paper_chip", |b| {
        let mut sim = EngineSim::with_backend(&prog, module, 256, SimdBackend::Portable).unwrap();
        let mut state = 0x5EED;
        b.iter(|| {
            for &net in &in_nets {
                for wi in 0..sim.words() {
                    sim.poke_word_at(net, wi, next_word(&mut state));
                }
            }
            sim.step();
        });
    });

    // ISA frames vs the same portable words outside any frame, pinned
    // per arm so the comparison is apples-to-apples: same word, same
    // stimulus cost, only the frame differs. ISA arms run only where
    // the CPU supports them; their keys are written only when measured.
    let mut bench_backend = |name: &str, lanes: usize, backend: SimdBackend| {
        let stats = c.bench_stats(name, |b| {
            let mut sim = EngineSim::with_backend(&prog, module, lanes, backend).unwrap();
            let mut state = 0x5EED;
            b.iter(|| {
                for &net in &in_nets {
                    for wi in 0..sim.words() {
                        sim.poke_word_at(net, wi, next_word(&mut state));
                    }
                }
                sim.step();
            });
        });
        lanes as f64 * 1e9 / stats.ns_per_iter
    };
    let engine512_vps = bench_backend("engine_512vectors_paper_chip", 512, SimdBackend::Portable);
    let avx2_vps =
        SimdBackend::Avx2.detected().then(|| bench_backend("engine_avx2_256vectors", 256, SimdBackend::Avx2));
    let avx512_vps = SimdBackend::Avx512
        .detected()
        .then(|| bench_backend("engine_avx512_512vectors", 512, SimdBackend::Avx512));

    // Weight-stationary INT4 passes: bank-0 weights preloaded and the
    // precision selected once, then each iteration is one bit-serial
    // pass of fresh per-lane activations, driven like `measure_int`.
    let mac_pass_vps = {
        const PA: u32 = 4;
        let backend = SimdPolicy::Auto.select(512).unwrap();
        let mut sim = EngineSim::with_backend(&prog, module, 512, backend).unwrap();
        let mut state = 0x5EED;
        for bc in mac.bitcells.iter().filter(|bc| bc.bank == 0) {
            sim.force_state_all(bc.inst, next_word(&mut state) & 1 == 1);
        }
        for k in 0..=(mac.w_bits.trailing_zeros() as usize) {
            sim.set_all(&format!("prec[{k}]"), k == PA.trailing_zeros() as usize);
        }
        sim.step();
        sim.step();
        let act = sim.bus("act", mac.h as u32);
        let (clear, neg) = (sim.net_of("clear"), sim.net_of("neg"));
        let depth = mac.mac_pipeline_depth as u32;
        let cycles = PA + depth + u32::from(mac.choice.ofu_extra_pipe);
        let stats = c.bench_stats("engine_mac_pass_512vectors", |b| {
            b.iter(|| {
                for cycle in 0..cycles {
                    for &net in &act {
                        for wi in 0..sim.words() {
                            sim.drive_word_at(net, wi, if cycle < PA { next_word(&mut state) } else { 0 });
                        }
                    }
                    for wi in 0..sim.words() {
                        sim.drive_word_at(clear, wi, if cycle == depth { !0 } else { 0 });
                        sim.drive_word_at(neg, wi, if cycle == PA - 1 + depth { !0 } else { 0 });
                    }
                    sim.step();
                }
            });
        });
        512.0 * f64::from(cycles) * 1e9 / stats.ns_per_iter
    };

    let interp_vps = 1e9 / interp.ns_per_iter;
    let engine64_vps = 64.0 * 1e9 / engine64.ns_per_iter;
    let engine256_vps = 256.0 * 1e9 / engine256.ns_per_iter;
    let ratio64 = engine64_vps / interp_vps;
    let wide_ratio = engine256_vps / engine64_vps;
    println!("interpreter:  {interp_vps:>12.0} vectors/s");
    println!("engine u64:   {engine64_vps:>12.0} vectors/s  ({ratio64:.1}x interpreter)");
    println!("engine wide:  {engine256_vps:>12.0} vectors/s  ({wide_ratio:.2}x u64 backend)");
    println!("engine w512:  {engine512_vps:>12.0} vectors/s  ({:.2}x W256)", engine512_vps / engine256_vps);
    if let Some(vps) = avx2_vps {
        println!("engine avx2:  {vps:>12.0} vectors/s  ({:.2}x portable W256)", vps / engine256_vps);
    }
    if let Some(vps) = avx512_vps {
        println!(
            "engine avx512:{vps:>12.0} vectors/s  ({:.2}x portable W512, {:.2}x portable W256)",
            vps / engine512_vps,
            vps / engine256_vps
        );
    }
    println!("engine mac:   {mac_pass_vps:>12.0} vectors/s  (INT4 passes, weights held, widest frame)");

    // SCL characterization over a fixed, search-representative record
    // set.
    let scl_eng_stats = c.bench_stats("scl_warmup_engine", |b| b.iter(|| warm_scl(&Scl::new())));
    let scl_engine_ms = scl_eng_stats.ns_per_iter / 1e6;
    println!("scl warm-up:  {scl_engine_ms:>9.1} ms");

    // Parallel Pareto search, cold cache and warm rerun.
    let search_spec = MacroSpec {
        h: 16,
        w: 16,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 700.0,
        f_wu_mhz: 400.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    };
    let scl = Scl::new();
    let search_cold_ms = time_ms(|| {
        let r = search(&search_spec, &scl);
        assert!(!r.frontier.is_empty());
    });
    let search_warm_ms = time_ms(|| {
        let r = search(&search_spec, &scl);
        assert!(!r.frontier.is_empty());
    });
    println!("search 16x16: cold {search_cold_ms:>9.1} ms   warm {search_warm_ms:>9.1} ms");

    // Disabled-telemetry overhead guard: the instrumented engine, with
    // collection off, must hold the baseline's u64 vector throughput to
    // within 2% (instrumentation cost = one relaxed atomic load per
    // settle, amortized over 64 lanes).
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let baseline = std::fs::read_to_string(baseline_path)
        .map(|text| syndcim_bench::parse_bench_artifact(&text))
        .unwrap_or_default();
    let telemetry_overhead_pct = baseline
        .get("engine64_vps")
        .map_or(0.0, |&base_vps| ((base_vps - engine64_vps) / base_vps * 100.0).max(0.0));
    println!("telemetry off-mode overhead vs baseline: {telemetry_overhead_pct:.2}% of engine64 vps");

    let mut keys: Vec<(&str, f64)> = vec![
        ("interpreter_vps", interp_vps),
        ("engine64_vps", engine64_vps),
        ("engine256_vps", engine256_vps),
        ("engine512_vps", engine512_vps),
        ("engine_mac_pass_vps", mac_pass_vps),
        ("engine64_over_interpreter", ratio64),
        ("engine256_over_engine64", wide_ratio),
        ("scl_engine_ms", scl_engine_ms),
        ("search_cold_ms", search_cold_ms),
        ("search_warm_ms", search_warm_ms),
        ("telemetry_disabled_overhead_pct", telemetry_overhead_pct),
    ];
    if let Some(vps) = avx2_vps {
        keys.push(("engine_avx2_vps", vps));
        keys.push(("engine_avx2_over_engine256", vps / engine256_vps));
    }
    if let Some(vps) = avx512_vps {
        keys.push(("engine_avx512_vps", vps));
        keys.push(("engine_avx512_over_engine512", vps / engine512_vps));
        keys.push(("engine_avx512_over_engine256", vps / engine256_vps));
    }
    syndcim_bench::merge_bench_artifact(&["interpreter_", "engine", "scl_", "search_", "telemetry_"], &keys);

    assert!(
        telemetry_overhead_pct <= 2.0,
        "disabled telemetry must cost <= 2% of baseline engine64 throughput, lost {telemetry_overhead_pct:.2}%"
    );

    assert!(ratio64 >= 10.0, "u64 engine must deliver >= 10x vector throughput, got {ratio64:.1}x");
    assert!(
        wide_ratio >= 2.0,
        "256-lane wide backend must deliver >= 2x vector throughput over u64, got {wide_ratio:.2}x"
    );
    if let Some(vps) = avx2_vps {
        assert!(
            vps >= engine256_vps,
            "AVX2 must be >= portable at equal width: {vps:.0} vs {engine256_vps:.0} vectors/s"
        );
    }
    if let Some(vps) = avx512_vps {
        assert!(
            vps >= engine512_vps,
            "AVX-512 must be >= portable at equal width: {vps:.0} vs {engine512_vps:.0} vectors/s"
        );
        let simd_ratio = vps / engine256_vps;
        assert!(
            simd_ratio >= 1.5,
            "512-lane AVX-512 must deliver >= 1.5x the portable W256 vector throughput, got {simd_ratio:.2}x"
        );
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
