//! Differential pinning of the `.scim` artifact path: a compiled macro
//! saved to bytes and loaded back must answer **every** query
//! bit-identically to the in-memory bundle that produced it, on the
//! 64×64 paper test chip.
//!
//! Four layers of checking:
//!
//! 1. **Byte fixpoint** — save→load→save reproduces the container
//!    byte-for-byte (serialization is deterministic: no timestamps, no
//!    host state, f64s as exact IEEE-754 bit patterns), and the file
//!    path API (`save`/`load`) carries the same bytes as the in-memory
//!    one (`save_to_vec`/`load_from_bytes`).
//! 2. **Load is wiring-only** — `Lowering::builds()` stays flat across
//!    a load: no lowering, levelization or interning runs when reading
//!    an artifact. This is the whole point of the format: the compile
//!    cost is paid once, at `save` time.
//! 3. **Query bit-identity** — fmax, per-corner arrival/slack reports,
//!    critical paths, power reports with the `by_group_pj` and
//!    `by_path_pj` breakdowns, and leakage must equal the in-memory
//!    bundle exactly, across voltage *and* temperature corners.
//! 4. **Engine bit-identity** — the loaded program drives both engine
//!    backends (`u64` and `W256`) in lockstep with the fresh program
//!    under adversarial xorshift stimulus: every net, every word, every
//!    cycle, plus the aggregate toggle tables.
//! 5. **Compiled = reference-built bytes** — on the implemented chip,
//!    with real extracted wires, the timing and power programs
//!    `implement` compiles straight from its lowering encode exactly
//!    like the ones the reference analyzers compile on the same
//!    lowering and wires.
//!
//! A scale-tier arm (gated by `SYNDCIM_SLOW_TESTS=1`) repeats the
//! exercise on the 256×256 generator macro (~4×10⁵ nets) and asserts
//! the load takes a small fraction of the compile it replaces.

use syndcim_core::artifact::retained_bytes;
use syndcim_core::{assemble, implement, BaselineKind, CompiledMacro, DesignChoice, MacroSpec};
use syndcim_engine::{EngineSim, Program, SimdBackend};
use syndcim_ir::Lowering;
use syndcim_netlist::{Module, NetId};
use syndcim_pdk::{CellFunction, CellLibrary, OperatingPoint};
use syndcim_power::artifact::encode_power;
use syndcim_power::PowerAnalyzer;
use syndcim_sim::SimBackend;
use syndcim_sta::artifact::encode_sta;
use syndcim_sta::{Sta, WireLoads};
use syndcim_subckt::{AdderTreeKind, MultMuxKind};

/// Operating points the paper's shmoo sweeps: slow/low-V, nominal,
/// fast/high-V, plus a hot corner exercising the temperature derate.
fn corners() -> Vec<OperatingPoint> {
    vec![
        OperatingPoint::at_voltage(0.7),
        OperatingPoint::at_voltage(0.9),
        OperatingPoint::at_voltage(1.2),
        OperatingPoint { vdd_v: 0.8, temp_c: 105.0 },
    ]
}

/// The 64×64 paper test chip, assembled and compiled pre-layout.
fn paper_chip() -> (Module, CellLibrary, CompiledMacro) {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let cm = CompiledMacro::compile(&mac.module, &lib, &WireLoads::zero(mac.module.net_count()))
        .expect("the paper chip compiles");
    (mac.module, lib, cm)
}

#[test]
fn save_load_save_is_a_byte_fixpoint_and_load_is_wiring_only() {
    let (_, _, cm) = paper_chip();
    let bytes = cm.save_to_vec().unwrap();

    // Loading must not lower, levelize or intern anything.
    let builds_before = Lowering::builds();
    let loaded = CompiledMacro::load_from_bytes(&bytes).unwrap();
    assert_eq!(Lowering::builds(), builds_before, "load must be wiring-only: no Lowering builds");

    assert_eq!(loaded.save_to_vec().unwrap(), bytes, "save→load→save must be byte-identical");

    // The file-path API carries the same bytes.
    let path = std::env::temp_dir().join(format!("syndcim_roundtrip_{}.scim", std::process::id()));
    cm.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "save(path) must write save_to_vec's bytes");
    let from_file = CompiledMacro::load(&path).unwrap();
    assert_eq!(from_file.save_to_vec().unwrap(), bytes);
    std::fs::remove_file(&path).ok();

    // The loaded symbol tables are the compile's, element for element.
    let (a, b) = (cm.lowering.symbols(), loaded.lowering.symbols());
    assert_eq!(a.net_count(), b.net_count());
    assert_eq!(a.inst_count(), b.inst_count());
    for n in 0..a.net_count() {
        assert_eq!(a.net_name(n), b.net_name(n), "net {n} name");
    }
}

/// The retained footprint counts every part once: the lowering's order
/// and connectivity columns, the three programs, and the symbol arena
/// they share — and a loaded bundle retains exactly what the compile
/// did.
#[test]
fn retained_bytes_sum_the_lowering_programs_and_one_symbol_arena() {
    let (module, _, cm) = paper_chip();
    let loaded = CompiledMacro::load_from_bytes(&cm.save_to_vec().unwrap()).unwrap();
    let sinks: usize = module.instances().map(|inst| inst.inputs.len()).sum();
    for (what, m) in [("compiled", &cm), ("loaded", &loaded)] {
        // Order, then driver instance + pin per net, then the sink CSR.
        let lowering =
            4 * (m.lowering.order().len() + 2 * module.net_count() + (module.net_count() + 1) + 2 * sinks);
        assert_eq!(m.lowering.heap_bytes(), lowering, "{what}: lowering columns");
        let symbols = m.lowering.symbols().heap_bytes();
        let programs = [m.program.retained_bytes(), m.sta.retained_bytes(), m.power.retained_bytes()];
        let parts = lowering + symbols + programs.iter().map(|p| p - symbols).sum::<usize>();
        assert_eq!(retained_bytes(m), parts, "{what}: retained bytes are the sum of the parts");
    }
}

#[test]
fn loaded_sta_is_bit_identical_across_corners() {
    let (_, _, cm) = paper_chip();
    let loaded = CompiledMacro::load_from_bytes(&cm.save_to_vec().unwrap()).unwrap();

    for op in corners() {
        assert_eq!(
            loaded.sta.fmax_mhz(op),
            cm.sta.fmax_mhz(op),
            "fmax at {:.2} V / {:.0} C must be bit-identical",
            op.vdd_v,
            op.temp_c
        );
        for period_ps in [800.0, 2_000.0] {
            let fresh = cm.sta.analyze_at(period_ps, op);
            let back = loaded.sta.analyze_at(period_ps, op);
            let what = format!("@ {:.2} V / {:.0} C / {period_ps} ps", op.vdd_v, op.temp_c);
            assert_eq!(fresh.arrival_ps, back.arrival_ps, "{what}: per-net arrival times");
            assert_eq!(fresh.max_delay_ps, back.max_delay_ps, "{what}: worst path delay");
            assert_eq!(fresh.wns_ps, back.wns_ps, "{what}: worst slack");
            assert_eq!(fresh.fmax_mhz, back.fmax_mhz, "{what}: fmax");
            assert_eq!(fresh.critical_path, back.critical_path, "{what}: critical path steps");
            assert_eq!(fresh.critical_groups(), back.critical_groups(), "{what}: critical groups");
        }
    }

    // Batch entry points ride the same columns.
    let ops = corners();
    assert_eq!(loaded.sta.fmax_many(&ops), cm.sta.fmax_many(&ops), "batched fmax");
}

#[test]
fn loaded_power_is_bit_identical_across_corners() {
    let (module, _, cm) = paper_chip();
    let loaded = CompiledMacro::load_from_bytes(&cm.save_to_vec().unwrap()).unwrap();

    // Real switching activity from a short engine run.
    let mut sim = EngineSim::new(&cm.program, &module, 64);
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();
    let mut state = 0x5EED_CAFEu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..6 {
        for &net in &in_nets {
            sim.poke_word_at(net, 0, next());
        }
        sim.step();
    }
    let (toggles, cycles) = (sim.toggle_table().to_vec(), sim.lane_cycles());

    for op in corners() {
        for freq_mhz in [250.0, 1_100.0] {
            let what = format!("@ {:.2} V / {:.0} C / {freq_mhz} MHz", op.vdd_v, op.temp_c);
            let fresh = cm.power.report(&toggles, cycles, freq_mhz, op);
            let back = loaded.power.report(&toggles, cycles, freq_mhz, op);
            assert_eq!(fresh.dynamic_uw, back.dynamic_uw, "{what}: dynamic power");
            assert_eq!(fresh.clock_uw, back.clock_uw, "{what}: clock power");
            assert_eq!(fresh.leakage_uw, back.leakage_uw, "{what}: leakage power");
            assert_eq!(fresh.total_uw(), back.total_uw(), "{what}: total power");
            assert_eq!(fresh.by_group_pj, back.by_group_pj, "{what}: per-group breakdown");

            let fresh_s = cm.power.report_static(0.18, freq_mhz, op);
            let back_s = loaded.power.report_static(0.18, freq_mhz, op);
            assert_eq!(fresh_s.total_uw(), back_s.total_uw(), "{what}: static total");
            assert_eq!(fresh_s.by_group_pj, back_s.by_group_pj, "{what}: static breakdown");
        }
        assert_eq!(
            loaded.power.by_path_pj(&toggles, cycles, op),
            cm.power.by_path_pj(&toggles, cycles, op),
            "per-subcircuit path drill-down at {:.2} V",
            op.vdd_v
        );
        assert_eq!(loaded.power.leakage_uw(op), cm.power.leakage_uw(op), "leakage at {:.2} V", op.vdd_v);
    }
}

#[test]
fn implemented_programs_encode_like_reference_compiles_with_real_wires() {
    let lib = CellLibrary::syn40();
    let im = implement(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default()).unwrap();
    let (module, low) = (&im.mac.module, &im.compiled.lowering);
    assert!(im.wires.cap_ff.iter().any(|&c| c > 0.0), "extraction annotates real wire caps");
    assert!(im.wires.delay_ps.iter().any(|&d| d > 0.0), "extraction annotates real wire delays");

    let wires = WireLoads { cap_ff: im.wires.cap_ff.clone(), delay_ps: im.wires.delay_ps.clone() };
    let sta = Sta::with_lowering(module, &lib, low.clone()).with_wire_loads(wires).compile();
    assert!(
        encode_sta(&im.compiled.sta).into_bytes() == encode_sta(&sta).into_bytes(),
        "timing program bytes must match the reference analyzer's compile"
    );
    let power = PowerAnalyzer::from_lowering(module, &lib, low, &im.wires.cap_ff).compile();
    assert!(
        encode_power(&im.compiled.power).into_bytes() == encode_power(&power).into_bytes(),
        "power program bytes must match the reference analyzer's compile"
    );
}

/// Drive fresh-program and loaded-program sims in lockstep and assert
/// every net, every word, every cycle, plus the toggle tables.
fn assert_engines_lockstep<B: SimBackend + ?Sized>(
    fresh: &mut B,
    loaded: &mut B,
    in_nets: &[NetId],
    cycles: usize,
    mut seed: u64,
) {
    let words = fresh.words();
    let net_count = fresh.module().net_count();
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for cycle in 0..cycles {
        for &net in in_nets {
            for wi in 0..words {
                let word = next();
                fresh.drive_word_at(net, wi, word);
                loaded.drive_word_at(net, wi, word);
            }
        }
        fresh.step();
        loaded.step();
        for n in 0..net_count {
            let net = NetId(n as u32);
            for wi in 0..words {
                assert_eq!(
                    loaded.peek_word_at(net, wi),
                    fresh.peek_word_at(net, wi),
                    "net {n} word {wi} diverged at cycle {cycle}"
                );
            }
        }
    }
    assert_eq!(loaded.toggle_table(), fresh.toggle_table(), "toggle tables diverged");
}

#[test]
fn loaded_engine_program_matches_fresh_on_both_backends() {
    let (module, _, cm) = paper_chip();
    let loaded = CompiledMacro::load_from_bytes(&cm.save_to_vec().unwrap()).unwrap();
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    // Narrow (u64) backend.
    let mut fresh = EngineSim::new(&cm.program, &module, 64);
    let mut back = EngineSim::new(&loaded.program, &module, 64);
    assert_engines_lockstep(&mut fresh, &mut back, &in_nets, 12, 0xA57F_AC75);

    // Wide (W256) backend.
    let mut fresh_w = EngineSim::with_backend(&cm.program, &module, 256, SimdBackend::Portable).unwrap();
    let mut back_w = EngineSim::with_backend(&loaded.program, &module, 256, SimdBackend::Portable).unwrap();
    assert_engines_lockstep(&mut fresh_w, &mut back_w, &in_nets, 6, 0xA57F_AC76);
}

/// Scale tier: the 256×256 generator macro (~4×10⁵ nets). Asserts the
/// artifact load replaces the compile at a small fraction of its cost
/// and answers fmax bit-identically. Gated: `SYNDCIM_SLOW_TESTS=1`.
#[test]
fn scale_tier_artifact_load_is_a_fraction_of_the_compile() {
    if std::env::var("SYNDCIM_SLOW_TESTS").as_deref() != Ok("1") {
        eprintln!("skipping scale-tier arm (set SYNDCIM_SLOW_TESTS=1 to run)");
        return;
    }
    let lib = CellLibrary::syn40();
    let spec = MacroSpec {
        h: 256,
        w: 256,
        mcr: 2,
        int_precisions: vec![1, 2, 4, 8],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    };
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let nets = mac.module.net_count();
    assert!(nets >= 100_000, "scale tier needs >= 1e5 nets, generated {nets}");
    let wires = WireLoads::zero(nets);

    let t0 = std::time::Instant::now();
    let cm = CompiledMacro::compile(&mac.module, &lib, &wires).unwrap();
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;

    let bytes = cm.save_to_vec().unwrap();
    let t1 = std::time::Instant::now();
    let loaded = CompiledMacro::load_from_bytes(&bytes).unwrap();
    let load_ms = t1.elapsed().as_secs_f64() * 1e3;
    eprintln!("scale tier: {nets} nets, compile {compile_ms:.1} ms, load {load_ms:.1} ms");

    assert!(
        load_ms < compile_ms / 3.0,
        "loading the {nets}-net artifact ({load_ms:.1} ms) must cost well under \
         the compile it replaces ({compile_ms:.1} ms)"
    );
    let op = OperatingPoint::at_voltage(0.9);
    assert_eq!(loaded.sta.fmax_mhz(op), cm.sta.fmax_mhz(op), "scale-tier fmax must survive the roundtrip");
}

/// Assert the loaded program `back` has the compiled op count of
/// `fresh` (one op per combinational cell of `module`, two per half
/// adder) and every op's label. Returns the labels.
fn assert_same_ops(
    module: &Module,
    lib: &CellLibrary,
    fresh: &Program,
    back: &Program,
    what: &str,
) -> Vec<String> {
    let ops_per_cell = |i: syndcim_netlist::Instance| match lib.cell(i.cell) {
        c if c.is_sequential() => 0,
        c if c.function == CellFunction::HalfAdder => 2,
        _ => 1,
    };
    let want: usize = module.instances().map(ops_per_cell).sum();
    assert_eq!(fresh.op_count(), want, "{what}: one op per combinational cell, two per half adder");
    assert_eq!(back.op_count(), fresh.op_count(), "{what}: op count");
    (0..fresh.op_count())
        .map(|k| {
            let label = fresh.op_label(k);
            assert_eq!(back.op_label(k), label, "{what}: op {k}");
            label
        })
        .collect()
}

/// The program section stores the compiled ops themselves: the loaded
/// paper-chip program has the compiled op count and every op's label,
/// so a loaded artifact runs the same one-op-per-cell kernel as a fresh
/// compile.
#[test]
fn loaded_program_equals_the_compiled_one_op_for_op() {
    let (module, lib, cm) = paper_chip();
    let loaded = CompiledMacro::load_from_bytes(&cm.save_to_vec().unwrap()).unwrap();
    assert_same_ops(&module, &lib, &cm.program, &loaded.program, "paper chip");
}

/// The byte fixpoint and the op-for-op load on more netlists than the
/// default choice: every baseline template (pass-gate sites and the
/// RCA tree's full adders among them) and a fused OAI22 mult-mux over
/// a mixed full-adder / 4-2 compressor tree, each on a 16×16 macro.
#[test]
fn every_baseline_and_a_fused_mixed_tree_roundtrip_op_for_op() {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec { h: 16, w: 16, ..MacroSpec::paper_test_chip() };
    let fused = DesignChoice {
        multmux: MultMuxKind::Oai22Fused,
        tree_kind: AdderTreeKind::MixedCsa { fa_rounds: 1 },
        ..DesignChoice::default()
    };
    let choices =
        BaselineKind::ALL.iter().map(|b| (b.label(), b.choice())).chain([("fused mixed tree", fused)]);
    let mut labels = Vec::new();
    for (what, choice) in choices {
        let mac = assemble(&lib, &spec, &choice);
        let cm = CompiledMacro::compile(&mac.module, &lib, &WireLoads::zero(mac.module.net_count())).unwrap();
        let bytes = cm.save_to_vec().unwrap();
        let loaded = CompiledMacro::load_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.save_to_vec().unwrap(), bytes, "{what}: save→load→save must be byte-identical");
        labels.extend(assert_same_ops(&mac.module, &lib, &cm.program, &loaded.program, what));
    }
    for op in ["fa(", "c42("] {
        assert!(labels.iter().any(|l| l.contains(op)), "the choices must compile `{op}` ops");
    }
}
