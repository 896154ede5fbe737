//! Differential pins for the fault-injection & Monte-Carlo variation
//! subsystem:
//!
//! 1. **Zero-fault bit-identity** — an executor with an empty
//!    [`FaultPlan`] installed, *and* one with a plan whose only fault
//!    never fires (a transient flip scheduled far past the run), must
//!    match a nominal executor on every net, after every cycle, in
//!    every lane, including the aggregate toggle table. The second
//!    variant keeps the fault-mask tables allocated, so the masked
//!    write path itself is proven neutral.
//! 2. **Word-boundary lanes** — per-lane poke/peek and fault masks at
//!    lanes 63, 64, 191 and 255 (the `u64`/`W256` word seams) and at
//!    255, 256, 448 and 511 (the `W512` seams) touch exactly their
//!    lane, on every backend this host can run — portable and, where
//!    detected, the ISA-native AVX-512 word.
//! 3. **Monte-Carlo = sequential** — a 256-lane
//!    [`fmax_distribution`](syndcim_sta::CompiledSta::fmax_distribution)
//!    batch equals 256 sequential single-lane queries bit for bit.
//! 4. **Hardened error paths** — malformed fault plans, out-of-range
//!    lanes, unsupported precisions and sub-threshold corners return
//!    typed errors (or graceful zeros) where the seed flow panicked.

use rand::Rng;
use syndcim_core::{
    assemble, implement, measure_fp, measure_int, measure_weight_update_patterns, shmoo_yield, CompiledMacro,
    DesignChoice, FaultPlan, FlowError, MacroSpec, VariationModel,
};
use syndcim_engine::{BatchSim, BatchSim256, EngineError, EngineSim, Program, SimdBackend};
use syndcim_ir::Lowering;
use syndcim_netlist::NetId;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sim::vectors::seeded_rng;
use syndcim_sim::SimBackend;
use syndcim_sta::WireLoads;

fn small_spec() -> MacroSpec {
    MacroSpec {
        h: 8,
        w: 8,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 400.0,
        f_wu_mhz: 400.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

/// Drive identical random stimulus into `sims` and assert every net,
/// every lane and the toggle tables stay bit-identical after every
/// cycle.
fn assert_lockstep<B: SimBackend + ?Sized>(sims: &mut [&mut B], in_nets: &[NetId], cycles: usize, seed: u64) {
    let words = sims[0].words();
    let net_count = sims[0].module().net_count();
    let mut rng = seeded_rng(seed);
    for cycle in 0..cycles {
        for &net in in_nets {
            for wi in 0..words {
                let word: u64 = rng.gen_range(0..u64::MAX);
                for sim in sims.iter_mut() {
                    sim.drive_word_at(net, wi, word);
                }
            }
        }
        for sim in sims.iter_mut() {
            sim.step();
        }
        for n in 0..net_count {
            let net = NetId(n as u32);
            for wi in 0..words {
                let want = sims[0].peek_word_at(net, wi);
                for (si, sim) in sims.iter().enumerate().skip(1) {
                    assert_eq!(
                        sim.peek_word_at(net, wi),
                        want,
                        "net {n} word {wi} diverged in sim {si} at cycle {cycle}"
                    );
                }
            }
        }
    }
    let want = sims[0].toggle_table().to_vec();
    for (si, sim) in sims.iter().enumerate().skip(1) {
        assert_eq!(sim.toggle_table(), &want[..], "toggle table diverged in sim {si}");
    }
}

#[test]
fn empty_and_never_firing_fault_plans_are_bit_identical_to_nominal() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &small_spec(), &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    // A plan whose only fault can never fire within the run: the
    // fault-state mask tables stay allocated (the masked write branch
    // executes for every slot write), yet all masks stay neutral.
    let mut dormant = FaultPlan::new();
    dormant.flip_at(in_nets[0], 0, 1_000_000);

    // Narrow (u64) backend, 4 lanes.
    let mut nominal = BatchSim::new(&prog, module, 4);
    let mut empty = BatchSim::new(&prog, module, 4);
    empty.install_faults(&FaultPlan::new()).unwrap();
    assert!(!empty.faults_installed(), "empty plan must not leave state behind");
    let mut armed = BatchSim::new(&prog, module, 4);
    armed.install_faults(&dormant).unwrap();
    assert!(armed.faults_installed());
    assert_lockstep(&mut [&mut nominal, &mut empty, &mut armed], &in_nets, 24, 0xFA17);

    // Wide (W256) backend, 70 lanes (spans two lane words).
    let mut nominal_w = BatchSim256::new(&prog, module, 70);
    let mut empty_w = BatchSim256::new(&prog, module, 70);
    empty_w.install_faults(&FaultPlan::new()).unwrap();
    let mut armed_w = BatchSim256::new(&prog, module, 70);
    armed_w.install_faults(&dormant).unwrap();
    assert_lockstep(&mut [&mut nominal_w, &mut empty_w, &mut armed_w], &in_nets, 24, 0xFA18);
}

#[test]
fn word_boundary_lane_pokes_and_faults_touch_exactly_their_lane() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &small_spec(), &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);

    // Per-lane poke/peek at the word seams, both backends.
    for (lanes, boundary_lanes) in
        [(64usize, vec![0usize, 63]), (256, vec![63, 64, 191, 255]), (512, vec![255, 256, 448, 511])]
    {
        let mut sim = EngineSim::new(&prog, module, lanes);
        let net = sim.net_of("act[0]");
        for &l in &boundary_lanes {
            sim.set_lane("act[0]", l, true);
            assert!(sim.get_lane("act[0]", l), "{lanes} lanes: lane {l} must read back");
            for wi in 0..sim.words() {
                let expect: u64 = boundary_lanes
                    .iter()
                    .take_while(|&&b| b <= l)
                    .filter(|&&b| b / 64 == wi)
                    .map(|&b| 1u64 << (b % 64))
                    .sum();
                assert_eq!(sim.peek_word_at(net, wi), expect, "{lanes} lanes: word {wi} after lane {l}");
            }
        }
    }

    // Stuck-at faults at the seams: the faulted net diverges in exactly
    // those lanes, and `mismatch_mask` reports exactly those bits.
    let mut sim = EngineSim::new(&prog, module, 256);
    let net = sim.net_of("act[0]");
    let mut plan = FaultPlan::new();
    for &l in &[63usize, 64, 191, 255] {
        plan.stuck_at(net, l, true);
    }
    sim.install_faults(&plan).unwrap();
    for wi in 0..sim.words() {
        sim.drive_word_at(net, wi, 0);
    }
    sim.step();
    assert_eq!(
        sim.mismatch_mask(net, 0).unwrap(),
        vec![1u64 << 63, 1u64 << 0, 1u64 << 63, 1u64 << 63],
        "stuck lanes at the word seams"
    );
    // The golden lane itself always reads as matching.
    assert_eq!(sim.mismatch_mask(net, 63).unwrap()[0] & (1 << 63), 0);
}

/// The 512-lane word's `u64` seams — lanes 255, 256, 448 and 511 —
/// carry per-lane fault masks bit-exactly on every backend this host
/// can run: the portable `[u64; 8]` word and, where detected, the
/// AVX-512 word. Stuck-at masks land in exactly the seam bits of
/// `mismatch_mask`, and a fault plan that actually fires mid-run
/// (stuck-ats plus transient flips at the seams) keeps all backends in
/// lockstep — every net, every lane, every cycle, and the toggle
/// tables.
#[test]
fn w512_seam_fault_masks_are_bit_identical_across_backends() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &small_spec(), &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    let seams = [255usize, 256, 448, 511];
    let backends: Vec<SimdBackend> = [SimdBackend::Portable, SimdBackend::Avx2, SimdBackend::Avx512]
        .into_iter()
        .filter(|b| b.detected() && b.max_lanes() >= 512)
        .collect();
    assert!(backends.contains(&SimdBackend::Portable));

    // Stuck-at masks at the seams: `mismatch_mask` reports exactly the
    // seam bits, identically on each backend.
    for &backend in &backends {
        let mut sim = EngineSim::with_backend(&prog, module, 512, backend).unwrap();
        assert_eq!(sim.simd_backend(), backend);
        let net = sim.net_of("act[0]");
        let mut plan = FaultPlan::new();
        for &l in &seams {
            plan.stuck_at(net, l, true);
        }
        sim.install_faults(&plan).unwrap();
        for wi in 0..sim.words() {
            sim.drive_word_at(net, wi, 0);
        }
        sim.step();
        let mut want = vec![0u64; 8];
        for &l in &seams {
            want[l / 64] |= 1 << (l % 64);
        }
        assert_eq!(sim.mismatch_mask(net, 0).unwrap(), want, "{backend}: stuck lanes at the W512 seams");
        // The golden lane itself always reads as matching.
        assert_eq!(sim.mismatch_mask(net, 511).unwrap()[7] & (1 << 63), 0, "{backend}: golden lane");
    }

    // A plan that fires mid-run stays lockstep across every backend.
    let mut plan = FaultPlan::new();
    plan.stuck_at(in_nets[0], 255, true);
    plan.stuck_at(in_nets[1 % in_nets.len()], 511, true);
    plan.flip_at(in_nets[2 % in_nets.len()], 256, 5);
    plan.flip_at(in_nets[3 % in_nets.len()], 448, 11);
    let mut sims: Vec<EngineSim> = backends
        .iter()
        .map(|&b| {
            let mut sim = EngineSim::with_backend(&prog, module, 512, b).unwrap();
            sim.install_faults(&plan).unwrap();
            sim
        })
        .collect();
    let mut refs: Vec<&mut EngineSim> = sims.iter_mut().collect();
    assert_lockstep(&mut refs, &in_nets, 24, 0xFA1B);
}

#[test]
fn monte_carlo_256_lane_batch_equals_256_sequential_single_lane_runs() {
    let lib = CellLibrary::syn40();
    let im = implement(&lib, &small_spec(), &DesignChoice::default()).unwrap();
    let op = OperatingPoint::at_voltage(0.9);
    let scales = VariationModel::gaussian(0.09).sample(0xC0FFEE, 256);
    let batch = im.compiled.sta.fmax_distribution(op, &scales);
    assert_eq!(batch.len(), 256);
    for (l, &s) in scales.iter().enumerate() {
        let single = im.compiled.sta.fmax_distribution(op, &[s]);
        assert_eq!(batch[l], single[0], "lane {l}: batched MC must equal the sequential run");
    }
}

/// A bundle loaded from a `.scim` artifact must be a full citizen of
/// the fault-injection and Monte-Carlo subsystem: fault plans install
/// on its program and run bit-identically to the in-memory compile on
/// both backends, and `fmax_distribution` over the same variation
/// samples is pinned sample-for-sample.
#[test]
fn loaded_artifacts_accept_faults_and_variation_bit_identically() {
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, &small_spec(), &DesignChoice::default());
    let module = &mac.module;
    let cm = CompiledMacro::compile(module, &lib, &WireLoads::zero(module.net_count())).unwrap();
    let loaded = CompiledMacro::load_from_bytes(&cm.save_to_vec().unwrap()).unwrap();
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    // A plan that actually fires mid-run: a stuck-at plus transient
    // flips inside the 24-cycle window.
    let mut plan = FaultPlan::new();
    plan.stuck_at(in_nets[0], 1, true);
    plan.flip_at(in_nets[1], 2, 5);
    plan.flip_at(in_nets[2], 3, 11);

    // Narrow (u64) backend.
    let mut fresh = BatchSim::new(&cm.program, module, 4);
    fresh.install_faults(&plan).unwrap();
    let mut back = BatchSim::new(&loaded.program, module, 4);
    back.install_faults(&plan).unwrap();
    assert_lockstep(&mut [&mut fresh, &mut back], &in_nets, 24, 0xFA19);

    // Wide (W256) backend, lanes spanning a word seam.
    let mut plan_w = FaultPlan::new();
    plan_w.stuck_at(in_nets[0], 63, true);
    plan_w.flip_at(in_nets[1], 64, 7);
    let mut fresh_w = BatchSim256::new(&cm.program, module, 70);
    fresh_w.install_faults(&plan_w).unwrap();
    let mut back_w = BatchSim256::new(&loaded.program, module, 70);
    back_w.install_faults(&plan_w).unwrap();
    assert_lockstep(&mut [&mut fresh_w, &mut back_w], &in_nets, 24, 0xFA1A);

    // Monte-Carlo fmax distribution from the loaded STA columns.
    let op = OperatingPoint::at_voltage(0.9);
    let scales = VariationModel::gaussian(0.09).sample(0xA57E_FAC7, 64);
    assert_eq!(
        loaded.sta.fmax_distribution(op, &scales),
        cm.sta.fmax_distribution(op, &scales),
        "the loaded artifact's Monte-Carlo fmax must be pinned to the in-memory compile"
    );
}

#[test]
fn malformed_plans_lanes_and_corners_error_instead_of_aborting() {
    let lib = CellLibrary::syn40();
    let im = implement(&lib, &small_spec(), &DesignChoice::default()).unwrap();
    let mac = &im.mac;
    let mut sim = EngineSim::new(&im.compiled.program, &mac.module, 4);
    let net = sim.net_of("act[0]");

    // Out-of-range lane and net.
    let mut plan = FaultPlan::new();
    plan.stuck_at(net, 9, false);
    assert_eq!(sim.install_faults(&plan).unwrap_err(), EngineError::LaneOutOfRange { lane: 9, lanes: 4 });
    let mut plan = FaultPlan::new();
    plan.flip_at(NetId(1 << 20), 0, 3);
    assert!(matches!(sim.install_faults(&plan).unwrap_err(), EngineError::NetOutOfRange { .. }));

    // Contradictory stuck-ats on one (net, lane).
    let mut plan = FaultPlan::new();
    plan.stuck_at(net, 1, false).stuck_at(net, 1, true);
    assert_eq!(
        sim.install_faults(&plan).unwrap_err(),
        EngineError::FaultConflict { net: net.index(), lane: 1 }
    );

    // A live plan pins the lane set.
    let mut plan = FaultPlan::new();
    plan.stuck_at(net, 1, true);
    sim.install_faults(&plan).unwrap();
    assert_eq!(sim.set_lanes(2).unwrap_err(), EngineError::FaultPlanPinned);
    sim.clear_faults();
    sim.set_lanes(2).unwrap();

    // Flow entry points: typed errors where the seed panicked.
    let op = OperatingPoint::at_voltage(0.9);
    let weights = vec![vec![1i64; 8]; 2];
    let passes = vec![vec![1i64; 8]];
    assert!(matches!(
        measure_int(&im, &lib, 3, &passes, &weights, op, 400.0).unwrap_err(),
        FlowError::Precision { pa: 3, .. }
    ));
    assert!(matches!(
        measure_int(&im, &lib, 4, &passes, &vec![vec![1i64; 8]; 5], op, 400.0).unwrap_err(),
        FlowError::Dimension { got: 5, want: 2, .. }
    ));
    assert!(matches!(measure_fp(&im, &lib, &[], &[], op, 400.0).unwrap_err(), FlowError::MissingFpUnit));
    assert!(matches!(
        measure_weight_update_patterns(&im, &lib, op, 400.0, 1, 0).unwrap_err(),
        FlowError::PatternCount { patterns: 0, .. }
    ));

    // Sub-threshold corners degrade gracefully: zero yield, zero fmax,
    // no aborts.
    let y = shmoo_yield(&im, &[0.3], &[100.0], VariationModel::nominal(), 4, 0).unwrap();
    assert_eq!(y.pass_fraction, vec![vec![0.0]]);
    let fmax = im.compiled.sta.fmax_distribution(OperatingPoint::at_voltage(0.3), &[1.0]);
    assert_eq!(fmax, vec![0.0]);
}
