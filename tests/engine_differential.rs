//! Differential test: the compiled bit-parallel engine against the
//! interpreted reference simulator, on the paper test-chip MAC netlist
//! (64×64, MCR 2, INT1–8 + FP4/FP8).
//!
//! Two layers of checking, both fully deterministic (seeded RNG):
//!
//! 1. **Adversarial random stimulus** — every input port of the macro
//!    (activations, write interface, precision/bank controls, FP
//!    operands) is driven with independent random bits in every lane
//!    and every cycle. After every cycle, *every net* of the macro must
//!    agree between the engine lane and an independent interpreter run;
//!    at the end, the per-net toggle tables must be bit-identical.
//! 2. **Golden MAC pass** — a real INT8 bit-serial pass per lane with
//!    preloaded random weights; engine channel outputs must equal the
//!    golden model (and, by layer 1, the interpreter).

use rand::Rng;
use syndcim_core::{assemble, DesignChoice, MacroSpec};
use syndcim_engine::{EngineError, EngineSim, FaultPlan, Program, SimdBackend};
use syndcim_ir::Lowering;
use syndcim_netlist::{InstId, NetId, NetlistBuilder};
use syndcim_sim::golden::{bit_serial_schedule, twos_complement_bit, DcimChannelTrace};
use syndcim_sim::vectors::{random_ints, seeded_rng};
use syndcim_sim::{SimBackend, Simulator};

#[test]
fn engine_matches_interpreter_on_paper_test_chip_random_stimulus() {
    let lib = syndcim_pdk::CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    // One lowering shared by the compiled program AND every reference
    // interpreter instance below (`Simulator::with_lowering`) — the
    // per-lane runs stop paying a redundant connectivity walk each.
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);

    let lanes = 4usize;
    let cycles = 16usize;
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    // stimulus[lane][cycle][port] — derived from per-lane seeds.
    let stimulus: Vec<Vec<Vec<bool>>> = (0..lanes)
        .map(|l| {
            let mut rng = seeded_rng(0xC41F + l as u64);
            (0..cycles).map(|_| in_nets.iter().map(|_| rng.gen_bool(0.5)).collect()).collect()
        })
        .collect();

    // Engine: all lanes at once, snapshotting every net after each cycle.
    let mut eng = EngineSim::new(&prog, module, lanes);
    let mut snapshots: Vec<Vec<u64>> = Vec::with_capacity(cycles);
    for c in 0..cycles {
        for (pi, &net) in in_nets.iter().enumerate() {
            let mut word = 0u64;
            for (l, stim) in stimulus.iter().enumerate() {
                word |= (stim[c][pi] as u64) << l;
            }
            eng.poke_word_at(net, 0, word);
        }
        eng.step();
        snapshots.push((0..module.net_count()).map(|n| eng.peek_word_at(NetId(n as u32), 0)).collect());
    }

    // Interpreter: one independent run per lane; every net must agree
    // with the engine lane after every cycle, and toggles must sum to
    // the engine's table.
    let mut ref_toggles = vec![0u64; module.net_count()];
    for (l, stim) in stimulus.iter().enumerate() {
        let mut sim = Simulator::with_lowering(module, &lib, &low);
        for (c, bits) in stim.iter().enumerate() {
            for (pi, &net) in in_nets.iter().enumerate() {
                sim.poke(net, bits[pi]);
            }
            Simulator::step(&mut sim);
            for (n, &word) in snapshots[c].iter().enumerate() {
                let eng_bit = (word >> l) & 1 == 1;
                assert_eq!(
                    sim.peek(NetId(n as u32)),
                    eng_bit,
                    "lane {l} cycle {c}: net `{}` diverges",
                    module.net_name(NetId(n as u32))
                );
            }
        }
        for (t, s) in ref_toggles.iter_mut().zip(sim.toggle_table()) {
            *t += s;
        }
    }
    assert_eq!(
        eng.toggle_table(),
        &ref_toggles[..],
        "per-net toggle counts must be bit-identical to the summed interpreter runs"
    );
}

/// The 256-lane wide (`[u64; 4]`) backend against the `u64` backend on
/// the paper test chip: all 256 lanes of adversarial random stimulus,
/// checked on **every net, every cycle, every lane**, plus bit-identical
/// toggle tables. The `u64` backend is itself pinned to the interpreter
/// (net-for-net, toggle-for-toggle) by the test above, and a handful of
/// word-boundary lanes are additionally re-run on the interpreter here,
/// so the chain wide == narrow == interpreter is closed exactly.
#[test]
fn wide_backend_matches_u64_backend_and_interpreter_on_paper_test_chip() {
    let lib = syndcim_pdk::CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);

    let lanes = 256usize;
    let cycles = 6usize;
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();

    // stimulus[lane][cycle][port] — derived from per-lane seeds.
    let stimulus: Vec<Vec<Vec<bool>>> = (0..lanes)
        .map(|l| {
            let mut rng = seeded_rng(0x11DE + l as u64);
            (0..cycles).map(|_| in_nets.iter().map(|_| rng.gen_bool(0.5)).collect()).collect()
        })
        .collect();
    let word_of = |c: usize, pi: usize, wi: usize| -> u64 {
        let mut word = 0u64;
        for (l, stim) in stimulus.iter().enumerate().skip(wi * 64).take(64) {
            word |= (stim[c][pi] as u64) << (l - wi * 64);
        }
        word
    };

    // Wide backend: all 256 lanes in one executor.
    let mut wide = EngineSim::with_backend(&prog, module, lanes, SimdBackend::Portable).unwrap();
    let mut snapshots: Vec<Vec<[u64; 4]>> = Vec::with_capacity(cycles); // [cycle][net][word]
    for c in 0..cycles {
        for (pi, &net) in in_nets.iter().enumerate() {
            for wi in 0..4 {
                wide.poke_word_at(net, wi, word_of(c, pi, wi));
            }
        }
        wide.step();
        snapshots.push(
            (0..module.net_count())
                .map(|n| std::array::from_fn(|wi| wide.peek_word_at(NetId(n as u32), wi)))
                .collect(),
        );
    }

    // u64 backend: the same stimulus as four 64-lane chunks; every net
    // must agree after every cycle, and the chunk toggle tables must sum
    // to the wide table.
    let mut narrow_toggles = vec![0u64; module.net_count()];
    for wi in 0..4 {
        let mut eng = EngineSim::new(&prog, module, 64);
        for (c, snap) in snapshots.iter().enumerate() {
            for (pi, &net) in in_nets.iter().enumerate() {
                eng.poke_word_at(net, 0, word_of(c, pi, wi));
            }
            eng.step();
            for (n, words) in snap.iter().enumerate() {
                assert_eq!(
                    eng.peek_word_at(NetId(n as u32), 0),
                    words[wi],
                    "chunk {wi} cycle {c}: net `{}` diverges between widths",
                    module.net_name(NetId(n as u32))
                );
            }
        }
        for (t, s) in narrow_toggles.iter_mut().zip(eng.toggle_table()) {
            *t += s;
        }
    }
    assert_eq!(
        wide.toggle_table(),
        &narrow_toggles[..],
        "wide toggle table must equal the summed u64-chunk tables"
    );
    assert_eq!(wide.lane_cycles(), lanes as u64 * cycles as u64);

    // Interpreter spot-check on lanes straddling every word boundary.
    for l in [0usize, 63, 64, 127, 128, 191, 192, 255] {
        let mut sim = Simulator::with_lowering(module, &lib, &low);
        for (c, snap) in snapshots.iter().enumerate() {
            for (pi, &net) in in_nets.iter().enumerate() {
                sim.poke(net, stimulus[l][c][pi]);
            }
            Simulator::step(&mut sim);
            for (n, words) in snap.iter().enumerate() {
                assert_eq!(
                    sim.peek(NetId(n as u32)),
                    (words[l / 64] >> (l % 64)) & 1 == 1,
                    "lane {l} cycle {c}: net `{}` diverges from the interpreter",
                    module.net_name(NetId(n as u32))
                );
            }
        }
    }
}

/// Word-seam differential at the SIMD widths: every frame this host can
/// run (portable, AVX2, AVX-512) must produce bit-identical per-net
/// state snapshots and toggle tables on the paper test chip, at 256, at
/// 300 (a ragged W512 tail, as `measure_int` runs) and at 512 lanes.
/// The portable run is additionally re-chunked onto the `u64` word
/// (chunk toggle tables summing to the wide table, the last chunk of
/// the 300-lane run on 44 lanes), and in the 512-lane arm the lanes at
/// every `u64` seam of the 512-lane word — 255/256/448/511 and friends
/// — are re-run on the interpreter, closing
/// `isa == portable == u64 == interpreter` exactly at the seams.
#[test]
fn simd_backends_agree_at_every_word_seam() {
    let lib = syndcim_pdk::CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();
    let cycles = 6usize;

    for lanes in [256usize, 300, 512] {
        let words = lanes.div_ceil(64);
        // stimulus[lane][cycle][port] — derived from per-lane seeds.
        let stimulus: Vec<Vec<Vec<bool>>> = (0..lanes)
            .map(|l| {
                let mut rng = seeded_rng(0x5EA0 + l as u64);
                (0..cycles).map(|_| in_nets.iter().map(|_| rng.gen_bool(0.5)).collect()).collect()
            })
            .collect();
        let word_of = |c: usize, pi: usize, wi: usize| -> u64 {
            let mut word = 0u64;
            for (l, stim) in stimulus.iter().enumerate().skip(wi * 64).take(64) {
                word |= (stim[c][pi] as u64) << (l - wi * 64);
            }
            word
        };

        // One full run on a chosen backend: per-cycle snapshots of every
        // net's lane words, final toggle table, lane-cycle total.
        let run = |backend: SimdBackend| {
            let mut sim = EngineSim::with_backend(&prog, module, lanes, backend).unwrap();
            assert_eq!(sim.simd_backend(), backend);
            let mut snapshots: Vec<Vec<Vec<u64>>> = Vec::with_capacity(cycles);
            for c in 0..cycles {
                for (pi, &net) in in_nets.iter().enumerate() {
                    for wi in 0..words {
                        sim.poke_word_at(net, wi, word_of(c, pi, wi));
                    }
                }
                sim.step();
                snapshots.push(
                    (0..module.net_count())
                        .map(|n| (0..words).map(|wi| sim.peek_word_at(NetId(n as u32), wi)).collect())
                        .collect(),
                );
            }
            (snapshots, sim.toggle_table().to_vec(), sim.lane_cycles())
        };

        let (snapshots, toggles, lane_cycles) = run(SimdBackend::Portable);
        assert_eq!(lane_cycles, (lanes * cycles) as u64);
        for backend in [SimdBackend::Avx2, SimdBackend::Avx512] {
            if !backend.detected() {
                continue;
            }
            let (snap, tog, lc) = run(backend);
            assert_eq!(snap, snapshots, "{backend}: state snapshots diverge at {lanes} lanes");
            assert_eq!(tog, toggles, "{backend}: toggle table diverges at {lanes} lanes");
            assert_eq!(lc, lane_cycles, "{backend}: lane cycles diverge at {lanes} lanes");
        }

        // The portable wide run re-chunked on the u64 word: every net,
        // every cycle, every chunk; chunk toggles sum to the wide table.
        let mut narrow_toggles = vec![0u64; module.net_count()];
        for wi in 0..words {
            let mut eng = EngineSim::new(&prog, module, (lanes - wi * 64).min(64));
            for (c, snap) in snapshots.iter().enumerate() {
                for (pi, &net) in in_nets.iter().enumerate() {
                    eng.poke_word_at(net, 0, word_of(c, pi, wi));
                }
                eng.step();
                for (n, net_words) in snap.iter().enumerate() {
                    assert_eq!(
                        eng.peek_word_at(NetId(n as u32), 0),
                        net_words[wi],
                        "chunk {wi} cycle {c}: net `{}` diverges between widths",
                        module.net_name(NetId(n as u32))
                    );
                }
            }
            for (t, s) in narrow_toggles.iter_mut().zip(eng.toggle_table()) {
                *t += s;
            }
        }
        assert_eq!(toggles, narrow_toggles, "wide toggle table must equal the summed u64-chunk tables");

        // Interpreter spot-check at the 512-lane word's u64 seams (the
        // 256-lane seams are interpreter-pinned by the test above).
        if lanes == 512 {
            for l in [0usize, 63, 64, 255, 256, 447, 448, 511] {
                let mut sim = Simulator::with_lowering(module, &lib, &low);
                for (c, snap) in snapshots.iter().enumerate() {
                    for (pi, &net) in in_nets.iter().enumerate() {
                        sim.poke(net, stimulus[l][c][pi]);
                    }
                    Simulator::step(&mut sim);
                    for (n, net_words) in snap.iter().enumerate() {
                        assert_eq!(
                            sim.peek(NetId(n as u32)),
                            (net_words[l / 64] >> (l % 64)) & 1 == 1,
                            "lane {l} cycle {c}: net `{}` diverges from the interpreter",
                            module.net_name(NetId(n as u32))
                        );
                    }
                }
            }
        }
    }
}

/// A lane image taken from a prepared 1-lane executor and loaded into
/// 65-, 256-, 300- and 512-lane executors, in every frame this host can
/// run, equals running the same preparation in all lanes: every net and
/// stored state of every lane word, right after the load and again
/// after per-lane random stimulus, which must also leave equal
/// aggregate toggle tables. The preparation broadcasts random weights
/// and input values and clocks twice, like `measure_int`'s preload and
/// quiesce. The three typed errors close the test.
#[test]
fn loaded_lane_images_equal_preparing_every_lane() {
    let lib = syndcim_pdk::CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();
    let seq: Vec<InstId> = (0..module.instance_count())
        .map(|i| InstId(i as u32))
        .filter(|&i| lib.cell(module.instance(i).cell).is_sequential())
        .collect();
    let prepare = |sim: &mut EngineSim<'_>| {
        let mut rng = seeded_rng(0x1A6E);
        for bc in &mac.bitcells {
            sim.force_state_all(bc.inst, rng.gen_bool(0.5));
        }
        for &net in &in_nets {
            let word = if rng.gen_bool(0.5) { !0 } else { 0 };
            for wi in 0..sim.words() {
                sim.poke_word_at(net, wi, word);
            }
        }
        sim.step();
        sim.step();
        sim.reset_activity();
    };
    let assert_same_state = |a: &EngineSim<'_>, b: &EngineSim<'_>, what: &str| {
        for wi in 0..a.words() {
            for n in 0..module.net_count() {
                let net = NetId(n as u32);
                assert_eq!(a.peek_word_at(net, wi), b.peek_word_at(net, wi), "{what}: net {n} word {wi}");
            }
            for &inst in &seq {
                assert_eq!(
                    a.state_word_at(inst, wi),
                    b.state_word_at(inst, wi),
                    "{what}: {inst:?} word {wi}"
                );
            }
        }
    };

    let mut template = EngineSim::new(&prog, module, 1);
    prepare(&mut template);
    let image = template.lane_image(0).unwrap();
    let backends = [SimdBackend::Portable, SimdBackend::Avx2, SimdBackend::Avx512];
    for backend in backends.into_iter().filter(|b| b.detected()) {
        for lanes in [65usize, 256, 300, 512] {
            let what = format!("{backend} at {lanes} lanes");
            let mut prepared = EngineSim::with_backend(&prog, module, lanes, backend).unwrap();
            prepare(&mut prepared);
            let mut loaded = EngineSim::with_backend(&prog, module, lanes, backend).unwrap();
            loaded.load_image(&image).unwrap();
            assert!(loaded.toggle_table().iter().all(|&t| t == 0), "{what}: loading counts no toggles");
            assert_same_state(&prepared, &loaded, &what);

            let mut rng = seeded_rng(0x1A6E + lanes as u64);
            for _ in 0..2 {
                for &net in &in_nets {
                    for wi in 0..prepared.words() {
                        let word = rng.next_u64();
                        prepared.poke_word_at(net, wi, word);
                        loaded.poke_word_at(net, wi, word);
                    }
                }
                prepared.step();
                loaded.step();
            }
            assert_same_state(&prepared, &loaded, &what);
            assert_eq!(loaded.toggle_table(), prepared.toggle_table(), "{what}: toggle tables");
            assert_eq!(loaded.lane_cycles(), prepared.lane_cycles());
        }
    }

    // The typed errors: a lane outside the active set, an image of a
    // program with another shape, and a load under a fault plan.
    assert_eq!(template.lane_image(1), Err(EngineError::LaneOutOfRange { lane: 1, lanes: 1 }));
    let mut b = NetlistBuilder::new("inv", &lib);
    let a = b.input("a");
    let y = b.not(a);
    b.output("y", y);
    let inv = b.finish();
    let inv_prog = Program::compile(&inv, &lib).unwrap();
    let inv_image = EngineSim::new(&inv_prog, &inv, 1).lane_image(0).unwrap();
    let mut sim = EngineSim::new(&prog, module, 300);
    assert!(matches!(sim.load_image(&inv_image), Err(EngineError::ImageShape { .. })));
    let mut plan = FaultPlan::new();
    plan.stuck_at(in_nets[0], 299, true);
    sim.install_faults(&plan).unwrap();
    assert_eq!(sim.load_image(&image), Err(EngineError::FaultPlanPinned));
    sim.clear_faults();
    assert_eq!(sim.load_image(&image), Ok(()));
}

#[test]
fn engine_runs_golden_int8_mac_pass_on_paper_test_chip() {
    let lib = syndcim_pdk::CellLibrary::syn40();
    let spec = MacroSpec::paper_test_chip();
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let prog = Program::compile(module, &lib).unwrap();

    let pa = 8u32;
    let lanes = 3usize;
    let channels = mac.w / pa as usize;
    let mut rng = seeded_rng(0x17E57);
    let weights: Vec<Vec<i64>> = (0..channels).map(|_| random_ints(&mut rng, mac.h, pa)).collect();
    let lane_acts: Vec<Vec<i64>> = (0..lanes).map(|_| random_ints(&mut rng, mac.h, pa)).collect();

    let mut sim = EngineSim::new(&prog, module, lanes);
    // Preload bank-0 weights (broadcast to every lane).
    for bc in &mac.bitcells {
        if bc.bank != 0 {
            continue;
        }
        let ch = bc.col / pa as usize;
        let j = (bc.col % pa as usize) as u32;
        sim.force_state_all(bc.inst, twos_complement_bit(weights[ch][bc.row], pa, j));
    }
    // Precision INT8, bank 0, write interface idle, then quiesce.
    let level = pa.trailing_zeros() as usize;
    for k in 0..=(mac.w_bits.trailing_zeros() as usize) {
        sim.set_all(&format!("prec[{k}]"), k == level);
    }
    for k in 0..mac.mcr.trailing_zeros() as usize {
        sim.set_all(&format!("bank_sel[{k}]"), false);
    }
    sim.set_all("wr_en", false);
    for r in 0..mac.h {
        sim.set_all(&format!("act[{r}]"), false);
    }
    sim.set_all("neg", false);
    sim.set_all("clear", false);
    sim.step();
    sim.step();

    // One bit-serial INT8 pass, lane l computing lane_acts[l].
    let depth = mac.mac_pipeline_depth as u32;
    let schedules: Vec<Vec<Vec<bool>>> = lane_acts.iter().map(|a| bit_serial_schedule(a, pa)).collect();
    let total = pa + depth + u32::from(mac.choice.ofu_extra_pipe);
    let act = sim.bus("act", mac.h as u32);
    for cycle in 0..total {
        for r in 0..mac.h {
            let bits: Vec<i64> =
                schedules.iter().map(|sched| (cycle < pa && sched[cycle as usize][r]) as i64).collect();
            sim.drive_bus(&act[r..=r], &bits);
        }
        sim.set_all("clear", cycle == depth);
        sim.set_all("neg", cycle == pa - 1 + depth);
        sim.step();
    }

    // Every channel of every lane must match the golden model.
    let per_group = (mac.w_bits / pa) as usize;
    for (l, acts) in lane_acts.iter().enumerate() {
        for (ch, wv) in weights.iter().enumerate() {
            let g = ch / per_group;
            let i = ch % per_group;
            let width = mac.output_width(level) as u32;
            let raw = sim.read_bus(&sim.bus(&mac.output_port(g, level, i), width))[l];
            let got = raw >> (mac.act_bits - pa);
            let want = DcimChannelTrace::run(acts, wv, pa, pa).output;
            assert_eq!(got, want, "lane {l} channel {ch}");
        }
    }
}

/// One action of [`skip_rules_hold_under_quiet_stimulus`]'s script,
/// replayed on the engine and on one interpreter per lane class.
#[derive(Debug, Clone, Copy)]
enum Act {
    /// Drive tick `τ`'s activation and control bits in every class and
    /// clock once, then compare every net of every lane.
    Tick(u32),
    /// Drive zero activations with `clear` high in every class and
    /// clock once, then compare: repeated, the pipeline drains and the
    /// executor's change flags go quiet.
    Quiet,
    /// Invert a net in the lanes of one class.
    Poke(NetId, usize),
    /// Invert a stored state in the lanes of one class.
    Force(InstId, usize),
    /// Keep lane 0's image (the reference replays class 0 instead).
    SaveImage,
    /// Broadcast the kept image to every lane, active or not.
    LoadImage,
    /// Deactivate the lanes of classes 2 and 3.
    Shrink,
    /// Install a plan holding one net stuck at the inverse of its value
    /// in the fault lane (the reference has no faults: compares skip
    /// that lane until the plan is gone).
    StuckAt(NetId),
    /// Replace the plan with one whose only fault never fires.
    NeverFiring,
    ClearFaults,
    Settle,
    Step,
    /// Compare every net of every lane (but the fault lane if `true`).
    Compare(bool),
    /// Compare aggregate toggles and lane-cycles, then reset activity.
    Checkpoint,
    /// Reset activity without comparing (after the fault phase).
    Reset,
    EnableLaneToggles,
}

/// Lane `l`'s class: lanes below `active` alternate classes 0 and 1,
/// the lanes [`Act::Shrink`] deactivates alternate classes 2 and 3.
fn lane_class(l: usize, active: usize) -> usize {
    if l < active {
        l % 2
    } else {
        2 + l % 2
    }
}

/// The activity-driven skip rules against the interpreter under the
/// stimulus they are built for: weights preloaded once, then an INT4
/// bit-serial schedule whose activation bits each hold for two cycles
/// (classes 0, 2) or three (classes 1, 3), the deactivated classes a
/// cycle behind, so most steps change few inputs and some change inputs
/// only in deactivated lanes. Mid-run the script pokes a gate output
/// and a bitcell `q`, forces one bitcell, shrinks the lane set, loads
/// an image saved earlier, and installs, replaces and clears a stuck-at
/// plan on a gate output. After every step (and every settle of the
/// fault phase) every net of every lane the executor still exposes
/// (its active lane words), deactivated lanes included, must equal its
/// class's interpreter; at every checkpoint and at the
/// end the aggregate toggle tables and lane-cycles, and finally the
/// per-lane toggle tables, must equal the interpreters'. Runs at 65,
/// 256, 300 and 512 lanes in every frame this host can run.
#[test]
fn skip_rules_hold_under_quiet_stimulus() {
    const PA: u32 = 4;
    const FAULT_LANE: usize = 1;
    let lib = syndcim_pdk::CellLibrary::syn40();
    let mac = assemble(&lib, &MacroSpec::paper_test_chip(), &DesignChoice::default());
    let module = &mac.module;
    let low = Lowering::validated(module, &lib).unwrap();
    let prog = Program::from_lowering(&low, module, &lib);

    // Per-class activations, a fresh INT4 vector per pass.
    let mut rng = seeded_rng(0x51EE9);
    let acts: Vec<Vec<Vec<i64>>> =
        (0..4).map(|_| (0..3).map(|_| random_ints(&mut rng, mac.h, PA)).collect()).collect();
    let weights: Vec<Vec<i64>> = (0..mac.w / PA as usize).map(|_| random_ints(&mut rng, mac.h, PA)).collect();
    let act_nets: Vec<NetId> = (0..mac.h).map(|r| module.port(&format!("act[{r}]")).unwrap().net).collect();
    let clear = module.port("clear").unwrap().net;
    let neg = module.port("neg").unwrap().net;
    // Tick τ's value of every driven input, for class `c`; `None` is
    // the quiet tick.
    let drive = |c: usize, tau: Option<u32>| -> Vec<(NetId, bool)> {
        let Some(tau) = tau else {
            let mut bits: Vec<(NetId, bool)> = act_nets.iter().map(|&n| (n, false)).collect();
            bits.extend([(clear, true), (neg, false)]);
            return bits;
        };
        let k = (tau as usize + c / 2) / (2 + c % 2);
        let (pass, bit) = (k / PA as usize, k % PA as usize);
        let mut bits: Vec<(NetId, bool)> =
            act_nets.iter().enumerate().map(|(r, &n)| (n, (acts[c][pass % 3][r] >> bit) & 1 == 1)).collect();
        bits.push((clear, tau % 8 == 2));
        bits.push((neg, tau % 8 == 6));
        bits
    };
    let setup = |sim: &mut dyn SimBackend| {
        for bc in mac.bitcells.iter().filter(|bc| bc.bank == 0) {
            let (ch, j) = (bc.col / PA as usize, (bc.col % PA as usize) as u32);
            sim.force_state_all(bc.inst, twos_complement_bit(weights[ch][bc.row], PA, j));
        }
        for k in 0..=(mac.w_bits.trailing_zeros() as usize) {
            sim.set_all(&format!("prec[{k}]"), k == PA.trailing_zeros() as usize);
        }
        sim.step();
        sim.step();
    };

    // The nets and states the script disturbs: the first gate reading
    // one bank-0 bitcell (a multiplier, quiet while its activation
    // holds), a second bitcell's `q`, a third bitcell to force, and the
    // gate reading a fourth for the stuck-at.
    let bank0: Vec<InstId> = mac.bitcells.iter().filter(|bc| bc.bank == 0).map(|bc| bc.inst).collect();
    let q_of = |inst: InstId| module.instance(inst).outputs[0];
    let gate_reading = |net: NetId| {
        let inst = module
            .instances()
            .find(|i| !lib.cell(i.cell).is_sequential() && i.inputs.contains(&net))
            .expect("every bitcell feeds a gate");
        inst.outputs[0]
    };
    let script = {
        use Act::*;
        let mut s = Vec::new();
        let ticks = |s: &mut Vec<Act>, r: std::ops::Range<u32>| s.extend(r.map(Tick));
        ticks(&mut s, 0..4);
        s.push(SaveImage);
        ticks(&mut s, 4..5);
        s.push(Poke(gate_reading(q_of(bank0[0])), 0));
        ticks(&mut s, 5..7);
        s.push(Poke(q_of(bank0[1]), 1));
        ticks(&mut s, 7..9);
        s.push(Force(bank0[2], 0));
        ticks(&mut s, 9..11);
        s.extend([Checkpoint, Shrink]);
        ticks(&mut s, 11..17);
        // Load the image saved mid-pass into a drained executor, then
        // clock once with every input held: only the load's flags can
        // move the pipeline the image left in flight.
        s.extend([Quiet; 6]);
        s.extend([Checkpoint, LoadImage, Step, Compare(false)]);
        ticks(&mut s, 17..23);
        s.push(Checkpoint);
        let stuck = gate_reading(q_of(bank0[3]));
        s.extend([StuckAt(stuck), Settle, Compare(true), ClearFaults, Settle, Compare(false)]);
        s.extend([StuckAt(stuck), Settle, Compare(true), NeverFiring, Settle, Compare(false)]);
        s.extend([Step, Compare(false), ClearFaults, Settle, Compare(false), Reset, EnableLaneToggles]);
        ticks(&mut s, 23..31);
        s.push(Checkpoint);
        s
    };

    // The reference: one interpreter per class, snapshots of every net
    // at every compare, per-class toggle tables and cycles at every
    // checkpoint. Loading the image restarts every class from a replay
    // of class 0 up to the save.
    let interp = || {
        let mut sim = Simulator::with_lowering(module, &lib, &low);
        setup(&mut sim);
        sim.reset_activity();
        sim
    };
    let mut sims: Vec<Simulator<'_>> = (0..4).map(|_| interp()).collect();
    let mut saved_at = 0;
    let mut snaps: Vec<Vec<Vec<bool>>> = Vec::new();
    let mut checkpoints: Vec<(Vec<Vec<u64>>, u64)> = Vec::new();
    let values = |sim: &Simulator<'_>| (0..module.net_count()).map(|n| sim.peek(NetId(n as u32))).collect();
    for act in &script {
        match *act {
            Act::Tick(_) | Act::Quiet => {
                let tau = if let Act::Tick(tau) = *act { Some(tau) } else { None };
                for (c, sim) in sims.iter_mut().enumerate() {
                    for (net, v) in drive(c, tau) {
                        sim.poke(net, v);
                    }
                    Simulator::step(sim);
                }
                snaps.push(sims.iter().map(values).collect());
            }
            Act::Poke(net, c) => {
                let v = sims[c].peek(net);
                sims[c].poke(net, !v);
            }
            Act::Force(inst, c) => {
                let v = sims[c].state_of(inst);
                sims[c].force_state(inst, !v);
            }
            // Only ticks compare before the save, so it follows ticks
            // 0..saved_at.
            Act::SaveImage => saved_at = snaps.len(),
            Act::LoadImage => {
                for sim in &mut sims {
                    *sim = interp();
                    for tau in 0..saved_at as u32 {
                        for (net, v) in drive(0, Some(tau)) {
                            sim.poke(net, v);
                        }
                        Simulator::step(sim);
                    }
                    sim.reset_activity();
                }
            }
            Act::Settle => sims.iter_mut().for_each(Simulator::settle),
            Act::Step => sims.iter_mut().for_each(Simulator::step),
            Act::Compare(_) => snaps.push(sims.iter().map(values).collect()),
            Act::Checkpoint | Act::Reset => {
                checkpoints
                    .push((sims.iter().map(|s| s.toggle_table().to_vec()).collect(), sims[0].cycles()));
                sims.iter_mut().for_each(|s| s.reset_activity());
            }
            Act::Shrink | Act::StuckAt(_) | Act::NeverFiring | Act::ClearFaults | Act::EnableLaneToggles => {}
        }
    }

    let backends = [SimdBackend::Portable, SimdBackend::Avx2, SimdBackend::Avx512];
    for backend in backends.into_iter().filter(|b| b.detected()) {
        for lanes in [65usize, 256, 300, 512] {
            let what = format!("{backend} at {lanes} lanes");
            let (mut active, shrunk) = (lanes, lanes - lanes / 3);
            // masks[wi][c]: the lanes of class c in word wi.
            let masks: Vec<[u64; 4]> = (0..lanes.div_ceil(64))
                .map(|wi| {
                    std::array::from_fn(|c| {
                        (0..64)
                            .filter(|b| wi * 64 + b < lanes && lane_class(wi * 64 + b, shrunk) == c)
                            .fold(0, |m, b| m | 1 << b)
                    })
                })
                .collect();
            let word_of =
                |bits: &[bool], m: &[u64; 4]| (0..4).fold(0, |w, c| w | if bits[c] { m[c] } else { 0 });
            let mut sim = EngineSim::with_backend(&prog, module, lanes, backend).unwrap();
            setup(&mut sim);
            sim.reset_activity();
            let (mut snap, mut checkpoint) = (0, 0);
            let mut image = None;
            let mut compare = |sim: &EngineSim<'_>, skip_fault_lane: bool, step: &str| {
                for n in 0..module.net_count() {
                    let bits: Vec<bool> = snaps[snap].iter().map(|class| class[n]).collect();
                    for (wi, m) in masks.iter().enumerate().take(sim.words()) {
                        let skip =
                            if skip_fault_lane && wi == FAULT_LANE / 64 { 1 << (FAULT_LANE % 64) } else { 0 };
                        let lanes_in_word = m.iter().fold(0, |all, c| all | c) & !skip;
                        assert_eq!(
                            sim.peek_word_at(NetId(n as u32), wi) & lanes_in_word,
                            word_of(&bits, m) & lanes_in_word,
                            "{what}, {step}: net `{}` word {wi}",
                            module.net_name(NetId(n as u32))
                        );
                    }
                }
                snap += 1;
            };
            for (i, act) in script.iter().enumerate() {
                let step = format!("script step {i} ({act:?})");
                match *act {
                    Act::Tick(_) | Act::Quiet => {
                        let tau = if let Act::Tick(tau) = *act { Some(tau) } else { None };
                        let per_class: Vec<Vec<(NetId, bool)>> = (0..4).map(|c| drive(c, tau)).collect();
                        for p in 0..per_class[0].len() {
                            let net = per_class[0][p].0;
                            let bits: Vec<bool> = per_class.iter().map(|d| d[p].1).collect();
                            for (wi, m) in masks.iter().enumerate().take(sim.words()) {
                                sim.poke_word_at(net, wi, word_of(&bits, m));
                            }
                        }
                        sim.step();
                        compare(&sim, false, &step);
                    }
                    Act::Poke(net, c) => {
                        for (wi, m) in masks.iter().enumerate().take(sim.words()) {
                            sim.poke_word_at(net, wi, sim.peek_word_at(net, wi) ^ m[c]);
                        }
                    }
                    Act::Force(inst, c) => {
                        for (wi, m) in masks.iter().enumerate().take(sim.words()) {
                            sim.force_state_word_at(inst, wi, sim.state_word_at(inst, wi) ^ m[c]);
                        }
                    }
                    Act::SaveImage => image = Some(sim.lane_image(0).unwrap()),
                    Act::LoadImage => sim.load_image(image.as_ref().unwrap()).unwrap(),
                    Act::Shrink => {
                        sim.set_lanes(shrunk).unwrap();
                        active = shrunk;
                    }
                    Act::StuckAt(net) => {
                        let v = (sim.peek_word_at(net, FAULT_LANE / 64) >> (FAULT_LANE % 64)) & 1 == 1;
                        let mut plan = FaultPlan::new();
                        plan.stuck_at(net, FAULT_LANE, !v);
                        sim.install_faults(&plan).unwrap();
                    }
                    Act::NeverFiring => {
                        let mut plan = FaultPlan::new();
                        plan.flip_at(clear, 0, u64::MAX);
                        sim.install_faults(&plan).unwrap();
                    }
                    Act::ClearFaults => sim.clear_faults(),
                    Act::Settle => sim.settle(),
                    Act::Step => sim.step(),
                    Act::Compare(skip) => compare(&sim, skip, &step),
                    Act::Checkpoint | Act::Reset => {
                        let (tables, cycles) = &checkpoints[checkpoint];
                        checkpoint += 1;
                        if matches!(act, Act::Checkpoint) {
                            let mut want = vec![0u64; module.net_count()];
                            for l in 0..active {
                                let class = &tables[lane_class(l, shrunk)];
                                want.iter_mut().zip(class).for_each(|(t, &s)| *t += s);
                                if let Some(lane) = sim.lane_toggle_table(l) {
                                    assert_same_toggles(&lane, class, &format!("{what}, {step}: lane {l}"));
                                }
                            }
                            assert_same_toggles(sim.toggle_table(), &want, &format!("{what}, {step}"));
                            assert_eq!(
                                sim.lane_cycles(),
                                active as u64 * cycles,
                                "{what}, {step}: lane-cycles"
                            );
                        }
                        sim.reset_activity();
                    }
                    Act::EnableLaneToggles => sim.enable_lane_toggles(),
                }
            }
            assert!(sim.lane_toggle_table(0).is_some(), "{what}: the last checkpoint compared lane tables");
        }
    }
}

/// Assert two toggle tables equal, naming the first net that differs.
fn assert_same_toggles(got: &[u64], want: &[u64], what: &str) {
    if let Some(n) = (0..want.len()).find(|&n| got[n] != want[n]) {
        panic!("{what}: net {n} toggled {} times, the interpreters {}", got[n], want[n]);
    }
    assert_eq!(got.len(), want.len(), "{what}: table length");
}
