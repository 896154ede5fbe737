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
use syndcim_engine::{BatchSim, EngineSim, Program, SimdBackend};
use syndcim_ir::Lowering;
use syndcim_netlist::NetId;
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
    let mut eng = BatchSim::new(&prog, module, lanes);
    let mut snapshots: Vec<Vec<u64>> = Vec::with_capacity(cycles);
    for c in 0..cycles {
        for (pi, &net) in in_nets.iter().enumerate() {
            let mut word = 0u64;
            for (l, stim) in stimulus.iter().enumerate() {
                word |= (stim[c][pi] as u64) << l;
            }
            eng.poke_word(net, word);
        }
        eng.step();
        snapshots.push((0..module.net_count()).map(|n| eng.peek_word(NetId(n as u32))).collect());
    }

    // Interpreter: one independent run per lane; every net must agree
    // with the engine lane after every cycle, and toggles must sum to
    // the engine's table.
    let mut ref_toggles = vec![0u64; module.net_count()];
    for (l, stim) in stimulus.iter().enumerate() {
        let mut sim = Simulator::with_lowering(module, &lib, &low).unwrap();
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
                    module.nets[n].name
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
    let mut wide = EngineSim::new_wide(&prog, module, lanes);
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
        let mut eng = BatchSim::new(&prog, module, 64);
        for (c, snap) in snapshots.iter().enumerate() {
            for (pi, &net) in in_nets.iter().enumerate() {
                eng.poke_word(net, word_of(c, pi, wi));
            }
            eng.step();
            for (n, words) in snap.iter().enumerate() {
                assert_eq!(
                    eng.peek_word(NetId(n as u32)),
                    words[wi],
                    "chunk {wi} cycle {c}: net `{}` diverges between widths",
                    module.nets[n].name
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
        let mut sim = Simulator::with_lowering(module, &lib, &low).unwrap();
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
                    module.nets[n].name
                );
            }
        }
    }
}

/// Word-seam differential at the SIMD widths: every backend this host
/// can run (portable `[u64; N]`, AVX2, AVX-512, NEON) must produce
/// bit-identical per-net state snapshots and toggle tables on the paper
/// test chip, at 256 and at 512 lanes. The portable run is additionally
/// re-chunked onto the `u64` backend (chunk toggle tables summing to
/// the wide table), and in the 512-lane arm the lanes at every `u64`
/// seam of the 512-lane word — 255/256/448/511 and friends — are re-run
/// on the interpreter, closing `isa == portable == u64 == interpreter`
/// exactly at the seams.
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

    for lanes in [256usize, 512] {
        let words = lanes / 64;
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
            if !backend.detected() || backend.max_lanes() < lanes {
                continue;
            }
            let (snap, tog, lc) = run(backend);
            assert_eq!(snap, snapshots, "{backend}: state snapshots diverge at {lanes} lanes");
            assert_eq!(tog, toggles, "{backend}: toggle table diverges at {lanes} lanes");
            assert_eq!(lc, lane_cycles, "{backend}: lane cycles diverge at {lanes} lanes");
        }

        // The portable wide run re-chunked on the u64 backend: every
        // net, every cycle, every chunk; chunk toggles sum to the wide
        // table.
        let mut narrow_toggles = vec![0u64; module.net_count()];
        for wi in 0..words {
            let mut eng = BatchSim::new(&prog, module, 64);
            for (c, snap) in snapshots.iter().enumerate() {
                for (pi, &net) in in_nets.iter().enumerate() {
                    eng.poke_word(net, word_of(c, pi, wi));
                }
                eng.step();
                for (n, net_words) in snap.iter().enumerate() {
                    assert_eq!(
                        eng.peek_word(NetId(n as u32)),
                        net_words[wi],
                        "chunk {wi} cycle {c}: net `{}` diverges between widths",
                        module.nets[n].name
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
                let mut sim = Simulator::with_lowering(module, &lib, &low).unwrap();
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
                            module.nets[n].name
                        );
                    }
                }
            }
        }
    }
}

/// Engine-backed SCL characterization must reproduce the seed's
/// (interpreter-backed) energy records within sampling tolerance —
/// delay, area and leakage are computed by the same STA/stats either
/// way and must match exactly.
#[test]
fn engine_backed_scl_reproduces_seed_energy_records() {
    use syndcim_scl::Scl;
    use syndcim_subckt::AdderTreeConfig;

    let mut eng = Scl::new();
    let mut itp = Scl::interpreted();
    let cfg = AdderTreeConfig::default();
    // Tolerance note: both backends now take the same 512-sample
    // stimulus target, but from different random streams and warm-up
    // schedules — large records (trees, columns) land within ~1%, tiny
    // driver chains spread up to ~10%. 15% bounds every record kind.
    for (e, i) in [
        (eng.adder_tree(16, cfg), itp.adder_tree(16, cfg)),
        (eng.adder_tree(64, cfg), itp.adder_tree(64, cfg)),
        (eng.driver(64), itp.driver(64)),
    ] {
        assert_eq!(e.delay_ps, i.delay_ps);
        assert_eq!(e.area_um2, i.area_um2);
        assert_eq!(e.leakage_nw, i.leakage_nw);
        let rel = (e.energy_fj_per_cycle - i.energy_fj_per_cycle).abs() / i.energy_fj_per_cycle;
        assert!(rel < 0.15, "energy off by {:.1}%", rel * 100.0);
    }
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

    let mut sim = BatchSim::new(&prog, module, lanes);
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
    for cycle in 0..total {
        for r in 0..mac.h {
            for (l, sched) in schedules.iter().enumerate() {
                let bit = cycle < pa && sched[cycle as usize][r];
                sim.set_lane(&format!("act[{r}]"), l, bit);
            }
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
            let raw = sim.get_bus_signed_lane(&mac.output_port(g, level, i), width, l);
            let got = raw >> (mac.act_bits - pa);
            let want = DcimChannelTrace::run(acts, wv, pa, pa).output;
            assert_eq!(got, want, "lane {l} channel {ch}");
        }
    }
}
