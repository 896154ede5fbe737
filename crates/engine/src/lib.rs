//! # syndcim-engine — compiled bit-parallel simulation
//!
//! The interpreted `syndcim_sim::Simulator` walks the netlist
//! instance-by-instance, one vector at a time — fine as a reference,
//! but it is the hot path of every `eval`, shmoo and Pareto-search
//! iteration. This crate compiles a validated module once into a flat
//! program and then evaluates **up to 512 test vectors per pass**:
//!
//! * [`Program::compile`] — levelizes the combinational instances and
//!   maps every cell to one op over its net slots (the half adder to an
//!   XOR and an AND): an op reads its input nets once and writes its
//!   output nets, so no op needs a scratch slot. Sequential cells
//!   become per-cycle commit records. [`Program::from_lowering`]
//!   compiles from the shared `syndcim_ir::Lowering` the compiled
//!   timing and power programs consume too, so every fast path walks
//!   the netlist exactly once and agrees on slot assignment;
//! * [`BatchExec`] — executes the op stream on [`LaneWord`]s (one bit
//!   per lane), accumulating per-net toggles as `popcount(prev ^ next)`
//!   so `syndcim_power` consumes its activity unchanged. Its passes are
//!   activity-driven: every net carries a "changed since the last
//!   settle" and a "changed since the last capture" flag, a settle
//!   evaluates only ops with a changed input or output net, and a
//!   clock edge recaptures only state elements with a changed `in0`,
//!   `in1` or `q` — exactly, because a skipped op or element would
//!   store what it already holds ([`exec`] has the argument). Nothing
//!   is skipped while a fault plan is installed. The words are
//!   the 64-lane `u64`, the 256-lane `[u64; 4]` [`W256`] and the
//!   512-lane `[u64; 8]` [`W512`]; [`EngineSim`] auto-selects the
//!   narrowest that fits a requested lane count and runs its passes in
//!   the widest vector-ISA frame the CPU has ([`SimdBackend`]).
//!   `syndcim_ir::parallel_map` scales beyond one word across cores
//!   (one executor per worker, all sharing one compiled [`Program`]).
//!
//! Both backends implement [`syndcim_sim::SimBackend`]; the interpreter
//! remains the bit-exact reference the engine is differentially tested
//! against (same outputs, same per-net toggle counts). The `.scim`
//! codec ([`artifact`]) stores the ops themselves: one kind tag per op
//! and one pin stream.
//!
//! ```
//! use syndcim_engine::{EngineSim, Program};
//! use syndcim_netlist::NetlistBuilder;
//! use syndcim_pdk::CellLibrary;
//! use syndcim_sim::SimBackend;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = CellLibrary::syn40();
//! let mut b = NetlistBuilder::new("fa", &lib);
//! let (a, c, ci) = (b.input("a"), b.input("b"), b.input("cin"));
//! let (s, co) = b.fa(a, c, ci);
//! b.output("s", s);
//! b.output("co", co);
//! let m = b.finish();
//!
//! let prog = Program::compile(&m, &lib)?;
//! let mut sim = EngineSim::new(&prog, &m, 8); // 8 vectors at once
//! // Lane v simulates input pattern v: {a, b, cin} as a 3-bit bus.
//! let ins = [sim.net_of("a"), sim.net_of("b"), sim.net_of("cin")];
//! sim.drive_bus(&ins, &(0..8).collect::<Vec<i64>>());
//! sim.settle();
//! // {s, co} read as a 2-bit bus is a + b + cin (masked: reads sign-extend).
//! let sums = sim.read_bus(&[sim.net_of("s"), sim.net_of("co")]);
//! for (v, sum) in sums.iter().enumerate() {
//!     assert_eq!(sum & 0b11, v.count_ones() as i64);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod compile;
pub mod exec;
pub mod fault;
pub mod program;
pub mod simd;
pub mod word;

pub use exec::{BatchExec, EngineSim, LaneImage};
pub use fault::{EngineError, Fault, FaultKind, FaultPlan};
pub use program::Program;
pub use simd::{SimdBackend, SimdPolicy};
pub use word::{LaneWord, W256, W512};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use syndcim_ir::Lowering;
    use syndcim_netlist::{NetId, NetlistBuilder};
    use syndcim_pdk::{CellKind, CellLibrary};
    use syndcim_sim::vectors::seeded_rng;
    use syndcim_sim::{SimBackend, Simulator};

    /// A mixed circuit exercising every op lowering plus all three
    /// sequential update rules.
    fn mixed_module(lib: &CellLibrary) -> syndcim_netlist::Module {
        let mut b = NetlistBuilder::new("mix", lib);
        let ins: Vec<NetId> = (0..6).map(|i| b.input(format!("in[{i}]"))).collect();
        let mut nodes = Vec::new();
        for cell in lib.cells() {
            if cell.is_sequential() || cell.function.input_count() == 0 {
                continue;
            }
            let n = cell.function.input_count();
            nodes.extend(b.add(cell.kind, &ins[..n]));
        }
        let tie0 = b.const0();
        let tie1 = b.const1();
        nodes.push(b.xor2(tie0, tie1));
        // Reduce all nodes with a chain of XORs to keep them all live.
        let mut acc = nodes[0];
        for &n in &nodes[1..] {
            acc = b.xor2(acc, n);
        }
        let q0 = b.dff(acc);
        let q1 = b.dffe(acc, ins[5]);
        let rbl = b.add(CellKind::Sram6T2T, &[ins[4], acc])[0];
        let merged = b.xor2(q0, q1);
        let merged = b.xor2(merged, rbl);
        b.output("y", merged);
        b.finish()
    }

    /// Engine lanes must match independent interpreter runs bit-for-bit,
    /// including every per-net toggle count.
    #[test]
    fn differential_vs_interpreter_on_mixed_logic() {
        let lib = CellLibrary::syn40();
        let m = mixed_module(&lib);
        // One lowering feeds the compiled program and every reference
        // interpreter instance (no per-lane connectivity walk).
        let low = Lowering::validated(&m, &lib).unwrap();
        let prog = Program::from_lowering(&low, &m, &lib);
        let lanes = 13; // deliberately not a power of two
        let cycles = 40;

        // Per-lane random stimulus, seeded per lane.
        let stimulus: Vec<Vec<[bool; 6]>> = (0..lanes)
            .map(|l| {
                let mut rng = seeded_rng(0xD1FF + l as u64);
                (0..cycles).map(|_| std::array::from_fn(|_| rng.gen_bool(0.5))).collect()
            })
            .collect();

        let in_nets: Vec<NetId> = (0..6).map(|i| m.port(&format!("in[{i}]")).unwrap().net).collect();
        let y_net = m.port("y").unwrap().net;

        // Engine: all lanes at once.
        let mut eng = EngineSim::new(&prog, &m, lanes);
        let mut eng_outputs = vec![Vec::new(); lanes];
        for c in 0..cycles {
            for (i, &net) in in_nets.iter().enumerate() {
                let mut word = 0u64;
                for (l, stim) in stimulus.iter().enumerate() {
                    word |= (stim[c][i] as u64) << l;
                }
                eng.poke_word_at(net, 0, word);
            }
            eng.step();
            let w = eng.peek_word_at(y_net, 0);
            for (l, out) in eng_outputs.iter_mut().enumerate() {
                out.push((w >> l) & 1 == 1);
            }
        }

        // Interpreter: one run per lane; toggles summed.
        let mut ref_toggles = vec![0u64; m.net_count()];
        for (l, stim) in stimulus.iter().enumerate() {
            let mut sim = Simulator::with_lowering(&m, &lib, &low);
            for (c, vec6) in stim.iter().enumerate() {
                for (i, &net) in in_nets.iter().enumerate() {
                    sim.poke(net, vec6[i]);
                }
                Simulator::step(&mut sim);
                assert_eq!(sim.peek(y_net), eng_outputs[l][c], "lane {l} cycle {c}");
            }
            for (t, s) in ref_toggles.iter_mut().zip(sim.toggle_table()) {
                *t += s;
            }
        }
        assert_eq!(eng.toggle_table(), &ref_toggles[..], "per-net toggle counts must be bit-identical");
        assert_eq!(eng.lane_cycles(), lanes as u64 * cycles as u64);
    }

    /// force_state and reset_activity mirror the interpreter.
    #[test]
    fn force_state_matches_interpreter() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("cellrw", &lib);
        let wwl = b.input("wwl");
        let wbl = b.input("wbl");
        let rbl = b.add(CellKind::Sram6T2T, &[wwl, wbl])[0];
        b.output("rbl", rbl);
        let m = b.finish();
        let prog = Program::compile(&m, &lib).unwrap();
        let mut eng = EngineSim::new(&prog, &m, 2);
        let inst = syndcim_netlist::InstId(0);
        eng.force_state_word_at(inst, 0, 0b01);
        assert!(eng.state_of_lane(inst, 0));
        assert!(!eng.state_of_lane(inst, 1));
        eng.settle();
        // A 1-bit bus reads a high lane as −1.
        assert_eq!(eng.read_bus(&[eng.net_of("rbl")]), vec![-1, 0]);
        eng.reset_activity();
        assert_eq!(eng.lane_cycles(), 0);
        assert!(eng.toggle_table().iter().all(|&t| t == 0));
    }

    /// The 256-lane wide word must match per-lane interpreter runs on
    /// every net, every cycle, every lane — including per-net aggregate
    /// AND per-lane toggle tables — exactly like the `u64` backend.
    #[test]
    fn wide_backend_matches_interpreter_lane_for_lane() {
        let lib = CellLibrary::syn40();
        let m = mixed_module(&lib);
        let low = Lowering::validated(&m, &lib).unwrap();
        let prog = Program::from_lowering(&low, &m, &lib);
        let lanes = 150; // spans three 64-lane chunks, partial last chunk
        let cycles = 12;

        let stimulus: Vec<Vec<[bool; 6]>> = (0..lanes)
            .map(|l| {
                let mut rng = seeded_rng(0x256 + l as u64);
                (0..cycles).map(|_| std::array::from_fn(|_| rng.gen_bool(0.5))).collect()
            })
            .collect();
        let in_nets: Vec<NetId> = (0..6).map(|i| m.port(&format!("in[{i}]")).unwrap().net).collect();

        // Pin the portable backend: this test is about width semantics;
        // the ISA frames get the same treatment in the workspace
        // differential suites.
        let mut eng = EngineSim::with_backend(&prog, &m, lanes, SimdBackend::Portable).unwrap();
        assert!(matches!(eng, EngineSim::Wide(_)), "65..=256 lanes must select the 256-lane word");
        eng.enable_lane_toggles();
        let mut snapshots: Vec<Vec<Vec<u64>>> = Vec::new(); // [cycle][net][word]
        for c in 0..cycles {
            for (i, &net) in in_nets.iter().enumerate() {
                for wi in 0..eng.words() {
                    let mut word = 0u64;
                    for (l, stim) in stimulus.iter().enumerate().skip(wi * 64).take(64) {
                        word |= (stim[c][i] as u64) << (l - wi * 64);
                    }
                    eng.poke_word_at(net, wi, word);
                }
            }
            eng.step();
            snapshots.push(
                (0..m.net_count())
                    .map(|n| (0..eng.words()).map(|wi| eng.peek_word_at(NetId(n as u32), wi)).collect())
                    .collect(),
            );
        }

        let mut ref_toggles = vec![0u64; m.net_count()];
        for (l, stim) in stimulus.iter().enumerate() {
            let mut sim = Simulator::with_lowering(&m, &lib, &low);
            for (c, vec6) in stim.iter().enumerate() {
                for (i, &net) in in_nets.iter().enumerate() {
                    sim.poke(net, vec6[i]);
                }
                Simulator::step(&mut sim);
                for (n, words) in snapshots[c].iter().enumerate() {
                    let word = words[l / 64];
                    assert_eq!(
                        sim.peek(NetId(n as u32)),
                        (word >> (l % 64)) & 1 == 1,
                        "lane {l} cycle {c} net {n}"
                    );
                }
            }
            assert_eq!(
                eng.lane_toggle_table(l).expect("lane toggles enabled").as_slice(),
                sim.toggle_table(),
                "lane {l}: per-lane toggle table must equal its interpreter run"
            );
            for (t, s) in ref_toggles.iter_mut().zip(sim.toggle_table()) {
                *t += s;
            }
        }
        assert_eq!(eng.toggle_table(), &ref_toggles[..], "aggregate toggles must sum the lanes");
        assert_eq!(eng.lane_cycles(), lanes as u64 * cycles as u64);
    }

    /// EngineSim picks the narrowest word that fits.
    #[test]
    fn engine_sim_selects_word_width() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("inv", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let prog = Program::compile(&m, &lib).unwrap();
        // ≤64 lanes always ride the scalar u64 word, whatever the ISA.
        assert!(matches!(EngineSim::new(&prog, &m, 64), EngineSim::Narrow(_)));
        let portable = SimdBackend::Portable;
        assert!(matches!(EngineSim::with_backend(&prog, &m, 65, portable).unwrap(), EngineSim::Wide(_)));
        assert!(matches!(EngineSim::with_backend(&prog, &m, 257, portable).unwrap(), EngineSim::Wide512(_)));
        let narrow = EngineSim::new(&prog, &m, 64);
        let wide = EngineSim::new(&prog, &m, 65);
        let widest = EngineSim::new(&prog, &m, 300);
        assert_eq!(narrow.words(), 1);
        assert_eq!(wide.words(), 2);
        assert_eq!(widest.words(), 5);
        assert_eq!(narrow.simd_backend(), SimdBackend::Portable);
        // Auto selection honours word capacity whatever the host ISA.
        assert_eq!(wide.word_lanes(), 256);
        assert_eq!(widest.word_lanes(), 512);
        assert_eq!(EngineSim::MAX_LANES, 512);
    }

    /// Every frame this host supports must run the mixed circuit
    /// bit-identically to the same portable word outside any frame —
    /// states, aggregate toggles, lane cycles — on a full W256, a
    /// ragged W512 and a full W512.
    #[test]
    fn every_detected_backend_matches_portable() {
        let lib = CellLibrary::syn40();
        let m = mixed_module(&lib);
        let prog = Program::compile(&m, &lib).unwrap();
        let in_nets: Vec<NetId> = (0..6).map(|i| m.port(&format!("in[{i}]")).unwrap().net).collect();
        let cycles = 8;
        let detected = [SimdBackend::Avx2, SimdBackend::Avx512].into_iter().filter(|b| b.detected());
        for (backend, lanes) in detected.flat_map(|b| [(b, 256), (b, 300), (b, 512)]) {
            let mut gold = EngineSim::with_backend(&prog, &m, lanes, SimdBackend::Portable).unwrap();
            let mut isa = EngineSim::with_backend(&prog, &m, lanes, backend).unwrap();
            assert_eq!(isa.simd_backend(), backend);
            let mut rng = seeded_rng(0x51D * lanes as u64);
            for _ in 0..cycles {
                for &net in &in_nets {
                    for wi in 0..lanes.div_ceil(64) {
                        let word = rng.next_u64();
                        gold.poke_word_at(net, wi, word);
                        isa.poke_word_at(net, wi, word);
                    }
                }
                gold.step();
                isa.step();
                for n in 0..m.net_count() {
                    for wi in 0..lanes.div_ceil(64) {
                        assert_eq!(
                            isa.peek_word_at(NetId(n as u32), wi),
                            gold.peek_word_at(NetId(n as u32), wi),
                            "{backend} at {lanes} lanes: net {n} word {wi}"
                        );
                    }
                }
            }
            assert_eq!(isa.toggle_table(), gold.toggle_table(), "{backend} at {lanes} lanes: toggle tables");
            assert_eq!(isa.lane_cycles(), gold.lane_cycles());
        }
    }

    /// Bad `SYNDCIM_SIMD` pins are typed errors from construction, and
    /// explicit backend requests the CPU cannot honour fail the same
    /// way — never a silent portable fallback.
    #[test]
    fn simd_selection_errors_are_typed() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("inv", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let prog = Program::compile(&m, &lib).unwrap();
        assert!(matches!(EngineSim::try_new(&prog, &m, 0), Err(EngineError::ZeroLanes)));
        assert!(matches!(
            EngineSim::try_new(&prog, &m, 513),
            Err(EngineError::SimdLaneCap { lanes: 513, max: 512, .. })
        ));
        for backend in [SimdBackend::Portable, SimdBackend::Avx2, SimdBackend::Avx512] {
            if backend.detected() {
                assert_eq!(
                    EngineSim::with_backend(&prog, &m, 513, backend).unwrap_err(),
                    EngineError::SimdLaneCap { backend, lanes: 513, max: 512 }
                );
                // Every frame carries the 512-lane word.
                let sim = EngineSim::with_backend(&prog, &m, 300, backend).unwrap();
                assert_eq!((sim.simd_backend(), sim.word_lanes()), (backend, 512));
            } else {
                assert!(matches!(
                    EngineSim::with_backend(&prog, &m, 100, backend),
                    Err(EngineError::SimdUnsupported { backend: b }) if b == backend
                ));
            }
        }
    }

    /// The dirty-set drive path skips unchanged words without altering
    /// toggle accounting.
    #[test]
    fn drive_word_at_is_toggle_identical_to_poke() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("buf", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let a_net = m.port("a").unwrap().net;
        let prog = Program::compile(&m, &lib).unwrap();
        let mut poked = EngineSim::new(&prog, &m, 64);
        let mut driven = EngineSim::new(&prog, &m, 64);
        let words = [0xDEAD, 0xDEAD, 0, 0, 0xBEEF];
        for &w in &words {
            poked.poke_word_at(a_net, 0, w);
            poked.settle();
            driven.drive_word_at(a_net, 0, w);
            driven.settle();
        }
        assert_eq!(poked.toggle_table(), driven.toggle_table());
        assert_eq!(poked.peek_word_at(a_net, 0), driven.peek_word_at(a_net, 0));
    }

    /// Deactivated lanes stop contributing toggles.
    #[test]
    fn lane_mask_controls_toggle_accounting() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("inv", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let y_net = m.port("y").unwrap().net;
        let a_net = m.port("a").unwrap().net;
        let prog = Program::compile(&m, &lib).unwrap();
        let mut eng = EngineSim::new(&prog, &m, 64);
        eng.settle(); // y rises in all 64 lanes
        assert_eq!(eng.toggle_table()[y_net.index()], 64);
        eng.set_lanes(4).unwrap();
        eng.poke_word_at(a_net, 0, !0); // flips a (and y) in every lane, 4 active
        eng.settle();
        assert_eq!(eng.toggle_table()[a_net.index()], 4);
        assert_eq!(eng.toggle_table()[y_net.index()], 64 + 4);
    }
}
