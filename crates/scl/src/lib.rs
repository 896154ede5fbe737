//! # syndcim-scl — the Subcircuit Library (SCL)
//!
//! §III-B: *"we build a Subcircuit Library that includes PPA lookup
//! tables for subcircuits of various topologies, dimensions, and timing
//! constraints."*
//!
//! Each subcircuit variant is characterized by actually building its
//! netlist and running the sign-off substrates on it: STA for delay,
//! cycle simulation with random vectors for switching energy, netlist
//! statistics for area/leakage. Results are cached in a lookup table
//! keyed by `(topology, dimensions)`; configurations that were never
//! characterized are estimated by scaling from the nearest
//! characterized dimension ("the PPA data for other configurations can
//! be estimated and scaled from synthesis data").
//!
//! Energy characterization runs on the compiled bit-parallel engine by
//! default ([`SclBackend::Engine`]): the subcircuit is compiled once
//! and 256 random stimulus lanes evaluate per pass on the wide
//! (`[u64; 4]`) word, which both cuts `Scl::new()` warm-up by orders of
//! magnitude and tightens the energy estimate (hundreds of samples per
//! record instead of 32). [`Scl::interpreted`] keeps the seed's
//! sequential `Simulator` path as the reference; both backends sample
//! the same stationary random-stimulus distribution, so their records
//! agree within sampling tolerance (pinned by a test below).
//!
//! ```
//! use syndcim_scl::Scl;
//! use syndcim_subckt::AdderTreeConfig;
//!
//! let mut scl = Scl::new();
//! let rec = scl.adder_tree(64, AdderTreeConfig::default());
//! assert!(rec.delay_ps > 0.0 && rec.area_um2 > 0.0);
//! ```

use std::collections::BTreeMap;

use rand::Rng;
use syndcim_engine::{EngineSim, Program};
use syndcim_ir::Lowering;
use syndcim_netlist::{Module, NetId, NetlistBuilder, NetlistStats};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::{CompiledPower, PowerAnalyzer};
use syndcim_sim::vectors::seeded_rng;
use syndcim_sim::{FpFormat, SimBackend, Simulator};
use syndcim_sta::{CompiledSta, Sta, WireLoads};
use syndcim_subckt::{
    build_adder_tree, build_array, build_drivers, build_ofu, build_shift_add, AdderTreeConfig, ArrayConfig,
    BitcellKind, DriverRole, FpRowPorts, MultMuxKind, OfuConfig, ShiftAddConfig, TreeOutput,
};

/// One characterized PPA record (the LUT row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaRecord {
    /// Worst input→output delay at the nominal corner, in ps.
    pub delay_ps: f64,
    /// Total cell area in µm² (pre-placement).
    pub area_um2: f64,
    /// Mean dynamic energy per cycle under random stimulus, in fJ.
    pub energy_fj_per_cycle: f64,
    /// Leakage at the nominal corner, in nW.
    pub leakage_nw: f64,
    /// Sequential element count (registers + bitcells).
    pub seq_cells: usize,
}

/// Lookup key: which subcircuit, which topology, which dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SclKey {
    /// Adder tree reducing `h` partial products.
    Tree {
        /// Number of reduced inputs.
        h: usize,
        /// Tree configuration.
        cfg: AdderTreeConfig,
    },
    /// One array column slice: `h` rows of bitcells + mux + multiplier.
    Column {
        /// Rows.
        h: usize,
        /// Banks.
        mcr: usize,
        /// Bitcell style.
        bitcell: BitcellKind,
        /// Multiplier/mux style.
        multmux: MultMuxKind,
    },
    /// Shift-and-adder.
    ShiftAdd {
        /// Configuration (psum width, serial bits).
        cfg: ShiftAddConfig,
    },
    /// Output fusion unit.
    Ofu {
        /// Configuration.
        cfg: OfuConfig,
    },
    /// FP&INT alignment unit for `h` rows.
    Align {
        /// Rows.
        h: usize,
        /// Exponent bits.
        exp_bits: u32,
        /// Mantissa bits.
        man_bits: u32,
        /// Comparator-tree pipeline register present.
        pipelined: bool,
    },
    /// Driver chain for a given fanout class.
    Driver {
        /// Receiver pin count (bucketed to powers of two).
        fanout: usize,
    },
}

/// Which simulation substrate characterizes switching energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SclBackend {
    /// Compiled wide-word engine: 256 random lanes per pass (default).
    #[default]
    Engine,
    /// Interpreted sequential simulator — the seed's reference path.
    Interpreter,
}

/// The subcircuit library: characterization engine + PPA cache.
///
/// Owns its [`CellLibrary`]; records are characterized lazily on first
/// lookup and cached. `Scl` is `Clone`, so a warm cache can be
/// snapshotted and handed to worker threads (the parallel Pareto search
/// does exactly that) and merged back with [`Scl::absorb`].
#[derive(Debug, Clone)]
pub struct Scl {
    lib: CellLibrary,
    table: BTreeMap<SclKey, PpaRecord>,
    /// Random-stimulus sample target per energy characterization (the
    /// interpreter takes this many sequential cycles; the engine rounds
    /// up to whole wide-word passes, so it takes at least this many).
    /// The seed used 32 — affordable for the sequential interpreter;
    /// the engine makes 512 cheaper than the interpreter's 32, so both
    /// backends now sample the same count and compare like-for-like.
    energy_cycles: u64,
    backend: SclBackend,
}

impl Default for Scl {
    fn default() -> Self {
        Self::new()
    }
}

impl Scl {
    /// Create an empty library over the syn40 process, characterizing
    /// energy on the compiled wide-word engine.
    pub fn new() -> Self {
        Self::with_backend(SclBackend::Engine)
    }

    /// Create an empty library characterizing on the interpreted
    /// reference simulator (the seed's original sequential path).
    pub fn interpreted() -> Self {
        Self::with_backend(SclBackend::Interpreter)
    }

    /// Create an empty library over an explicit backend choice.
    pub fn with_backend(backend: SclBackend) -> Self {
        Scl { lib: CellLibrary::syn40(), table: BTreeMap::new(), energy_cycles: 512, backend }
    }

    /// The characterization backend in use.
    pub fn backend(&self) -> SclBackend {
        self.backend
    }

    /// Merge another library's cached records into this one. Records are
    /// deterministic per `(key, backend)`, so absorbing caches grown
    /// from clones of the same `Scl` (the parallel-search pattern) is
    /// lossless.
    ///
    /// # Panics
    ///
    /// Panics if the two caches were characterized on different
    /// backends — their records sample differently and must not mix.
    pub fn absorb(&mut self, other: Scl) {
        assert_eq!(self.backend, other.backend, "cannot merge caches characterized on different backends");
        self.table.extend(other.table);
    }

    /// The cell library used for characterization.
    pub fn cell_library(&self) -> &CellLibrary {
        &self.lib
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` before anything has been characterized.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Characterized record for an adder tree.
    pub fn adder_tree(&mut self, h: usize, cfg: AdderTreeConfig) -> PpaRecord {
        let key = SclKey::Tree { h, cfg };
        if let Some(r) = self.table.get(&key) {
            return *r;
        }
        let r = characterize_module(&self.lib, self.energy_cycles, self.backend, |b| {
            let ins = b.input_bus("in", h);
            match build_adder_tree(b, &ins, cfg) {
                TreeOutput::Binary(s) => b.output_bus("sum", &s),
                TreeOutput::CarrySave { a, b: bb } => {
                    b.output_bus("csa_a", &a);
                    b.output_bus("csa_b", &bb);
                }
            }
        });
        self.table.insert(key, r);
        r
    }

    /// Characterized record for one array column slice (bitcells, mux,
    /// multiplier for `h` rows). Delay is the activation→product path.
    pub fn column(&mut self, h: usize, mcr: usize, bitcell: BitcellKind, multmux: MultMuxKind) -> PpaRecord {
        let key = SclKey::Column { h, mcr, bitcell, multmux };
        if let Some(r) = self.table.get(&key) {
            return *r;
        }
        let r = characterize_module(&self.lib, self.energy_cycles, self.backend, |b| {
            let act = b.input_bus("act", h);
            let wwl: Vec<Vec<NetId>> = (0..mcr).map(|k| b.input_bus(&format!("wwl{k}"), h)).collect();
            let wbl = b.input_bus("wbl", 1);
            let sel = b.input_bus("sel", mcr.trailing_zeros() as usize);
            let cfg = ArrayConfig { h, w: 1, mcr, bitcell, multmux };
            let out = build_array(b, cfg, &act, &wwl, &wbl, &[sel]);
            b.output_bus("p", &out.products[0]);
        });
        self.table.insert(key, r);
        r
    }

    /// Characterized record for a shift-and-adder.
    pub fn shift_add(&mut self, cfg: ShiftAddConfig) -> PpaRecord {
        let key = SclKey::ShiftAdd { cfg };
        if let Some(r) = self.table.get(&key) {
            return *r;
        }
        let r = characterize_module(&self.lib, self.energy_cycles, self.backend, |b| {
            let psum = b.input_bus("psum", cfg.psum_bits);
            let neg = b.input("neg");
            let clear = b.input("clear");
            let out = build_shift_add(b, cfg, &psum, neg, clear);
            b.output_bus("acc", &out.acc);
        });
        self.table.insert(key, r);
        r
    }

    /// Characterized record for an output fusion unit.
    pub fn ofu(&mut self, cfg: OfuConfig) -> PpaRecord {
        let key = SclKey::Ofu { cfg };
        if let Some(r) = self.table.get(&key) {
            return *r;
        }
        let r = characterize_module(&self.lib, self.energy_cycles, self.backend, |b| {
            let sa: Vec<Vec<NetId>> =
                (0..cfg.w_bits).map(|j| b.input_bus(&format!("sa{j}"), cfg.sa_bits)).collect();
            let prec = b.input_bus("prec", cfg.levels() + 1);
            let out = build_ofu(b, cfg, &sa, &prec);
            for (k, level) in out.levels.iter().enumerate().skip(1) {
                for (i, bus) in level.iter().enumerate() {
                    b.output_bus(&format!("l{k}_{i}"), bus);
                }
            }
        });
        self.table.insert(key, r);
        r
    }

    /// Characterized record for an FP&INT alignment unit.
    pub fn align(&mut self, h: usize, fmt: FpFormat, pipelined: bool) -> PpaRecord {
        let key = SclKey::Align { h, exp_bits: fmt.exp_bits, man_bits: fmt.man_bits, pipelined };
        if let Some(r) = self.table.get(&key) {
            return *r;
        }
        let r = characterize_module(&self.lib, self.energy_cycles, self.backend, |b| {
            let rows: Vec<FpRowPorts> = (0..h)
                .map(|r| FpRowPorts {
                    sign: b.input(format!("s{r}")),
                    exp: b.input_bus(&format!("e{r}"), fmt.exp_bits as usize),
                    man: b.input_bus(&format!("m{r}"), fmt.man_bits as usize),
                })
                .collect();
            let out = syndcim_subckt::build_align_pipelined(b, fmt, &rows, pipelined);
            for (r, bus) in out.aligned.iter().enumerate() {
                b.output_bus(&format!("a{r}"), bus);
            }
        });
        self.table.insert(key, r);
        r
    }

    /// Characterized record for a driver chain into `fanout` pins.
    /// Fanouts are bucketed to the next power of two so the table stays
    /// small.
    pub fn driver(&mut self, fanout: usize) -> PpaRecord {
        let bucket = fanout.next_power_of_two().max(4);
        let key = SclKey::Driver { fanout: bucket };
        if let Some(r) = self.table.get(&key) {
            return *r;
        }
        let r = characterize_module(&self.lib, self.energy_cycles, self.backend, |b| {
            let a = b.input("a");
            let driven = build_drivers(b, DriverRole::WordLine, &[a], bucket)[0];
            // Emulate the fanout load with parallel multiplier pins.
            let w = b.input("w");
            let mut outs = Vec::new();
            for _ in 0..bucket {
                outs.push(b.add(syndcim_pdk::CellKind::MultNor, &[driven, w])[0]);
            }
            b.output("y", outs[0]);
        });
        self.table.insert(key, r);
        r
    }

    /// Estimate a tree record for an uncharacterized height by scaling
    /// from the nearest characterized height with the same topology
    /// (delay ∝ log₂ h, area/energy/leakage ∝ h).
    pub fn adder_tree_estimate(&self, h: usize, cfg: AdderTreeConfig) -> Option<PpaRecord> {
        let nearest = self
            .table
            .iter()
            .filter_map(|(k, r)| match k {
                SclKey::Tree { h: hh, cfg: cc } if *cc == cfg => Some((*hh, *r)),
                _ => None,
            })
            .min_by_key(|(hh, _)| hh.abs_diff(h))?;
        let (h0, r0) = nearest;
        if h0 == h {
            return Some(r0);
        }
        let lin = h as f64 / h0 as f64;
        let log = (h as f64).log2() / (h0 as f64).log2();
        Some(PpaRecord {
            delay_ps: r0.delay_ps * log,
            area_um2: r0.area_um2 * lin,
            energy_fj_per_cycle: r0.energy_fj_per_cycle * lin,
            leakage_nw: r0.leakage_nw * lin,
            seq_cells: r0.seq_cells,
        })
    }
}

/// Lanes one engine-backed characterization pass evaluates at once.
const ENERGY_LANES: usize = 256;

/// Warm-up cycles before the engine's measured window — enough to pull
/// every lane off the all-zero reset state into the stationary
/// random-stimulus distribution before toggles start counting.
const ENERGY_WARMUP_CYCLES: u64 = 4;

/// Characterize one freshly built module: STA for delay, random-vector
/// simulation for energy, stats for area/leakage.
///
/// The netlist is lowered **once** per record — the shared [`Lowering`]
/// feeds the timing analyzer, the compiled simulation program and the
/// power model, where the seed walked the connectivity three separate
/// times (`Sta::new`, `Program::compile`, `PowerAnalyzer::new`) for
/// every record of every characterization sweep. The hoist applies to
/// both backends; what differs per backend is which analyzer consumes
/// the IR (compiled vs reference), never how often the netlist is
/// walked.
fn characterize_module(
    lib: &CellLibrary,
    energy_cycles: u64,
    backend: SclBackend,
    build: impl FnOnce(&mut NetlistBuilder<'_>),
) -> PpaRecord {
    let mut b = NetlistBuilder::new("dut", lib);
    build(&mut b);
    let module: Module = b.finish();

    let stats = NetlistStats::of(&module, lib);
    let low = Lowering::validated(&module, lib).expect("generated subcircuits are well-formed");
    // Delay rides the backend choice like energy does: the engine path
    // compiles the timing program straight from the lowering
    // (bit-identical to the reference walk, pinned by the
    // `backends_agree` test), so the search ladder's timing gates are
    // fed by compiled STA while `Scl::interpreted()` keeps the seed's
    // reference analyzer.
    let delay = match backend {
        SclBackend::Engine => {
            let wires = WireLoads::zero(module.net_count());
            CompiledSta::from_lowering(&low, &module, lib, &wires).analyze(1e9).max_delay_ps
        }
        SclBackend::Interpreter => Sta::with_lowering(&module, lib, low.clone()).analyze(1e9).max_delay_ps,
    };

    let (toggles, lane_cycles) = match backend {
        SclBackend::Engine => engine_energy_activity(lib, &module, &low, energy_cycles),
        SclBackend::Interpreter => interpreter_energy_activity(lib, &module, energy_cycles),
    };
    let op = OperatingPoint::nominal(lib.process());
    // The engine backend completes the compiled trinity (sim + STA +
    // power all compiled from the shared IR); the reference path keeps
    // the seed's module-walking report over the same lowering.
    let report = match backend {
        SclBackend::Engine => {
            CompiledPower::from_lowering(&low, &module, lib, &[]).report(&toggles, lane_cycles, 1000.0, op)
        }
        SclBackend::Interpreter => PowerAnalyzer::from_lowering(&module, lib, &low, &[]).from_activity(
            &toggles,
            lane_cycles,
            1000.0,
            op,
        ),
    };

    PpaRecord {
        delay_ps: delay,
        area_um2: stats.cell_area_um2,
        energy_fj_per_cycle: report.energy_per_cycle_pj * 1000.0,
        leakage_nw: stats.leakage_nw,
        seq_cells: stats.sequential,
    }
}

/// The seed's sequential reference sampler: one interpreted run,
/// `energy_cycles` cycles of fresh random vectors.
fn interpreter_energy_activity(lib: &CellLibrary, module: &Module, energy_cycles: u64) -> (Vec<u64>, u64) {
    let mut sim = Simulator::new(module, lib).expect("generated subcircuits simulate");
    let mut rng = seeded_rng(0xC1A0 ^ module.net_count() as u64);
    let inputs: Vec<String> = module.input_ports().map(|p| p.name.clone()).collect();
    sim.step();
    sim.reset_activity();
    for _ in 0..energy_cycles {
        for name in &inputs {
            let v = rng.gen_bool(0.5);
            sim.set(name, v);
        }
        sim.step();
    }
    (sim.toggle_table().to_vec(), sim.cycles())
}

/// Engine sampler: compile once (from the record's shared [`Lowering`]),
/// then evaluate [`ENERGY_LANES`] independent random-stimulus lanes per
/// pass on the wide word. After a short warm-up the measured window
/// takes at least `energy_cycles` lane-cycle samples (one wide pass
/// already covers 256), so each record averages over far more stimulus
/// than the sequential path at a small fraction of its cost.
fn engine_energy_activity(
    lib: &CellLibrary,
    module: &Module,
    low: &Lowering,
    energy_cycles: u64,
) -> (Vec<u64>, u64) {
    let prog = Program::from_lowering(low, module, lib);
    let mut sim = EngineSim::new(&prog, module, ENERGY_LANES);
    let mut rng = seeded_rng(0xC1A0 ^ module.net_count() as u64);
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();
    let measured = energy_cycles.div_ceil(ENERGY_LANES as u64).max(2);
    for cycle in 0..ENERGY_WARMUP_CYCLES + measured {
        if cycle == ENERGY_WARMUP_CYCLES {
            sim.reset_activity();
        }
        for &net in &in_nets {
            for wi in 0..sim.words() {
                sim.poke_word_at(net, wi, rng.next_u64());
            }
        }
        sim.step();
    }
    (sim.toggle_table().to_vec(), sim.lane_cycles())
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_subckt::AdderTreeKind;

    /// Both characterization backends sample the same stationary
    /// random-stimulus distribution; delay/area/leakage are computed
    /// identically and energy must agree within sampling tolerance.
    #[test]
    fn engine_energy_matches_interpreter_within_tolerance() {
        let mut eng = Scl::new();
        let mut itp = Scl::interpreted();
        assert_eq!(eng.backend(), SclBackend::Engine);
        assert_eq!(itp.backend(), SclBackend::Interpreter);
        let cfg = AdderTreeConfig::default();
        let pairs = [
            (eng.adder_tree(32, cfg), itp.adder_tree(32, cfg)),
            (
                eng.column(16, 2, BitcellKind::Sram6T2T, MultMuxKind::TgNor),
                itp.column(16, 2, BitcellKind::Sram6T2T, MultMuxKind::TgNor),
            ),
            (
                eng.shift_add(ShiftAddConfig { psum_bits: 7, act_bits: 8 }),
                itp.shift_add(ShiftAddConfig { psum_bits: 7, act_bits: 8 }),
            ),
            (eng.driver(16), itp.driver(16)),
        ];
        for (e, i) in pairs {
            assert_eq!(e.delay_ps, i.delay_ps, "delay comes from the same STA");
            assert_eq!(e.area_um2, i.area_um2, "area comes from the same stats");
            assert_eq!(e.leakage_nw, i.leakage_nw);
            assert_eq!(e.seq_cells, i.seq_cells);
            let rel = (e.energy_fj_per_cycle - i.energy_fj_per_cycle).abs() / i.energy_fj_per_cycle;
            assert!(
                rel < 0.15,
                "energy off by {:.1}% (engine {} vs interpreter {})",
                rel * 100.0,
                e.energy_fj_per_cycle,
                i.energy_fj_per_cycle
            );
        }
    }

    /// Cloned caches grown independently merge back losslessly.
    #[test]
    fn clone_and_absorb_merge_caches() {
        let mut base = Scl::new();
        base.driver(8);
        let mut a = base.clone();
        let mut b = base.clone();
        let ra = a.adder_tree(16, AdderTreeConfig::default());
        b.shift_add(ShiftAddConfig { psum_bits: 5, act_bits: 4 });
        b.adder_tree(16, AdderTreeConfig::default()); // duplicated work, identical record
        base.absorb(a);
        base.absorb(b);
        assert_eq!(base.len(), 3);
        assert_eq!(base.adder_tree(16, AdderTreeConfig::default()), ra);
    }

    #[test]
    fn records_are_cached() {
        let mut scl = Scl::new();
        let a = scl.adder_tree(16, AdderTreeConfig::default());
        assert_eq!(scl.len(), 1);
        let b = scl.adder_tree(16, AdderTreeConfig::default());
        assert_eq!(scl.len(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn tree_ppa_scales_with_height() {
        let mut scl = Scl::new();
        let small = scl.adder_tree(16, AdderTreeConfig::default());
        let big = scl.adder_tree(64, AdderTreeConfig::default());
        assert!(big.area_um2 > 2.0 * small.area_um2);
        assert!(big.delay_ps > small.delay_ps);
        assert!(big.energy_fj_per_cycle > small.energy_fj_per_cycle);
    }

    #[test]
    fn column_variants_follow_cell_tradeoffs() {
        let mut scl = Scl::new();
        let pg = scl.column(16, 2, BitcellKind::Sram6T2T, MultMuxKind::PassGate1T);
        let tg = scl.column(16, 2, BitcellKind::Sram6T2T, MultMuxKind::TgNor);
        let fused = scl.column(16, 2, BitcellKind::Sram6T2T, MultMuxKind::Oai22Fused);
        // Pass gate: smallest but slowest; fused: most energy-efficient.
        assert!(pg.area_um2 < tg.area_um2, "pg {} tg {}", pg.area_um2, tg.area_um2);
        assert!(pg.delay_ps > tg.delay_ps, "pg {} tg {}", pg.delay_ps, tg.delay_ps);
        assert!(
            fused.energy_fj_per_cycle < tg.energy_fj_per_cycle,
            "fused {} tg {}",
            fused.energy_fj_per_cycle,
            tg.energy_fj_per_cycle
        );
    }

    #[test]
    fn shift_add_and_ofu_have_registers() {
        let mut scl = Scl::new();
        let sa = scl.shift_add(ShiftAddConfig { psum_bits: 7, act_bits: 8 });
        assert_eq!(sa.seq_cells, 15);
        let ofu = scl.ofu(OfuConfig { w_bits: 4, sa_bits: 10, negate_stage: true, extra_pipeline: true });
        assert!(ofu.seq_cells > 0, "extra pipeline adds registers");
    }

    #[test]
    fn align_grows_with_format() {
        let mut scl = Scl::new();
        let fp8 = scl.align(8, FpFormat::FP8, false);
        let bf16 = scl.align(8, FpFormat::BF16, false);
        assert!(bf16.area_um2 > fp8.area_um2);
        assert!(bf16.delay_ps > fp8.delay_ps);
    }

    #[test]
    fn estimate_interpolates_between_characterized_heights() {
        let mut scl = Scl::new();
        let cfg = AdderTreeConfig::default();
        let r32 = scl.adder_tree(32, cfg);
        let est64 = scl.adder_tree_estimate(64, cfg).unwrap();
        assert!((est64.area_um2 - 2.0 * r32.area_um2).abs() < 1e-9);
        assert!(est64.delay_ps > r32.delay_ps);
        // Exact hits return the measured record.
        let exact = scl.adder_tree_estimate(32, cfg).unwrap();
        assert_eq!(exact, r32);
        // Unknown topology yields None.
        let missing = scl.adder_tree_estimate(
            128,
            AdderTreeConfig { kind: AdderTreeKind::MixedCsa { fa_rounds: 7 }, ..cfg },
        );
        assert!(missing.is_none());
    }

    #[test]
    fn driver_buckets_cover_fanouts() {
        let mut scl = Scl::new();
        let d8 = scl.driver(8);
        let d64 = scl.driver(64);
        assert!(d64.delay_ps > d8.delay_ps * 0.5, "sized chains stay shallow");
        assert!(d64.area_um2 > d8.area_um2);
        // Bucketing: 63 and 64 share one record.
        let before = scl.len();
        scl.driver(63);
        assert_eq!(scl.len(), before);
    }
}
