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
//! keyed by `(topology, dimensions)`, and every lookup characterizes its
//! exact key on first use; scaling a record to a configuration it was
//! not characterized at ("the PPA data for other configurations can be
//! estimated and scaled from synthesis data") is the caller's step, as
//! the search does for columns and aligners taller than 16 rows.
//!
//! Every record is characterized on the compiled trinity, built once
//! from the record's lowering: compiled STA for delay, and the
//! bit-parallel engine for energy. The engine compiles the subcircuit
//! once and evaluates 256 random stimulus lanes per pass on the wide
//! (`[u64; 4]`) word, so each record averages over hundreds of samples
//! at a small cost; the compiled power model turns its toggle tables
//! into energy. Each compiled program is pinned bit-identical to its
//! reference analyzer by the workspace's differential suites.
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
use syndcim_power::CompiledPower;
use syndcim_sim::vectors::seeded_rng;
use syndcim_sim::{FpFormat, SimBackend};
use syndcim_sta::{CompiledSta, WireLoads};
use syndcim_subckt::{
    build_adder_tree, build_array, build_drivers, build_ofu, build_shift_add, AdderTreeConfig, ArrayConfig,
    BitcellKind, DriverRole, FpRowPorts, MultMuxKind, OfuConfig, ShiftAddConfig, TreeOutput,
};
use syndcim_telemetry as telemetry;

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

/// The subcircuit library: characterization engine + PPA cache.
///
/// Owns its [`CellLibrary`] and one table from each [`SclKey`] to its
/// record. Lookups take `&mut self`: the first lookup of a key
/// characterizes it and caches the record, so a key is characterized
/// once however many lookups (and searches) read it.
#[derive(Debug)]
pub struct Scl {
    lib: CellLibrary,
    table: BTreeMap<SclKey, PpaRecord>,
}

impl Default for Scl {
    fn default() -> Self {
        Self::new()
    }
}

impl Scl {
    /// Create an empty library over the syn40 process.
    pub fn new() -> Self {
        Scl { lib: CellLibrary::syn40(), table: BTreeMap::new() }
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

    /// The record cached under `key`, characterized on first lookup
    /// from the netlist `build` makes.
    fn record(&mut self, key: SclKey, build: impl FnOnce(&mut NetlistBuilder<'_>)) -> PpaRecord {
        let lib = &self.lib;
        *self.table.entry(key).or_insert_with(|| {
            telemetry::counter("scl.characterized").incr();
            characterize_module(lib, build)
        })
    }

    /// Characterized record for an adder tree.
    pub fn adder_tree(&mut self, h: usize, cfg: AdderTreeConfig) -> PpaRecord {
        self.record(SclKey::Tree { h, cfg }, |b| {
            let ins = b.input_bus("in", h);
            match build_adder_tree(b, &ins, cfg) {
                TreeOutput::Binary(s) => b.output_bus("sum", &s),
                TreeOutput::CarrySave { a, b: bb } => {
                    b.output_bus("csa_a", &a);
                    b.output_bus("csa_b", &bb);
                }
            }
        })
    }

    /// Characterized record for one array column slice (bitcells, mux,
    /// multiplier for `h` rows). Delay is the activation→product path.
    pub fn column(&mut self, h: usize, mcr: usize, bitcell: BitcellKind, multmux: MultMuxKind) -> PpaRecord {
        self.record(SclKey::Column { h, mcr, bitcell, multmux }, |b| {
            let act = b.input_bus("act", h);
            let wwl: Vec<Vec<NetId>> = (0..mcr).map(|k| b.input_bus(&format!("wwl{k}"), h)).collect();
            let wbl = b.input_bus("wbl", 1);
            let sel = b.input_bus("sel", mcr.trailing_zeros() as usize);
            let cfg = ArrayConfig { h, w: 1, mcr, bitcell, multmux };
            let out = build_array(b, cfg, &act, &wwl, &wbl, &[sel]);
            b.output_bus("p", &out.products[0]);
        })
    }

    /// Characterized record for a shift-and-adder.
    pub fn shift_add(&mut self, cfg: ShiftAddConfig) -> PpaRecord {
        self.record(SclKey::ShiftAdd { cfg }, |b| {
            let psum = b.input_bus("psum", cfg.psum_bits);
            let neg = b.input("neg");
            let clear = b.input("clear");
            let out = build_shift_add(b, cfg, &psum, neg, clear);
            b.output_bus("acc", &out.acc);
        })
    }

    /// Characterized record for an output fusion unit.
    pub fn ofu(&mut self, cfg: OfuConfig) -> PpaRecord {
        self.record(SclKey::Ofu { cfg }, |b| {
            let sa: Vec<Vec<NetId>> =
                (0..cfg.w_bits).map(|j| b.input_bus(&format!("sa{j}"), cfg.sa_bits)).collect();
            let prec = b.input_bus("prec", cfg.levels() + 1);
            let out = build_ofu(b, cfg, &sa, &prec);
            for (k, level) in out.levels.iter().enumerate().skip(1) {
                for (i, bus) in level.iter().enumerate() {
                    b.output_bus(&format!("l{k}_{i}"), bus);
                }
            }
        })
    }

    /// Characterized record for an FP&INT alignment unit.
    pub fn align(&mut self, h: usize, fmt: FpFormat, pipelined: bool) -> PpaRecord {
        self.record(SclKey::Align { h, exp_bits: fmt.exp_bits, man_bits: fmt.man_bits, pipelined }, |b| {
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
        })
    }

    /// Characterized record for a driver chain into `fanout` pins.
    /// Fanouts are bucketed to the next power of two so the table stays
    /// small.
    pub fn driver(&mut self, fanout: usize) -> PpaRecord {
        let bucket = fanout.next_power_of_two().max(4);
        self.record(SclKey::Driver { fanout: bucket }, |b| {
            let a = b.input("a");
            let driven = build_drivers(b, DriverRole::WordLine, &[a], bucket)[0];
            // Emulate the fanout load with parallel multiplier pins.
            let w = b.input("w");
            let mut outs = Vec::new();
            for _ in 0..bucket {
                outs.push(b.add(syndcim_pdk::CellKind::MultNor, &[driven, w])[0]);
            }
            b.output("y", outs[0]);
        })
    }
}

/// Lanes one characterization pass evaluates at once.
const ENERGY_LANES: usize = 256;

/// Random-stimulus lane-cycle samples each energy record takes at
/// least; the engine rounds up to whole wide-word passes.
const ENERGY_CYCLES: u64 = 512;

/// Warm-up cycles before the engine's measured window — enough to pull
/// every lane off the all-zero reset state into the stationary
/// random-stimulus distribution before toggles start counting.
const ENERGY_WARMUP_CYCLES: u64 = 4;

/// Characterize one freshly built module: STA for delay, random-vector
/// simulation for energy, stats for area/leakage.
///
/// The netlist is lowered **once** per record: the shared [`Lowering`]
/// feeds the compiled timing, simulation and power programs.
fn characterize_module(lib: &CellLibrary, build: impl FnOnce(&mut NetlistBuilder<'_>)) -> PpaRecord {
    let mut b = NetlistBuilder::new("dut", lib);
    build(&mut b);
    let module: Module = b.finish();

    let stats = NetlistStats::of(&module, lib);
    let low = Lowering::validated(&module, lib).expect("generated subcircuits are well-formed");
    let wires = WireLoads::zero(module.net_count());
    let delay = CompiledSta::from_lowering(&low, &module, lib, &wires).analyze(1e9).max_delay_ps;

    let (toggles, lane_cycles) = energy_activity(lib, &module, &low);
    let op = OperatingPoint::nominal(lib.process());
    let report =
        CompiledPower::from_lowering(&low, &module, lib, &[]).report(&toggles, lane_cycles, 1000.0, op);

    PpaRecord {
        delay_ps: delay,
        area_um2: stats.cell_area_um2,
        energy_fj_per_cycle: report.energy_per_cycle_pj * 1000.0,
        leakage_nw: stats.leakage_nw,
        seq_cells: stats.sequential,
    }
}

/// Energy sampler: compile once (from the record's shared [`Lowering`]),
/// then evaluate [`ENERGY_LANES`] independent random-stimulus lanes per
/// pass on the wide word. After a short warm-up the measured window
/// takes at least [`ENERGY_CYCLES`] lane-cycle samples (one wide pass
/// already covers 256).
fn energy_activity(lib: &CellLibrary, module: &Module, low: &Lowering) -> (Vec<u64>, u64) {
    let prog = Program::from_lowering(low, module, lib);
    let mut sim = EngineSim::new(&prog, module, ENERGY_LANES);
    let mut rng = seeded_rng(0xC1A0 ^ module.net_count() as u64);
    let in_nets: Vec<NetId> = module.input_ports().map(|p| p.net).collect();
    let measured = ENERGY_CYCLES.div_ceil(ENERGY_LANES as u64).max(2);
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
