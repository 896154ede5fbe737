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
//! let scl = Scl::new();
//! let rec = scl.adder_tree(64, AdderTreeConfig::default());
//! assert!(rec.delay_ps > 0.0 && rec.area_um2 > 0.0);
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

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
/// Owns its [`CellLibrary`]; records are characterized lazily on first
/// lookup and cached. Lookups take `&self`, so one `Scl` is shared by
/// every worker of the parallel Pareto search: each key owns a
/// once-cell, the first caller of a key characterizes it with the table
/// unlocked, and concurrent callers of the same key wait for that
/// record instead of characterizing it again.
#[derive(Debug)]
pub struct Scl {
    lib: CellLibrary,
    table: RwLock<BTreeMap<SclKey, Arc<OnceLock<PpaRecord>>>>,
}

impl Default for Scl {
    fn default() -> Self {
        Self::new()
    }
}

impl Scl {
    /// Create an empty library over the syn40 process.
    pub fn new() -> Self {
        Scl { lib: CellLibrary::syn40(), table: RwLock::new(BTreeMap::new()) }
    }

    /// The cell library used for characterization.
    pub fn cell_library(&self) -> &CellLibrary {
        &self.lib
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.records().len()
    }

    /// `true` before anything has been characterized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every characterized record, in key order (a key still being
    /// characterized is left out).
    fn records(&self) -> Vec<(SclKey, PpaRecord)> {
        let table = self.table.read().expect("SCL table poisoned");
        table.iter().filter_map(|(k, cell)| cell.get().map(|r| (*k, *r))).collect()
    }

    /// The record cached under `key`, characterized on first lookup
    /// from the netlist `build` makes. A cached record is read under the
    /// shared lock, since the search's workers look records up thousands
    /// of times; a miss takes the exclusive lock only to find the key's
    /// once-cell, and characterization runs outside the lock.
    fn record(&self, key: SclKey, build: impl FnOnce(&mut NetlistBuilder<'_>)) -> PpaRecord {
        if let Some(r) = self.table.read().expect("SCL table poisoned").get(&key).and_then(|c| c.get()) {
            return *r;
        }
        let cell = Arc::clone(self.table.write().expect("SCL table poisoned").entry(key).or_default());
        *cell.get_or_init(|| {
            telemetry::counter("scl.characterized").incr();
            characterize_module(&self.lib, build)
        })
    }

    /// Characterized record for an adder tree.
    pub fn adder_tree(&self, h: usize, cfg: AdderTreeConfig) -> PpaRecord {
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
    pub fn column(&self, h: usize, mcr: usize, bitcell: BitcellKind, multmux: MultMuxKind) -> PpaRecord {
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
    pub fn shift_add(&self, cfg: ShiftAddConfig) -> PpaRecord {
        self.record(SclKey::ShiftAdd { cfg }, |b| {
            let psum = b.input_bus("psum", cfg.psum_bits);
            let neg = b.input("neg");
            let clear = b.input("clear");
            let out = build_shift_add(b, cfg, &psum, neg, clear);
            b.output_bus("acc", &out.acc);
        })
    }

    /// Characterized record for an output fusion unit.
    pub fn ofu(&self, cfg: OfuConfig) -> PpaRecord {
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
    pub fn align(&self, h: usize, fmt: FpFormat, pipelined: bool) -> PpaRecord {
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
    pub fn driver(&self, fanout: usize) -> PpaRecord {
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

    /// Estimate a tree record for an uncharacterized height by scaling
    /// from the nearest characterized height with the same topology
    /// (delay ∝ log₂ h, area/energy/leakage ∝ h).
    pub fn adder_tree_estimate(&self, h: usize, cfg: AdderTreeConfig) -> Option<PpaRecord> {
        let nearest = self
            .records()
            .into_iter()
            .filter_map(|(k, r)| match k {
                SclKey::Tree { h: hh, cfg: cc } if cc == cfg => Some((hh, r)),
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use syndcim_subckt::AdderTreeKind;

    /// The record bits, field by field.
    fn bits(r: &PpaRecord) -> [u64; 5] {
        let [d, a, e, l] = [r.delay_ps, r.area_um2, r.energy_fj_per_cycle, r.leakage_nw].map(f64::to_bits);
        [d, a, e, l, r.seq_cells as u64]
    }

    /// A 16-input tree with a final CPA.
    fn tree16(b: &mut NetlistBuilder<'_>) {
        let ins = b.input_bus("in", 16);
        match build_adder_tree(b, &ins, AdderTreeConfig::default()) {
            TreeOutput::Binary(s) => b.output_bus("sum", &s),
            TreeOutput::CarrySave { .. } => unreachable!("a final CPA sums to binary"),
        }
    }

    /// One `&Scl` shared by racing threads characterizes a key once:
    /// 8 scoped threads released together look one key up, its build
    /// runs once, and every thread reads the bits a lookup on a fresh
    /// library reads.
    #[test]
    fn concurrent_lookups_characterize_a_key_once() {
        let key = SclKey::Tree { h: 16, cfg: AdderTreeConfig::default() };
        let scl = Scl::new();
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let records: Vec<PpaRecord> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        scl.record(key, |b| {
                            builds.fetch_add(1, Ordering::Relaxed);
                            tree16(b);
                        })
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("lookup thread panicked")).collect()
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "one build for 8 lookups");
        assert_eq!(scl.len(), 1);
        let fresh = bits(&Scl::new().record(key, tree16));
        for r in &records {
            assert_eq!(bits(r), fresh);
        }
    }

    #[test]
    fn records_are_cached() {
        let scl = Scl::new();
        let a = scl.adder_tree(16, AdderTreeConfig::default());
        assert_eq!(scl.len(), 1);
        let b = scl.adder_tree(16, AdderTreeConfig::default());
        assert_eq!(scl.len(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn tree_ppa_scales_with_height() {
        let scl = Scl::new();
        let small = scl.adder_tree(16, AdderTreeConfig::default());
        let big = scl.adder_tree(64, AdderTreeConfig::default());
        assert!(big.area_um2 > 2.0 * small.area_um2);
        assert!(big.delay_ps > small.delay_ps);
        assert!(big.energy_fj_per_cycle > small.energy_fj_per_cycle);
    }

    #[test]
    fn column_variants_follow_cell_tradeoffs() {
        let scl = Scl::new();
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
        let scl = Scl::new();
        let sa = scl.shift_add(ShiftAddConfig { psum_bits: 7, act_bits: 8 });
        assert_eq!(sa.seq_cells, 15);
        let ofu = scl.ofu(OfuConfig { w_bits: 4, sa_bits: 10, negate_stage: true, extra_pipeline: true });
        assert!(ofu.seq_cells > 0, "extra pipeline adds registers");
    }

    #[test]
    fn align_grows_with_format() {
        let scl = Scl::new();
        let fp8 = scl.align(8, FpFormat::FP8, false);
        let bf16 = scl.align(8, FpFormat::BF16, false);
        assert!(bf16.area_um2 > fp8.area_um2);
        assert!(bf16.delay_ps > fp8.delay_ps);
    }

    #[test]
    fn estimate_interpolates_between_characterized_heights() {
        let scl = Scl::new();
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
        let scl = Scl::new();
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
