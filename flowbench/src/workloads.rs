//! The three workloads: their seeded inputs, set-up, one op, and the
//! once-per-run quality-of-result and reference-oracle checks.
//!
//! | workload          | one op                                                           |
//! |-------------------|------------------------------------------------------------------|
//! | `scale_implement` | `implement` of the 256×256 scale tier, then `fmax_mhz(0.9 V)`    |
//! | `paper_flow`      | fresh `Scl` → `search` → `implement(best)` → `fmax_mhz(0.7 V)` → Table II `measure_int` |
//! | `paper_signoff`   | on one implemented paper chip: `measure_int` (4,396 passes), `shmoo_with_power` (13 V × 40 f), `fmax_distribution` (2,048 dies) |

use std::error::Error;

use syndcim_core::{
    implement, measure_int, search, shmoo_with_power, shmoo_with_power_on, DesignChoice, ImplementedMacro,
    MacMeasurement, MacroSpec, PowerBackend, PowerShmoo, StaBackend,
};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_scl::Scl;
use syndcim_sim::vectors::{ints_with_bit_density, seeded_rng, sparse_ints};
use syndcim_sta::{Sta, VariationModel, WireLoads};

use crate::digest::{timing_identical, Digest};

/// Every error a public call can return, boxed.
pub type BenchResult<T> = Result<T, Box<dyn Error>>;

/// Table II measurement precision (INT4 activations and weights).
pub const TABLE2_PA: u32 = 4;
/// Table II supply.
pub const TABLE2_VDD: f64 = 0.7;
/// Table II input bit density.
pub const INPUT_BIT_DENSITY: f64 = 0.125;
/// Table II weight sparsity.
pub const WEIGHT_SPARSITY: f64 = 0.5;
/// Supply of the reported `fmax_mhz` (and of the scale op's query).
pub const QOR_VDD: f64 = 0.9;
/// Gate-delay spread of the sign-off die population.
pub const DIE_SIGMA: f64 = 0.05;
/// Salt separating the die-scale stream from the stimulus stream.
const DIE_SEED_SALT: u64 = 0xD1E5_5EED;

/// Shorthand for a corner at `vdd` and 25 °C.
fn at(vdd: f64) -> OperatingPoint {
    OperatingPoint::at_voltage(vdd)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scale-tier `implement`: the compile ("write") side at 426,924 nets.
    ScaleImplement,
    /// The paper's designer loop, from spec to a Table II measurement.
    PaperFlow,
    /// Sign-off queries ("read" side) on one implemented paper chip.
    PaperSignoff,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::ScaleImplement, Workload::PaperFlow, Workload::PaperSignoff];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleImplement => "scale_implement",
            Workload::PaperFlow => "paper_flow",
            Workload::PaperSignoff => "paper_signoff",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the full benchmark, or quick mode's small specs.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `scale_implement`'s spec.
    pub scale: MacroSpec,
    /// The paper-chip spec of `paper_flow` and `paper_signoff`.
    pub paper: MacroSpec,
    /// `measure_int` passes of `paper_flow` (and of the scale-tier QoR
    /// measurement): one full 512-lane word.
    pub flow_passes: usize,
    /// `measure_int` passes of `paper_signoff`: eight full words plus a
    /// ragged 300-lane tail.
    pub signoff_passes: usize,
    /// INT4 passes behind the power shmoo's activity.
    pub shmoo_passes: usize,
    /// Shmoo supply axis.
    pub voltages: Vec<f64>,
    /// Shmoo frequency axis.
    pub freqs_mhz: Vec<f64>,
    /// Dies in the sign-off `fmax` distribution.
    pub dies: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Traced replays per traced run (per-layer values are medians).
    pub trace_reps: usize,
    /// Fewest timed ops per run, whatever `--seconds` says: eleven keep
    /// ten ops beyond the tail percentile.
    pub min_ops: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Sizes {
            scale: MacroSpec {
                h: 256,
                w: 256,
                mcr: 2,
                int_precisions: vec![1, 2, 4, 8],
                fp_precisions: vec![],
                f_mac_mhz: 500.0,
                f_wu_mhz: 500.0,
                vdd_v: 0.9,
                ppa: Default::default(),
            },
            paper: MacroSpec::paper_test_chip(),
            flow_passes: 512,
            signoff_passes: 8 * 512 + 300,
            shmoo_passes: 256,
            voltages: (0..13).map(|i| 0.60 + 0.05 * f64::from(i)).collect(),
            freqs_mhz: (1..=40).map(|i| 50.0 * f64::from(i)).collect(),
            dies: 2048,
            setup_reps: 3,
            trace_reps: 3,
            min_ops: 11,
        }
    }

    /// Quick mode: every op and check on small specs, in seconds.
    pub fn quick() -> Self {
        let mut paper = MacroSpec::paper_test_chip();
        paper.h = 16;
        paper.w = 16;
        Sizes {
            scale: MacroSpec { h: 32, w: 32, ..Self::full().scale },
            paper,
            flow_passes: 64,
            signoff_passes: 100,
            shmoo_passes: 16,
            voltages: vec![0.6, 0.8, 1.0, 1.2],
            freqs_mhz: vec![200.0, 400.0, 600.0, 800.0, 1000.0],
            dies: 64,
            setup_reps: 1,
            trace_reps: 1,
            min_ops: 11,
        }
    }
}

/// Seeded stimulus with Table II statistics. The program receives only
/// these vectors; `scale_implement`'s op takes none and is seed-invariant.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// One INT4 weight vector per output channel (50 % zeros).
    pub weights: Vec<Vec<i64>>,
    /// `measure_int` activation passes (12.5 % bit density).
    pub passes: Vec<Vec<i64>>,
    /// Activation passes behind the power shmoo.
    pub shmoo_passes: Vec<Vec<i64>>,
    /// Per-die gate-delay multipliers.
    pub die_scales: Vec<f64>,
}

impl Inputs {
    /// Generate every stimulus of one run from `seed`.
    pub fn generate(seed: u64, spec: &MacroSpec, passes: usize, sizes: &Sizes) -> Self {
        let mut rng = seeded_rng(seed);
        let channels = spec.w / TABLE2_PA as usize;
        let weights =
            (0..channels).map(|_| sparse_ints(&mut rng, spec.h, TABLE2_PA, WEIGHT_SPARSITY)).collect();
        let mut acts = |n: usize| -> Vec<Vec<i64>> {
            (0..n).map(|_| ints_with_bit_density(&mut rng, spec.h, TABLE2_PA, INPUT_BIT_DENSITY)).collect()
        };
        let passes = acts(passes);
        let shmoo_passes = acts(sizes.shmoo_passes);
        let die_scales = VariationModel::gaussian(DIE_SIGMA).sample(seed ^ DIE_SEED_SALT, sizes.dies);
        Inputs { weights, passes, shmoo_passes, die_scales }
    }
}

/// The paper chip `paper_signoff` queries, implemented once at set-up.
#[derive(Debug)]
pub struct SignoffMacro {
    /// The implemented macro.
    pub im: ImplementedMacro,
    /// Table II clock: `floor(fmax_mhz(0.7 V))`.
    pub f_mhz: f64,
    /// Seed-invariant digest of the macro (with its design label).
    pub design: u64,
}

/// Everything one op produced.
#[derive(Debug, Default)]
pub struct OpOutput {
    /// The implemented macro (`scale_implement`, `paper_flow`).
    pub im: Option<ImplementedMacro>,
    /// The chosen design's label (`paper_flow`).
    pub label: Option<String>,
    /// The op's `fmax_mhz` query.
    pub fmax_mhz: Option<f64>,
    /// The op's `measure_int` result.
    pub measure: Option<MacMeasurement>,
    /// The op's power shmoo (`paper_signoff`).
    pub shmoo: Option<PowerShmoo>,
    /// The op's per-die `fmax` (`paper_signoff`).
    pub dies_fmax: Option<Vec<f64>>,
}

/// The two digests of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// Seed-invariant part, compared with the committed expectation.
    pub design: u64,
    /// Everything the op produced, compared with the run's first op.
    pub full: u64,
}

/// Quality of result of the run's design, reported end to end.
#[derive(Debug, Clone, Copy)]
pub struct Qor {
    /// Post-layout `fmax` at 0.9 V.
    pub fmax_mhz: f64,
    /// Die area.
    pub area_mm2: f64,
    /// Table II energy efficiency, 1b×1b-normalized.
    pub tops_per_w_1b: f64,
}

/// One workload's prepared state: what every op of a run shares.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Problem sizes.
    pub sizes: Sizes,
    /// Cell library.
    pub lib: CellLibrary,
    /// The workload's spec.
    pub spec: MacroSpec,
    /// Seeded stimulus.
    pub inputs: Inputs,
    /// The queried macro (`paper_signoff` only).
    pub signoff: Option<SignoffMacro>,
}

/// Seed-invariant digest of an implemented macro: placement, sign-off
/// timing, the op's `fmax` query, area and (when chosen by search) the
/// design label.
pub fn design_digest(im: &ImplementedMacro, fmax_mhz: f64, label: Option<&str>) -> u64 {
    let mut d = Digest::default();
    d.placement(&im.placement).timing(&im.timing).f64(fmax_mhz).f64(im.area_mm2());
    if let Some(label) = label {
        d.str(label);
    }
    d.finish()
}

impl Bench {
    /// Build the workload's state from `seed`, then run one warm-up op
    /// (its output is discarded).
    ///
    /// # Errors
    ///
    /// Any error of a public call, or a search that finds nothing.
    pub fn setup(workload: Workload, sizes: &Sizes, seed: u64) -> BenchResult<Bench> {
        let lib = CellLibrary::syn40();
        let (spec, passes) = match workload {
            Workload::ScaleImplement => (sizes.scale.clone(), sizes.flow_passes),
            Workload::PaperFlow => (sizes.paper.clone(), sizes.flow_passes),
            Workload::PaperSignoff => (sizes.paper.clone(), sizes.signoff_passes),
        };
        let inputs = Inputs::generate(seed, &spec, passes, sizes);
        let signoff = match workload {
            Workload::PaperSignoff => {
                let mut scl = Scl::new();
                let result = search(&spec, &mut scl);
                let best = result.best(&spec).ok_or("search found no feasible design")?;
                let im = implement(&lib, &spec, &best.choice)?;
                let f07 = im.fmax_mhz(&lib, at(TABLE2_VDD));
                let design = design_digest(&im, f07, Some(&best.choice.label()));
                Some(SignoffMacro { im, f_mhz: f07.floor(), design })
            }
            _ => None,
        };
        let bench = Bench { workload, sizes: sizes.clone(), lib, spec, inputs, signoff };
        bench.op()?;
        Ok(bench)
    }

    /// The macro `paper_signoff` queries.
    fn signoff(&self) -> BenchResult<&SignoffMacro> {
        Ok(self.signoff.as_ref().ok_or("paper_signoff state missing")?)
    }

    /// One op: only calls into the program, no checking (see
    /// [`Bench::digests`]).
    ///
    /// # Errors
    ///
    /// Any error of a public call, including a golden-model mismatch in
    /// `measure_int`.
    pub fn op(&self) -> BenchResult<OpOutput> {
        let (lib, spec, inputs) = (&self.lib, &self.spec, &self.inputs);
        match self.workload {
            Workload::ScaleImplement => {
                let im = implement(lib, spec, &DesignChoice::default())?;
                let fmax = im.fmax_mhz(lib, at(QOR_VDD));
                Ok(OpOutput { im: Some(im), fmax_mhz: Some(fmax), ..OpOutput::default() })
            }
            Workload::PaperFlow => {
                let mut scl = Scl::new();
                let result = search(spec, &mut scl);
                let best = result.best(spec).ok_or("search found no feasible design")?;
                let im = implement(lib, spec, &best.choice)?;
                let f07 = im.fmax_mhz(lib, at(TABLE2_VDD));
                let m = measure_int(
                    &im,
                    lib,
                    TABLE2_PA,
                    &inputs.passes,
                    &inputs.weights,
                    at(TABLE2_VDD),
                    f07.floor(),
                )?;
                Ok(OpOutput {
                    label: Some(best.choice.label()),
                    im: Some(im),
                    fmax_mhz: Some(f07),
                    measure: Some(m),
                    ..OpOutput::default()
                })
            }
            Workload::PaperSignoff => {
                let s = self.signoff()?;
                let m = measure_int(
                    &s.im,
                    lib,
                    TABLE2_PA,
                    &inputs.passes,
                    &inputs.weights,
                    at(TABLE2_VDD),
                    s.f_mhz,
                )?;
                let shmoo = shmoo_with_power(
                    &s.im,
                    lib,
                    &self.sizes.voltages,
                    &self.sizes.freqs_mhz,
                    TABLE2_PA,
                    &inputs.shmoo_passes,
                    &inputs.weights,
                )?;
                let dies = s.im.compiled.sta.fmax_distribution(at(QOR_VDD), &inputs.die_scales);
                Ok(OpOutput {
                    measure: Some(m),
                    shmoo: Some(shmoo),
                    dies_fmax: Some(dies),
                    ..OpOutput::default()
                })
            }
        }
    }

    /// Digest an op's output.
    ///
    /// # Errors
    ///
    /// An output the workload's op always produces is missing.
    pub fn digests(&self, out: &OpOutput) -> BenchResult<Digests> {
        let design = match self.workload {
            Workload::PaperSignoff => {
                // The queried macro plus the shmoo's pass/fail map.
                let shmoo = &out.shmoo.as_ref().ok_or("op produced no shmoo")?.shmoo;
                let mut d = Digest::default();
                d.u64(self.signoff()?.design);
                for &p in shmoo.pass.iter().flatten() {
                    d.u64(u64::from(p));
                }
                d.finish()
            }
            _ => {
                let im = out.im.as_ref().ok_or("op produced no macro")?;
                design_digest(im, out.fmax_mhz.ok_or("op made no fmax query")?, out.label.as_deref())
            }
        };
        let mut d = Digest::default();
        d.u64(design);
        if let Some(m) = &out.measure {
            d.u64(m.checked_outputs as u64).f64(m.power.total_uw()).f64(m.tops_per_w_1b);
        }
        if let Some(s) = &out.shmoo {
            for p in s.power_uw.iter().flatten() {
                d.f64(p.unwrap_or(-1.0));
            }
        }
        for &f in out.dies_fmax.iter().flatten() {
            d.f64(f);
        }
        Ok(Digests { design, full: d.finish() })
    }

    /// The macro whose quality the run reports.
    fn reported_macro<'a>(&'a self, last: &'a OpOutput) -> BenchResult<&'a ImplementedMacro> {
        match self.workload {
            Workload::PaperSignoff => Ok(&self.signoff()?.im),
            _ => Ok(last.im.as_ref().ok_or("op produced no macro")?),
        }
    }

    /// Quality of result from the run's last op. The scale tier is
    /// measured here once, under Table II conditions, because its op
    /// takes no stimulus.
    ///
    /// # Errors
    ///
    /// Any error of a public call.
    pub fn qor(&self, last: &OpOutput) -> BenchResult<Qor> {
        let im = self.reported_macro(last)?;
        let tops_per_w_1b = match &last.measure {
            Some(m) => m.tops_per_w_1b,
            None => {
                let f = im.fmax_mhz(&self.lib, at(TABLE2_VDD)).floor();
                let (w, p) = (&self.inputs.weights, &self.inputs.passes);
                measure_int(im, &self.lib, TABLE2_PA, p, w, at(TABLE2_VDD), f)?.tops_per_w_1b
            }
        };
        Ok(Qor { fmax_mhz: im.fmax_mhz(&self.lib, at(QOR_VDD)), area_mm2: im.area_mm2(), tops_per_w_1b })
    }

    /// Reference-oracle agreement, once per run: the reference `Sta` on
    /// the macro's lowering and wires must reproduce the compiled
    /// sign-off; on `paper_signoff` the reference STA and power
    /// analyzers must reproduce the compiled power shmoo.
    ///
    /// # Errors
    ///
    /// Any error of a public call.
    pub fn oracle_agrees(&self, last: &OpOutput) -> BenchResult<bool> {
        let im = self.reported_macro(last)?;
        match self.workload {
            Workload::PaperSignoff => {
                let compiled = last.shmoo.as_ref().ok_or("op produced no shmoo")?;
                let reference = shmoo_with_power_on(
                    im,
                    &self.lib,
                    &self.sizes.voltages,
                    &self.sizes.freqs_mhz,
                    TABLE2_PA,
                    &self.inputs.shmoo_passes,
                    &self.inputs.weights,
                    StaBackend::Reference,
                    PowerBackend::Reference,
                )?;
                Ok(shmoo_identical(compiled, &reference))
            }
            _ => {
                let wires =
                    WireLoads { cap_ff: im.wires.cap_ff.clone(), delay_ps: im.wires.delay_ps.clone() };
                let reference = Sta::with_lowering(&im.mac.module, &self.lib, im.compiled.lowering.clone())
                    .with_wire_loads(wires)
                    .analyze_at(self.spec.mac_period_ps(), at(self.spec.vdd_v));
                Ok(timing_identical(&reference, &im.timing))
            }
        }
    }
}

/// Bit-exact equality of two power shmoos.
fn shmoo_identical(a: &PowerShmoo, b: &PowerShmoo) -> bool {
    let bits = |s: &PowerShmoo| -> Vec<Option<u64>> {
        s.power_uw.iter().flatten().map(|p| p.map(f64::to_bits)).collect()
    };
    a.shmoo.pass == b.shmoo.pass
        && a.shmoo.voltages == b.shmoo.voltages
        && a.shmoo.freqs_mhz == b.shmoo.freqs_mhz
        && bits(a) == bits(b)
}
