//! Shmoo analysis: voltage–frequency pass/fail map of an implemented
//! macro (Fig. 9 of the paper).
//!
//! A (V, f) point *passes* when the post-layout worst slack at that
//! supply is non-negative and the supply is above the SRAM retention
//! limit. This is exactly what a tester shmoo measures, with the
//! alpha-power-scaled STA standing in for silicon.

use syndcim_engine::EngineSim;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_power::PowerAnalyzer;
use syndcim_sta::{Sta, VariationModel, WireLoads};
use syndcim_telemetry as telemetry;

use crate::error::CoreError;
use crate::eval::int_activity;
use crate::flow::ImplementedMacro;

/// Minimum supply for reliable bitcell operation (read/write margin),
/// in volts.
pub const V_MIN_FUNCTIONAL: f64 = 0.58;

/// Which static timing analyzer [`shmoo_with_power_on`] resolves the
/// pass/fail grid on.
///
/// Both produce **bit-identical** grids — the compiled program replays
/// the reference analyzer's arithmetic over struct-of-arrays buffers —
/// so `Reference` exists only as the oracle that pins the compiled path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StaBackend {
    /// The macro's [`syndcim_sta::CompiledSta`]: the whole voltage axis
    /// in one batched pass (default).
    #[default]
    Compiled,
    /// One reference graph-walking [`Sta`] per call, built on the
    /// macro's own lowering and extracted wires, walked per voltage.
    Reference,
}

/// Which power analyzer [`shmoo_with_power_on`] annotates the passing
/// points with.
///
/// Both produce **bit-identical** power (pinned by
/// `tests/power_compiled_differential.rs`), so `Reference` exists only
/// as the oracle that pins the compiled path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PowerBackend {
    /// The macro's [`syndcim_power::CompiledPower`]: every passing
    /// corner in one batch over shared toggle-rate columns (default).
    #[default]
    Compiled,
    /// The reference module-walking [`PowerAnalyzer`], rebuilt per call
    /// and walked per passing point.
    Reference,
}

/// One shmoo grid.
#[derive(Debug, Clone)]
pub struct Shmoo {
    /// Supply axis, volts (ascending).
    pub voltages: Vec<f64>,
    /// Frequency axis, MHz (ascending).
    pub freqs_mhz: Vec<f64>,
    /// `pass[vi][fi]` — true when the macro runs at `freqs_mhz[fi]` at
    /// `voltages[vi]`.
    pub pass: Vec<Vec<bool>>,
}

impl Shmoo {
    /// Maximum passing frequency at a voltage, if any.
    pub fn fmax_at(&self, vi: usize) -> Option<f64> {
        self.pass[vi].iter().enumerate().rev().find(|(_, &p)| p).map(|(fi, _)| self.freqs_mhz[fi])
    }

    /// Render the classic shmoo plot (rows = voltage descending,
    /// columns = frequency ascending; `■` pass, `·` fail).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("  V\\f(MHz) ");
        for f in &self.freqs_mhz {
            s.push_str(&format!("{f:>6.0}"));
        }
        s.push('\n');
        for (vi, v) in self.voltages.iter().enumerate().rev() {
            s.push_str(&format!("  {v:>7.2}V "));
            for p in &self.pass[vi] {
                s.push_str(if *p { "     ■" } else { "     ·" });
            }
            s.push('\n');
        }
        s
    }
}

/// Sweep the shmoo grid for `im` on the compiled STA: the macro's
/// timing program resolves every functional voltage in one
/// [`syndcim_sta::CompiledSta::fmax_many`] batch. The library goes
/// unused (the program carries its own process parameters).
pub fn shmoo(im: &ImplementedMacro, _lib: &CellLibrary, voltages: &[f64], freqs_mhz: &[f64]) -> Shmoo {
    telemetry::span!("shmoo");
    let ops: Vec<OperatingPoint> = functional_corners(voltages).collect();
    pass_grid(voltages, freqs_mhz, im.compiled.sta.fmax_many(&ops))
}

/// The operating point of every voltage at or above the bitcell
/// retention limit, in axis order.
fn functional_corners(voltages: &[f64]) -> impl Iterator<Item = OperatingPoint> + '_ {
    voltages.iter().filter(|&&v| v >= V_MIN_FUNCTIONAL).map(|&v| OperatingPoint::at_voltage(v))
}

/// The pass/fail grid from one `fmax` per [`functional_corners`] entry;
/// voltages below the retention limit fail at every frequency.
fn pass_grid(voltages: &[f64], freqs_mhz: &[f64], fmaxes: Vec<f64>) -> Shmoo {
    telemetry::counter("shmoo.grids").incr();
    telemetry::counter("shmoo.points").add((voltages.len() * freqs_mhz.len()) as u64);
    let mut fmaxes = fmaxes.into_iter();
    let pass = voltages
        .iter()
        .map(|&v| {
            if v >= V_MIN_FUNCTIONAL {
                let fmax = fmaxes.next().expect("one fmax per functional voltage");
                freqs_mhz.iter().map(|&f| f <= fmax).collect()
            } else {
                vec![false; freqs_mhz.len()]
            }
        })
        .collect();
    Shmoo { voltages: voltages.to_vec(), freqs_mhz: freqs_mhz.to_vec(), pass }
}

/// A shmoo grid annotated with measured power at every passing point.
#[derive(Debug, Clone)]
pub struct PowerShmoo {
    /// The pass/fail grid.
    pub shmoo: Shmoo,
    /// `power_uw[vi][fi]` — total power in µW at each *passing* point
    /// (`None` where the macro fails), from engine-measured switching
    /// activity rescaled across the (V, f) grid.
    pub power_uw: Vec<Vec<Option<f64>>>,
}

/// Sweep the shmoo grid and annotate every passing point with the total
/// power the given INT workload would draw there.
///
/// Switching activity is voltage- and frequency-independent, so the
/// workload is simulated **once** on the compiled bit-parallel engine
/// (all passes as parallel lanes) and the toggle counts are rescaled
/// analytically across the grid — one simulation instead of one per
/// grid point. The per-corner rescaling runs on the macro's compiled
/// power program ([`syndcim_power::CompiledPower::report_many`]
/// resolves every passing point in one batch over shared rate
/// columns); see [`shmoo_with_power_on`] for backend selection.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if the workload fails its
/// golden-model check.
pub fn shmoo_with_power(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    voltages: &[f64],
    freqs_mhz: &[f64],
    pa: u32,
    passes: &[Vec<i64>],
    weights: &[Vec<i64>],
) -> Result<PowerShmoo, CoreError> {
    shmoo_with_power_on(
        im,
        lib,
        voltages,
        freqs_mhz,
        pa,
        passes,
        weights,
        StaBackend::default(),
        PowerBackend::default(),
    )
}

/// [`shmoo_with_power`] with explicit STA and power backends (activity
/// measurement stays on the simulation engine either way) — the single
/// oracle entry point: regression tests and the benchmark pin the
/// compiled grid, pass map *and* annotated power, against the reference
/// analyzers. Neither reference arm lowers the netlist again.
///
/// # Errors
///
/// Returns [`CoreError::FunctionalMismatch`] if the workload fails its
/// golden-model check.
#[allow(clippy::too_many_arguments)]
pub fn shmoo_with_power_on(
    im: &ImplementedMacro,
    lib: &CellLibrary,
    voltages: &[f64],
    freqs_mhz: &[f64],
    pa: u32,
    passes: &[Vec<i64>],
    weights: &[Vec<i64>],
    sta: StaBackend,
    power: PowerBackend,
) -> Result<PowerShmoo, CoreError> {
    telemetry::span!("shmoo.power");
    let grid = match sta {
        StaBackend::Compiled => shmoo(im, lib, voltages, freqs_mhz),
        StaBackend::Reference => {
            let wires = WireLoads { cap_ff: im.wires.cap_ff.clone(), delay_ps: im.wires.delay_ps.clone() };
            let reference =
                Sta::with_lowering(&im.mac.module, lib, im.compiled.lowering.clone()).with_wire_loads(wires);
            pass_grid(
                voltages,
                freqs_mhz,
                functional_corners(voltages).map(|op| reference.fmax_mhz(op)).collect(),
            )
        }
    };
    let activity = int_activity(im, pa, passes, weights)?;
    let cycles = activity.lane_cycles.max(1);
    let power_uw = match power {
        PowerBackend::Compiled => {
            // One batch over the macro's compiled power program: the
            // toggle-rate columns are resolved once and every passing
            // point is a linear pass over shared read-only arrays.
            let points: Vec<(f64, OperatingPoint)> = grid
                .pass
                .iter()
                .enumerate()
                .flat_map(|(vi, row)| {
                    row.iter().enumerate().filter(|(_, &ok)| ok).map(move |(fi, _)| (vi, fi))
                })
                .map(|(vi, fi)| (grid.freqs_mhz[fi], OperatingPoint::at_voltage(grid.voltages[vi])))
                .collect();
            let mut reports = im.compiled.power.report_many(&activity.toggles, cycles, &points).into_iter();
            grid.pass
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&ok| {
                            ok.then(|| reports.next().expect("one report per passing point").total_uw())
                        })
                        .collect()
                })
                .collect()
        }
        PowerBackend::Reference => {
            // Rebuild the reference analyzer, then one module walk per
            // passing grid point.
            let analyzer = PowerAnalyzer::with_wire_caps(&im.mac.module, lib, &im.wires.cap_ff)?;
            grid.pass
                .iter()
                .enumerate()
                .map(|(vi, row)| {
                    row.iter()
                        .enumerate()
                        .map(|(fi, &ok)| {
                            ok.then(|| {
                                analyzer
                                    .from_activity(
                                        &activity.toggles,
                                        cycles,
                                        grid.freqs_mhz[fi],
                                        OperatingPoint::at_voltage(grid.voltages[vi]),
                                    )
                                    .total_uw()
                            })
                        })
                        .collect()
                })
                .collect()
        }
    };
    Ok(PowerShmoo { shmoo: grid, power_uw })
}

/// A shmoo grid where every point carries a *pass fraction* — the
/// share of Monte-Carlo process samples (virtual dies) that meet
/// timing there — instead of a single pass/fail bit.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldShmoo {
    /// Supply axis, volts (ascending).
    pub voltages: Vec<f64>,
    /// Frequency axis, MHz (ascending).
    pub freqs_mhz: Vec<f64>,
    /// `pass_fraction[vi][fi]` — fraction of sampled dies that run at
    /// `freqs_mhz[fi]` at `voltages[vi]` (0.0 below the retention
    /// limit).
    pub pass_fraction: Vec<Vec<f64>>,
    /// Monte-Carlo samples behind every fraction.
    pub samples: usize,
}

impl YieldShmoo {
    /// Maximum frequency at a voltage where at least `min_yield` of the
    /// sampled dies still pass, if any.
    pub fn fmax_at_yield(&self, vi: usize, min_yield: f64) -> Option<f64> {
        self.pass_fraction[vi]
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &y)| y >= min_yield)
            .map(|(fi, _)| self.freqs_mhz[fi])
    }

    /// Render the yield shmoo as banded marks (rows = voltage
    /// descending): `■` every die passes, `▓` ≥ 75 %, `▒` ≥ 25 %, `░`
    /// some dies, `·` none.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("  V\\f(MHz) ");
        for f in &self.freqs_mhz {
            s.push_str(&format!("{f:>6.0}"));
        }
        s.push('\n');
        for (vi, v) in self.voltages.iter().enumerate().rev() {
            s.push_str(&format!("  {v:>7.2}V "));
            for &y in &self.pass_fraction[vi] {
                let mark = if y >= 1.0 {
                    '■'
                } else if y >= 0.75 {
                    '▓'
                } else if y >= 0.25 {
                    '▒'
                } else if y > 0.0 {
                    '░'
                } else {
                    '·'
                };
                s.push_str("     ");
                s.push(mark);
            }
            s.push('\n');
        }
        s
    }
}

/// Variation-aware shmoo: sweep the (V, f) grid over `samples`
/// Monte-Carlo process samples and report the per-point pass fraction.
///
/// One multiplier per sample is drawn from `model` (deterministically,
/// from `seed`) and every `(voltage, sample)` corner rides a single
/// [`syndcim_sta::CompiledSta::fmax_many_scaled`] batch — the same
/// batching [`shmoo`] uses, `samples`× wider. With
/// [`VariationModel::nominal`] the grid collapses to the binary
/// [`shmoo`] map (`1.0`/`0.0`), bit-identically — pinned by the yield
/// regression tests.
///
/// # Errors
///
/// Returns [`CoreError::EmptyAxis`] for an empty voltage or frequency
/// axis and [`CoreError::PatternCount`] when `samples` is zero or
/// exceeds the engine lane capacity (the cap keeps yield grids
/// commensurate with fault-injection runs, which map samples to lanes).
pub fn shmoo_yield(
    im: &ImplementedMacro,
    voltages: &[f64],
    freqs_mhz: &[f64],
    model: VariationModel,
    samples: usize,
    seed: u64,
) -> Result<YieldShmoo, CoreError> {
    telemetry::span!("shmoo.yield");
    if voltages.is_empty() {
        return Err(CoreError::EmptyAxis { axis: "voltages" });
    }
    if freqs_mhz.is_empty() {
        return Err(CoreError::EmptyAxis { axis: "freqs_mhz" });
    }
    if !(1..=EngineSim::MAX_LANES).contains(&samples) {
        return Err(CoreError::PatternCount { patterns: samples, max: EngineSim::MAX_LANES });
    }
    telemetry::counter("shmoo.grids").incr();
    telemetry::counter("shmoo.points").add((voltages.len() * freqs_mhz.len()) as u64);
    telemetry::counter("shmoo.yield_samples").add(samples as u64);

    // One multiplier per virtual die, shared across the voltage axis
    // (the same die is measured at every supply, as on a tester).
    let scales = model.sample(seed, samples);
    let points: Vec<(OperatingPoint, f64)> =
        functional_corners(voltages).flat_map(|op| scales.iter().map(move |&s| (op, s))).collect();
    let fmaxes = im.compiled.sta.fmax_many_scaled(&points);
    let mut per_voltage = fmaxes.chunks(samples);

    let pass_fraction = voltages
        .iter()
        .map(|&v| {
            if v < V_MIN_FUNCTIONAL {
                return vec![0.0; freqs_mhz.len()];
            }
            let die_fmaxes = per_voltage.next().expect("one fmax chunk per functional voltage");
            freqs_mhz
                .iter()
                .map(|&f| die_fmaxes.iter().filter(|&&fm| f <= fm).count() as f64 / samples as f64)
                .collect()
        })
        .collect();
    Ok(YieldShmoo { voltages: voltages.to_vec(), freqs_mhz: freqs_mhz.to_vec(), pass_fraction, samples })
}

/// A [`YieldShmoo`] plus the variation parameters that produced it —
/// the deterministic, diffable artifact CI uploads next to the
/// telemetry flow report.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldReport {
    /// The yield grid.
    pub shmoo: YieldShmoo,
    /// Gaussian sigma of the sampled delay multiplier.
    pub sigma: f64,
    /// Mean of the sampled delay multiplier.
    pub mean: f64,
    /// Monte-Carlo seed.
    pub seed: u64,
}

impl YieldReport {
    /// Run [`shmoo_yield`] and wrap the grid with its provenance.
    ///
    /// # Errors
    ///
    /// Same contract as [`shmoo_yield`].
    pub fn generate(
        im: &ImplementedMacro,
        voltages: &[f64],
        freqs_mhz: &[f64],
        model: VariationModel,
        samples: usize,
        seed: u64,
    ) -> Result<YieldReport, CoreError> {
        let shmoo = shmoo_yield(im, voltages, freqs_mhz, model, samples, seed)?;
        Ok(YieldReport { shmoo, sigma: model.sigma, mean: model.mean, seed })
    }

    /// Serialize with a deterministic schema (fixed key order, axis
    /// values and fractions exactly as computed) — same contract as the
    /// telemetry flow report, so CI can diff two runs byte for byte.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"syndcim-yield-report-v1\"");
        out.push_str(&format!(",\"sigma\":{},\"mean\":{},\"seed\":{}", self.sigma, self.mean, self.seed));
        out.push_str(&format!(",\"samples\":{}", self.shmoo.samples));
        push_json_floats(&mut out, ",\"voltages\":", &self.shmoo.voltages);
        push_json_floats(&mut out, ",\"freqs_mhz\":", &self.shmoo.freqs_mhz);
        out.push_str(",\"pass_fraction\":[");
        for (vi, row) in self.shmoo.pass_fraction.iter().enumerate() {
            if vi > 0 {
                out.push(',');
            }
            push_json_floats(&mut out, "", row);
        }
        out.push_str("]}");
        out
    }
}

/// Append `prefix` then `values` as a JSON array of floats.
pub(crate) fn push_json_floats(out: &mut String, prefix: &str, values: &[f64]) {
    out.push_str(prefix);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{v}"));
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignChoice;
    use crate::flow::implement;
    use crate::spec::MacroSpec;

    /// The reference shmoo, built by the test: one reference analyzer on
    /// the macro's own lowering and extracted wires, walked per voltage.
    fn reference_shmoo(im: &ImplementedMacro, lib: &CellLibrary, vs: &[f64], fs: &[f64]) -> Shmoo {
        let wires = WireLoads { cap_ff: im.wires.cap_ff.clone(), delay_ps: im.wires.delay_ps.clone() };
        let sta =
            Sta::with_lowering(&im.mac.module, lib, im.compiled.lowering.clone()).with_wire_loads(wires);
        pass_grid(vs, fs, functional_corners(vs).map(|op| sta.fmax_mhz(op)).collect())
    }

    fn implemented() -> (ImplementedMacro, CellLibrary) {
        let lib = CellLibrary::syn40();
        let spec = MacroSpec {
            h: 8,
            w: 8,
            mcr: 1,
            int_precisions: vec![1, 2, 4],
            fp_precisions: vec![],
            f_mac_mhz: 400.0,
            f_wu_mhz: 400.0,
            vdd_v: 0.9,
            ppa: Default::default(),
        };
        let im = implement(&lib, &spec, &DesignChoice::default()).unwrap();
        (im, lib)
    }

    #[test]
    fn shmoo_is_monotone_in_voltage_and_frequency() {
        let (im, lib) = implemented();
        let vs = [0.5, 0.7, 0.9, 1.1, 1.2];
        let fs = [100.0, 300.0, 600.0, 1200.0, 2400.0];
        let s = shmoo(&im, &lib, &vs, &fs);
        // Below retention voltage: everything fails.
        assert!(s.pass[0].iter().all(|p| !p));
        // Along frequency: once failing, always failing.
        for row in &s.pass {
            let mut seen_fail = false;
            for &p in row {
                if seen_fail {
                    assert!(!p, "pass after fail breaks shmoo monotonicity");
                }
                seen_fail |= !p;
            }
        }
        // Along voltage: fmax must not decrease.
        let mut prev = 0.0;
        for vi in 1..vs.len() {
            let f = s.fmax_at(vi).unwrap_or(0.0);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn power_shmoo_annotates_passing_points() {
        use syndcim_sim::vectors::{random_ints, seeded_rng};
        let (im, lib) = implemented();
        let mut rng = seeded_rng(31);
        let weights: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let passes: Vec<Vec<i64>> = (0..3).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let vs = [0.5, 0.9, 1.2];
        let fs = [100.0, 400.0];
        let ps = shmoo_with_power(&im, &lib, &vs, &fs, 4, &passes, &weights).unwrap();
        for (vi, row) in ps.shmoo.pass.iter().enumerate() {
            for (fi, &ok) in row.iter().enumerate() {
                assert_eq!(ps.power_uw[vi][fi].is_some(), ok, "power iff passing (v={vi}, f={fi})");
                if let Some(p) = ps.power_uw[vi][fi] {
                    assert!(p > 0.0);
                }
            }
        }
        // Power grows with both frequency and voltage on the passing set.
        let p_low = ps.power_uw[1][0].unwrap();
        let p_high_f = ps.power_uw[1][1].unwrap();
        let p_high_v = ps.power_uw[2][0].unwrap();
        assert!(p_high_f > p_low && p_high_v > p_low);
    }

    /// Satellite regression: the compiled-STA shmoo must reproduce the
    /// reference analyzer's pass/fail map and annotated power exactly —
    /// same grid, same power at every passing point, over a grid dense
    /// enough to cross the retention limit and the timing wall, with
    /// every backend combination (compiled/reference × STA/power)
    /// agreeing bit for bit.
    #[test]
    fn compiled_and_reference_shmoo_agree_on_pass_map_and_power() {
        use syndcim_sim::vectors::{random_ints, seeded_rng};
        let (im, lib) = implemented();
        let vs = [0.5, 0.58, 0.65, 0.8, 0.9, 1.05, 1.2];
        let fs = [50.0, 150.0, 400.0, 900.0, 1500.0, 3000.0];

        let fast = shmoo(&im, &lib, &vs, &fs);
        let slow = reference_shmoo(&im, &lib, &vs, &fs);
        assert_eq!(fast.pass, slow.pass, "pass/fail maps must be identical");
        assert_eq!(fast.voltages, slow.voltages);
        assert_eq!(fast.freqs_mhz, slow.freqs_mhz);

        let mut rng = seeded_rng(47);
        let weights: Vec<Vec<i64>> = (0..2).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let passes: Vec<Vec<i64>> = (0..3).map(|_| random_ints(&mut rng, 8, 4)).collect();
        let fast_p = shmoo_with_power(&im, &lib, &vs, &fs, 4, &passes, &weights).unwrap();
        for (sta, power) in [
            (StaBackend::Reference, PowerBackend::Reference),
            (StaBackend::Reference, PowerBackend::Compiled),
            (StaBackend::Compiled, PowerBackend::Reference),
        ] {
            let other = shmoo_with_power_on(&im, &lib, &vs, &fs, 4, &passes, &weights, sta, power).unwrap();
            assert_eq!(fast_p.shmoo.pass, other.shmoo.pass, "{sta:?}/{power:?}");
            assert_eq!(
                fast_p.power_uw, other.power_uw,
                "annotated power must be identical per point ({sta:?}/{power:?})"
            );
        }
    }

    /// Dense voltage axes push `CompiledSta::fmax_many` over its
    /// parallel threshold; the fanned-out grid must stay
    /// order-identical to the reference per-voltage sweep.
    #[test]
    fn dense_shmoo_parallel_fmax_matches_reference_order() {
        let (im, lib) = implemented();
        // 44 functional voltages — well past the 32-corner parallel
        // threshold — plus two below the retention limit.
        let vs: Vec<f64> = (0..46).map(|i| 0.56 + 0.015 * i as f64).collect();
        let fs = [100.0, 350.0, 700.0, 1400.0, 2800.0];
        let fast = shmoo(&im, &lib, &vs, &fs);
        let slow = reference_shmoo(&im, &lib, &vs, &fs);
        assert_eq!(fast.pass, slow.pass, "parallel fmax_many must keep corner order");
        for vi in 0..vs.len() {
            assert_eq!(fast.fmax_at(vi), slow.fmax_at(vi), "fmax at index {vi}");
        }
    }

    #[test]
    fn render_contains_axes_and_marks() {
        let (im, lib) = implemented();
        let s = shmoo(&im, &lib, &[0.9, 1.2], &[100.0, 100_000.0]);
        let art = s.render();
        assert!(art.contains("1.20V"));
        assert!(art.contains('■'), "{art}");
        assert!(art.contains('·'), "a 100 GHz point must fail:\n{art}");
    }

    /// Zero-variation pin: the Monte-Carlo grid with the nominal model
    /// must collapse to the binary shmoo map exactly — every fraction
    /// is 1.0 where the plain shmoo passes and 0.0 where it fails.
    #[test]
    fn nominal_yield_shmoo_matches_binary_shmoo_exactly() {
        let (im, lib) = implemented();
        let vs = [0.5, 0.58, 0.7, 0.9, 1.1];
        let fs = [100.0, 400.0, 900.0, 1800.0, 3600.0];
        let binary = shmoo(&im, &lib, &vs, &fs);
        let y = shmoo_yield(&im, &vs, &fs, VariationModel::nominal(), 16, 7).unwrap();
        for vi in 0..vs.len() {
            for fi in 0..fs.len() {
                let want = if binary.pass[vi][fi] { 1.0 } else { 0.0 };
                assert_eq!(y.pass_fraction[vi][fi], want, "(v={vi}, f={fi})");
            }
        }
    }

    #[test]
    fn variation_opens_a_band_and_yield_is_monotone_in_frequency() {
        let (im, lib) = implemented();
        let vs = [0.7, 0.9, 1.1];
        // A dense frequency axis straddling nominal fmax at each V.
        let fs: Vec<f64> = (1..40).map(|i| i as f64 * 100.0).collect();
        let y = shmoo_yield(&im, &vs, &fs, VariationModel::gaussian(0.08), 128, 0xD1E).unwrap();
        let _ = lib;
        for (vi, row) in y.pass_fraction.iter().enumerate() {
            // Yield can only drop as frequency rises.
            for fi in 1..row.len() {
                assert!(row[fi] <= row[fi - 1], "(v={vi}, f={fi})");
            }
            // Process spread opens a partial-yield band somewhere on
            // the axis (not every point is exactly 0 or 1).
            assert!(
                row.iter().any(|&p| p > 0.0 && p < 1.0),
                "sigma=0.08 must open a partial band at v index {vi}: {row:?}"
            );
        }
        // Deterministic: same seed, same grid.
        let again = shmoo_yield(&im, &vs, &fs, VariationModel::gaussian(0.08), 128, 0xD1E).unwrap();
        assert_eq!(y, again);
    }

    #[test]
    fn yield_shmoo_rejects_bad_axes_and_sample_counts() {
        let (im, _lib) = implemented();
        let m = VariationModel::nominal();
        assert_eq!(
            shmoo_yield(&im, &[], &[100.0], m, 8, 0).unwrap_err(),
            CoreError::EmptyAxis { axis: "voltages" }
        );
        assert_eq!(
            shmoo_yield(&im, &[0.9], &[], m, 8, 0).unwrap_err(),
            CoreError::EmptyAxis { axis: "freqs_mhz" }
        );
        assert!(matches!(
            shmoo_yield(&im, &[0.9], &[100.0], m, 0, 0).unwrap_err(),
            CoreError::PatternCount { patterns: 0, .. }
        ));
        assert!(matches!(
            shmoo_yield(&im, &[0.9], &[100.0], m, 100_000, 0).unwrap_err(),
            CoreError::PatternCount { patterns: 100_000, .. }
        ));
    }

    #[test]
    fn yield_report_renders_bands_and_serializes_deterministically() {
        let (im, _lib) = implemented();
        let vs = [0.5, 0.8, 1.0];
        let fs: Vec<f64> = (1..20).map(|i| i as f64 * 150.0).collect();
        let r = YieldReport::generate(&im, &vs, &fs, VariationModel::gaussian(0.1), 64, 42).unwrap();
        let art = r.shmoo.render();
        assert!(art.contains('■') && art.contains('·'), "{art}");
        assert!(
            art.contains('▓') || art.contains('▒') || art.contains('░'),
            "sigma=0.1 over 64 dies must produce a partial band:\n{art}"
        );
        assert!(r.shmoo.fmax_at_yield(1, 0.5).is_some());
        assert!(r.shmoo.fmax_at_yield(0, 1e-9).is_none(), "below retention nothing yields");
        let json = r.to_json();
        assert!(json.starts_with("{\"schema\":\"syndcim-yield-report-v1\""), "{json}");
        assert!(json.contains("\"sigma\":0.1") && json.contains("\"seed\":42"), "{json}");
        let again = YieldReport::generate(&im, &vs, &fs, VariationModel::gaussian(0.1), 64, 42).unwrap();
        assert_eq!(json, again.to_json(), "byte-identical artifact for identical runs");
    }
}
