//! # flowbench — the SynDCIM flow benchmark
//!
//! Three closed-loop workloads (one client, ops back to back) measure
//! the flow end to end with in-program telemetry off; a separate traced
//! run replays one op per workload phase by phase and reports per-layer
//! metrics. See `README.md` beside this crate for the workloads, the
//! metric → layer → end-to-end map and how to run it.

pub mod digest;
pub mod host;
pub mod trace;
pub mod workloads;

use std::time::Instant;

pub use workloads::{Bench, BenchResult, Sizes, Workload};

/// Default seed when `--seed` is omitted.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out from tuning, for validating claims.
pub const HELD_OUT_SEED: u64 = 7919;

/// End-to-end metrics `(name, unit)`, emitted with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mib", "MiB"),
    ("fmax_mhz", "MHz"),
    ("area_mm2", "mm2"),
    ("tops_per_w_1b", "TOPS/W"),
];

/// Per-layer metrics `(name, unit)`, emitted with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("core.assemble_ms", "ms"),
    ("netlist.optimize_ms", "ms"),
    ("netlist.swept", "count"),
    ("netlist.opt_passes", "count"),
    ("netlist.opt_yield", "ratio"),
    ("netlist.nets", "count"),
    ("netlist.instances", "count"),
    ("ir.lower_ms", "ms"),
    ("ir.connectivity_ms", "ms"),
    ("ir.levelize_ms", "ms"),
    ("ir.intern_ms", "ms"),
    ("ir.validate_ms", "ms"),
    ("ir.symbols_mib", "MiB"),
    ("layout.place_ms", "ms"),
    ("layout.drc_ms", "ms"),
    ("layout.wires_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.compiled_mib", "MiB"),
    ("engine.compile_ms", "ms"),
    ("engine.ops", "count"),
    ("power.compile_ms", "ms"),
    ("power.path_nodes", "count"),
    ("sta.build_ms", "ms"),
    ("sta.compile_ms", "ms"),
    ("sta.arcs", "count"),
    ("core.signoff_ms", "ms"),
    ("core.fmax_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.search_warm_ms", "ms"),
    ("scl.records", "count"),
    ("core.search_feasible", "count"),
    ("core.search_frontier", "count"),
    ("core.measure_ms", "ms"),
    ("engine.vectors_per_s", "1/s"),
    ("eval.checked_outputs", "count"),
    ("core.shmoo_power_ms", "ms"),
    ("sta.fmax_many_ms", "ms"),
    ("sta.dies_per_s", "1/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Committed seed-invariant design digests (see
/// [`workloads::Bench::digests`]): an op whose output differs from these
/// counts as failed. Update them only with a change that is meant to
/// alter the compiled design.
pub fn committed_design_digest(workload: Workload, quick: bool) -> u64 {
    match (workload, quick) {
        (Workload::ScaleImplement, false) => 0x307f_d5f0_7cdf_a69e,
        (Workload::PaperFlow, false) => 0x18e0_d995_9d1e_ab25,
        (Workload::PaperSignoff, false) => 0x8a8d_4f3b_8714_336f,
        (Workload::ScaleImplement, true) => 0x2557_1b6a_2c70_2add,
        (Workload::PaperFlow, true) => 0xeb97_c268_531b_fdc1,
        (Workload::PaperSignoff, true) => 0x8be9_6a43_5e86_9306,
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Stimulus seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// `true`: per-layer metrics from the traced run.
    pub trace: bool,
    /// Small specs (seconds per workload).
    pub quick: bool,
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Ops and checks attempted.
    pub attempted: usize,
    /// Ops and checks that failed.
    pub failed: usize,
    /// End-to-end or per-layer metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: failures, tail percentile, sample counts.
    pub notes: Vec<String>,
}

impl RunReport {
    /// Value of a metric, if emitted.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples beyond it, and
/// its percentile; `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Failure accounting for one run.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }
}

/// Run one workload: set-up (repeated; `setup_s` is the median), the
/// timed closed loop, the once-per-run checks, and with `cfg.trace` the
/// traced replays. `expected_design` is the committed design digest
/// every op must reproduce.
///
/// # Errors
///
/// Set-up fails, or no op succeeds.
pub fn run(cfg: &Config, expected_design: u64) -> BenchResult<RunReport> {
    let sizes = if cfg.quick { Sizes::quick() } else { Sizes::full() };
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..sizes.setup_reps {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(Bench::setup(cfg.workload, &sizes, cfg.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let bench = bench.ok_or("no set-up ran")?;

    // Timed closed loop: one client, the next op starts when the last
    // one returns. Only the program's calls are timed; checks are not.
    let mut op_ms = Vec::new();
    let mut first_full = None;
    let mut last = None;
    let window = Instant::now();
    while op_ms.len() < sizes.min_ops || window.elapsed().as_secs_f64() < cfg.seconds {
        last = None; // free the previous macro before the next op builds one
        let t = Instant::now();
        let out = bench.op();
        op_ms.push(ms(t.elapsed()));
        let n = op_ms.len();
        match out.and_then(|out| bench.digests(&out).map(|d| (out, d))) {
            Err(e) => tally.check(false, || format!("op {n}: {e}")),
            Ok((out, d)) => {
                let first = *first_full.get_or_insert(d.full);
                tally.check(d.design == expected_design && d.full == first, || {
                    format!(
                        "op {n}: design digest {:#018x} (committed {expected_design:#018x}), \
                         output digest {:#018x} (first op {first:#018x})",
                        d.design, d.full
                    )
                });
                last = Some(out);
            }
        }
    }
    let last = last.ok_or("the last op failed")?;
    match bench.oracle_agrees(&last) {
        Ok(ok) => tally.check(ok, || "reference oracle disagrees with the compiled analysis".to_string()),
        Err(e) => tally.check(false, || format!("reference oracle: {e}")),
    }
    let untraced_ms = median(&op_ms);
    let (tail_ms, tail_pct) = tail(&op_ms).unwrap_or((f64::NAN, f64::NAN));
    let (lo, hi) = op_ms.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    tally.notes.push(format!(
        "{} ops in {:.1} s; op_ms median {untraced_ms:.3} (min {lo:.3}, max {hi:.3}), \
         op_ms_tail p{tail_pct:.1} {tail_ms:.3} (10 ops beyond)",
        op_ms.len(),
        window.elapsed().as_secs_f64(),
    ));

    let metrics = if cfg.trace {
        drop(last);
        let mut replays = Vec::new();
        for i in 0..sizes.trace_reps {
            let r = trace::replay(&bench)?;
            tally.check(r.faithful, || format!("traced replay {i} does not reproduce implement"));
            replays.push(r);
        }
        let values = |name: &str| -> Vec<f64> {
            replays
                .iter()
                .filter_map(|r| r.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
                .collect()
        };
        let coverage = median(&replays.iter().map(|r| r.coverage).collect::<Vec<_>>());
        let traced_ms = median(&replays.iter().map(|r| r.op_wall_ms).collect::<Vec<_>>());
        tally.notes.push(format!("traced op {traced_ms:.3} ms vs untraced {untraced_ms:.3} ms"));
        for &(name, _) in replays[0].values.iter().filter(|(n, _)| PER_LAYER.iter().all(|(p, _)| p != n)) {
            tally.notes.push(format!("{name} {}", median(&values(name))));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.coverage" => coverage,
                    "trace.overhead_pct" => 100.0 * (traced_ms - untraced_ms) / untraced_ms,
                    _ => median(&values(name)),
                };
                Metric { name, value, unit }
            })
            .collect()
    } else {
        let qor = bench.qor(&last)?;
        let values = [
            median(&setup_s),
            untraced_ms,
            tail_ms,
            host::peak_rss_mib().ok_or("VmHWM unavailable")?,
            qor.fmax_mhz,
            qor.area_mm2,
            qor.tops_per_w_1b,
        ];
        END_TO_END.iter().zip(values).map(|(&(name, unit), value)| Metric { name, value, unit }).collect()
    };
    let report = RunReport { attempted: tally.attempted, failed: tally.failed, metrics, notes: tally.notes };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name).into());
    }
    Ok(report)
}
