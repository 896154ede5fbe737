//! The traced run: one op per workload replayed as a sequence of calls
//! into each layer's public functions, with a span (recorded by the
//! benchmark, not the program) around each call.
//!
//! Every workload walks the same designer loop — search, the phases of
//! `implement` in the order `implement` makes them, the `fmax` query,
//! `measure_int`, `shmoo_with_power`, `fmax_distribution` — so every
//! per-layer metric is a real measurement on every workload. The steps
//! that make up the workload's own op are timed as one op: coverage is
//! the share of that op's wall time its spans account for. The other
//! steps, and the breakdown calls after them (connectivity, levelize,
//! interning, the three compilers on their own), are diagnostics outside
//! coverage, so API cleanups of the breakdown entry points cannot break
//! the op sequence.

use std::time::{Duration, Instant};

use syndcim_core::{
    artifact, assemble, implement, measure_int, search, shmoo_with_power, CompiledMacro, DesignChoice,
    ImplementedMacro,
};
use syndcim_engine::Program;
use syndcim_ir::{Lowering, Symbols};
use syndcim_layout::{check_drc, extract_wires, place_with_symbols, FloorplanConfig};
use syndcim_netlist::{levelize, optimize, validate, Connectivity};
use syndcim_pdk::OperatingPoint;
use syndcim_power::PowerAnalyzer;
use syndcim_scl::Scl;
use syndcim_sta::{Sta, WireLoads};

use crate::digest::timing_identical;
use crate::workloads::{Bench, BenchResult, Workload, QOR_VDD, TABLE2_PA, TABLE2_VDD};

/// Stages of the designer loop, in replay order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Search,
    Implement,
    Fmax,
    Measure,
    Shmoo,
    Dies,
    Diagnostic,
}

impl Workload {
    /// The stages that make up this workload's op.
    fn op_stages(self) -> &'static [Stage] {
        match self {
            Workload::ScaleImplement => &[Stage::Implement, Stage::Fmax],
            Workload::PaperFlow => &[Stage::Search, Stage::Implement, Stage::Fmax, Stage::Measure],
            Workload::PaperSignoff => &[Stage::Measure, Stage::Shmoo, Stage::Dies],
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Instant,
    len: Duration,
    in_op: bool,
}

/// Spans and values of one replay.
struct Recorder {
    op_stages: &'static [Stage],
    spans: Vec<Span>,
    values: Vec<(&'static str, f64)>,
}

impl Recorder {
    /// Run `f` inside a span named after the per-layer metric it feeds.
    fn span<T>(&mut self, name: &'static str, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let len = start.elapsed();
        self.spans.push(Span { name, start, len, in_op: self.op_stages.contains(&stage) });
        self.values.push((name, ms(len)));
        out
    }

    /// Record a count, size or rate.
    fn value(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }

    fn span_ms(&self, name: &str) -> f64 {
        self.spans.iter().find(|s| s.name == name).map_or(0.0, |s| ms(s.len))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

const MIB: f64 = 1024.0 * 1024.0;

/// What one traced replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Per-layer values (times in ms), by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Wall time of the op's steps, first span start to last span end.
    pub op_wall_ms: f64,
    /// Σ op spans ÷ op wall time.
    pub coverage: f64,
    /// Whether the phased sequence reproduced `implement` exactly.
    pub faithful: bool,
}

/// Replay one op of `bench`'s workload, phase by phase.
///
/// # Errors
///
/// Any error of a public call.
pub fn replay(bench: &Bench) -> BenchResult<Replay> {
    let (lib, spec, inputs, sizes) = (&bench.lib, &bench.spec, &bench.inputs, &bench.sizes);
    let mut rec = Recorder { op_stages: bench.workload.op_stages(), spans: Vec::new(), values: Vec::new() };

    // Search from a fresh SCL: characterization plus Algorithm 1.
    let (mut scl, result) = rec.span("core.search_ms", Stage::Search, || {
        let mut scl = Scl::new();
        let result = search(spec, &mut scl);
        (scl, result)
    });
    let choice = match bench.workload {
        // The scale tier implements the default choice; its search is a
        // diagnostic of the layer only.
        Workload::ScaleImplement => DesignChoice::default(),
        _ => result.best(spec).ok_or("search found no feasible design")?.choice,
    };

    // `implement`, phase by phase, exactly as `syndcim_core::implement`.
    spec.validate()?;
    let mut mac = rec.span("core.assemble_ms", Stage::Implement, || assemble(lib, spec, &choice));
    let synth_report = rec.span("netlist.optimize_ms", Stage::Implement, || optimize(&mut mac.module, lib));
    let lowering = rec.span("ir.lower_ms", Stage::Implement, || Lowering::validated(&mac.module, lib))?;
    let placement = rec.span("layout.place_ms", Stage::Implement, || {
        place_with_symbols(&mac.module, lib, FloorplanConfig::default(), lowering.symbols())
    })?;
    rec.span("layout.drc_ms", Stage::Implement, || check_drc(&mac.module, &placement))?;
    let wires =
        rec.span("layout.wires_ms", Stage::Implement, || extract_wires(&mac.module, lib, &placement))?;
    let wire_loads = WireLoads { cap_ff: wires.cap_ff.clone(), delay_ps: wires.delay_ps.clone() };
    let compiled = rec.span("core.compile_ms", Stage::Implement, || {
        CompiledMacro::compile_with_lowering(&mac.module, lib, &wire_loads, lowering)
    });
    let (period, corner) = (spec.mac_period_ps(), OperatingPoint::at_voltage(spec.vdd_v));
    let timing = rec.span("core.signoff_ms", Stage::Implement, || compiled.sta.analyze_at(period, corner));
    let im = ImplementedMacro {
        mac,
        placement,
        wires,
        synth_report,
        timing,
        spec: spec.clone(),
        compiled,
        report: syndcim_telemetry::snapshot(),
    };

    // The op's fmax query: 0.9 V on the scale tier, the Table II corner
    // otherwise.
    let fmax_vdd = if bench.workload == Workload::ScaleImplement { QOR_VDD } else { TABLE2_VDD };
    let fmax =
        rec.span("core.fmax_ms", Stage::Fmax, || im.fmax_mhz(lib, OperatingPoint::at_voltage(fmax_vdd)));
    let table2 = OperatingPoint::at_voltage(TABLE2_VDD);
    let f_mhz = if fmax_vdd == TABLE2_VDD { fmax } else { im.fmax_mhz(lib, table2) }.floor();

    // Sign-off queries.
    let m = rec.span("core.measure_ms", Stage::Measure, || {
        measure_int(&im, lib, TABLE2_PA, &inputs.passes, &inputs.weights, table2, f_mhz)
    })?;
    rec.span("core.shmoo_power_ms", Stage::Shmoo, || {
        shmoo_with_power(
            &im,
            lib,
            &sizes.voltages,
            &sizes.freqs_mhz,
            TABLE2_PA,
            &inputs.shmoo_passes,
            &inputs.weights,
        )
    })?;
    rec.span("sta.fmax_many_ms", Stage::Dies, || {
        im.compiled.sta.fmax_distribution(OperatingPoint::at_voltage(QOR_VDD), &inputs.die_scales)
    });

    let op: Vec<Span> = rec.spans.iter().copied().filter(|s| s.in_op).collect();
    let (first, last) = (op.first().ok_or("op has no spans")?, op.last().ok_or("op has no spans")?);
    let op_wall_ms = ms(last.start + last.len - first.start);
    let coverage = op.iter().map(|s| ms(s.len)).sum::<f64>() / op_wall_ms;

    // Counts, sizes and rates of the layers above.
    rec.value("scl.records", scl.len() as f64);
    rec.value("core.search_feasible", result.feasible.len() as f64);
    rec.value("core.search_frontier", result.frontier.len() as f64);
    // Zero at this commit, so printed as notes rather than gated metrics.
    rec.value("core.search_rejected", result.rejected as f64);
    rec.value("netlist.folded", synth_report.folded as f64);
    rec.span("core.search_warm_ms", Stage::Diagnostic, || search(spec, &mut scl));
    let module = &im.mac.module;
    let (removed, instances) = (synth_report.folded + synth_report.swept, module.instance_count());
    rec.value("netlist.swept", synth_report.swept as f64);
    rec.value("netlist.opt_passes", synth_report.passes as f64);
    rec.value("netlist.opt_yield", removed as f64 / (instances + removed) as f64);
    rec.value("netlist.nets", module.net_count() as f64);
    rec.value("netlist.instances", instances as f64);
    rec.value("ir.symbols_mib", im.compiled.lowering.symbols().heap_bytes() as f64 / MIB);
    rec.value("core.compiled_mib", artifact::retained_bytes(&im.compiled) as f64 / MIB);
    rec.value("eval.checked_outputs", m.checked_outputs as f64);
    rec.value("engine.vectors_per_s", inputs.passes.len() as f64 / (rec.span_ms("core.measure_ms") / 1e3));
    rec.value("sta.dies_per_s", inputs.die_scales.len() as f64 / (rec.span_ms("sta.fmax_many_ms") / 1e3));

    // Breakdown: the lowering stages and the three compilers, called on
    // their own.
    let conn = rec.span("ir.connectivity_ms", Stage::Diagnostic, || Connectivity::build(module))?;
    rec.span("ir.levelize_ms", Stage::Diagnostic, || levelize(module, lib, &conn))?;
    rec.span("ir.intern_ms", Stage::Diagnostic, || Symbols::from_module(module));
    rec.span("ir.validate_ms", Stage::Diagnostic, || validate(module, &conn))?;
    drop(conn);
    let low = &im.compiled.lowering;
    let program =
        rec.span("engine.compile_ms", Stage::Diagnostic, || Program::from_lowering(low, module, lib));
    rec.value("engine.ops", program.op_count() as f64);
    drop(program);
    let power = rec.span("power.compile_ms", Stage::Diagnostic, || {
        PowerAnalyzer::from_lowering(module, lib, low, &im.wires.cap_ff).compile()
    });
    rec.value("power.path_nodes", power.path_count() as f64);
    drop(power);
    let sta = rec.span("sta.build_ms", Stage::Diagnostic, || {
        Sta::with_lowering(module, lib, low.clone()).with_wire_loads(wire_loads.clone())
    });
    let csta = rec.span("sta.compile_ms", Stage::Diagnostic, || sta.compile());
    rec.value("sta.arcs", csta.arc_count() as f64);
    drop((csta, sta));

    // Faithfulness: the phased sequence must reproduce `implement`.
    let reference = implement(lib, spec, &choice)?;
    let faithful = reference.placement == im.placement
        && reference.wires == im.wires
        && timing_identical(&reference.timing, &im.timing);

    Ok(Replay { values: rec.values, op_wall_ms, coverage, faithful })
}
