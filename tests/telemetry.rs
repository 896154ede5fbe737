//! Observability pins: the telemetry layer must report a deterministic
//! span tree and counters for the implementation flow, aggregate
//! identically across `parallel_map` worker counts, and stay silent
//! (and out of the way of every differential test) while disabled.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one lock and resets the collector before measuring.

use std::sync::Mutex;

use syndcim_core::{implement, measure_int, search, shmoo_with_power, DesignChoice, MacroSpec};
use syndcim_ir::{join, parallel_map_threads};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_scl::Scl;
use syndcim_sta::VariationModel;
use syndcim_telemetry as telemetry;

static LOCK: Mutex<()> = Mutex::new(());

fn tiny_spec() -> MacroSpec {
    MacroSpec {
        h: 8,
        w: 8,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 400.0,
        f_wu_mhz: 400.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

fn child<'a>(node: &'a telemetry::SpanSnapshot, name: &str) -> &'a telemetry::SpanSnapshot {
    node.children
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("span `{}` has no child `{name}`: {:?}", node.name, node.children))
}

/// The flow's span tree is structurally pinned: phase spans nest under
/// `implement`, the compiled-trinity spans nest under
/// `implement.compile`, and the report attached to the macro carries
/// the same structure.
#[test]
fn implement_span_tree_nests_the_flow_phases() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);
    telemetry::reset();

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();

    let root = &im.report.root;
    let imp = child(root, "implement");
    assert_eq!(imp.count, 1);
    for phase in [
        "implement.assemble",
        "implement.optimize",
        "implement.lower",
        "implement.place",
        "implement.drc",
        "implement.wires",
        "implement.compile",
        "implement.signoff",
    ] {
        assert_eq!(child(imp, phase).count, 1, "{phase}");
    }
    // Children come out sorted by name, independent of execution order.
    let names: Vec<&str> = imp.children.iter().map(|c| c.name.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);

    // One lowering — hoisted before placement so layout can reuse its
    // symbols — feeds the whole compiled trinity.
    let lower = child(imp, "implement.lower");
    let lowering = child(lower, "lowering");
    assert_eq!(lowering.count, 1, "one lowering per implement, observed by telemetry");
    for sub in ["lowering.connectivity", "lowering.levelize", "lowering.intern", "lowering.validate"] {
        assert_eq!(child(lowering, sub).count, 1, "{sub}");
    }
    assert_eq!(lower.children.len(), 1, "the validate walk nests inside `lowering`: {:?}", lower.children);

    // optimize's two passes are leaf spans, entered once per pass.
    let opt = child(imp, "implement.optimize");
    let names: Vec<&str> = opt.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["optimize.fold", "optimize.sweep"]);
    for pass in &opt.children {
        assert_eq!(pass.count, im.synth_report.passes as u64, "{}", pass.name);
        assert!(pass.children.is_empty(), "{} is a leaf", pass.name);
    }
    let compile = child(imp, "implement.compile");
    assert_eq!(child(compile, "engine.compile").count, 1);
    assert_eq!(child(compile, "sta.compile").count, 1);
    assert_eq!(child(compile, "power.compile").count, 1);

    // The flow counters landed.
    assert_eq!(im.report.counter("ir.lowerings"), Some(1));
    assert_eq!(im.report.counter("engine.executors").unwrap_or(0), 0, "implement runs no simulation");
    assert!(im.report.gauge("engine.retained_bytes").unwrap() > 0);
    assert!(im.report.gauge("sta.retained_bytes").unwrap() > 0);
    assert!(im.report.gauge("power.retained_bytes").unwrap() > 0);

    // A fresh snapshot agrees with the attached report structurally.
    assert_eq!(telemetry::snapshot().root.signature(), im.report.root.signature());
}

/// Worker counts must be invisible: the same fan-out aggregated on 1, 2
/// and 8 threads produces identical span signatures and counters.
#[test]
fn parallel_map_aggregation_is_thread_count_invariant() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let jobs: Vec<usize> = (0..24).collect();
    let run = |threads: usize| {
        telemetry::reset();
        let out = {
            telemetry::span!("fanout");
            parallel_map_threads(jobs.clone(), threads, |_, j| {
                telemetry::span!("fanout.job");
                telemetry::counter("test.fanout_jobs").incr();
                j * 2
            })
        };
        assert_eq!(out, jobs.iter().map(|j| j * 2).collect::<Vec<_>>());
        let report = telemetry::snapshot();
        (report.root.signature(), report.counters)
    };

    let (sig1, ctr1) = run(1);
    for threads in [2, 8] {
        let (sig, ctr) = run(threads);
        assert_eq!(sig, sig1, "span tree must not depend on worker count ({threads} threads)");
        assert_eq!(ctr, ctr1, "counters must not depend on worker count ({threads} threads)");
    }
    assert_eq!(ctr1.iter().find(|(n, _)| n == "test.fanout_jobs").unwrap().1, 24);
}

/// Overlap must be invisible too: spans and counters recorded in either
/// arm of `join` aggregate to the same span signature and counters
/// whether arm `b` runs on its own thread or inline after `a`. Only
/// `ir.overlapped_joins` differs: it counts the joins whose gate passed.
#[test]
fn join_aggregation_is_overlap_invariant() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let arm = |name: &'static str, v: u32| {
        telemetry::span!(name);
        telemetry::counter("test.join_arms").incr();
        {
            telemetry::span!("pair.inner");
            telemetry::counter("test.join_inner").add(u64::from(v));
        }
        v
    };
    let run = |overlap: bool| {
        telemetry::reset();
        let out = {
            telemetry::span!("pair");
            join(overlap, || arm("pair.a", 1), || arm("pair.b", 2))
        };
        assert_eq!(out, (1, 2));
        let report = telemetry::snapshot();
        let joins = report.counter("ir.overlapped_joins").unwrap_or(0);
        let others: Vec<(String, u64)> =
            report.counters.into_iter().filter(|(n, _)| n != "ir.overlapped_joins").collect();
        (report.root.signature(), others, joins)
    };

    let (sig_inline, ctr_inline, joins_inline) = run(false);
    let (sig, ctr, joins) = run(true);
    assert_eq!(sig, sig_inline, "span tree must not depend on overlap");
    assert_eq!(ctr, ctr_inline, "counters must not depend on overlap");
    assert_eq!((joins_inline, joins), (0, 1), "only a join whose gate passed counts");
    let pair = child(&sig, "pair");
    assert_eq!(child(child(pair, "pair.b"), "pair.inner").count, 1, "arm b nests under the caller's span");
    assert_eq!(ctr.iter().find(|(n, _)| n == "test.join_inner").unwrap().1, 3);
}

/// The die-major `f_max` pass reports its lane utilisation: 2,051 dies
/// are 2,051 points in 257 eight-lane arc passes (32 full 64-die jobs
/// and one pass carrying three dies and five padding lanes). The batch
/// is window-pruned, so those passes walk fewer arcs than the program
/// holds, and a repeat run walks the same number.
#[test]
fn fmax_distribution_counts_its_lane_passes() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    let dies = VariationModel::gaussian(0.05).sample(7, 2051);
    let run = || {
        telemetry::reset();
        let fmax = im.compiled.sta.fmax_distribution(OperatingPoint::at_voltage(0.9), &dies);
        assert_eq!(fmax.len(), 2051);
        telemetry::snapshot()
    };
    let report = run();
    assert_eq!(report.counter("sta.fmax_points"), Some(2051));
    assert_eq!(report.counter("sta.fmax_lane_passes"), Some(257));
    let kept = report.counter("sta.fmax_kept_arcs").unwrap();
    let arcs = im.compiled.sta.arc_count() as u64;
    assert!(kept < arcs, "the pruned batch walks {kept} of {arcs} arcs");
    assert_eq!(run().counter("sta.fmax_kept_arcs"), Some(kept), "the kept-arc count repeats");
}

/// A voltage-major power shmoo runs one switching pass per corner: a
/// 13 V × 40 f grid records one `power.corner_passes` per voltage with a
/// passing point, however many frequencies pass there, and a repeat run
/// records the same count. Its two-pass measurement is one chunk, so it
/// builds the 1-lane template plus one worker's executor.
#[test]
fn power_shmoo_runs_one_switching_pass_per_passing_voltage() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    let voltages: Vec<f64> = (0..13).map(|i| 0.60 + 0.05 * f64::from(i)).collect();
    let freqs: Vec<f64> = (1..=40).map(|i| 50.0 * f64::from(i)).collect();
    let weights = vec![vec![3, -2, 1, 0, -4, 5, 2, -1], vec![1; 8]];
    let passes = vec![vec![1; 8], vec![-3; 8]];
    let run = || {
        telemetry::reset();
        let ps = shmoo_with_power(&im, &lib, &voltages, &freqs, 4, &passes, &weights).unwrap();
        (ps, telemetry::snapshot())
    };
    let (ps, report) = run();
    let points = ps.shmoo.pass.iter().flatten().filter(|&&p| p).count() as u64;
    let corners = ps.shmoo.pass.iter().filter(|row| row.contains(&true)).count() as u64;
    assert!(points > corners && corners > 1, "{points} passing points over {corners} voltages");
    assert_eq!(report.counter("power.report_points"), Some(points));
    assert_eq!(report.counter("power.corner_passes"), Some(corners));
    assert_eq!(report.counter("engine.executors"), Some(2), "the template plus one worker");
    assert_eq!(run().1.counter("power.corner_passes"), Some(corners), "the pass count repeats");
}

/// The activity-driven engine counts its work once per pass. Over one
/// tiny-spec `measure_int`, every settle evaluates or skips each op
/// (`ops_executed + ops_skipped == settles × op_count`), the
/// weight-stationary passes skip both ops and state captures, and a
/// repeat run records the same counts.
#[test]
fn measure_int_counts_evaluated_and_skipped_engine_work() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    let weights = vec![vec![3, -2, 1, 0, -4, 5, 2, -1], vec![1; 8]];
    let passes = vec![vec![1; 8], vec![-3; 8], vec![7, -8, 0, 1, 2, -1, 5, 4]];
    let run = || {
        telemetry::reset();
        measure_int(&im, &lib, 4, &passes, &weights, OperatingPoint::at_voltage(0.9), 400.0).unwrap();
        let report = telemetry::snapshot();
        ["engine.settles", "engine.ops_executed", "engine.ops_skipped", "engine.captures_skipped"]
            .map(|name| report.counter(name).unwrap_or(0))
    };
    let counts = run();
    let [settles, executed, skipped, captures_skipped] = counts;
    let ops = im.compiled.program.op_count() as u64;
    assert_eq!(executed + skipped, settles * ops, "every settle evaluates or skips each of the {ops} ops");
    assert!(skipped > 0, "weight-stationary passes skip ops ({executed} evaluated)");
    assert!(captures_skipped > 0, "weight-stationary passes skip state captures");
    assert_eq!(run(), counts, "the counts repeat");
}

/// The search characterizes each SCL record once: a cold paper-chip
/// search counts one `scl.characterized` per cached record (25), however
/// many of its sites read each record, and a warm rerun on the same
/// `Scl` counts none.
#[test]
fn search_characterizes_each_scl_record_once() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Summary);

    let spec = MacroSpec::paper_test_chip();
    let mut scl = Scl::new();
    let characterized = |scl: &mut Scl| {
        telemetry::reset();
        assert!(!search(&spec, scl).frontier.is_empty());
        telemetry::snapshot().counter("scl.characterized").unwrap_or(0)
    };
    assert_eq!(characterized(&mut scl), 25, "a cold search");
    assert_eq!(scl.len(), 25);
    assert_eq!(characterized(&mut scl), 0, "a warm rerun");
    assert_eq!(scl.len(), 25);
}

/// Disabled mode records nothing — spans, counters, gauges all stay
/// empty while the instrumented flow runs at full speed.
#[test]
fn disabled_mode_records_nothing() {
    let _guard = LOCK.lock().unwrap();
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();

    let lib = CellLibrary::syn40();
    let im = implement(&lib, &tiny_spec(), &DesignChoice::default()).unwrap();
    assert!(im.report.root.children.is_empty(), "no spans while disabled");
    assert_eq!(im.report.counter("ir.lowerings").unwrap_or(0), 0);
    assert_eq!(im.report.gauge("engine.retained_bytes").unwrap_or(0), 0);
    assert!(!telemetry::enabled());
}
