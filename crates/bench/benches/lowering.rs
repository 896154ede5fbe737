//! Scale-tier lowering bench: a generator-backed large macro (256×256,
//! MCR 2 — ≥10⁵ nets, well past the 64×64 paper chip) lowered through
//! the shared IR, plus the memory gate of the interned-symbol layer.
//!
//! Three things are measured and merged into `BENCH_engine.json`:
//!
//! * **assembly** — `assemble` building the large macro's netlist;
//! * **lowering throughput** — `Lowering::validated` (connectivity +
//!   levelization + name interning) and the full `CompiledMacro`
//!   bundle compile on the large macro, in ms and nets/s;
//! * **name-table memory** — retained bytes of the interned name layer
//!   (symbol tables + one shared arena, counted once across the whole
//!   compiled trinity) versus the owned-`String`-table baseline the
//!   pre-interning artifacts carried (per-net + per-instance +
//!   per-instance-group clones in `CompiledSta`, head names in
//!   `CompiledPower`). **Fails unless the reduction is ≥ 2×** — the
//!   acceptance bar of the interning refactor.
//!
//! A smoke pass at the end proves the scale tier is actually usable:
//! the compiled bundle answers an STA query and a power report on the
//! ~4×10⁵-net macro.

use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_bench::merge_bench_artifact;
use syndcim_core::{assemble, CompiledMacro, DesignChoice, MacroSpec};
use syndcim_ir::Lowering;
use syndcim_netlist::{InstId, Module, NetId};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sta::WireLoads;

/// The scale-tier acceptance floor: the generated macro must be at
/// least this many nets (the paper chip is ~3×10⁴; this tier is the
/// "what if macros grow to 10⁵–10⁶ nets" regime the ROADMAP flagged).
const MIN_NETS: usize = 100_000;

/// Required memory reduction of interned names vs the string-table
/// baseline.
const MIN_MEMORY_REDUCTION: f64 = 2.0;

/// The 256×256 MCR-2 dense-INT spec backing the scale tier.
fn large_spec() -> MacroSpec {
    MacroSpec {
        h: 256,
        w: 256,
        mcr: 2,
        int_precisions: vec![1, 2, 4, 8],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

/// Bytes the pre-interning compiled artifacts owned in `String` name
/// tables: `CompiledSta` cloned one net-name, one instance-name and one
/// full group-path string per element; `CompiledPower` cloned the
/// distinct head names. (`String` counted as struct + len bytes —
/// allocator slack ignored, which under-counts the baseline and makes
/// the asserted ratio conservative.)
fn string_table_bytes(m: &Module) -> usize {
    let s = std::mem::size_of::<String>();
    let nets: usize = (0..m.net_count() as u32).map(|n| s + m.net_name(NetId(n)).len()).sum();
    let insts: usize = (0..m.instance_count() as u32).map(|i| s + m.inst_name(InstId(i)).len()).sum();
    let inst_groups: usize = m.instances().map(|i| s + m.group_name(i.group).len()).sum();
    let heads: usize = {
        let mut seen = std::collections::BTreeSet::new();
        m.instances()
            .map(|i| {
                let g = m.group_name(i.group);
                let head = g.split('/').next().unwrap_or(g);
                if seen.insert(head) {
                    s + head.len()
                } else {
                    0
                }
            })
            .sum()
    };
    nets + insts + inst_groups + heads
}

fn bench_lowering(c: &mut Criterion) {
    let lib = CellLibrary::syn40();
    let spec = large_spec();
    let assembly =
        c.bench_stats("assemble_256x256", |b| b.iter(|| assemble(&lib, &spec, &DesignChoice::default())));
    let mac = assemble(&lib, &spec, &DesignChoice::default());
    let module = &mac.module;
    let nets = module.net_count();
    assert!(nets >= MIN_NETS, "scale tier needs >= {MIN_NETS} nets, generated only {nets}");
    println!(
        "large macro: {} nets, {} instances, {} groups",
        nets,
        module.instance_count(),
        module.group_count()
    );

    // --- lowering throughput on the large macro ----------------------
    let lower = c.bench_stats("lowering_256x256", |b| {
        b.iter(|| Lowering::validated(module, &lib).expect("generated macros are well-formed"))
    });
    let lowering_ms = lower.ns_per_iter / 1e6;
    let nets_per_s = nets as f64 / (lower.ns_per_iter * 1e-9);

    // --- full compiled-trinity bundle on the large macro -------------
    let wires = WireLoads::zero(nets);
    let bundle = c.bench_stats("compiled_macro_256x256", |b| {
        b.iter(|| CompiledMacro::compile(module, &lib, &wires).expect("generated macros compile"))
    });
    let bundle_ms = bundle.ns_per_iter / 1e6;

    // --- interned name layer vs the string-table baseline ------------
    let low = Lowering::validated(module, &lib).expect("generated macros are well-formed");
    let interned = low.symbols().heap_bytes();
    let baseline = string_table_bytes(module);
    let reduction = baseline as f64 / interned as f64;
    println!(
        "name tables: interned {:.2} MiB vs string baseline {:.2} MiB — {reduction:.2}x reduction",
        interned as f64 / (1 << 20) as f64,
        baseline as f64 / (1 << 20) as f64,
    );
    assert!(
        reduction >= MIN_MEMORY_REDUCTION,
        "interned name layer must be >= {MIN_MEMORY_REDUCTION}x smaller than the string-table \
         baseline, measured only {reduction:.2}x ({interned} vs {baseline} bytes)"
    );

    // --- smoke: the scale-tier bundle answers real queries -----------
    let cm = CompiledMacro::compile(module, &lib, &wires).expect("generated macros compile");
    let op = OperatingPoint::at_voltage(0.9);
    let fmax = cm.sta.fmax_mhz(op);
    assert!(fmax.is_finite() && fmax > 0.0, "scale-tier STA must produce a usable fmax, got {fmax}");
    let report = cm.power.report_static(0.1, 500.0, op);
    assert!(report.total_uw() > 0.0, "scale-tier power report must be non-trivial");
    assert!(cm.power.path_count() >= cm.power.group_count());
    println!("smoke: fmax {fmax:.0} MHz, static power {:.1} mW at 0.9 V", report.total_mw());

    merge_bench_artifact(
        &["assemble_", "lowering_", "intern_"],
        &[
            ("assemble_256x256_ms", assembly.ns_per_iter / 1e6),
            ("lowering_256x256_ms", lowering_ms),
            ("lowering_256x256_nets_vps", nets_per_s),
            ("lowering_compiled_macro_ms", bundle_ms),
            ("intern_bytes_mib", interned as f64 / (1 << 20) as f64),
            ("intern_reduction_over_strings", reduction),
        ],
    );
}

criterion_group!(benches, bench_lowering);
criterion_main!(benches);
