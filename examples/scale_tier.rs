//! Scale tier: a generator-backed large macro (256×256, MCR 2 —
//! ~4×10⁵ nets, well past the 64×64 paper chip) pushed through the
//! **full** `implement` flow: assembly, netlist cleanup, one lowering,
//! symbol-keyed parallel SDP placement, sharded DRC, fused parasitic
//! extraction and post-layout sign-off. The matching regression gates
//! are `cargo bench -p syndcim-bench --bench lowering` and
//! `--bench layout`.
//!
//! Phase timing comes from `syndcim-telemetry` spans instead of
//! hand-rolled `Instant` prints: the example forces collection on
//! (unless `SYNDCIM_TRACE` already chose a mode) and emits the flow
//! report at the end —
//!
//! * `SYNDCIM_TRACE=summary` (or unset): human-readable span tree +
//!   counters on stdout;
//! * `SYNDCIM_TRACE=json`: deterministic-schema JSON written to
//!   `FlowReport.json` (override with `SYNDCIM_FLOW_REPORT`), the
//!   artifact CI uploads.
//!
//! Run with `cargo run --release --example scale_tier`.

use syndcim_core::{implement, DesignChoice, MacroSpec};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_telemetry as telemetry;

fn main() {
    if telemetry::mode() == telemetry::Mode::Off {
        telemetry::set_mode(telemetry::Mode::Summary);
    }

    let lib = CellLibrary::syn40();
    let spec = MacroSpec {
        h: 256,
        w: 256,
        mcr: 2,
        int_precisions: vec![1, 2, 4, 8],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    };

    let (im, fmax) = {
        telemetry::span!("scale_tier");

        // Full flow: assemble → optimize → lower → place → DRC → extract
        // → compile → sign-off. A clean return *is* the DRC/LVS verdict.
        let im = implement(&lib, &spec, &DesignChoice::default()).expect("scale-tier implement");
        let m = &im.mac.module;
        println!(
            "implemented 256x256 (MCR 2): {} nets, {} instances, {} groups",
            m.net_count(),
            m.instance_count(),
            m.group_count()
        );
        println!(
            "placement: die {:.0}x{:.0} um ({:.3} mm2), {} regions, utilization {:.0}%, DRC clean",
            im.placement.die.w_um,
            im.placement.die.h_um,
            im.area_mm2(),
            im.placement.regions.len(),
            im.placement.utilization * 100.0
        );
        println!(
            "extraction: {:.1} m total wire, compiled trinity: {} engine ops, {} timing arcs, {} path nodes",
            im.wires.total_wirelength_um * 1e-6,
            im.compiled.program.op_count(),
            im.compiled.sta.arc_count(),
            im.compiled.power.path_count()
        );

        let fmax = {
            telemetry::span!("scale_tier.sta_query");
            im.fmax_mhz(&lib, OperatingPoint::at_voltage(0.9))
        };
        println!("post-layout sign-off over 4x10^5 nets: fmax {fmax:.0} MHz @ 0.9 V");
        (im, fmax)
    };
    assert!(fmax > 0.0 && im.mac.module.net_count() > 100_000);

    let report = telemetry::snapshot();
    match telemetry::mode() {
        telemetry::Mode::Json => {
            let path = std::env::var("SYNDCIM_FLOW_REPORT").unwrap_or_else(|_| "FlowReport.json".to_string());
            std::fs::write(&path, report.to_json()).expect("write flow report");
            println!("wrote {path}");
        }
        _ => println!("\n{}", report.render()),
    }
}
