//! # syndcim-bench — harness regenerating every paper table and figure
//!
//! Each binary regenerates one artifact of the paper's evaluation
//! (§IV): `table1`, `fig7`, `fig8`, `fig9`, `fig10`, `table2`, plus the
//! `ablation_csa` / `ablation_search` studies. Criterion benches cover
//! compiler runtime (the "agile EDA" claim). Run binaries with
//! `--release`; see EXPERIMENTS.md for recorded outputs.

use std::collections::BTreeMap;

use syndcim_core::{implement, ImplementedMacro, MacroSpec};
use syndcim_scl::Scl;

/// Path of the shared bench artifact (`BENCH_ENGINE_JSON` env override,
/// defaulting to `BENCH_engine.json` in the working directory).
pub fn bench_artifact_path() -> String {
    std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| "BENCH_engine.json".into())
}

/// Parse the flat `{"key": number, ...}` JSON the benches write. No
/// serde in this offline workspace — the format is fixed and ours, and
/// this is the single parser every producer/consumer shares (the
/// benches merge through [`merge_bench_artifact`], `bench_diff` reads
/// through here), so writer and reader cannot drift apart.
pub fn parse_bench_artifact(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else { continue };
        let key = key.trim().trim_matches('"');
        if key.is_empty() {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            out.insert(key.to_string(), v);
        }
    }
    out
}

/// Merge `entries` into the shared bench artifact: keep whatever other
/// benches already wrote, drop stale keys matching any of this bench's
/// `stale_prefixes`, insert the fresh numbers, rewrite the file
/// (sorted by key).
pub fn merge_bench_artifact(stale_prefixes: &[&str], entries: &[(&str, f64)]) {
    let path = bench_artifact_path();
    let mut map = std::fs::read_to_string(&path).map(|s| parse_bench_artifact(&s)).unwrap_or_default();
    map.retain(|k, _| !stale_prefixes.iter().any(|p| k.starts_with(p)));
    for (key, value) in entries {
        map.insert(key.to_string(), *value);
    }
    let lines: Vec<String> = map.iter().map(|(k, v)| format!("  \"{k}\": {v:.3}")).collect();
    let json = format!("{{\n{}\n}}\n", lines.join(",\n"));
    std::fs::write(&path, json).expect("write bench artifact");
    println!("wrote {path}");
}

/// Search + implement the preferred design for `spec`, returning the
/// macro and the cell library (panics on infeasible specs — the bench
/// specs are known-good).
pub fn implement_best(spec: &MacroSpec) -> (ImplementedMacro, syndcim_pdk::CellLibrary) {
    let mut scl = Scl::new();
    let res = syndcim_core::search(spec, &mut scl);
    let best = res.best(spec).expect("bench specs are feasible");
    let lib = scl.cell_library().clone();
    let im = implement(&lib, spec, &best.choice).expect("flow succeeds");
    (im, lib)
}

/// Dense INT spec without FP units, at the given dimension.
pub fn int_spec(dim: usize) -> MacroSpec {
    MacroSpec {
        h: dim,
        w: dim,
        mcr: 2,
        int_precisions: vec![1, 2, 4, 8],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}
