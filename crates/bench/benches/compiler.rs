//! Compiler-runtime benchmarks: the "agile EDA framework" claim.
use criterion::{criterion_group, criterion_main, Criterion};
use syndcim_core::{assemble, implement, search, DesignChoice, MacroSpec};
use syndcim_scl::Scl;
use syndcim_subckt::AdderTreeConfig;

fn small_spec() -> MacroSpec {
    MacroSpec {
        h: 16,
        w: 16,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    }
}

fn bench_search(c: &mut Criterion) {
    c.bench_function("mso_search_16x16_warm_scl", |b| {
        let spec = small_spec();
        let mut scl = Scl::new();
        search(&spec, &mut scl); // warm the LUTs
        b.iter(|| search(&spec, &mut scl));
    });
}

fn bench_characterize(c: &mut Criterion) {
    c.bench_function("characterize_tree64", |b| {
        b.iter(|| {
            let mut scl = Scl::new();
            scl.adder_tree(64, AdderTreeConfig::default())
        });
    });
}

fn bench_assemble(c: &mut Criterion) {
    let lib = syndcim_pdk::CellLibrary::syn40();
    let spec = small_spec();
    c.bench_function("assemble_16x16", |b| {
        b.iter(|| assemble(&lib, &spec, &DesignChoice::default()));
    });
}

fn bench_flow(c: &mut Criterion) {
    let lib = syndcim_pdk::CellLibrary::syn40();
    let spec = small_spec();
    c.bench_function("implement_16x16_full_flow", |b| {
        b.iter(|| implement(&lib, &spec, &DesignChoice::default()).unwrap());
    });
}

criterion_group!(benches, bench_search, bench_characterize, bench_assemble, bench_flow);
criterion_main!(benches);
