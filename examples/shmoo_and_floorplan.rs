//! Silicon-style sign-off artifacts: the shmoo plot (Fig. 9) and the
//! floorplan "die photo" (Fig. 10) for a compact macro.
use syndcim_core::{implement, search, shmoo, MacroSpec};
use syndcim_layout::render_ascii;
use syndcim_scl::Scl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = MacroSpec {
        h: 16,
        w: 16,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 500.0,
        f_wu_mhz: 500.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    };
    let mut scl = Scl::new();
    let res = search(&spec, &mut scl);
    let best = res.best(&spec).expect("feasible");
    let lib = scl.cell_library().clone();
    let im = implement(&lib, &spec, &best.choice)?;

    let vs: Vec<f64> = (0..=10).map(|i| 0.6 + 0.06 * i as f64).collect();
    let fs: Vec<f64> = (1..=10).map(|i| 200.0 * i as f64).collect();
    println!("shmoo ({}):\n{}", best.choice.label(), shmoo(&im, &lib, &vs, &fs).render());
    println!("floorplan ({:.4} mm2):", im.area_mm2());
    println!("{}", render_ascii(&im.mac.module, &im.placement, 80, 18));
    Ok(())
}
