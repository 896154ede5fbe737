//! Weight-update study (§II-B bitcell variants): write energy per bit,
//! write bandwidth and the update-frequency limit for each memory cell.
use syndcim_core::{implement, measure_weight_update, DesignChoice, MacroSpec, DEFAULT_WU_PATTERNS};
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_subckt::BitcellKind;

fn main() {
    let lib = CellLibrary::syn40();
    let spec = MacroSpec {
        h: 32,
        w: 32,
        mcr: 2,
        int_precisions: vec![1, 2, 4],
        fp_precisions: vec![],
        f_mac_mhz: 400.0,
        f_wu_mhz: 400.0,
        vdd_v: 0.9,
        ppa: Default::default(),
    };
    println!("Weight-update study: 32x32, MCR=2, writes at 400 MHz @0.9V (all bits verified)");
    println!(
        "{:<12}{:>16}{:>12}{:>16}{:>18}",
        "bitcell", "fJ/bit (mean)", "± std", "write Gb/s", "write setup ps"
    );
    for bitcell in BitcellKind::ALL {
        let choice = DesignChoice { bitcell: *bitcell, ..DesignChoice::default() };
        let im = implement(&lib, &spec, &choice).expect("flow");
        let m =
            measure_weight_update(&im, &lib, OperatingPoint::at_voltage(0.9), 400.0, 7, DEFAULT_WU_PATTERNS)
                .expect("verified");
        let setup = lib.cell(lib.id_of(bitcell.cell_kind())).seq.unwrap().setup_ps;
        println!(
            "{:<12}{:>16.1}{:>12.2}{:>16.1}{:>18.0}",
            bitcell.to_string(),
            m.energy_per_bit_fj,
            m.energy_per_bit_std_fj,
            m.bandwidth_gbps,
            setup
        );
    }
    println!("\npaper shape: the 8T latch is the robust fast-write cell; the 12T OAI cell trades area/write speed for design feasibility");
}
