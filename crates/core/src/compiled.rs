//! The compiled-macro bundle: one shared [`Lowering`] feeding all three
//! compiled analysis backends.
//!
//! [`CompiledMacro::compile`] walks the netlist **once** (pinned by
//! `tests/one_lowering_per_implement.rs` via [`Lowering::builds`]) and
//! hands the same IR straight to the simulation, timing and power
//! compilers ([`Program::from_lowering`], [`CompiledSta::from_lowering`],
//! [`CompiledPower::from_lowering`]), so every later sign-off query —
//! engine evaluation, shmoo timing, power annotation — runs on programs
//! that agree on slot assignment by construction.

use syndcim_ir::Lowering;
use syndcim_netlist::{Module, NetlistError};
use syndcim_pdk::CellLibrary;
use syndcim_power::CompiledPower;
use syndcim_sta::{CompiledSta, WireLoads};

use syndcim_engine::Program;

/// Every compiled analysis program of one implemented macro, built from
/// a single netlist lowering.
///
/// Stored on [`crate::ImplementedMacro`]; the evaluation
/// (`crate::eval`), timing (`crate::flow`) and shmoo/power
/// (`crate::shmoo`) entry points all consume it instead of re-lowering
/// the module per query.
#[derive(Debug, Clone)]
pub struct CompiledMacro {
    /// The shared netlist IR (connectivity + levelized order + dense
    /// net slots) every program below was compiled from.
    pub lowering: Lowering,
    /// The bit-parallel simulation program (engine backend).
    pub program: Program,
    /// The wire-annotated compiled timing program.
    pub sta: CompiledSta,
    /// The wire-annotated compiled power program.
    pub power: CompiledPower,
}

impl CompiledMacro {
    /// Lower `module` once and compile the simulation, timing and power
    /// programs from the shared traversal. `wires` carries the
    /// extracted parasitics (capacitance annotates both the timing
    /// loads and the power switched-capacitance columns; wire delay is
    /// timing-only).
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist fails validation (floating nets,
    /// multiple drivers) or contains a combinational loop — the same
    /// conditions under which the simulation backends refuse the
    /// module.
    pub fn compile(module: &Module, lib: &CellLibrary, wires: &WireLoads) -> Result<Self, NetlistError> {
        let lowering = Lowering::validated(module, lib)?;
        Ok(Self::compile_with_lowering(module, lib, wires, lowering))
    }

    /// [`CompiledMacro::compile`] from a lowering the caller already
    /// owns. The `implement` flow builds its lowering *before* placement
    /// (the placer resolves zones from the interned symbol table) and
    /// hands it here afterwards, so the one-lowering-per-implement
    /// contract holds even though layout runs in between. Infallible:
    /// validation happened when `lowering` was built.
    ///
    /// # Panics
    ///
    /// Panics if the wire tables do not cover every net.
    pub fn compile_with_lowering(
        module: &Module,
        lib: &CellLibrary,
        wires: &WireLoads,
        lowering: Lowering,
    ) -> Self {
        let program = Program::from_lowering(&lowering, module, lib);
        let power = CompiledPower::from_lowering(&lowering, module, lib, &wires.cap_ff);
        let sta = CompiledSta::from_lowering(&lowering, module, lib, wires);
        CompiledMacro { lowering, program, sta, power }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::OperatingPoint;
    use syndcim_power::PowerAnalyzer;
    use syndcim_sta::Sta;

    #[test]
    fn bundle_compiles_all_three_programs_from_one_walk() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        let x = b.not(a);
        let q = b.dff(x);
        b.output("q", q);
        let m = b.finish();

        let before = Lowering::builds();
        let cm = CompiledMacro::compile(&m, &lib, &WireLoads::zero(m.net_count())).unwrap();
        // Other tests run concurrently in this process, so pin a lower
        // bound here; the exact "one build per implement" contract is
        // pinned by the dedicated single-test integration binary.
        assert!(Lowering::builds() > before);

        assert_eq!(cm.lowering.net_count(), m.net_count());
        assert_eq!(cm.program.net_count(), m.net_count());
        assert_eq!(cm.sta.net_count(), m.net_count());
        assert_eq!(cm.power.net_count(), m.net_count());

        // The programs are usable: timing and power agree with their
        // reference analyzers built independently.
        let op = OperatingPoint::at_voltage(0.9);
        let sta = Sta::new(&m, &lib).unwrap();
        assert_eq!(cm.sta.fmax_mhz(op), sta.fmax_mhz(op));
        let toggles = vec![3u64; m.net_count()];
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let fast = cm.power.report(&toggles, 10, 500.0, op);
        let slow = pa.from_activity(&toggles, 10, 500.0, op);
        assert_eq!(fast.total_uw(), slow.total_uw());
    }
}
