//! Fault-injection campaigns on implemented macros.
//!
//! [`measure_weight_update_coverage`] runs the weight-update workload
//! once, with every injected fault living in its own engine lane
//! alongside a fault-free *golden* lane (lane 0): one simulation,
//! `faults.len() + 1` virtual dies. Every lane sees the **identical**
//! write-pattern stimulus, so any state divergence from the golden
//! lane is caused by the injected fault alone:
//!
//! * a fault is **detected** when any bitcell ends the campaign with a
//!   different value than the golden lane — exactly what a production
//!   write-readback test observes at the macro outputs;
//! * an undetected fault **survives**: the macro silently stores wrong
//!   (or coincidentally right) data. The report carries the mean and
//!   spread of the per-lane write energy over the surviving lanes via
//!   the engine's per-lane toggle accounting, so a campaign also says
//!   what the escapes cost.
//!
//! Determinism: the stimulus stream is the same xorshift stream
//! [`measure_weight_update`](crate::measure_weight_update) drives for
//! pattern 0, and fault application is a pure lane-mask AND/OR/XOR at
//! the engine's write boundary — identical `(seed, faults)` inputs
//! produce byte-identical [`FaultCoverageReport::to_json`] artifacts.

use syndcim_engine::{EngineSim, Fault, FaultKind, FaultPlan};
use syndcim_netlist::NetId;
use syndcim_pdk::OperatingPoint;
use syndcim_sim::SimBackend;
use syndcim_telemetry as telemetry;

use crate::error::CoreError;
use crate::eval::{configure_precision, pattern_seed, quiesce, write_burst, write_energy, WriteData};
use crate::flow::ImplementedMacro;
use crate::shmoo::push_json_floats;

/// Outcome of one fault-injection campaign on the weight-update path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCoverageReport {
    /// Faults injected (one engine lane each).
    pub injected: usize,
    /// Faults whose effect reached an observable bitcell.
    pub detected: usize,
    /// Indices (into the injected fault list) of undetected faults.
    pub survivors: Vec<usize>,
    /// Mean write energy per bit over the *surviving* lanes, in fJ
    /// (0 when every fault was detected).
    pub survivor_energy_per_bit_fj: f64,
    /// Population standard deviation of the survivor write energy, fJ.
    pub survivor_energy_per_bit_std_fj: f64,
    /// Write energy per bit of the fault-free golden lane, in fJ.
    pub golden_energy_per_bit_fj: f64,
    /// Bits written per lane during the campaign.
    pub bits_written: usize,
    /// Stimulus seed the campaign drove.
    pub seed: u64,
}

impl FaultCoverageReport {
    /// Fraction of injected faults detected (1.0 for an empty
    /// campaign: nothing escaped).
    pub fn coverage(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.detected as f64 / self.injected as f64
        }
    }

    /// Serialize with a deterministic schema (fixed key order), the
    /// same contract as [`crate::YieldReport::to_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"syndcim-fault-coverage-v1\"");
        out.push_str(&format!(
            ",\"injected\":{},\"detected\":{},\"coverage\":{}",
            self.injected,
            self.detected,
            self.coverage()
        ));
        out.push_str(",\"survivors\":[");
        for (i, s) in self.survivors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{s}"));
        }
        out.push(']');
        push_json_floats(
            &mut out,
            ",\"survivor_energy_per_bit_fj\":",
            &[self.survivor_energy_per_bit_fj, self.survivor_energy_per_bit_std_fj],
        );
        out.push_str(&format!(
            ",\"golden_energy_per_bit_fj\":{},\"bits_written\":{},\"seed\":{}}}",
            self.golden_energy_per_bit_fj, self.bits_written, self.seed
        ));
        out
    }
}

/// Resolve a port name on the implemented macro to the net a
/// [`Fault`] can target, if the port exists. Convenience for building
/// campaigns over named write/control ports (`"wbl[3]"`, `"wr_en"`,
/// `"act[0]"`, …).
pub fn port_net(im: &ImplementedMacro, port: &str) -> Option<NetId> {
    im.mac.module.port(port).map(|p| p.net)
}

/// Run the weight-update workload with `faults[i]` injected into lane
/// `i + 1` (lane 0 stays golden) and report fault coverage plus the
/// write-energy profile of the surviving lanes.
///
/// # Errors
///
/// Returns [`CoreError::PatternCount`] when the campaign (faults plus
/// the golden lane) exceeds the engine lane capacity, and
/// [`CoreError::Engine`] when the fault plan is malformed
/// (out-of-range net, contradictory stuck-ats on one lane).
pub fn measure_weight_update_coverage(
    im: &ImplementedMacro,
    op: OperatingPoint,
    f_mhz: f64,
    seed: u64,
    faults: &[(NetId, FaultKind)],
) -> Result<FaultCoverageReport, CoreError> {
    telemetry::span!("eval.fault_coverage");
    let mac = &im.mac;
    let lanes = faults.len() + 1;
    if lanes > EngineSim::MAX_LANES {
        return Err(CoreError::PatternCount { patterns: lanes, max: EngineSim::MAX_LANES });
    }
    telemetry::counter("eval.faults_injected").add(faults.len() as u64);

    let mut plan = FaultPlan::new();
    for (i, &(net, kind)) in faults.iter().enumerate() {
        plan.push(Fault { net, lane: i + 1, kind });
    }

    let mut sim = EngineSim::try_new(&im.compiled.program, &mac.module, lanes)?;
    sim.enable_lane_toggles();
    configure_precision(&mut sim, mac, mac.w_bits);
    quiesce(&mut sim, mac);
    // Install after the quiesce so transient flip cycles count from
    // the first stimulus step, and stuck nets are forced from a
    // settled state.
    sim.install_faults(&plan)?;
    sim.reset_activity();

    // Identical write stream in every lane: the golden lane's pattern-0
    // stream, broadcast across all lane words.
    write_burst(&mut sim, mac, WriteData::Broadcast(pattern_seed(seed, 0) | 1));

    // A fault is detected when any bitcell diverged from the golden
    // lane — the write-readback observation a tester has.
    let mut survivors = Vec::new();
    let mut detected = 0usize;
    for l in 1..lanes {
        let diverged =
            mac.bitcells.iter().any(|bc| sim.state_of_lane(bc.inst, l) != sim.state_of_lane(bc.inst, 0));
        if diverged {
            detected += 1;
        } else {
            survivors.push(l - 1);
        }
    }

    // The mean of the golden lane alone is its energy.
    let golden_energy = write_energy(im, &sim, 0..1, op, f_mhz).0;
    let (mean, std) = write_energy(im, &sim, survivors.iter().map(|&i| i + 1), op, f_mhz);

    Ok(FaultCoverageReport {
        injected: faults.len(),
        detected,
        survivors,
        survivor_energy_per_bit_fj: mean,
        survivor_energy_per_bit_std_fj: std,
        golden_energy_per_bit_fj: golden_energy,
        bits_written: mac.w * mac.h * mac.mcr,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignChoice;
    use crate::flow::implement;
    use crate::spec::MacroSpec;
    use syndcim_pdk::CellLibrary;

    fn implemented() -> (ImplementedMacro, CellLibrary) {
        let lib = CellLibrary::syn40();
        let spec = MacroSpec {
            h: 8,
            w: 8,
            mcr: 2,
            int_precisions: vec![1, 2, 4],
            fp_precisions: vec![],
            f_mac_mhz: 400.0,
            f_wu_mhz: 400.0,
            vdd_v: 0.9,
            ppa: Default::default(),
        };
        let im = implement(&lib, &spec, &DesignChoice::default()).unwrap();
        (im, lib)
    }

    #[test]
    fn stuck_write_bitlines_are_detected_and_idle_net_faults_survive() {
        let (im, _lib) = implemented();
        let op = OperatingPoint::at_voltage(0.9);
        // Stuck write bitlines corrupt stored weights → detected. A
        // stuck-at-0 on `neg` (held low throughout the write workload)
        // never diverges → survives.
        let faults = vec![
            (port_net(&im, "wbl[0]").unwrap(), FaultKind::StuckAt0),
            (port_net(&im, "wbl[3]").unwrap(), FaultKind::StuckAt1),
            (port_net(&im, "neg").unwrap(), FaultKind::StuckAt0),
        ];
        let r = measure_weight_update_coverage(&im, op, 400.0, 99, &faults).unwrap();
        assert_eq!(r.injected, 3);
        assert_eq!(r.detected, 2, "{r:?}");
        assert_eq!(r.survivors, vec![2]);
        assert!((r.coverage() - 2.0 / 3.0).abs() < 1e-12);
        // The surviving lane ran the exact golden stimulus on a net
        // already at its stuck value — its energy matches golden.
        assert!(r.survivor_energy_per_bit_fj > 0.0);
        assert!((r.survivor_energy_per_bit_fj - r.golden_energy_per_bit_fj).abs() < 1e-9, "{r:?}");
        assert_eq!(r.survivor_energy_per_bit_std_fj, 0.0);
    }

    #[test]
    fn transient_flip_is_detected_only_when_it_hits_a_write_cycle() {
        let (im, _lib) = implemented();
        let op = OperatingPoint::at_voltage(0.9);
        let wbl0 = port_net(&im, "wbl[0]").unwrap();
        let writes = (im.mac.h * im.mac.mcr) as u64;
        // A flip during the write burst corrupts one captured bit; a
        // flip after the last write cycle can never be stored.
        let faults = vec![
            (wbl0, FaultKind::FlipAtCycle(0)),
            (wbl0, FaultKind::FlipAtCycle(writes / 2)),
            (wbl0, FaultKind::FlipAtCycle(writes + 10)),
        ];
        let r = measure_weight_update_coverage(&im, op, 400.0, 7, &faults).unwrap();
        assert_eq!(r.detected, 2, "{r:?}");
        assert_eq!(r.survivors, vec![2]);
    }

    #[test]
    fn empty_campaign_reports_full_coverage_and_golden_energy() {
        let (im, _lib) = implemented();
        let r = measure_weight_update_coverage(&im, OperatingPoint::at_voltage(0.9), 400.0, 99, &[]).unwrap();
        assert_eq!(r.injected, 0);
        assert_eq!(r.coverage(), 1.0);
        assert!(r.golden_energy_per_bit_fj > 0.0);
        // And the golden lane's energy matches the plain single-pattern
        // weight-update measurement (same stream, same accounting).
        let wu = crate::eval::measure_weight_update(
            &im,
            &CellLibrary::syn40(),
            OperatingPoint::at_voltage(0.9),
            400.0,
            99,
            1,
        )
        .unwrap();
        assert!((r.golden_energy_per_bit_fj - wu.energy_per_bit_fj).abs() < 1e-9, "{r:?} vs {wu:?}");
    }

    #[test]
    fn malformed_campaigns_return_typed_errors() {
        let (im, _lib) = implemented();
        let op = OperatingPoint::at_voltage(0.9);
        let wbl0 = port_net(&im, "wbl[0]").unwrap();
        // Too many lanes.
        let many = vec![(wbl0, FaultKind::StuckAt0); EngineSim::MAX_LANES];
        assert!(matches!(
            measure_weight_update_coverage(&im, op, 400.0, 0, &many).unwrap_err(),
            CoreError::PatternCount { .. }
        ));
        // Unknown port name resolves to None instead of panicking.
        assert!(port_net(&im, "no_such_port").is_none());
        let json = measure_weight_update_coverage(&im, op, 400.0, 3, &[(wbl0, FaultKind::StuckAt1)])
            .unwrap()
            .to_json();
        assert!(json.starts_with("{\"schema\":\"syndcim-fault-coverage-v1\""), "{json}");
        let again = measure_weight_update_coverage(&im, op, 400.0, 3, &[(wbl0, FaultKind::StuckAt1)])
            .unwrap()
            .to_json();
        assert_eq!(json, again, "byte-identical artifact for identical campaigns");
    }
}
