//! The Multi-Spec-Oriented (MSO) searcher — Algorithm 1 of the paper.
//!
//! "Once the search space is ready, the searcher evaluates whether the
//! critical paths of the MAC … meet the timing constraints. For the MAC
//! path, the searcher checks if faster adders are available in the SCL
//! or performs retiming by moving the registers at the output of the
//! adder to the front of the last RCA stage. If these fine-tuning
//! techniques do not work, the searcher divides the column with height H
//! into two columns with height H/2. Similarly, if the OFU does not meet
//! the timing constraints, the searcher performs retiming by moving some
//! combinational circuits to the S&A. If retiming is insufficient, the
//! searcher adds an extra pipeline stage to the OFU. After satisfying
//! the basic timing requirements, the searcher optimizes the pipeline
//! registers … if the combined path delay of neighbouring combinational
//! circuits still meets the timing constraints, the searcher removes the
//! registers between them. Finally, fine-tuning optimization techniques
//! for power or area are applied by substituting power/area-efficient
//! subcircuits."

use syndcim_scl::{PpaRecord, Scl};
use syndcim_sim::Precision;
use syndcim_subckt::arith::count_bits;
use syndcim_subckt::{AdderTreeConfig, AdderTreeKind, BitcellKind, MultMuxKind, OfuConfig, ShiftAddConfig};
use syndcim_telemetry as telemetry;

use crate::design::{DesignChoice, DesignPoint, PpaEstimate};
use crate::pareto::pareto_frontier;
use crate::spec::MacroSpec;

/// Register setup/clk-to-q margins folded into stage estimates, in ps
/// (nominal corner; scaled with voltage like everything else).
const REG_MARGIN_PS: f64 = 90.0;

/// Pre-layout→post-layout derate applied to SCL delays during the
/// search: the LUTs are wire-free, the implemented macro is not.
const WIRE_DERATE: f64 = 1.30;

/// Maximum number of full-adder rounds the tree ladder climbs.
const MAX_FA_ROUNDS: usize = 6;

/// Result of one search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Every timing-feasible design point evaluated.
    pub feasible: Vec<DesignPoint>,
    /// The Pareto frontier over (power, area, latency).
    pub frontier: Vec<DesignPoint>,
    /// Candidates rejected on timing, for diagnostics.
    pub rejected: usize,
}

impl SearchResult {
    /// The frontier point that best matches the spec's PPA weights.
    pub fn best(&self, spec: &MacroSpec) -> Option<&DesignPoint> {
        self.frontier.iter().min_by(|a, b| a.score(&spec.ppa).total_cmp(&b.score(&spec.ppa)))
    }
}

/// Stage-delay estimates for one choice, assembled from SCL records.
#[derive(Debug, Clone, Copy)]
pub struct StageDelays {
    /// Activation entry → psum register (or straight through to acc).
    pub mac_ps: f64,
    /// Psum register → S&A accumulator (retimed CPA + accumulate add).
    pub sa_ps: f64,
    /// Accumulator → fused channel outputs.
    pub ofu_ps: f64,
    /// Write-bitline entry → bitcell capture.
    pub write_ps: f64,
    /// FP alignment stage (0 when no FP precision is requested).
    pub align_ps: f64,
}

impl StageDelays {
    /// Worst per-stage delay of the MAC pipeline.
    pub fn worst_mac_stage(&self) -> f64 {
        self.mac_ps.max(self.sa_ps).max(self.ofu_ps).max(self.align_ps)
    }
}

/// Run the multi-spec-oriented search for `spec` against `scl`.
///
/// Returns every feasible point plus the Pareto frontier. The estimates
/// come from the SCL lookup tables; the implementation flow
/// (`crate::flow`) later signs off the selected points with full STA.
///
/// Evaluation climbs each `(bitcell, multmux)` site's adder ladder in
/// turn on the caller's thread, and every estimate reads its records
/// through `scl`, which characterizes a key on its first lookup and
/// caches it. Records are deterministic per key, so a cold and a warm
/// `scl` give the same result (feasible list, frontier, rejection
/// count).
///
/// A spec that [`MacroSpec::validate`] rejects has no designs, so the
/// result is empty; call `validate` for the reason.
pub fn search(spec: &MacroSpec, scl: &mut Scl) -> SearchResult {
    telemetry::span!("search");
    if spec.validate().is_err() {
        return SearchResult { feasible: Vec::new(), frontier: Vec::new(), rejected: 0 };
    }
    // Constraints are specified at spec.vdd_v: scale nominal-corner SCL
    // delays to that supply.
    let scale = scl.cell_library().process().delay_scale(spec.vdd_v);
    let period = spec.mac_period_ps();
    let wu_period = spec.wu_period_ps();

    let sites = telemetry::counter("search.sites");
    let mut feasible: Vec<DesignPoint> = Vec::new();
    let mut rejected = 0usize;
    for &bitcell in BitcellKind::ALL {
        for &multmux in MultMuxKind::ALL.iter().filter(|multmux| multmux.supports_mcr(spec.mcr)) {
            sites.incr();
            telemetry::span!("search.site");
            let site = search_site(spec, scl, bitcell, multmux, scale, period, wu_period);
            feasible.extend(site.feasible);
            rejected += site.rejected;
        }
    }

    let frontier = pareto_frontier(&feasible);
    SearchResult { feasible, frontier, rejected }
}

/// Feasible points and rejections of one `(bitcell, multmux)` site.
struct SiteResult {
    feasible: Vec<DesignPoint>,
    rejected: usize,
}

/// Climb the adder ladder for one memory/multiplier site, applying the
/// paper's timing moves (retime → split → align pipeline → OFU retime →
/// OFU pipeline), register pruning and fine-tuning.
fn search_site(
    spec: &MacroSpec,
    scl: &mut Scl,
    bitcell: BitcellKind,
    multmux: MultMuxKind,
    scale: f64,
    period: f64,
    wu_period: f64,
) -> SiteResult {
    let mut feasible: Vec<DesignPoint> = Vec::new();
    let mut rejected = 0usize;

    // Climb the adder ladder from the cheapest topology; the RCA
    // baseline rides along so it stays searchable.
    let mut ladder = AdderTreeKind::speed_ladder(MAX_FA_ROUNDS);
    ladder.push(AdderTreeKind::RcaTree);
    let ladder_steps = telemetry::counter("search.ladder_steps");
    let mut found_for_site = false;
    for kind in ladder {
        ladder_steps.incr();
        let mut choice = DesignChoice { bitcell, multmux, tree_kind: kind, ..DesignChoice::default() };

        // --- MAC-path loop: retime, then split ---------------
        let mut stages = estimate(spec, scl, &choice);
        if stages.mac_ps * scale > period && !choice.tree_retimed {
            choice.tree_retimed = true;
            stages = estimate(spec, scl, &choice);
        }
        while stages.mac_ps * scale > period && choice.column_split < 4 {
            choice.column_split *= 2;
            stages = estimate(spec, scl, &choice);
        }

        // --- alignment-unit pipelining --------------------------
        if stages.align_ps * scale > period {
            choice.align_pipelined = true;
            stages = estimate(spec, scl, &choice);
        }

        // --- OFU loop: retime negate, then extra pipeline ----
        if stages.ofu_ps * scale > period {
            choice.ofu_negate_retimed = true;
            stages = estimate(spec, scl, &choice);
        }
        if stages.ofu_ps * scale > period {
            choice.ofu_extra_pipe = true;
            stages = estimate(spec, scl, &choice);
        }

        // --- weight-update constraint -------------------------
        if stages.write_ps * scale > wu_period {
            // Write path can't keep up even after every timing move:
            // the sibling counter records *why* the rung was pruned.
            telemetry::counter("search.pruned_wu_timing").incr();
            rejected += 1;
            continue;
        }

        if stages.worst_mac_stage() * scale > period {
            telemetry::counter("search.pruned_mac_timing").incr();
            rejected += 1;
            continue;
        }
        found_for_site = true;

        // --- register pruning ---------------------------------
        // Merge tree and S&A stages when their combined delay
        // still fits the period.
        if !choice.tree_retimed && choice.pipe_tree_sa {
            let merged = DesignChoice { pipe_tree_sa: false, ..choice };
            let ms = estimate(spec, scl, &merged);
            if ms.worst_mac_stage() * scale <= period && ms.write_ps * scale <= wu_period {
                feasible.push(point(spec, scl, &merged, &ms));
            }
        }

        // --- power/area fine-tuning ---------------------------
        // The retimed-negate OFU trades the per-column negate
        // chains for control-path XORs: strictly cheaper, adopted
        // when timing holds.
        if !choice.ofu_negate_retimed {
            let tuned = DesignChoice { ofu_negate_retimed: true, ..choice };
            let ts = estimate(spec, scl, &tuned);
            if ts.worst_mac_stage() * scale <= period {
                feasible.push(point(spec, scl, &tuned, &ts));
            }
        }

        feasible.push(point(spec, scl, &choice, &stages));
    }
    if !found_for_site {
        telemetry::counter("search.pruned_infeasible_site").incr();
        rejected += 1;
    }

    telemetry::counter("search.pruned").add(rejected as u64);
    SiteResult { feasible, rejected }
}

/// The widths and SCL records one choice is estimated from.
struct ChoiceRecords {
    /// Psum width: bits of a count of `h` products.
    psum_bits: usize,
    /// Serial activation bits.
    act_bits: usize,
    /// Weight bits.
    w_bits: usize,
    /// Word-line driver into `w` columns.
    driver: PpaRecord,
    /// One column slice, characterized at up to 16 rows.
    column: PpaRecord,
    /// One adder tree over the column's split chunk.
    tree: PpaRecord,
    /// The shift-and-adder.
    sa: PpaRecord,
    /// The output fusion unit.
    ofu: PpaRecord,
    /// The alignment unit of the widest FP format, if any.
    align: Option<PpaRecord>,
}

/// Derive the widths and look up the SCL records of `choice` for `spec`.
fn choice_records(spec: &MacroSpec, scl: &mut Scl, choice: &DesignChoice) -> ChoiceRecords {
    let h = spec.h;
    let chunk = h / choice.column_split.max(1);
    let psum_bits = count_bits(h);
    let act_bits = spec.act_bits() as usize;
    let sa_bits = psum_bits + act_bits;
    let w_bits = spec.weight_bits() as usize;

    let tree_cfg = AdderTreeConfig {
        kind: choice.tree_kind,
        carry_reorder: choice.carry_reorder,
        final_cpa: !choice.tree_retimed,
    };
    ChoiceRecords {
        psum_bits,
        act_bits,
        w_bits,
        driver: scl.driver(spec.w),
        column: scl.column(h.min(16), spec.mcr, choice.bitcell, choice.multmux),
        tree: scl.adder_tree(chunk, tree_cfg),
        sa: scl.shift_add(ShiftAddConfig { psum_bits, act_bits }),
        ofu: scl.ofu(OfuConfig {
            w_bits,
            sa_bits,
            negate_stage: !choice.ofu_negate_retimed,
            extra_pipeline: choice.ofu_extra_pipe,
        }),
        align: spec.widest_fp().map(|fmt| scl.align(h.min(16), fmt, choice.align_pipelined)),
    }
}

/// Assemble stage-delay estimates for one choice from SCL records
/// (derated for routing; exposed for diagnostics and ablations).
pub fn estimate(spec: &MacroSpec, scl: &mut Scl, choice: &DesignChoice) -> StageDelays {
    let h = spec.h;
    let ChoiceRecords { psum_bits, driver, column, tree, sa, ofu, align, .. } =
        choice_records(spec, scl, choice);

    // Split recombination: log2(split) ripple levels of ~psum_bits FAs.
    let combine_ps = if choice.column_split > 1 {
        let levels = choice.column_split.trailing_zeros() as f64;
        levels * psum_bits as f64 * 18.0
    } else {
        0.0
    };
    // Retimed CPA runs in the S&A stage: approximate by the ripple of
    // psum_bits full adders.
    let retimed_cpa_ps = if choice.tree_retimed { psum_bits as f64 * 18.0 } else { 0.0 };

    let front = (driver.delay_ps + column.delay_ps + tree.delay_ps + combine_ps) * WIRE_DERATE;
    let (mac_ps, sa_ps) = if choice.pipe_tree_sa {
        (front + REG_MARGIN_PS, (retimed_cpa_ps + sa.delay_ps) * WIRE_DERATE + REG_MARGIN_PS)
    } else {
        // Merged stage: one long path from activation to accumulator.
        (front + sa.delay_ps * WIRE_DERATE + REG_MARGIN_PS, 0.0)
    };
    let ofu_ps = ofu.delay_ps * WIRE_DERATE + REG_MARGIN_PS;
    let write_ps = scl.driver(h * spec.mcr).delay_ps + bitcell_setup_ps(scl, choice.bitcell) + 60.0; // decoder margin
    let align_ps = match align {
        Some(al) => al.delay_ps * WIRE_DERATE + REG_MARGIN_PS,
        None => 0.0,
    };

    StageDelays { mac_ps, sa_ps, ofu_ps, write_ps, align_ps }
}

fn bitcell_setup_ps(scl: &Scl, bitcell: BitcellKind) -> f64 {
    let lib = scl.cell_library();
    lib.cell(lib.id_of(bitcell.cell_kind())).seq.expect("bitcells are sequential").setup_ps
}

/// Build the full design point (PPA estimate) for a timing-feasible
/// choice.
fn point(spec: &MacroSpec, scl: &mut Scl, choice: &DesignChoice, stages: &StageDelays) -> DesignPoint {
    let h = spec.h;
    let w = spec.w;
    let ChoiceRecords { act_bits, w_bits, driver, column, tree, sa, ofu, align, .. } =
        choice_records(spec, scl, choice);
    let col_scale = h as f64 / h.min(16) as f64;
    let groups = (w / w_bits) as f64;

    let mut area = w as f64
        * (column.area_um2 * col_scale + tree.area_um2 * choice.column_split as f64 + sa.area_um2)
        + groups * ofu.area_um2
        + (h + w) as f64 * driver.area_um2 / 8.0;
    let mut energy_fj = w as f64
        * (column.energy_fj_per_cycle * col_scale
            + tree.energy_fj_per_cycle * choice.column_split as f64
            + sa.energy_fj_per_cycle)
        + groups * ofu.energy_fj_per_cycle;
    let mut leak_nw = w as f64 * (column.leakage_nw * col_scale + tree.leakage_nw + sa.leakage_nw);
    if let Some(al) = align {
        let al_scale = h as f64 / h.min(16) as f64;
        area += al.area_um2 * al_scale;
        energy_fj += al.energy_fj_per_cycle * al_scale / act_bits as f64; // once per pass
        leak_nw += al.leakage_nw * al_scale;
    }

    let process = scl.cell_library().process();
    let escale = process.energy_scale(spec.vdd_v);
    let lscale = process.leakage_scale(spec.vdd_v, 25.0);
    let power_uw = energy_fj * escale * spec.f_mac_mhz * 1e-3 + leak_nw * lscale / 1000.0;
    let area_um2 = area / 0.70; // placement utilization

    let tput = syndcim_power::MacThroughput { h, w, act: Precision::Int(1), weight: Precision::Int(1) };
    let scale = process.delay_scale(spec.vdd_v);
    DesignPoint {
        choice: *choice,
        est: PpaEstimate {
            critical_delay_ps: stages.worst_mac_stage() * scale,
            timing_met: stages.worst_mac_stage() * scale <= spec.mac_period_ps(),
            power_uw,
            area_um2,
            latency_cycles: choice.pipeline_stages() + act_bits,
            tops_1b: tput.tops(spec.f_mac_mhz),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_sim::FpFormat;

    fn small_spec(f_mac_mhz: f64) -> MacroSpec {
        MacroSpec {
            h: 16,
            w: 16,
            mcr: 2,
            int_precisions: vec![1, 2, 4],
            fp_precisions: vec![],
            f_mac_mhz,
            f_wu_mhz: 400.0,
            vdd_v: 0.9,
            ppa: Default::default(),
        }
    }

    /// The RCA baseline tree rides the ladder and is actually searched
    /// (the seed built the ladder with RcaTree pushed but iterated a
    /// fresh speed ladder, silently skipping it — fixed in PR 2).
    #[test]
    fn rca_baseline_stays_searchable() {
        let mut scl = Scl::new();
        let res = search(&small_spec(200.0), &mut scl);
        assert!(
            res.feasible.iter().any(|p| p.choice.tree_kind == AdderTreeKind::RcaTree),
            "a relaxed clock must keep the RCA baseline feasible"
        );
    }

    #[test]
    fn relaxed_spec_keeps_cheap_trees() {
        let mut scl = Scl::new();
        let res = search(&small_spec(200.0), &mut scl);
        assert!(!res.feasible.is_empty());
        assert!(!res.frontier.is_empty());
        // At 200 MHz the pure-compressor tree must be feasible somewhere.
        assert!(
            res.feasible.iter().any(|p| p.choice.tree_kind == AdderTreeKind::CompressorCsa
                && !p.choice.tree_retimed
                && p.choice.column_split == 1),
            "cheap point should survive a relaxed clock"
        );
    }

    #[test]
    fn tight_spec_triggers_timing_moves() {
        let mut scl = Scl::new();
        let relaxed = search(&small_spec(200.0), &mut scl);
        let tight = search(&small_spec(1150.0), &mut scl);
        let moves = |r: &SearchResult| {
            r.feasible.iter().filter(|p| p.choice.tree_retimed || p.choice.column_split > 1).count()
        };
        assert!(
            moves(&tight) > moves(&relaxed),
            "tight clocks must force retiming/splitting: tight={} relaxed={}",
            moves(&tight),
            moves(&relaxed)
        );
    }

    #[test]
    fn frontier_points_meet_timing() {
        let mut scl = Scl::new();
        let res = search(&small_spec(700.0), &mut scl);
        for p in &res.frontier {
            assert!(p.est.timing_met, "{:?}", p.choice);
            assert!(p.est.power_uw > 0.0 && p.est.area_um2 > 0.0);
        }
    }

    #[test]
    fn best_respects_ppa_preference() {
        let mut scl = Scl::new();
        let mut spec = small_spec(500.0);
        let res = search(&spec, &mut scl);
        spec.ppa = crate::spec::PpaWeights::energy_leaning();
        let p_energy = res.best(&spec).unwrap().est.power_uw;
        spec.ppa = crate::spec::PpaWeights::area_leaning();
        let p_area = res.best(&spec).unwrap().est.area_um2;
        // The energy pick can't burn more power than the area pick's
        // power, and vice versa for area.
        let e_point = {
            spec.ppa = crate::spec::PpaWeights::energy_leaning();
            res.best(&spec).unwrap().clone()
        };
        let a_point = {
            spec.ppa = crate::spec::PpaWeights::area_leaning();
            res.best(&spec).unwrap().clone()
        };
        assert!(e_point.est.power_uw <= a_point.est.power_uw + 1e-9);
        assert!(a_point.est.area_um2 <= e_point.est.area_um2 + 1e-9);
        let _ = (p_energy, p_area);
    }

    /// Records are deterministic per key, so a cold cache, a warm cache
    /// and repeated runs all produce identical results, and the cold run
    /// leaves its records in the caller's `Scl`.
    #[test]
    fn search_is_deterministic_cold_and_warm() {
        let mut scl = Scl::new();
        let cold = search(&small_spec(700.0), &mut scl);
        let cached = scl.len();
        assert!(cached > 0, "the cold search fills the caller's cache");
        let warm = search(&small_spec(700.0), &mut scl);
        assert_eq!(scl.len(), cached, "warm rerun characterizes nothing new");
        assert_eq!(cold.rejected, warm.rejected);
        assert_eq!(cold.feasible, warm.feasible);
        assert_eq!(cold.frontier, warm.frontier);
    }

    /// `search` on a spec `validate` rejects returns no designs.
    fn assert_searches_to_nothing(spec: MacroSpec) {
        assert!(spec.validate().is_err(), "{spec:?}");
        let res = search(&spec, &mut Scl::new());
        assert!(res.feasible.is_empty() && res.frontier.is_empty() && res.rejected == 0, "{spec:?}");
    }

    /// A cache warmed by another spec's search reads like a fresh one:
    /// `SclKey` holds every dimension a record depends on, so no record
    /// of the 200 MHz search stands in for one of a tighter clock, a
    /// different MCR or an FP format.
    #[test]
    fn a_cache_warmed_by_another_spec_searches_like_a_fresh_one() {
        let mut warm = Scl::new();
        search(&small_spec(200.0), &mut warm);
        let fp8 = MacroSpec { fp_precisions: vec![FpFormat::FP8], ..small_spec(500.0) };
        for spec in [small_spec(1150.0), MacroSpec { mcr: 4, ..small_spec(500.0) }, fp8] {
            let fresh = search(&spec, &mut Scl::new());
            let reused = search(&spec, &mut warm);
            assert!(!fresh.feasible.is_empty(), "{spec:?}");
            assert_eq!(reused.feasible, fresh.feasible, "{spec:?}");
            assert_eq!(reused.frontier, fresh.frontier, "{spec:?}");
            assert_eq!(reused.rejected, fresh.rejected, "{spec:?}");
        }
    }

    #[test]
    fn unsupported_mcr_searches_to_nothing() {
        assert_searches_to_nothing(MacroSpec { mcr: 3, ..small_spec(700.0) });
    }

    #[test]
    fn zero_mac_frequency_searches_to_nothing() {
        assert_searches_to_nothing(small_spec(0.0));
    }

    #[test]
    fn bad_dimensions_search_to_nothing() {
        assert_searches_to_nothing(MacroSpec { h: 3, ..small_spec(700.0) });
        assert_searches_to_nothing(MacroSpec { w: 2, ..small_spec(700.0) });
    }

    #[test]
    fn a_spec_without_precisions_searches_to_nothing() {
        assert_searches_to_nothing(MacroSpec { int_precisions: vec![], ..small_spec(700.0) });
    }

    #[test]
    fn an_fp_format_without_exponent_bits_searches_to_nothing() {
        for man_bits in [1, 3] {
            let fp = vec![FpFormat { exp_bits: 0, man_bits }];
            assert_searches_to_nothing(MacroSpec { fp_precisions: fp, ..small_spec(700.0) });
        }
    }

    #[test]
    fn best_picks_a_point_under_nan_weights() {
        let mut spec = small_spec(700.0);
        let res = search(&spec, &mut Scl::new());
        spec.ppa.power = f64::NAN;
        assert!(res.best(&spec).is_some());
    }

    #[test]
    fn infeasible_weight_update_rejects_slow_bitcells() {
        let mut scl = Scl::new();
        let mut spec = small_spec(300.0);
        spec.f_wu_mhz = 4000.0; // 250 ps period: slower bitcells can't write
        let res = search(&spec, &mut scl);
        assert!(
            res.feasible.iter().all(|p| p.choice.bitcell != BitcellKind::Oai12T),
            "the 12T OAI cell (slowest write) must be rejected at 4 GHz updates"
        );
        assert!(res.rejected > 0);
    }
}
