//! `.scim` codec for the compiled power program
//! ([`SectionId::Power`](syndcim_ir::artifact::SectionId)).
//!
//! The section stores the [`CompiledPower`] struct-of-arrays columns
//! verbatim — capacitance/energy columns, the instance-output CSR, the
//! dense group-head table, port loads, the clock/leakage scalars and
//! the per-head/per-node clock and leakage columns —
//! every `f64` as its exact bit pattern, so a loaded program's
//! `report`/`by_group_pj`/`by_path_pj` results are bit-identical to the
//! in-memory compile (pinned by `tests/artifact_roundtrip.rs`). The
//! net count is the shared [`Symbols`]' and is not stored again; the
//! group-head table precedes the instance group column so its size
//! bounds that column when it is read. Decoding re-validates the CSR
//! shape and every slot, group and symbol index the report passes rely
//! on.

use syndcim_ir::artifact::{ArtifactError, SectionReader, SectionWriter};
use syndcim_ir::Symbols;

use crate::CompiledPower;

/// Encode `power` into a
/// [`SectionId::Power`](syndcim_ir::artifact::SectionId) payload. The
/// shared [`Symbols`] live in their own section and are re-attached on
/// decode.
pub fn encode_power(power: &CompiledPower) -> SectionWriter {
    let mut w = SectionWriter::new();
    syndcim_ir::artifact::put_process(&mut w, &power.process);
    w.put_u32s(&power.out_slot);
    w.put_f64s(&power.out_cap_ff);
    w.put_f64s(&power.out_internal_fj);
    w.put_u32s(&power.inst_out_start);
    w.put_symbols(&power.group_head_syms);
    w.put_u32s(&power.inst_group);
    w.put_u32s(&power.in_port_slot);
    w.put_f64s(&power.in_port_load_ff);
    w.put_f64(power.clock_regs_fj);
    w.put_f64(power.leakage_total_nw);
    w.put_f64(power.glitch_factor);
    w.put_f64(power.clock_tree_overhead);
    w.put_f64s(&power.head_clock_fj);
    w.put_f64s(&power.node_clock_fj);
    w.put_f64s(&power.node_leakage_nw);
    w
}

/// Decode a [`SectionId::Power`](syndcim_ir::artifact::SectionId)
/// payload against the already-decoded shared `symbols`.
pub fn decode_power(r: &mut SectionReader<'_>, symbols: &Symbols) -> Result<CompiledPower, ArtifactError> {
    let (net_count, inst_count) = (symbols.net_count(), symbols.inst_count());
    let process = syndcim_ir::artifact::get_process(r)?;
    let out_slot = r.get_indices(net_count, "output slots")?;
    let out_cap_ff = r.get_f64s("output capacitances")?;
    let out_internal_fj = r.get_f64s("output internal energies")?;
    let inst_out_start = r.get_offsets(inst_count, out_slot.len(), "instance output offsets")?;
    let group_head_syms = r.get_symbols(symbols.interner().len(), "group head symbols")?;
    let inst_group = r.get_indices(group_head_syms.len(), "instance group ids")?;
    let in_port_slot = r.get_indices(net_count, "input port slots")?;
    let in_port_load_ff = r.get_f64s("input port loads")?;
    let clock_regs_fj = r.get_f64("clock register energy")?;
    let leakage_total_nw = r.get_f64("total leakage")?;
    let glitch_factor = r.get_f64("glitch factor")?;
    let clock_tree_overhead = r.get_f64("clock tree overhead")?;
    let head_clock_fj = r.get_f64s("per-head clock energies")?;
    let node_clock_fj = r.get_f64s("per-node clock energies")?;
    let node_leakage_nw = r.get_f64s("per-node leakage")?;

    if out_cap_ff.len() != out_slot.len() || out_internal_fj.len() != out_slot.len() {
        return Err(r.malformed("output column lengths disagree"));
    }
    if inst_group.len() != inst_count {
        return Err(r.malformed(format!(
            "instance group table covers {} instances, symbols have {inst_count}",
            inst_group.len()
        )));
    }
    if in_port_load_ff.len() != in_port_slot.len() {
        return Err(r.malformed("input port column lengths disagree"));
    }
    if head_clock_fj.len() != group_head_syms.len() {
        return Err(r.malformed(format!(
            "per-head clock column covers {} heads, table has {}",
            head_clock_fj.len(),
            group_head_syms.len()
        )));
    }
    let nodes = symbols.node_count();
    if node_clock_fj.len() != nodes || node_leakage_nw.len() != nodes {
        return Err(r.malformed(format!(
            "per-node clock/leakage columns cover {}/{} nodes, symbols have {nodes}",
            node_clock_fj.len(),
            node_leakage_nw.len()
        )));
    }

    Ok(CompiledPower {
        process,
        net_count,
        out_slot,
        out_cap_ff,
        out_internal_fj,
        inst_out_start,
        inst_group,
        group_head_syms,
        syms: symbols.clone(),
        in_port_slot,
        in_port_load_ff,
        clock_regs_fj,
        leakage_total_nw,
        head_clock_fj,
        node_clock_fj,
        node_leakage_nw,
        glitch_factor,
        clock_tree_overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerAnalyzer;
    use syndcim_ir::artifact::{ArtifactReader, ArtifactWriter, SectionId};
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::{CellLibrary, OperatingPoint};

    fn frame(payload: SectionWriter) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ArtifactWriter::new(&mut out, 1).unwrap();
        w.write_section(SectionId::Power, payload).unwrap();
        w.finish().unwrap();
        out
    }

    #[test]
    fn power_codec_roundtrips_bit_identical_reports() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("pipe", &lib);
        let a = b.input("a");
        b.push_group("regs/bank0");
        let q = b.dff(a);
        b.pop_group();
        let y = b.not(q);
        b.output("y", y);
        let m = b.finish();
        let pa = PowerAnalyzer::new(&m, &lib).unwrap();
        let cp = pa.compile();

        let bytes = frame(encode_power(&cp));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Power).unwrap();
        let back = decode_power(&mut r, cp.symbols()).unwrap();
        r.finish().unwrap();

        let toggles = vec![6u64; m.net_count()];
        for v in [0.7, 0.9, 1.2] {
            let op = OperatingPoint::at_voltage(v);
            let (want, got) = (cp.report(&toggles, 12, 800.0, op), back.report(&toggles, 12, 800.0, op));
            assert_eq!(got.total_uw(), want.total_uw(), "total at {v} V");
            assert_eq!(got.by_group_pj, want.by_group_pj, "group breakdown at {v} V");
            assert_eq!(back.by_path_pj(&toggles, 12, op), cp.by_path_pj(&toggles, 12, op));
        }
        let op = OperatingPoint::at_voltage(0.9);
        assert_eq!(back.leakage_uw(op), cp.leakage_uw(op));
    }

    #[test]
    fn malformed_csr_is_rejected() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("inv", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let mut cp = PowerAnalyzer::new(&m, &lib).unwrap().compile();
        let last = cp.inst_out_start.len() - 1;
        cp.inst_out_start[last] += 7;
        let bytes = frame(encode_power(&cp));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Power).unwrap();
        assert!(matches!(decode_power(&mut r, cp.symbols()), Err(ArtifactError::Malformed { .. })));
    }
}
