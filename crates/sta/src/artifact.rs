//! `.scim` codec for the compiled timing program
//! ([`SectionId::Sta`](syndcim_ir::artifact::SectionId)).
//!
//! The section is the [`CompiledSta`] struct-of-arrays columns written
//! verbatim: process record, launch table, levelized arc stream and the
//! two endpoint tables, every `f64` as its exact IEEE-754 bit pattern —
//! so a loaded program's `fmax_mhz`/`analyze_at` results are
//! bit-identical to the in-memory compile (pinned by
//! `tests/artifact_roundtrip.rs`). The net count is the shared
//! [`Symbols`]' and is not stored again. Decoding reads every slot
//! column as indices below the net count (the arrival buffer's extent)
//! and every launch/arc instance column as indices below the instance
//! count (critical-path reconstruction resolves instance names by
//! index), so the analysis passes can index without checking.

use syndcim_ir::artifact::{ArtifactError, SectionReader, SectionWriter};
use syndcim_ir::Symbols;

use crate::CompiledSta;

/// Encode `sta` into a [`SectionId::Sta`](syndcim_ir::artifact::SectionId)
/// payload. The shared [`Symbols`] live in their own section and are
/// re-attached on decode.
pub fn encode_sta(sta: &CompiledSta) -> SectionWriter {
    let mut w = SectionWriter::new();
    syndcim_ir::artifact::put_process(&mut w, &sta.process);
    w.put_u32s(&sta.input_slots);
    w.put_u32s(&sta.launch_slot);
    w.put_f64s(&sta.launch_base_ps);
    w.put_f64s(&sta.launch_wire_ps);
    w.put_u32s(&sta.launch_inst);
    w.put_u32s(&sta.arc_src);
    w.put_u32s(&sta.arc_dst);
    w.put_f64s(&sta.arc_base_ps);
    w.put_f64s(&sta.arc_wire_ps);
    w.put_u32s(&sta.arc_inst);
    w.put_u32s(&sta.port_end_slot);
    w.put_u32s(&sta.seq_end_slot);
    w.put_f64s(&sta.seq_end_setup_ps);
    w
}

/// Decode a [`SectionId::Sta`](syndcim_ir::artifact::SectionId) payload
/// against the already-decoded shared `symbols`.
pub fn decode_sta(r: &mut SectionReader<'_>, symbols: &Symbols) -> Result<CompiledSta, ArtifactError> {
    let (net_count, inst_count) = (symbols.net_count(), symbols.inst_count());
    let process = syndcim_ir::artifact::get_process(r)?;
    let input_slots = r.get_indices(net_count, "input slots")?;
    let launch_slot = r.get_indices(net_count, "launch slots")?;
    let launch_base_ps = r.get_f64s("launch base delays")?;
    let launch_wire_ps = r.get_f64s("launch wire delays")?;
    let launch_inst = r.get_indices(inst_count, "launch instances")?;
    let arc_src = r.get_indices(net_count, "arc sources")?;
    let arc_dst = r.get_indices(net_count, "arc destinations")?;
    let arc_base_ps = r.get_f64s("arc base delays")?;
    let arc_wire_ps = r.get_f64s("arc wire delays")?;
    let arc_inst = r.get_indices(inst_count, "arc instances")?;
    let port_end_slot = r.get_indices(net_count, "port endpoints")?;
    let seq_end_slot = r.get_indices(net_count, "sequential endpoints")?;
    let seq_end_setup_ps = r.get_f64s("sequential setup times")?;

    let launches = launch_slot.len();
    if launch_base_ps.len() != launches || launch_wire_ps.len() != launches || launch_inst.len() != launches {
        return Err(r.malformed("launch table column lengths disagree"));
    }
    let arcs = arc_src.len();
    if arc_dst.len() != arcs
        || arc_base_ps.len() != arcs
        || arc_wire_ps.len() != arcs
        || arc_inst.len() != arcs
    {
        return Err(r.malformed("arc table column lengths disagree"));
    }
    if seq_end_setup_ps.len() != seq_end_slot.len() {
        return Err(r.malformed("sequential endpoint column lengths disagree"));
    }

    Ok(CompiledSta {
        process,
        net_count,
        input_slots,
        launch_slot,
        launch_base_ps,
        launch_wire_ps,
        launch_inst,
        arc_src,
        arc_dst,
        arc_base_ps,
        arc_wire_ps,
        arc_inst,
        port_end_slot,
        seq_end_slot,
        seq_end_setup_ps,
        syms: symbols.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sta, WireLoads};
    use syndcim_ir::artifact::{ArtifactReader, ArtifactWriter, SectionId};
    use syndcim_ir::Lowering;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::{CellLibrary, OperatingPoint};

    fn frame(payload: SectionWriter) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ArtifactWriter::new(&mut out, 1).unwrap();
        w.write_section(SectionId::Sta, payload).unwrap();
        w.finish().unwrap();
        out
    }

    #[test]
    fn sta_codec_roundtrips_bit_identical_fmax_and_reports() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("pipe", &lib);
        let a = b.input("a");
        let x = b.xor2(a, a);
        let x2 = b.not(x);
        let q = b.dff(x2);
        b.output("q", q);
        let m = b.finish();
        let low = Lowering::validated(&m, &lib).unwrap();
        let mut wires = WireLoads::zero(m.net_count());
        wires.cap_ff[x.index()] = 1.5;
        wires.delay_ps[x.index()] = 2.25;
        let sta = Sta::with_lowering(&m, &lib, low.clone()).with_wire_loads(wires).compile();

        let bytes = frame(encode_sta(&sta));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Sta).unwrap();
        let back = decode_sta(&mut r, low.symbols()).unwrap();
        r.finish().unwrap();

        for v in [0.7, 0.9, 1.2] {
            let op = OperatingPoint::at_voltage(v);
            assert_eq!(back.fmax_mhz(op), sta.fmax_mhz(op), "fmax at {v} V");
            let (want, got) = (sta.analyze_at(900.0, op), back.analyze_at(900.0, op));
            assert_eq!(got.arrival_ps, want.arrival_ps);
            assert_eq!(got.wns_ps, want.wns_ps);
            assert_eq!(got.critical_path, want.critical_path);
        }
    }

    #[test]
    fn dangling_slots_are_rejected() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("pipe", &lib);
        let a = b.input("a");
        let q = b.dff(a);
        b.output("q", q);
        let m = b.finish();
        let low = Lowering::validated(&m, &lib).unwrap();
        let mut sta = Sta::with_lowering(&m, &lib, low.clone()).compile();
        sta.seq_end_slot[0] = 10_000;
        let bytes = frame(encode_sta(&sta));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Sta).unwrap();
        assert!(matches!(decode_sta(&mut r, low.symbols()), Err(ArtifactError::Malformed { .. })));
    }
}
