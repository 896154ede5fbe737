//! Persistent compiled-macro artifacts: `CompiledMacro::save` / `load`.
//!
//! This module assembles the per-crate `.scim` section codecs into a
//! whole-bundle container: one [`ArtifactMeta`] section, the shared
//! [`syndcim_ir::Symbols`] arena, the [`syndcim_ir::Lowering`] tables,
//! and the three compiled programs, in canonical section order. The division of labour is the
//! same as at compile time — each crate owns its own program's bytes,
//! `core` owns the bundle.
//!
//! The central invariant is that **load is wiring-only**: reading an
//! artifact re-validates and re-attaches tables but never re-lowers,
//! re-levelizes or re-interns anything — `Lowering::builds()` stays
//! flat across a [`CompiledMacro::load`], and every query answered from
//! a loaded bundle (`fmax_mhz`, power reports, engine toggle tables) is
//! bit-identical to the in-memory compile that produced the file.
//! Pinned by `tests/artifact_roundtrip.rs`; the adversarial decode
//! paths by `tests/artifact_corruption.rs`.

use std::io::Write as _;
use std::path::Path;

use crate::compiled::CompiledMacro;
use syndcim_ir::artifact as ir_artifact;
use syndcim_ir::artifact::{ArtifactError, ArtifactMeta, ArtifactReader, ArtifactWriter, SectionId};

/// The `format` string stored in every artifact's meta section.
pub const ARTIFACT_FORMAT: &str = "syndcim-artifact";

impl CompiledMacro {
    /// Serialize the whole bundle into `.scim` container bytes.
    ///
    /// Serialization is deterministic — no timestamps, no host state —
    /// so the same compile always produces byte-identical output
    /// (`syndcim verify` diffs a file against a fresh compile
    /// byte-for-byte, and save→load→save is a fixpoint).
    pub fn save_to_vec(&self) -> Result<Vec<u8>, ArtifactError> {
        let symbols = self.lowering.symbols();
        let meta = ArtifactMeta {
            format: ARTIFACT_FORMAT.to_string(),
            producer: concat!("syndcim ", env!("CARGO_PKG_VERSION")).to_string(),
            net_count: symbols.net_count() as u64,
            inst_count: symbols.inst_count() as u64,
        };
        let mut w = ArtifactWriter::new(Vec::new(), SectionId::ALL.len() as u32)?;
        w.write_section(SectionId::Meta, meta.encode())?;
        w.write_section(SectionId::Symbols, ir_artifact::encode_symbols(symbols))?;
        w.write_section(SectionId::Lowering, ir_artifact::encode_lowering(&self.lowering))?;
        w.write_section(SectionId::Program, syndcim_engine::artifact::encode_program(&self.program))?;
        w.write_section(SectionId::Sta, syndcim_sta::artifact::encode_sta(&self.sta))?;
        w.write_section(SectionId::Power, syndcim_power::artifact::encode_power(&self.power))?;
        w.finish()
    }

    /// Serialize the bundle to a `.scim` file at `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let bytes = self.save_to_vec()?;
        let mut f = std::fs::File::create(path)?;
        f.write_all(&bytes)?;
        f.flush()?;
        Ok(())
    }

    /// Deserialize a bundle from `.scim` container bytes.
    ///
    /// Decoding validates everything — framing, checksums, and every
    /// cross-table index — and is *wiring-only*: no lowering, no
    /// levelization, no interning runs; the three programs come back
    /// sharing one freshly decoded [`syndcim_ir::Symbols`] arena exactly
    /// as the in-memory compile shares the lowering's.
    pub fn load_from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let reader = ArtifactReader::parse(bytes)?;
        let meta = read_meta(&reader)?;

        let mut r = reader.reader(SectionId::Symbols)?;
        let symbols = ir_artifact::decode_symbols(&mut r)?;
        r.finish()?;
        if symbols.net_count() as u64 != meta.net_count || symbols.inst_count() as u64 != meta.inst_count {
            return Err(ArtifactError::Malformed {
                section: SectionId::Symbols,
                what: format!(
                    "symbol tables ({} nets, {} instances) disagree with meta ({}, {})",
                    symbols.net_count(),
                    symbols.inst_count(),
                    meta.net_count,
                    meta.inst_count
                ),
            });
        }

        let mut r = reader.reader(SectionId::Lowering)?;
        let lowering = ir_artifact::decode_lowering(&mut r, &symbols)?;
        r.finish()?;

        let mut r = reader.reader(SectionId::Program)?;
        let program = syndcim_engine::artifact::decode_program(&mut r, &symbols)?;
        r.finish()?;

        let mut r = reader.reader(SectionId::Sta)?;
        let sta = syndcim_sta::artifact::decode_sta(&mut r, &symbols)?;
        r.finish()?;

        let mut r = reader.reader(SectionId::Power)?;
        let power = syndcim_power::artifact::decode_power(&mut r, &symbols)?;
        r.finish()?;

        Ok(CompiledMacro { lowering, program, sta, power })
    }

    /// Load a bundle from a `.scim` file at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)?;
        Self::load_from_bytes(&bytes)
    }
}

/// Read and sanity-check the meta section of a parsed container.
pub fn read_meta(reader: &ArtifactReader<'_>) -> Result<ArtifactMeta, ArtifactError> {
    let mut r = reader.reader(SectionId::Meta)?;
    let meta = ArtifactMeta::decode(&mut r)?;
    r.finish()?;
    if meta.format != ARTIFACT_FORMAT {
        return Err(ArtifactError::Malformed {
            section: SectionId::Meta,
            what: format!("unknown format `{}` (expected `{ARTIFACT_FORMAT}`)", meta.format),
        });
    }
    Ok(meta)
}

/// Retained in-memory footprint of a bundle in bytes: the lowering's
/// order and connectivity, the three programs, and the symbol arena
/// counted once. What the CLI's `info` command reports alongside the
/// on-disk section sizes.
pub fn retained_bytes(cm: &CompiledMacro) -> usize {
    // Each program's own retained_bytes() counts its `Symbols` share;
    // the arena is one shared allocation, so count it exactly once.
    let syms_once = cm.lowering.symbols().heap_bytes();
    cm.lowering.heap_bytes()
        + cm.program.retained_bytes()
        + cm.sta.retained_bytes()
        + cm.power.retained_bytes()
        - 2 * syms_once
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;
    use crate::spec::MacroSpec;
    use crate::DesignChoice;
    use syndcim_pdk::{CellLibrary, OperatingPoint};
    use syndcim_sta::WireLoads;

    #[test]
    fn save_load_save_is_a_byte_fixpoint() {
        let lib = CellLibrary::syn40();
        let spec = MacroSpec {
            h: 8,
            w: 8,
            mcr: 2,
            int_precisions: vec![1, 2],
            fp_precisions: vec![],
            f_mac_mhz: 400.0,
            f_wu_mhz: 400.0,
            vdd_v: 0.9,
            ppa: Default::default(),
        };
        let mac = assemble(&lib, &spec, &DesignChoice::default());
        let cm = CompiledMacro::compile(&mac.module, &lib, &WireLoads::zero(mac.module.net_count())).unwrap();
        let bytes = cm.save_to_vec().unwrap();
        let loaded = CompiledMacro::load_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.save_to_vec().unwrap(), bytes, "save→load→save must be byte-identical");

        let op = OperatingPoint::at_voltage(0.9);
        assert_eq!(loaded.sta.fmax_mhz(op), cm.sta.fmax_mhz(op));
    }
}
