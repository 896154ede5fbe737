//! The `.scim` persistent-artifact framing layer (format version 2).
//!
//! The compiled trinity — engine `Program`, `CompiledSta`,
//! `CompiledPower`, all sharing one interned [`Symbols`] layer — exists
//! only in memory, so every process re-pays lowering plus trinity
//! compilation before answering a single query. This module defines the
//! on-disk container those programs serialize into, so a macro is
//! compiled once and served from disk by any number of processes:
//!
//! ```text
//! [ 8B magic "SCIMART1" ][ u32 version = 2 ][ u32 section count ]
//! [ u32 id ][ u64 payload len ][ u32 crc32 ][ payload … ]   × count
//! ```
//!
//! Every section payload is CRC-checksummed (CRC-32/IEEE) and length
//! prefixed; inside a payload, every variable-length vector carries its
//! own element count which is validated against the *actually present*
//! bytes before any allocation, so a corrupt or adversarial length
//! field can neither over-allocate nor read out of bounds. Decoding
//! never panics: every malformed input — bad magic, unsupported
//! version, truncation at any byte, oversized declared lengths,
//! checksum corruption, dangling indices — surfaces as a typed
//! [`ArtifactError`]. Pinned by `tests/artifact_corruption.rs`.
//!
//! Sections store tables as columns. Every column of indices into
//! another table is read through [`SectionReader::get_indices`], which
//! checks each entry against the table's size, and each section orders
//! its columns so that size is already decoded when the column is read.
//! A count is stored once: the net and instance counts live in the
//! [`Symbols`] section, and every later section checks its tables
//! against them.
//!
//! The split of responsibilities mirrors the compiled trinity itself:
//! this module owns the *framing* ([`SectionWriter`] / [`SectionReader`]
//! / [`ArtifactReader`]) plus the codecs for the IR-owned types
//! ([`Symbols`], [`Lowering`], and the shared `Process` record); the
//! engine, STA and power crates each encode their own program into one
//! section through the same API, and `syndcim_core::CompiledMacro`
//! assembles the sections into a file.

use std::sync::Arc;

use syndcim_netlist::{Connectivity, Driver, InstId, NetId};
use syndcim_pdk::Process;

use crate::intern::{Interner, Symbol, Symbols};
use crate::lowering::Lowering;

/// The 8-byte file magic: `syndcim-artifact`, format generation 1.
pub const MAGIC: [u8; 8] = *b"SCIMART1";

/// Container format version this build writes and the only one it
/// reads. Bump on any layout change; readers reject other versions
/// with [`ArtifactError::UnsupportedVersion`].
///
/// Version 2 stores the engine program as the ops the executor runs
/// (one kind tag per op and one pin stream) instead of version 1's
/// micro-op templates over scratch slots, stores commits, drivers and
/// sinks as columns, orders the symbol tables so every index column
/// follows the table it indexes, and drops the net counts the
/// lowering, program, timing and power sections restated and the
/// lowering's validated flag.
pub const FORMAT_VERSION: u32 = 2;

/// Hard decode limit on one section's declared payload length. A
/// declared length beyond this is rejected *before* any allocation or
/// read — a corrupt 8-byte length field must never turn into a
/// multi-gigabyte allocation.
pub const MAX_SECTION_BYTES: u64 = 1 << 30;

/// Hard decode limit on one vector's declared element count. Element
/// counts are additionally validated against the bytes actually
/// remaining in the section, which is the binding check; this cap just
/// keeps the arithmetic comfortably overflow-free.
pub const MAX_ELEMENTS: u32 = u32::MAX / 16;

/// Recommended file extension for serialized artifacts.
pub const EXTENSION: &str = "scim";

/// Identity of one section in a `.scim` container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SectionId {
    /// Producer metadata: format/producer strings, net/instance counts.
    Meta,
    /// The interned name layer: arena bytes + every symbol table.
    Symbols,
    /// The shared lowering: connectivity tables + levelized order.
    Lowering,
    /// The engine simulation program (op kinds, pins and commits).
    Program,
    /// The compiled timing program (launch/arc/endpoint SoA columns).
    Sta,
    /// The compiled power program (capacitance/energy/group columns).
    Power,
}

impl SectionId {
    /// All sections of an artifact, in canonical file order.
    pub const ALL: [SectionId; 6] = [
        SectionId::Meta,
        SectionId::Symbols,
        SectionId::Lowering,
        SectionId::Program,
        SectionId::Sta,
        SectionId::Power,
    ];

    /// The on-disk section tag.
    pub fn code(self) -> u32 {
        match self {
            SectionId::Meta => 1,
            SectionId::Symbols => 2,
            SectionId::Lowering => 3,
            SectionId::Program => 4,
            SectionId::Sta => 5,
            SectionId::Power => 6,
        }
    }

    /// Decode an on-disk section tag.
    pub fn from_code(code: u32) -> Option<SectionId> {
        SectionId::ALL.into_iter().find(|s| s.code() == code)
    }

    /// Human-readable section name (`info` output, error messages).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "meta",
            SectionId::Symbols => "symbols",
            SectionId::Lowering => "lowering",
            SectionId::Program => "program",
            SectionId::Sta => "sta",
            SectionId::Power => "power",
        }
    }
}

impl std::fmt::Display for SectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every way reading or writing a `.scim` artifact can fail. Decoding
/// is total: any byte sequence maps to either a valid artifact or one
/// of these variants — never a panic, never an unbounded allocation.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic {
        /// What was found instead (zero-padded if the file is shorter).
        found: [u8; 8],
    },
    /// The container version is not [`FORMAT_VERSION`] (future *or*
    /// past versions are rejected — a build reads its own version only).
    UnsupportedVersion {
        /// The version field as read.
        found: u32,
    },
    /// The input ended before a structure could be fully read.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes the structure needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A section declared a payload length beyond [`MAX_SECTION_BYTES`].
    SectionTooLarge {
        /// The offending section tag (raw, may itself be corrupt).
        code: u32,
        /// The declared payload length.
        declared: u64,
    },
    /// A vector declared more elements than its section can hold.
    CountTooLarge {
        /// Which section the vector lives in.
        section: SectionId,
        /// The declared element count.
        declared: u64,
    },
    /// A section's payload bytes do not match the stored checksum.
    ChecksumMismatch {
        /// The corrupt section.
        section: SectionId,
        /// Checksum stored in the section header.
        stored: u32,
        /// Checksum computed over the payload as read.
        computed: u32,
    },
    /// A section tag is not part of the format.
    UnknownSection {
        /// The unrecognized tag.
        code: u32,
    },
    /// The same section appears twice.
    DuplicateSection {
        /// The repeated section.
        section: SectionId,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section.
        section: SectionId,
    },
    /// Bytes remain after the declared number of sections.
    TrailingBytes {
        /// How many bytes follow the last section.
        count: u64,
    },
    /// A section decoded structurally but its content is inconsistent
    /// (dangling index, non-monotone offset table, invalid UTF-8, …).
    Malformed {
        /// Which section is inconsistent.
        section: SectionId,
        /// What exactly is wrong.
        what: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic { found } => {
                write!(f, "not a syndcim artifact: bad magic {found:02x?} (expected {MAGIC:02x?})")
            }
            ArtifactError::UnsupportedVersion { found } => {
                write!(f, "unsupported artifact version {found} (this build reads v{FORMAT_VERSION} only)")
            }
            ArtifactError::Truncated { what, needed, available } => {
                write!(f, "truncated artifact: {what} needs {needed} byte(s), only {available} available")
            }
            ArtifactError::SectionTooLarge { code, declared } => {
                write!(
                    f,
                    "section tag {code} declares {declared} payload bytes, above the {MAX_SECTION_BYTES}-byte decode limit"
                )
            }
            ArtifactError::CountTooLarge { section, declared } => {
                write!(f, "`{section}` section declares an implausible element count {declared}")
            }
            ArtifactError::ChecksumMismatch { section, stored, computed } => {
                write!(
                    f,
                    "`{section}` section checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            ArtifactError::UnknownSection { code } => write!(f, "unknown section tag {code}"),
            ArtifactError::DuplicateSection { section } => write!(f, "duplicate `{section}` section"),
            ArtifactError::MissingSection { section } => write!(f, "missing `{section}` section"),
            ArtifactError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after the last declared section")
            }
            ArtifactError::Malformed { section, what } => write!(f, "malformed `{section}` section: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Slicing-by-8 lookup tables for the reflected CRC-32 polynomial,
/// generated at compile time. `CRC_TABLES[0]` is the classic byte
/// table; `CRC_TABLES[j]` advances a byte `j` positions further into
/// the stream, letting the hot loop fold 8 input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding
/// every section payload. Slicing-by-8: sections are megabytes at the
/// scale tier and the checksum runs on both save and load, so this
/// loop sits directly on the compile-once/serve-many path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------
// Section payload encoding
// ---------------------------------------------------------------------

/// Builder for one section's payload. All integers are little-endian;
/// vectors are `u32 count` followed by packed elements. Finish with
/// [`ArtifactWriter::write_section`], which frames the payload with its
/// tag, length and checksum.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty payload builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Payload bytes so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its little-endian IEEE-754 bit pattern
    /// (exact: decoding returns the identical bits, so serialized
    /// programs stay bit-identical to their in-memory originals).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a count-prefixed byte vector.
    pub fn put_u8s(&mut self, vs: &[u8]) {
        self.put_u32(vs.len() as u32);
        self.buf.extend_from_slice(vs);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u8s(s.as_bytes());
    }

    /// Append a count-prefixed `u32` vector.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Append a count-prefixed `f64` vector.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Append a count-prefixed [`Symbol`] vector (as dense `u32` ids).
    pub fn put_symbols(&mut self, vs: &[Symbol]) {
        self.put_u32(vs.len() as u32);
        for &s in vs {
            self.put_u32(s.index() as u32);
        }
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over one section's checksum-verified payload. Every read
/// validates against the bytes actually present before touching them,
/// and every element count is checked against the remaining payload
/// before any allocation.
#[derive(Debug)]
pub struct SectionReader<'a> {
    section: SectionId,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// A reader over `bytes`, attributing errors to `section`.
    pub fn new(section: SectionId, bytes: &'a [u8]) -> Self {
        SectionReader { section, bytes, pos: 0 }
    }

    /// The section this reader is decoding.
    pub fn section(&self) -> SectionId {
        self.section
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// A [`ArtifactError::Malformed`] attributed to this section.
    pub fn malformed(&self, what: impl Into<String>) -> ArtifactError {
        ArtifactError::Malformed { section: self.section, what: what.into() }
    }

    /// Fail unless the payload was consumed exactly.
    pub fn finish(self) -> Result<(), ArtifactError> {
        if self.remaining() != 0 {
            return Err(self.malformed(format!("{} unread byte(s) at end of section", self.remaining())));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                what,
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8-byte slice")))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, ArtifactError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().expect("8-byte slice")))
    }

    /// Read an element count and validate it against the bytes actually
    /// remaining (`elem_bytes` per element), so a corrupt count can
    /// never drive an allocation past the real payload.
    pub fn get_count(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, ArtifactError> {
        let n = self.get_u32(what)?;
        if n > MAX_ELEMENTS {
            return Err(ArtifactError::CountTooLarge { section: self.section, declared: n as u64 });
        }
        let needed = n as u64 * elem_bytes as u64;
        if needed > self.remaining() as u64 {
            return Err(ArtifactError::Truncated { what, needed, available: self.remaining() as u64 });
        }
        Ok(n as usize)
    }

    /// Read a count-prefixed byte vector, borrowed from the payload.
    pub fn get_u8s(&mut self, what: &'static str) -> Result<&'a [u8], ArtifactError> {
        let n = self.get_count(1, what)?;
        self.take(n, what)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self, what: &'static str) -> Result<String, ArtifactError> {
        let bytes = self.get_u8s(what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.malformed(format!("{what}: invalid UTF-8")))
    }

    /// Read a count-prefixed `u32` vector.
    pub fn get_u32s(&mut self, what: &'static str) -> Result<Vec<u32>, ArtifactError> {
        let n = self.get_count(4, what)?;
        let bytes = self.take(n * 4, what)?;
        Ok(bytes.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))).collect())
    }

    /// Read a count-prefixed `f64` vector.
    pub fn get_f64s(&mut self, what: &'static str) -> Result<Vec<f64>, ArtifactError> {
        let n = self.get_count(8, what)?;
        let bytes = self.take(n * 8, what)?;
        Ok(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))).collect())
    }

    /// Read a count-prefixed index column and check every entry against
    /// `limit`, the size of the table it indexes. The one bounds check
    /// of every decoder: an index that passes can be used unchecked.
    pub fn get_indices(&mut self, limit: usize, what: &'static str) -> Result<Vec<u32>, ArtifactError> {
        let v = self.get_u32s(what)?;
        match v.iter().find(|&&i| i as usize >= limit) {
            Some(i) => Err(self.malformed(format!("{what}: index {i} out of range (limit {limit})"))),
            None => Ok(v),
        }
    }

    /// Read a count-prefixed symbol vector, validating every id against
    /// `interner_len` so later lazy resolution cannot go out of bounds.
    pub fn get_symbols(
        &mut self,
        interner_len: usize,
        what: &'static str,
    ) -> Result<Vec<Symbol>, ArtifactError> {
        Ok(self.get_indices(interner_len, what)?.into_iter().map(Symbol::from_raw).collect())
    }

    /// Read the offset column of a CSR table with `rows` rows over
    /// `total` entries, checking its shape: `rows + 1` monotone offsets
    /// from 0 to `total`, so every row's range can be sliced unchecked.
    pub fn get_offsets(
        &mut self,
        rows: usize,
        total: usize,
        what: &'static str,
    ) -> Result<Vec<u32>, ArtifactError> {
        let v = self.get_u32s(what)?;
        if v.len() != rows + 1
            || v[0] != 0
            || v[rows] as usize != total
            || v.windows(2).any(|pair| pair[0] > pair[1])
        {
            return Err(
                self.malformed(format!("{what}: not {} monotone offsets from 0 to {total}", rows + 1))
            );
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------

/// Streaming writer of a `.scim` container: header first, then each
/// section framed and checksummed as it is finished, so nothing but
/// the current section payload is ever buffered.
#[derive(Debug)]
pub struct ArtifactWriter<W: std::io::Write> {
    w: W,
    declared: u32,
    written: u32,
}

impl<W: std::io::Write> ArtifactWriter<W> {
    /// Write the container header declaring `sections` sections.
    pub fn new(mut w: W, sections: u32) -> Result<Self, ArtifactError> {
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&sections.to_le_bytes())?;
        Ok(ArtifactWriter { w, declared: sections, written: 0 })
    }

    /// Frame and write one finished section payload.
    pub fn write_section(&mut self, id: SectionId, payload: SectionWriter) -> Result<(), ArtifactError> {
        let payload = payload.into_bytes();
        self.w.write_all(&id.code().to_le_bytes())?;
        self.w.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.w.write_all(&crc32(&payload).to_le_bytes())?;
        self.w.write_all(&payload)?;
        self.written += 1;
        Ok(())
    }

    /// Flush and return the inner writer.
    ///
    /// # Panics
    ///
    /// Panics if the number of sections written differs from the count
    /// declared in the header — a writer-side bug, never an input
    /// condition.
    pub fn finish(mut self) -> Result<W, ArtifactError> {
        assert_eq!(self.written, self.declared, "artifact writer declared/written section count mismatch");
        self.w.flush()?;
        Ok(self.w)
    }
}

/// One section's location inside a parsed container.
#[derive(Debug, Clone, Copy)]
pub struct SectionEntry {
    /// Which section.
    pub id: SectionId,
    /// Byte offset of the section *header* within the file.
    pub header_offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Checksum stored in the header.
    pub stored_crc: u32,
}

/// A parsed (but not yet decoded) `.scim` container over borrowed
/// bytes: the header is validated and every section located; payload
/// checksums are verified on access.
#[derive(Debug)]
pub struct ArtifactReader<'a> {
    bytes: &'a [u8],
    entries: Vec<SectionEntry>,
}

impl<'a> ArtifactReader<'a> {
    /// Parse the container framing of `bytes`: magic, version, and the
    /// section table (ids, bounds, stored checksums). Payload contents
    /// are not touched — use [`ArtifactReader::section`] to get a
    /// checksum-verified payload.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ArtifactError> {
        if bytes.len() < 8 {
            let mut found = [0u8; 8];
            found[..bytes.len()].copy_from_slice(bytes);
            return Err(ArtifactError::BadMagic { found });
        }
        if bytes[..8] != MAGIC {
            return Err(ArtifactError::BadMagic { found: bytes[..8].try_into().expect("8 bytes") });
        }
        if bytes.len() < 16 {
            return Err(ArtifactError::Truncated {
                what: "container header",
                needed: 16,
                available: bytes.len() as u64,
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion { found: version });
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));

        let mut entries = Vec::new();
        let mut pos = 16u64;
        let total = bytes.len() as u64;
        for _ in 0..count {
            if total - pos < 16 {
                return Err(ArtifactError::Truncated {
                    what: "section header",
                    needed: 16,
                    available: total - pos,
                });
            }
            let p = pos as usize;
            let code = u32::from_le_bytes(bytes[p..p + 4].try_into().expect("4 bytes"));
            let len = u64::from_le_bytes(bytes[p + 4..p + 12].try_into().expect("8 bytes"));
            let stored_crc = u32::from_le_bytes(bytes[p + 12..p + 16].try_into().expect("4 bytes"));
            if len > MAX_SECTION_BYTES {
                return Err(ArtifactError::SectionTooLarge { code, declared: len });
            }
            let id = SectionId::from_code(code).ok_or(ArtifactError::UnknownSection { code })?;
            if entries.iter().any(|e: &SectionEntry| e.id == id) {
                return Err(ArtifactError::DuplicateSection { section: id });
            }
            if total - pos - 16 < len {
                return Err(ArtifactError::Truncated {
                    what: "section payload",
                    needed: len,
                    available: total - pos - 16,
                });
            }
            entries.push(SectionEntry { id, header_offset: pos, len, stored_crc });
            pos += 16 + len;
        }
        if pos != total {
            return Err(ArtifactError::TrailingBytes { count: total - pos });
        }
        Ok(ArtifactReader { bytes, entries })
    }

    /// The located sections, in file order.
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// The checksum-verified payload of section `id`.
    pub fn section(&self, id: SectionId) -> Result<&'a [u8], ArtifactError> {
        let e =
            self.entries.iter().find(|e| e.id == id).ok_or(ArtifactError::MissingSection { section: id })?;
        let start = e.header_offset as usize + 16;
        let payload = &self.bytes[start..start + e.len as usize];
        let computed = crc32(payload);
        if computed != e.stored_crc {
            return Err(ArtifactError::ChecksumMismatch { section: id, stored: e.stored_crc, computed });
        }
        Ok(payload)
    }

    /// A [`SectionReader`] over the checksum-verified payload of `id`.
    pub fn reader(&self, id: SectionId) -> Result<SectionReader<'a>, ArtifactError> {
        Ok(SectionReader::new(id, self.section(id)?))
    }

    /// Verify every section's checksum (the `syndcim verify` fast
    /// pass). Returns the number of sections checked.
    pub fn verify_checksums(&self) -> Result<usize, ArtifactError> {
        for e in &self.entries {
            self.section(e.id)?;
        }
        Ok(self.entries.len())
    }
}

// ---------------------------------------------------------------------
// Meta section
// ---------------------------------------------------------------------

/// Producer metadata stored in the [`SectionId::Meta`] section. All
/// fields are deterministic — no timestamps or host names — so the same
/// compile always serializes to byte-identical artifacts (which is what
/// lets `syndcim verify` compare a file against a fresh compile
/// byte-for-byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactMeta {
    /// Format identifier (`"syndcim-artifact"`).
    pub format: String,
    /// Producing package version (`CARGO_PKG_VERSION` of the writer).
    pub producer: String,
    /// Net count of the serialized macro.
    pub net_count: u64,
    /// Instance count of the serialized macro.
    pub inst_count: u64,
}

impl ArtifactMeta {
    /// Encode into a payload.
    pub fn encode(&self) -> SectionWriter {
        let mut w = SectionWriter::new();
        w.put_str(&self.format);
        w.put_str(&self.producer);
        w.put_u64(self.net_count);
        w.put_u64(self.inst_count);
        w
    }

    /// Decode from a payload.
    pub fn decode(r: &mut SectionReader<'_>) -> Result<Self, ArtifactError> {
        let format = r.get_str("meta format")?;
        let producer = r.get_str("meta producer")?;
        let net_count = r.get_u64("meta net count")?;
        let inst_count = r.get_u64("meta instance count")?;
        Ok(ArtifactMeta { format, producer, net_count, inst_count })
    }
}

// ---------------------------------------------------------------------
// Process codec (shared by the STA and power sections)
// ---------------------------------------------------------------------

/// Encode a [`Process`] record (name + every scaling parameter).
pub fn put_process(w: &mut SectionWriter, p: &Process) {
    w.put_str(p.name);
    for v in [
        p.tau_ps,
        p.vdd_nom_v,
        p.vth_v,
        p.alpha,
        p.temp_nom_c,
        p.cin_unit_ff,
        p.wire_cap_ff_per_um,
        p.wire_res_ohm_per_um,
        p.area_per_t_logic_um2,
        p.area_per_t_sram_um2,
        p.row_height_um,
        p.site_width_um,
        p.leak_per_t_nw,
    ] {
        w.put_f64(v);
    }
}

/// Decode a [`Process`] record written by [`put_process`].
pub fn get_process(r: &mut SectionReader<'_>) -> Result<Process, ArtifactError> {
    let name = r.get_str("process name")?;
    // `Process::name` is `&'static str`; the known node resolves to its
    // static literal, anything else leaks its (short) name once per
    // load — artifacts for custom nodes stay loadable without
    // redesigning the PDK types.
    let name: &'static str = match name.as_str() {
        "syn40" => "syn40",
        _ => Box::leak(name.into_boxed_str()),
    };
    let mut f = [0f64; 13];
    for v in f.iter_mut() {
        *v = r.get_f64("process parameter")?;
    }
    Ok(Process {
        name,
        tau_ps: f[0],
        vdd_nom_v: f[1],
        vth_v: f[2],
        alpha: f[3],
        temp_nom_c: f[4],
        cin_unit_ff: f[5],
        wire_cap_ff_per_um: f[6],
        wire_res_ohm_per_um: f[7],
        area_per_t_logic_um2: f[8],
        area_per_t_sram_um2: f[9],
        row_height_um: f[10],
        site_width_um: f[11],
        leak_per_t_nw: f[12],
    })
}

// ---------------------------------------------------------------------
// Symbols codec
// ---------------------------------------------------------------------

/// Sentinel mirrored from `intern.rs`: "no parent node".
const NO_PARENT: u32 = u32::MAX;

/// Encode the interned name layer: the frozen arena plus every symbol
/// table of [`Symbols`], each index column after the table it indexes
/// (nodes before groups, groups before instances, nets before ports).
pub fn encode_symbols(syms: &Symbols) -> SectionWriter {
    let mut w = SectionWriter::new();
    let interner = syms.interner();
    w.put_str(interner.buf());
    w.put_u32s(interner.ends());
    w.put_symbols(&syms.net_syms);
    w.put_symbols(&syms.node_syms);
    w.put_u32s(&syms.node_parent);
    w.put_symbols(&syms.group_syms);
    w.put_symbols(&syms.group_head_syms);
    w.put_u32s(&syms.group_node);
    w.put_symbols(&syms.inst_syms);
    w.put_u32s(&syms.inst_group);
    w.put_symbols(&syms.port_syms);
    w.put_u32s(&syms.port_nets);
    w
}

/// Decode and fully validate the interned name layer. Every invariant
/// the in-memory accessors rely on is re-checked here — arena offsets
/// monotone and on char boundaries, every symbol id inside the arena,
/// group/node/port cross-references dense — so no later lazy resolve
/// can panic on a hostile artifact.
pub fn decode_symbols(r: &mut SectionReader<'_>) -> Result<Symbols, ArtifactError> {
    let buf = r.get_str("interner arena")?;
    let ends = r.get_u32s("interner offsets")?;
    let mut prev = 0u32;
    for &e in &ends {
        if e < prev || e as usize > buf.len() || !buf.is_char_boundary(e as usize) {
            return Err(r.malformed(format!("interner offset {e} not a monotone char boundary")));
        }
        prev = e;
    }
    let interner = Arc::new(Interner::from_parts(buf, ends));
    let n_syms = interner.len();

    let net_syms = r.get_symbols(n_syms, "net symbols")?;
    let node_syms = r.get_symbols(n_syms, "node symbols")?;
    let node_parent = r.get_u32s("node parents")?;
    let group_syms = r.get_symbols(n_syms, "group symbols")?;
    let group_head_syms = r.get_symbols(n_syms, "group head symbols")?;
    let group_node = r.get_indices(node_syms.len(), "group path nodes")?;
    let inst_syms = r.get_symbols(n_syms, "instance symbols")?;
    let inst_group = r.get_indices(group_syms.len(), "instance groups")?;
    let port_syms = r.get_symbols(n_syms, "port symbols")?;
    let port_nets = r.get_indices(net_syms.len(), "port nets")?;

    if node_parent.len() != node_syms.len() {
        return Err(r.malformed("node table lengths disagree"));
    }
    for (i, &p) in node_parent.iter().enumerate() {
        // Parents must precede children: the power rollup's single
        // reverse pass depends on it.
        if p != NO_PARENT && p as usize >= i {
            return Err(r.malformed(format!("node {i} parent {p} not topologically earlier")));
        }
    }
    if group_head_syms.len() != group_syms.len() || group_node.len() != group_syms.len() {
        return Err(r.malformed("group table lengths disagree"));
    }
    if inst_group.len() != inst_syms.len() {
        return Err(r.malformed("instance group table length disagrees with instance count"));
    }
    if port_nets.len() != port_syms.len() {
        return Err(r.malformed("port table lengths disagree"));
    }
    // `port_net` binary-searches by resolved name; a non-sorted table
    // would silently mis-resolve, so reject it here.
    for pair in port_syms.windows(2) {
        if interner.resolve(pair[0]) >= interner.resolve(pair[1]) {
            return Err(r.malformed("port symbols not strictly sorted by name"));
        }
    }

    Ok(Symbols {
        interner,
        net_syms: net_syms.into(),
        inst_syms: inst_syms.into(),
        inst_group: inst_group.into(),
        group_syms: group_syms.into(),
        group_head_syms: group_head_syms.into(),
        group_node: group_node.into(),
        node_syms: node_syms.into(),
        node_parent: node_parent.into(),
        port_syms: port_syms.into(),
        port_nets: port_nets.into(),
    })
}

// ---------------------------------------------------------------------
// Lowering codec
// ---------------------------------------------------------------------

/// Driver tag bytes in the lowering section.
const DRIVER_NONE: u8 = 0;
const DRIVER_PORT: u8 = 1;
const DRIVER_INST: u8 = 2;

/// Encode the shared lowering as columns: the levelized instance order,
/// one driver tag per net with the instance-driven nets' `(inst, pin)`
/// columns, and the sink CSR (instance and pin columns, then offsets).
/// Loading these tables back is what makes `CompiledMacro::load`
/// *wiring-only* — no connectivity build, no levelization, no interning
/// ever re-runs.
pub fn encode_lowering(low: &Lowering) -> SectionWriter {
    let mut w = SectionWriter::new();
    let order: Vec<u32> = low.order().iter().map(|id| id.0).collect();
    w.put_u32s(&order);

    let conn = low.connectivity();
    let mut tags = Vec::with_capacity(low.net_count());
    let (mut driver_inst, mut driver_pin) = (Vec::new(), Vec::new());
    for net in 0..low.net_count() {
        tags.push(match conn.driver_of(NetId(net as u32)) {
            Driver::None => DRIVER_NONE,
            Driver::Port => DRIVER_PORT,
            Driver::Inst { inst, pin } => {
                driver_inst.push(inst.0);
                driver_pin.push(pin as u32);
                DRIVER_INST
            }
        });
    }
    w.put_u8s(&tags);
    w.put_u32s(&driver_inst);
    w.put_u32s(&driver_pin);

    let (offsets, sink_inst, sink_pin) = conn.sink_columns();
    w.put_u32s(sink_inst);
    w.put_u32s(sink_pin);
    w.put_u32s(offsets);
    w
}

/// Decode the shared lowering against the already-decoded `symbols`,
/// whose net and instance counts bound every table.
pub fn decode_lowering(r: &mut SectionReader<'_>, symbols: &Symbols) -> Result<Lowering, ArtifactError> {
    let (net_count, inst_count) = (symbols.net_count(), symbols.inst_count());
    let order = r.get_indices(inst_count, "levelized order")?.into_iter().map(InstId).collect();

    let tags = r.get_u8s("driver tags")?;
    let driver_inst = r.get_indices(inst_count, "driver instances")?;
    let driver_pin = r.get_u32s("driver pins")?;
    if tags.len() != net_count {
        return Err(r.malformed(format!("driver table covers {} nets, expected {net_count}", tags.len())));
    }
    if driver_pin.len() != driver_inst.len() {
        return Err(r.malformed("driver pin column disagrees with the driver instances"));
    }
    if let Some(t) = tags.iter().find(|&&t| t > DRIVER_INST) {
        return Err(r.malformed(format!("unknown driver tag {t}")));
    }
    let inst_driven = tags.iter().filter(|&&t| t == DRIVER_INST).count();
    if inst_driven != driver_inst.len() {
        return Err(r.malformed(format!(
            "{inst_driven} instance-driven nets but {} driver instances",
            driver_inst.len()
        )));
    }

    let sink_inst = r.get_indices(inst_count, "sink instances")?;
    let sink_pin = r.get_u32s("sink pins")?;
    if sink_pin.len() != sink_inst.len() {
        return Err(r.malformed("sink pin column disagrees with the sink instances"));
    }
    let offsets = r.get_offsets(net_count, sink_inst.len(), "sink offsets")?;

    let mut inst_drivers = driver_inst.into_iter().zip(driver_pin);
    let drivers = tags.iter().map(|&tag| match tag {
        DRIVER_NONE => Driver::None,
        DRIVER_PORT => Driver::Port,
        _ => {
            let (inst, pin) = inst_drivers.next().expect("one driver instance per instance-driven net");
            Driver::Inst { inst: InstId(inst), pin: pin as usize }
        }
    });
    let conn = Connectivity::from_columns(drivers, offsets, sink_inst, sink_pin);
    Ok(Lowering::from_parts(conn, order, symbols.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::CellLibrary;

    fn sample_symbols() -> (Symbols, Lowering) {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let a = b.input("a");
        b.push_group("regs/bank0");
        let q = b.dff(a);
        b.pop_group();
        let y = b.not(q);
        b.output("y", y);
        let m = b.finish();
        let low = {
            let _builds = crate::lowering::TEST_BUILDS_LOCK.lock().unwrap();
            Lowering::validated(&m, &lib).unwrap()
        };
        (low.symbols().clone(), low)
    }

    fn roundtrip_section(id: SectionId, payload: SectionWriter) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ArtifactWriter::new(&mut out, 1).unwrap();
        w.write_section(id, payload).unwrap();
        w.finish().unwrap();
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn container_roundtrip_and_checksum_detection() {
        let mut payload = SectionWriter::new();
        payload.put_u32s(&[1, 2, 3]);
        let bytes = roundtrip_section(SectionId::Meta, payload);
        let reader = ArtifactReader::parse(&bytes).unwrap();
        assert_eq!(reader.entries().len(), 1);
        let mut r = reader.reader(SectionId::Meta).unwrap();
        assert_eq!(r.get_u32s("v").unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();

        // Flip one payload bit → checksum mismatch, typed.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let reader = ArtifactReader::parse(&corrupt).unwrap();
        assert!(matches!(
            reader.section(SectionId::Meta),
            Err(ArtifactError::ChecksumMismatch { section: SectionId::Meta, .. })
        ));
    }

    #[test]
    fn framing_rejects_magic_version_truncation_and_oversize() {
        let bytes = roundtrip_section(SectionId::Meta, SectionWriter::new());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(ArtifactReader::parse(&bad_magic), Err(ArtifactError::BadMagic { .. })));

        for v in [0u32, FORMAT_VERSION + 1, u32::MAX] {
            let mut bad_version = bytes.clone();
            bad_version[8..12].copy_from_slice(&v.to_le_bytes());
            assert!(matches!(
                ArtifactReader::parse(&bad_version),
                Err(ArtifactError::UnsupportedVersion { found }) if found == v
            ));
        }

        for cut in 0..bytes.len() {
            let err = ArtifactReader::parse(&bytes[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(err, ArtifactError::BadMagic { .. } | ArtifactError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }

        let mut oversize = bytes.clone();
        oversize[20..28].copy_from_slice(&(MAX_SECTION_BYTES + 1).to_le_bytes());
        assert!(matches!(ArtifactReader::parse(&oversize), Err(ArtifactError::SectionTooLarge { .. })));

        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(ArtifactReader::parse(&trailing), Err(ArtifactError::TrailingBytes { count: 1 })));
    }

    #[test]
    fn symbols_codec_roundtrips_every_table() {
        let (syms, _) = sample_symbols();
        let bytes = roundtrip_section(SectionId::Symbols, encode_symbols(&syms));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Symbols).unwrap();
        let back = decode_symbols(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.net_count(), syms.net_count());
        assert_eq!(back.inst_count(), syms.inst_count());
        assert_eq!(back.group_count(), syms.group_count());
        assert_eq!(back.node_count(), syms.node_count());
        for i in 0..syms.net_count() {
            assert_eq!(back.net_name(i), syms.net_name(i));
        }
        for i in 0..syms.inst_count() {
            assert_eq!(back.inst_name(i), syms.inst_name(i));
            assert_eq!(back.group_of(i), syms.group_of(i));
        }
        for g in 0..syms.group_count() as u32 {
            assert_eq!(back.group_name(g), syms.group_name(g));
            assert_eq!(back.resolve(back.group_head_sym(g)), syms.resolve(syms.group_head_sym(g)));
            assert_eq!(back.group_node(g), syms.group_node(g));
        }
        for n in 0..syms.node_count() as u32 {
            assert_eq!(back.node_name(n), syms.node_name(n));
            assert_eq!(back.node_parent(n), syms.node_parent(n));
        }
        assert_eq!(back.port_count(), syms.port_count());
        assert_eq!(back.port_net("a"), syms.port_net("a"));
        assert_eq!(back.port_net("y"), syms.port_net("y"));
        assert_eq!(back.heap_bytes(), syms.heap_bytes(), "retained layout must be preserved exactly");
    }

    #[test]
    fn lowering_codec_roundtrips_conn_and_order_without_a_build() {
        let (syms, low) = sample_symbols();
        let bytes = roundtrip_section(SectionId::Lowering, encode_lowering(&low));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let _builds = crate::lowering::TEST_BUILDS_LOCK.lock().unwrap();
        let builds_before = Lowering::builds();
        let mut r = reader.reader(SectionId::Lowering).unwrap();
        let back = decode_lowering(&mut r, &syms).unwrap();
        r.finish().unwrap();
        assert_eq!(Lowering::builds(), builds_before, "decoding must not re-lower");
        assert_eq!(back.order(), low.order());
        assert_eq!(back.net_count(), low.net_count());
        assert_eq!(back.connectivity(), low.connectivity());
    }

    #[test]
    fn process_codec_is_exact() {
        let p = Process::syn40();
        let mut w = SectionWriter::new();
        put_process(&mut w, &p);
        let bytes = roundtrip_section(SectionId::Sta, w);
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Sta).unwrap();
        let back = get_process(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // A section whose vector claims u32::MAX/16 elements but holds
        // four bytes: the count check must fail without allocating.
        let mut payload = SectionWriter::new();
        payload.put_u32(MAX_ELEMENTS);
        let bytes = roundtrip_section(SectionId::Symbols, payload);
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Symbols).unwrap();
        assert!(matches!(r.get_u32s("v"), Err(ArtifactError::Truncated { .. })));

        let mut payload = SectionWriter::new();
        payload.put_u32(u32::MAX);
        let bytes = roundtrip_section(SectionId::Symbols, payload);
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Symbols).unwrap();
        assert!(matches!(r.get_u32s("v"), Err(ArtifactError::CountTooLarge { .. })));
    }
}
