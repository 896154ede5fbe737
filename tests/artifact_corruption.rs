//! Adversarial decode suite for the `.scim` artifact format: every
//! corruption an on-disk file can plausibly suffer must come back as a
//! typed [`ArtifactError`] — never a panic, never an abort, never an
//! attacker-controlled allocation.
//!
//! The attack surface, layer by layer:
//!
//! * **Truncation** — the file cut off at *every* byte prefix (the
//!   sample bundle is small enough to sweep exhaustively, which
//!   subsumes "every section boundary ± a few bytes").
//! * **Framing** — flipped magic bytes, past/future format versions,
//!   and a hostile section count.
//! * **Resource-exhaustion** — declared section lengths and element
//!   counts far beyond the actual payload must be rejected *before*
//!   any allocation is sized from them (the decoder's
//!   `MAX_SECTION_BYTES` / length-vs-remaining checks).
//! * **Bit rot** — a single flipped payload bit in each section is
//!   caught by that section's CRC-32, named in the error.
//! * **Fuzz** — ≥1k seeded random mutations (bit flips, byte
//!   overwrites, truncations, extensions); every one must return
//!   `Result`, and any `Ok` must canonically re-encode to the mutated
//!   input (i.e. only identity mutations decode).
//! * **Program ops** — hand-built program sections with an unknown op
//!   kind tag, a pin past the nets, an op writing one of its own
//!   inputs, or a pin stream shorter or longer than the kind tags need
//!   are `Malformed`, never a panic.

use rand::Rng;
use syndcim_core::{ArtifactError, ArtifactReader, CompiledMacro, SectionId};
use syndcim_engine::artifact::decode_program;
use syndcim_ir::artifact::{SectionReader, SectionWriter};
use syndcim_ir::Lowering;
use syndcim_netlist::{InstId, NetlistBuilder};
use syndcim_pdk::{CellKind, CellLibrary};
use syndcim_sim::vectors::seeded_rng;
use syndcim_sta::WireLoads;

/// A small but fully representative bundle: combinational logic, plain
/// and enabled flops, a bitcell — every op and commit kind the program
/// section can carry — compiled through the real trinity.
fn sample_bytes() -> Vec<u8> {
    let lib = CellLibrary::syn40();
    let mut b = NetlistBuilder::new("corruptible", &lib);
    let a = b.input("a");
    let c = b.input("b");
    let s = b.xor2(a, c);
    let q = b.dff(s);
    let qe = b.dffe(s, a);
    let rbl = b.add(CellKind::Sram6T2T, &[a, c])[0];
    let m1 = b.xor2(q, qe);
    let y = b.xor2(m1, rbl);
    b.output("y", y);
    let m = b.finish();
    let cm = CompiledMacro::compile(&m, &lib, &WireLoads::zero(m.net_count())).unwrap();
    cm.save_to_vec().unwrap()
}

#[test]
fn the_pristine_sample_loads_and_verifies() {
    let bytes = sample_bytes();
    let reader = ArtifactReader::parse(&bytes).unwrap();
    assert_eq!(reader.verify_checksums().unwrap(), SectionId::ALL.len());
    let cm = CompiledMacro::load_from_bytes(&bytes).unwrap();
    assert_eq!(cm.save_to_vec().unwrap(), bytes);
}

#[test]
fn truncation_at_every_byte_prefix_is_a_typed_error() {
    let bytes = sample_bytes();
    for len in 0..bytes.len() {
        let err = CompiledMacro::load_from_bytes(&bytes[..len])
            .expect_err(&format!("a {len}-byte prefix of a {}-byte artifact must not load", bytes.len()));
        // Every error Displays without panicking and is a decode-side
        // variant, never Io.
        let _ = err.to_string();
        assert!(!matches!(err, ArtifactError::Io(_)), "prefix {len}: truncation is not an I/O error");
    }
}

#[test]
fn flipped_magic_bytes_are_rejected() {
    let bytes = sample_bytes();
    for i in 0..8 {
        let mut m = bytes.clone();
        m[i] ^= 0x20;
        let err = CompiledMacro::load_from_bytes(&m).unwrap_err();
        assert!(
            matches!(err, ArtifactError::BadMagic { found } if found[..] == m[..8]),
            "magic byte {i}: got {err}"
        );
    }
}

#[test]
fn past_and_future_versions_are_rejected() {
    let bytes = sample_bytes();
    for version in [0u32, 1, 3, 999, u32::MAX] {
        let mut m = bytes.clone();
        m[8..12].copy_from_slice(&version.to_le_bytes());
        let err = CompiledMacro::load_from_bytes(&m).unwrap_err();
        assert!(
            matches!(err, ArtifactError::UnsupportedVersion { found } if found == version),
            "version {version}: got {err}"
        );
    }
}

#[test]
fn hostile_lengths_and_counts_are_rejected_before_allocation() {
    let bytes = sample_bytes();
    let first_header = {
        let reader = ArtifactReader::parse(&bytes).unwrap();
        reader.entries()[0].header_offset as usize
    };

    // Declared section lengths far past the payload (and past the hard
    // decode limit): must error immediately, not try to allocate or
    // read terabytes.
    for declared in [u64::MAX, 1 << 62, (1 << 30) + 1, bytes.len() as u64 + 1] {
        let mut m = bytes.clone();
        m[first_header + 4..first_header + 12].copy_from_slice(&declared.to_le_bytes());
        let err = CompiledMacro::load_from_bytes(&m).unwrap_err();
        assert!(
            matches!(err, ArtifactError::SectionTooLarge { .. } | ArtifactError::Truncated { .. }),
            "declared len {declared}: got {err}"
        );
    }

    // A hostile section count in the container header.
    for count in [0u32, 1, 7, u32::MAX] {
        let mut m = bytes.clone();
        m[12..16].copy_from_slice(&count.to_le_bytes());
        assert!(CompiledMacro::load_from_bytes(&m).is_err(), "section count {count} must not load");
    }

    // An unknown section tag.
    let mut m = bytes.clone();
    m[first_header..first_header + 4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    assert!(matches!(
        CompiledMacro::load_from_bytes(&m).unwrap_err(),
        ArtifactError::UnknownSection { code: 0xDEAD_BEEF }
    ));
}

#[test]
fn a_single_flipped_bit_in_any_section_is_caught_by_its_checksum() {
    let bytes = sample_bytes();
    let entries: Vec<(SectionId, usize, usize)> = ArtifactReader::parse(&bytes)
        .unwrap()
        .entries()
        .iter()
        .map(|e| (e.id, e.header_offset as usize, e.len as usize))
        .collect();
    assert_eq!(entries.len(), SectionId::ALL.len());

    for &(id, header, len) in &entries {
        assert!(len > 0, "{}: sample sections are non-empty", id.name());
        // One bit, mid-payload.
        let mut m = bytes.clone();
        m[header + 16 + len / 2] ^= 1;
        let err = CompiledMacro::load_from_bytes(&m).unwrap_err();
        assert!(
            matches!(err, ArtifactError::ChecksumMismatch { section, .. } if section == id),
            "{}: payload bit flip must fail that section's CRC, got {err}",
            id.name()
        );

        // One bit in the stored checksum itself.
        let mut m = bytes.clone();
        m[header + 12] ^= 1;
        let err = CompiledMacro::load_from_bytes(&m).unwrap_err();
        assert!(
            matches!(err, ArtifactError::ChecksumMismatch { section, .. } if section == id),
            "{}: stored-CRC bit flip must mismatch, got {err}",
            id.name()
        );
    }
}

#[test]
fn a_thousand_seeded_random_mutations_never_panic() {
    let bytes = sample_bytes();
    let mut rng = seeded_rng(0x5C14_FA22);
    let mut rejected = 0usize;
    for i in 0..1_200usize {
        let mut m = bytes.clone();
        match i % 4 {
            // Flip 1–8 random bits.
            0 => {
                for _ in 0..rng.gen_range(1..=8usize) {
                    let at = rng.gen_range(0..m.len());
                    m[at] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            // Overwrite 1–4 random bytes with random values.
            1 => {
                for _ in 0..rng.gen_range(1..=4usize) {
                    let at = rng.gen_range(0..m.len());
                    m[at] = rng.gen_range(0..=255u8);
                }
            }
            // Truncate to a random prefix.
            2 => m.truncate(rng.gen_range(0..m.len())),
            // Append 1–64 random trailing bytes.
            _ => {
                for _ in 0..rng.gen_range(1..=64usize) {
                    m.push(rng.gen_range(0..=255u8));
                }
            }
        }
        match CompiledMacro::load_from_bytes(&m) {
            Err(err) => {
                let _ = err.to_string();
                rejected += 1;
            }
            // An Ok decode is only legitimate if the mutation was an
            // identity (e.g. an overwrite that wrote the same value):
            // the canonical re-encode must equal the mutated input.
            Ok(cm) => assert_eq!(
                cm.save_to_vec().unwrap(),
                m,
                "mutation {i}: a non-identity mutation decoded successfully"
            ),
        }
    }
    assert!(rejected > 1_000, "the fuzz loop must actually exercise the error paths ({rejected} rejections)");
}

/// The kind tag of a 4-2 compressor op: its position in the engine's
/// op-kind list (`Const0` = 0 … `FullAdder` = 14, `Compressor42` = 15,
/// `MultMux` = 16).
const C42_TAG: u8 = 15;

/// Decode a hand-built program section for a lone 4-2 compressor:
/// `ops` gets the net count and the cell's pins `[s, carry, cout, a, b,
/// c, d, cin]` and returns the op kind tags and the pin stream.
fn decode_c42_section(ops: impl Fn(u32, [u32; 8]) -> (Vec<u8>, Vec<u32>)) -> Result<(), ArtifactError> {
    let lib = CellLibrary::syn40();
    let mut b = NetlistBuilder::new("c42", &lib);
    let ins: Vec<_> = ["a", "b", "c", "d", "cin"].iter().map(|n| b.input(*n)).collect();
    for (k, out) in b.add(CellKind::C42, &ins).into_iter().enumerate() {
        b.output(format!("o{k}"), out);
    }
    let m = b.finish();
    let low = Lowering::validated(&m, &lib).unwrap();
    let inst = m.instance(InstId(0));
    let mut pins = inst.outputs.iter().chain(inst.inputs).map(|n| n.index() as u32);
    let (tags, pin_stream) = ops(m.net_count() as u32, std::array::from_fn(|_| pins.next().unwrap()));

    let mut w = SectionWriter::new();
    w.put_u8s(&tags);
    w.put_u32s(&pin_stream);
    // No commits: empty update tag, in0, in1 and q columns.
    w.put_u8s(&[]);
    for _ in 0..3 {
        w.put_u32s(&[]);
    }
    w.put_u32s(&vec![u32::MAX; m.instance_count()]);
    let bytes = w.into_bytes();
    decode_program(&mut SectionReader::new(SectionId::Program, &bytes), low.symbols()).map(|_| ())
}

#[test]
fn hand_built_program_sections_with_bad_ops_are_malformed() {
    let pristine = decode_c42_section(|_, pins| (vec![C42_TAG], pins.to_vec()));
    assert!(pristine.is_ok(), "the pristine op decodes: {pristine:?}");

    let malformed = |what: &str, res: Result<(), ArtifactError>| {
        assert!(matches!(res, Err(ArtifactError::Malformed { .. })), "{what}: got {res:?}");
    };
    for tag in [C42_TAG + 2, u8::MAX] {
        malformed("unknown kind tag", decode_c42_section(|_, pins| (vec![tag], pins.to_vec())));
    }
    malformed(
        "pin at the net count",
        decode_c42_section(|nets, mut pins| {
            pins[3] = nets;
            (vec![C42_TAG], pins.to_vec())
        }),
    );
    // The compressor's sum output is also its `cin` input.
    malformed(
        "sum output is an input",
        decode_c42_section(|_, mut pins| {
            pins[0] = pins[7];
            (vec![C42_TAG], pins.to_vec())
        }),
    );
    malformed("pin stream cut short", decode_c42_section(|_, pins| (vec![C42_TAG], pins[..5].to_vec())));
    malformed(
        "pin stream past the ops",
        decode_c42_section(|_, pins| (vec![C42_TAG], [&pins[..], &pins[..1]].concat())),
    );
}
