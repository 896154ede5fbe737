//! # syndcim-ir — the shared compilation front end
//!
//! Every compiled analysis backend in this workspace — the bit-parallel
//! simulation engine (`syndcim-engine`), the compiled timing program
//! (`syndcim-sta`) and the compiled power program (`syndcim-power`) —
//! follows the same compile-once/evaluate-many design, and all three
//! start from the same traversal: build connectivity, levelize the
//! combinational instances, assign every net a dense slot. This crate
//! owns that traversal ([`Lowering`]) so each backend only decides what
//! to emit *per instance*, never how to walk the netlist, and so the
//! backends can share **one** lowering per compiled macro instead of
//! re-walking the module once each.
//!
//! The lowering also owns the **interned name layer** ([`Symbols`] over
//! a frozen [`Interner`]): every net, instance and group name of the
//! module is interned exactly once, and downstream compiled artifacts
//! store 4-byte [`Symbol`]s (shared `Arc` tables) instead of cloned
//! `String` tables, resolving names lazily only when a report is
//! printed. On large generated macros (≥10⁵ nets) this shrinks the
//! name footprint of the compiled trinity by well over 2× — asserted
//! by `cargo bench -p syndcim-bench --bench lowering`.
//!
//! It also hosts [`parallel_map`], the scoped-thread batch runner the
//! compiled backends use to fan independent evaluations across cores —
//! infrastructure, like the lowering, that must not force a dependency
//! on any particular backend.
//!
//! ```
//! use syndcim_ir::Lowering;
//! use syndcim_netlist::NetlistBuilder;
//! use syndcim_pdk::CellLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = CellLibrary::syn40();
//! let mut b = NetlistBuilder::new("inv", &lib);
//! let a = b.input("a");
//! let y = b.not(a);
//! b.output("y", y);
//! let m = b.finish();
//! let low = Lowering::validated(&m, &lib)?; // one traversal ...
//! assert_eq!(low.net_count(), m.net_count()); // ... shared by every backend
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod intern;
pub mod lowering;
pub mod runner;

pub use artifact::{
    ArtifactError, ArtifactMeta, ArtifactReader, ArtifactWriter, SectionId, SectionReader, SectionWriter,
};
pub use intern::{Interner, InternerBuilder, Symbol, Symbols};
pub use lowering::{net_loads_ff, Lowering};
pub use runner::{default_threads, parallel_map, parallel_map_threads};
