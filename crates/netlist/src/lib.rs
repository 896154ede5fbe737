//! # syndcim-netlist — flat gate-level netlist substrate
//!
//! The netlist data model shared by every stage of the SynDCIM
//! reproduction: subcircuit generators build [`Module`]s through
//! [`NetlistBuilder`], the simulator and STA consume them via
//! [`Connectivity`] and [`levelize`], synthesis cleanup runs
//! [`optimize`], and reports use [`NetlistStats`].
//!
//! ```
//! use syndcim_netlist::{NetlistBuilder, Connectivity, levelize, validate};
//! use syndcim_pdk::CellLibrary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = CellLibrary::syn40();
//! let mut b = NetlistBuilder::new("maj3", &lib);
//! let (a, c, d) = (b.input("a"), b.input("b"), b.input("c"));
//! let (_, maj) = b.fa(a, c, d);
//! b.output("maj", maj);
//! let m = b.finish();
//! let conn = Connectivity::build(&m)?;
//! validate(&m, &conn)?;
//! assert_eq!(levelize(&m, &lib, &conn)?.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod analyze;
pub mod builder;
pub mod export;
pub mod graph;
pub mod opt;
pub mod stats;

pub use analyze::{levelize, validate, Connectivity, Driver, NetlistError};
pub use builder::{NetlistBuilder, Outputs};
pub use export::to_verilog;
pub use graph::{Counter, GroupId, InstId, Instance, Module, Name, NetId, Port, PortDir};
pub use opt::{optimize, OptReport};
pub use stats::NetlistStats;
