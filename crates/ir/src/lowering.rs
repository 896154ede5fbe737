//! Shared netlist lowering: the traversal every compiled backend reuses.
//!
//! Lowering a module — building connectivity, levelizing the
//! combinational instances and assigning every net a dense slot — is
//! the part of compilation that is identical between the bit-parallel
//! simulation program in `syndcim-engine`, the compiled timing program
//! in `syndcim-sta` and the compiled power program in `syndcim-power`.
//! [`Lowering`] performs that traversal once and exposes the results,
//! so downstream compilers only decide what to emit *per instance*,
//! never how to walk the netlist.
//!
//! The slot assignment is deliberately trivial — slot `i` is net `i` —
//! which keeps every per-net side table (toggle counts, arrival times,
//! switched capacitance, wire parasitics) directly indexable by
//! [`NetId::index`] with no remapping step between backends.

use std::sync::atomic::{AtomicU64, Ordering};

use syndcim_netlist::{levelize, validate, Connectivity, InstId, Module, NetId, NetlistError};
use syndcim_pdk::CellLibrary;
use syndcim_telemetry as telemetry;

use crate::intern::Symbols;

/// Global count of [`Lowering`] constructions (not clones), used by
/// tests to pin the "one lowering per compiled macro" contract.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Serializes this crate's tests that build lowerings against the one
/// that reads [`Lowering::builds`] across a decode: the counter is
/// process-global, so a build on a concurrent test thread would skew it.
#[cfg(test)]
pub(crate) static TEST_BUILDS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The shared front half of netlist compilation: connectivity tables,
/// the levelized combinational instance order and the dense net→slot
/// map.
///
/// Build one with [`Lowering::new`] (tolerates unread floating nets,
/// matching `syndcim_sta::Sta`) or [`Lowering::validated`] (additionally
/// rejects read-but-undriven nets, matching the simulation backends).
#[derive(Debug, Clone)]
pub struct Lowering {
    conn: Connectivity,
    order: Vec<InstId>,
    net_count: usize,
    /// Interned net/instance/group name tables (see [`Symbols`]) —
    /// built once here and shared by every compiled artifact, so no
    /// downstream program ever clones a `String` table again.
    symbols: Symbols,
    /// Whether this lowering passed the simulation backends' floating
    /// net check ([`Lowering::validated`]).
    validated: bool,
}

impl Lowering {
    /// Lower `module`: build connectivity and levelize the combinational
    /// instances.
    ///
    /// # Errors
    ///
    /// Returns an error if a net has multiple drivers or the
    /// combinational part of the design is cyclic.
    pub fn new(module: &Module, lib: &CellLibrary) -> Result<Self, NetlistError> {
        Self::build(module, lib, false)
    }

    /// Like [`Lowering::new`], but additionally rejects floating nets
    /// that are read by an instance or output port — the contract the
    /// simulation backends require.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as [`Lowering::new`],
    /// plus [`NetlistError::FloatingNet`] for read-but-undriven nets.
    pub fn validated(module: &Module, lib: &CellLibrary) -> Result<Self, NetlistError> {
        Self::build(module, lib, true)
    }

    /// The one lowering walk behind both constructors; the floating-net
    /// check runs inside the `lowering` span, so it reports as a child.
    fn build(module: &Module, lib: &CellLibrary, validated: bool) -> Result<Self, NetlistError> {
        telemetry::span!("lowering");
        telemetry::counter("ir.lowerings").incr();
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let conn = {
            telemetry::span!("lowering.connectivity");
            Connectivity::build(module)?
        };
        let order = {
            telemetry::span!("lowering.levelize");
            levelize(module, lib, &conn)?
        };
        let symbols = {
            telemetry::span!("lowering.intern");
            Symbols::from_module(module)
        };
        if validated {
            telemetry::span!("lowering.validate");
            validate(module, &conn)?;
        }
        Ok(Lowering { conn, order, net_count: module.net_count(), symbols, validated })
    }

    /// `true` if this lowering was built with [`Lowering::validated`]
    /// (i.e. the floating-net check the simulation backends require has
    /// already passed). Consumers with the same contract —
    /// `syndcim_sim::Simulator::with_lowering` — use this to skip a
    /// redundant validation walk.
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// The interned name tables built from the lowered module: net,
    /// instance and group names behind one shared
    /// [`Interner`](crate::Interner). Cloning the returned handle is a
    /// few `Arc` bumps — this is how the compiled simulation, timing
    /// and power programs all resolve names without owning any.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Connectivity tables (drivers and sinks per net).
    pub fn connectivity(&self) -> &Connectivity {
        &self.conn
    }

    /// Levelized order of the combinational instances. Evaluating (or
    /// propagating arrival times through) instances in this order needs
    /// exactly one linear pass.
    pub fn order(&self) -> &[InstId] {
        &self.order
    }

    /// Number of real net slots (equals the module's net count).
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Dense slot of a net. Slots are stable across backends: slot `i`
    /// always mirrors net `i`.
    pub fn slot(&self, net: NetId) -> u32 {
        net.index() as u32
    }

    /// Reassemble a lowering from already-built tables. Crate-internal:
    /// the artifact decoder is the only caller. Deliberately does *not*
    /// bump the build counter — loading an artifact is wiring-only, and
    /// `Lowering::builds()` staying flat across a load is exactly the
    /// invariant the roundtrip tests pin.
    pub(crate) fn from_parts(
        conn: Connectivity,
        order: Vec<InstId>,
        net_count: usize,
        symbols: Symbols,
        validated: bool,
    ) -> Self {
        Lowering { conn, order, net_count, symbols, validated }
    }

    /// Number of `Lowering`s *built* so far in this process (clones do
    /// not count). A diagnostic counter: the "compiled trinity" tests
    /// use it to pin that one `implement` call walks the netlist exactly
    /// once, no matter how many backends consume the result.
    pub fn builds() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;

    #[test]
    fn lowering_orders_match_levelize() {
        let _builds = TEST_BUILDS_LOCK.lock().unwrap();
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a");
        let x = b.not(a);
        let y = b.not(x);
        b.output("y", y);
        let m = b.finish();
        let low = Lowering::new(&m, &lib).unwrap();
        let conn = Connectivity::build(&m).unwrap();
        assert_eq!(low.order(), levelize(&m, &lib, &conn).unwrap());
        assert_eq!(low.net_count(), m.net_count());
        assert_eq!(low.slot(a), a.index() as u32);
    }

    #[test]
    fn validated_rejects_floating_reads_but_new_tolerates_them() {
        let _builds = TEST_BUILDS_LOCK.lock().unwrap();
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("float", &lib);
        let dangling = b.net("dangling");
        let y = b.not(dangling);
        b.output("y", y);
        let m = b.finish();
        assert!(Lowering::new(&m, &lib).is_ok(), "the STA contract tolerates unreached nets");
        assert!(matches!(Lowering::validated(&m, &lib), Err(NetlistError::FloatingNet { .. })));
    }

    #[test]
    fn build_counter_counts_builds_not_clones() {
        let _builds = TEST_BUILDS_LOCK.lock().unwrap();
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("inv", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let before = Lowering::builds();
        let low = Lowering::new(&m, &lib).unwrap();
        let _clone = low.clone();
        let _clone2 = low.clone();
        assert!(Lowering::builds() > before, "new() must bump the counter");
    }
}
