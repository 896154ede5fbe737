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
//! The slot assignment is deliberately trivial — slot `i` is net `i`,
//! written `net.index() as u32` by every emitter — which keeps every
//! per-net side table (toggle counts, arrival times, switched
//! capacitance, wire parasitics) directly indexable by
//! [`NetId::index`](syndcim_netlist::NetId::index) with no remapping
//! step between backends.

use std::sync::atomic::{AtomicU64, Ordering};

use syndcim_netlist::{levelize, validate, Connectivity, InstId, Module, NetlistError, PortDir};
use syndcim_pdk::CellLibrary;
use syndcim_telemetry as telemetry;

use crate::intern::Symbols;
use crate::runner::{join, OVERLAP_MIN_INSTANCES};

/// Global count of [`Lowering`] constructions (not clones), used by
/// tests to pin the "one lowering per compiled macro" contract.
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Serializes this crate's tests that build lowerings against the one
/// that reads [`Lowering::builds`] across a decode: the counter is
/// process-global, so a build on a concurrent test thread would skew it.
#[cfg(test)]
pub(crate) static TEST_BUILDS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The shared front half of netlist compilation: connectivity tables,
/// the levelized combinational instance order and the interned names.
///
/// Build one with [`Lowering::validated`], which also rejects nets that
/// are read but never driven — the contract every backend shares.
#[derive(Debug, Clone)]
pub struct Lowering {
    conn: Connectivity,
    order: Vec<InstId>,
    /// Interned net/instance/group name tables (see [`Symbols`]) —
    /// built once here and shared by every compiled artifact, so no
    /// downstream program ever clones a `String` table again.
    symbols: Symbols,
}

impl Lowering {
    /// Lower `module`: build connectivity, levelize the combinational
    /// instances, intern the names and check that every net an
    /// instance or output port reads has a driver. The floating-net
    /// check runs inside the `lowering` span, so it reports as a child.
    ///
    /// Interning only reads the module, so on modules of at least
    /// [`OVERLAP_MIN_INSTANCES`] instances it runs beside the
    /// connectivity → levelize → validate walk ([`join`]); the result is
    /// the same either way.
    ///
    /// # Errors
    ///
    /// Returns an error if a net has multiple drivers, the
    /// combinational part of the design is cyclic, or a net is read but
    /// undriven ([`NetlistError::FloatingNet`]).
    pub fn validated(module: &Module, lib: &CellLibrary) -> Result<Self, NetlistError> {
        telemetry::span!("lowering");
        telemetry::counter("ir.lowerings").incr();
        BUILDS.fetch_add(1, Ordering::Relaxed);
        // Interning, with its many allocations, stays on the caller: on
        // the spawned thread it made the scale tier's lowering and the
        // placement after it slower (traced).
        let intern = || {
            telemetry::span!("lowering.intern");
            Symbols::from_module(module)
        };
        let walk = || {
            let conn = {
                telemetry::span!("lowering.connectivity");
                Connectivity::build(module)?
            };
            let order = {
                telemetry::span!("lowering.levelize");
                levelize(module, lib, &conn)?
            };
            telemetry::span!("lowering.validate");
            validate(module, &conn)?;
            Ok((conn, order))
        };
        let (symbols, walked) = join(module.instance_count() >= OVERLAP_MIN_INSTANCES, intern, walk);
        let (conn, order) = walked?;
        Ok(Lowering { conn, order, symbols })
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
        self.symbols.net_count()
    }

    /// Heap bytes of the levelized order and the connectivity columns.
    /// The symbol tables are left out: every compiled program shares
    /// them, so [`Symbols::heap_bytes`] counts them once.
    pub fn heap_bytes(&self) -> usize {
        self.order.len() * std::mem::size_of::<InstId>() + self.conn.heap_bytes()
    }

    /// Reassemble a lowering from already-built tables. Crate-internal:
    /// the artifact decoder is the only caller. Deliberately does *not*
    /// bump the build counter — loading an artifact is wiring-only, and
    /// `Lowering::builds()` staying flat across a load is exactly the
    /// invariant the roundtrip tests pin.
    pub(crate) fn from_parts(conn: Connectivity, order: Vec<InstId>, symbols: Symbols) -> Self {
        Lowering { conn, order, symbols }
    }

    /// Number of `Lowering`s *built* so far in this process (clones do
    /// not count). A diagnostic counter: the "compiled trinity" tests
    /// use it to pin that one `implement` call walks the netlist exactly
    /// once, no matter how many backends consume the result.
    pub fn builds() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }
}

/// Total capacitive load per net in fF, indexed by
/// [`NetId::index`](syndcim_netlist::NetId::index):
/// every sink pin's input capacitance (instance order), plus
/// `4 × cin_unit` per output port, plus the net's entry of
/// `wire_cap_ff` (missing entries count as zero), summed in that order.
///
/// The one load formula shared by the reference and the compiled timing
/// and power analyzers, so their per-net loads agree bit for bit.
pub fn net_loads_ff(module: &Module, lib: &CellLibrary, wire_cap_ff: &[f64]) -> Vec<f64> {
    let mut load = vec![0.0f64; module.net_count()];
    for inst in module.instances() {
        let cell = lib.cell(inst.cell);
        for (pin, &net) in inst.inputs.iter().enumerate() {
            load[net.index()] += cell.input_cap_ff[pin];
        }
    }
    let port_load_ff = 4.0 * lib.process().cin_unit_ff;
    for p in module.ports.iter().filter(|p| p.dir == PortDir::Output) {
        load[p.net.index()] += port_load_ff;
    }
    for (l, &wire) in load.iter_mut().zip(wire_cap_ff) {
        *l += wire;
    }
    load
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
        let low = Lowering::validated(&m, &lib).unwrap();
        let conn = Connectivity::build(&m).unwrap();
        assert_eq!(low.order(), levelize(&m, &lib, &conn).unwrap());
        assert_eq!(low.net_count(), m.net_count());
    }

    #[test]
    fn validated_rejects_floating_reads() {
        let _builds = TEST_BUILDS_LOCK.lock().unwrap();
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("float", &lib);
        let dangling = b.net("dangling");
        let y = b.not(dangling);
        b.output("y", y);
        let m = b.finish();
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
        let low = Lowering::validated(&m, &lib).unwrap();
        let _clone = low.clone();
        let _clone2 = low.clone();
        assert!(Lowering::builds() > before, "validated() must bump the counter");
    }
}
