//! Connectivity analysis: drivers, fanout, validation and levelization.
//!
//! Levelization orders the combinational instances topologically so the
//! simulator can evaluate a cycle in one linear pass and the STA engine
//! can propagate arrival times without iteration. Sequential cells
//! (flip-flops, bitcells) break the graph: their outputs are sources and
//! their inputs are sinks.

use crate::graph::{InstId, Module, NetId};
use std::fmt;
use syndcim_pdk::CellLibrary;

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Driven by a module input port.
    Port,
    /// Driven by output pin `pin` of instance `inst`.
    Inst {
        /// Driving instance.
        inst: InstId,
        /// Output pin index on the driving cell.
        pin: usize,
    },
    /// No driver found (floating net).
    None,
}

/// Error raised by netlist validation or levelization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net has more than one driver.
    MultipleDrivers {
        /// The conflicting net's name.
        net: String,
    },
    /// A net is read but never driven.
    FloatingNet {
        /// The floating net's name.
        net: String,
    },
    /// The combinational graph contains a cycle.
    CombinationalLoop {
        /// Name of an instance on the cycle.
        inst: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net } => write!(f, "net `{net}` has multiple drivers"),
            NetlistError::FloatingNet { net } => write!(f, "net `{net}` is read but never driven"),
            NetlistError::CombinationalLoop { inst } => {
                write!(f, "combinational loop through instance `{inst}`")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// `driver_inst` entry of a net no one drives.
const UNDRIVEN: u32 = u32::MAX;
/// `driver_inst` entry of a net driven by a module input port.
const PORT_DRIVEN: u32 = u32::MAX - 1;

/// Precomputed connectivity tables for a module, as flat columns: one
/// driver entry per net, and the instance input pins reading each net
/// as one CSR (compressed sparse row) table. A module of any size costs
/// five allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connectivity {
    /// Driving instance of each net, or [`PORT_DRIVEN`] / [`UNDRIVEN`].
    driver_inst: Vec<u32>,
    /// Output pin of each net's driving instance (0 for the others).
    driver_pin: Vec<u32>,
    /// Net `n`'s sinks are entries `sink_start[n]..sink_start[n + 1]`
    /// of the two sink columns.
    sink_start: Vec<u32>,
    /// Reading instance of each sink, in instance order per net.
    sink_inst: Vec<u32>,
    /// Input pin of each sink.
    sink_pin: Vec<u32>,
}

impl Connectivity {
    /// Build connectivity tables for `module`. Each net's sinks come in
    /// instance order, and in pin order within an instance.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if any net is driven
    /// more than once, naming the first conflict met scanning input
    /// ports, then each instance's outputs in instance order.
    pub fn build(module: &Module) -> Result<Self, NetlistError> {
        let n = module.net_count();
        let conflict = |net: NetId| NetlistError::MultipleDrivers { net: module.net_name(net).to_string() };
        let mut driver_inst = vec![UNDRIVEN; n];
        let mut driver_pin = vec![0u32; n];
        // Count each net's sinks one entry ahead, then prefix-sum.
        let mut sink_start = vec![0u32; n + 1];

        for port in module.input_ports() {
            if driver_inst[port.net.index()] != UNDRIVEN {
                return Err(conflict(port.net));
            }
            driver_inst[port.net.index()] = PORT_DRIVEN;
        }
        for (i, inst) in module.instances().enumerate() {
            for (pin, &net) in inst.outputs.iter().enumerate() {
                if driver_inst[net.index()] != UNDRIVEN {
                    return Err(conflict(net));
                }
                driver_inst[net.index()] = i as u32;
                driver_pin[net.index()] = pin as u32;
            }
            for &net in inst.inputs {
                sink_start[net.index() + 1] += 1;
            }
        }
        for k in 0..n {
            sink_start[k + 1] += sink_start[k];
        }

        let total = sink_start[n] as usize;
        let (mut sink_inst, mut sink_pin) = (vec![0u32; total], vec![0u32; total]);
        let mut next = sink_start[..n].to_vec();
        for (i, inst) in module.instances().enumerate() {
            for (pin, &net) in inst.inputs.iter().enumerate() {
                let k = &mut next[net.index()];
                sink_inst[*k as usize] = i as u32;
                sink_pin[*k as usize] = pin as u32;
                *k += 1;
            }
        }
        Ok(Connectivity { driver_inst, driver_pin, sink_start, sink_inst, sink_pin })
    }

    /// Reassemble connectivity from stored columns: each net's driver
    /// in net order, and the sink table as CSR offsets (one per net,
    /// plus the total) over the sink instance and pin columns. The
    /// `.scim` decoder's entry point.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not a CSR over `drivers` nets and the
    /// two sink columns, or if an instance index reaches
    /// `u32::MAX - 1`.
    pub fn from_columns(
        drivers: impl IntoIterator<Item = Driver>,
        sink_start: Vec<u32>,
        sink_inst: Vec<u32>,
        sink_pin: Vec<u32>,
    ) -> Self {
        let (mut driver_inst, mut driver_pin) = (Vec::new(), Vec::new());
        for d in drivers {
            let (inst, pin) = match d {
                Driver::None => (UNDRIVEN, 0),
                Driver::Port => (PORT_DRIVEN, 0),
                Driver::Inst { inst, pin } => {
                    assert!(inst.0 < PORT_DRIVEN, "instance index {} collides with a sentinel", inst.0);
                    (inst.0, pin as u32)
                }
            };
            driver_inst.push(inst);
            driver_pin.push(pin);
        }
        assert!(
            sink_start.len() == driver_inst.len() + 1
                && sink_start[0] == 0
                && sink_start.windows(2).all(|w| w[0] <= w[1])
                && sink_start[driver_inst.len()] as usize == sink_inst.len()
                && sink_pin.len() == sink_inst.len(),
            "sink offsets must be a CSR over every net and both sink columns"
        );
        Connectivity { driver_inst, driver_pin, sink_start, sink_inst, sink_pin }
    }

    /// The driver of `net`.
    pub fn driver_of(&self, net: NetId) -> Driver {
        match self.driver_inst[net.index()] {
            UNDRIVEN => Driver::None,
            PORT_DRIVEN => Driver::Port,
            inst => Driver::Inst { inst: InstId(inst), pin: self.driver_pin[net.index()] as usize },
        }
    }

    /// The instance input pins reading `net`, as `(instance, pin)`
    /// pairs in instance order (pin order within an instance).
    pub fn sinks(&self, net: NetId) -> impl ExactSizeIterator<Item = (InstId, usize)> + '_ {
        let range = self.sink_range(net);
        self.sink_inst[range.clone()]
            .iter()
            .zip(&self.sink_pin[range])
            .map(|(&i, &p)| (InstId(i), p as usize))
    }

    /// Total fanout (instance input pins) of `net`.
    pub fn fanout(&self, net: NetId) -> usize {
        self.sink_range(net).len()
    }

    /// The sink table's CSR columns: offsets (one per net, plus the
    /// total), sink instances and sink pins.
    pub fn sink_columns(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.sink_start, &self.sink_inst, &self.sink_pin)
    }

    /// Heap bytes held by the five columns.
    pub fn heap_bytes(&self) -> usize {
        let words = self.driver_inst.len()
            + self.driver_pin.len()
            + self.sink_start.len()
            + self.sink_inst.len()
            + self.sink_pin.len();
        words * std::mem::size_of::<u32>()
    }

    fn sink_range(&self, net: NetId) -> std::ops::Range<usize> {
        self.sink_start[net.index()] as usize..self.sink_start[net.index() + 1] as usize
    }

    /// Whether anything drives `net`; unlike [`Connectivity::driver_of`]
    /// it reads only the instance column.
    fn is_driven(&self, net: NetId) -> bool {
        self.driver_inst[net.index()] != UNDRIVEN
    }
}

/// Validate that every net read by an instance or output port is driven.
///
/// # Errors
///
/// Returns the first [`NetlistError::FloatingNet`] found.
pub fn validate(module: &Module, conn: &Connectivity) -> Result<(), NetlistError> {
    let floating = |net: NetId| NetlistError::FloatingNet { net: module.net_name(net).to_string() };
    for inst in module.instances() {
        for &net in inst.inputs {
            if !conn.is_driven(net) {
                return Err(floating(net));
            }
        }
    }
    for port in module.output_ports() {
        if !conn.is_driven(port.net) {
            return Err(floating(port.net));
        }
    }
    Ok(())
}

/// Topological order of the *combinational* instances of `module`
/// (sequential instances are excluded; their outputs count as sources).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalLoop`] if the combinational part
/// of the design is cyclic.
pub fn levelize(
    module: &Module,
    lib: &CellLibrary,
    conn: &Connectivity,
) -> Result<Vec<InstId>, NetlistError> {
    let n = module.instance_count();
    // One pass over the cells; the sentinels of port-driven and
    // undriven nets index past the end, so they read as not
    // combinational.
    let comb: Vec<bool> = module.instances().map(|inst| !lib.cell(inst.cell).is_sequential()).collect();
    let comb_driven = |net: &NetId| comb.get(conn.driver_inst[net.index()] as usize) == Some(&true);
    // Pending combinational fan-in count per instance.
    let mut pending = vec![0usize; n];
    let mut order = Vec::with_capacity(n);
    let mut ready = Vec::new();

    for (i, inst) in module.instances().enumerate() {
        if comb[i] {
            pending[i] = inst.inputs.iter().filter(|net| comb_driven(net)).count();
            if pending[i] == 0 {
                ready.push(InstId(i as u32));
            }
        }
    }

    while let Some(id) = ready.pop() {
        order.push(id);
        for &net in module.instance(id).outputs {
            for &sink in &conn.sink_inst[conn.sink_range(net)] {
                let si = sink as usize;
                if comb[si] {
                    pending[si] -= 1;
                    if pending[si] == 0 {
                        ready.push(InstId(sink));
                    }
                }
            }
        }
    }

    let comb_total = comb.iter().filter(|&&c| c).count();
    if order.len() != comb_total {
        let culprit = (0..n)
            .find(|&i| comb[i] && pending[i] > 0)
            .expect("some combinational instance must still be pending");
        return Err(NetlistError::CombinationalLoop {
            inst: module.inst_name(InstId(culprit as u32)).to_string(),
        });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::graph::{Port, PortDir};
    use syndcim_pdk::CellKind;

    #[test]
    fn connectivity_and_levelize_simple_chain() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("chain", &lib);
        let a = b.input("a");
        let x = b.not(a);
        let y = b.not(x);
        b.output("y", y);
        let m = b.finish();
        let conn = Connectivity::build(&m).unwrap();
        validate(&m, &conn).unwrap();
        let order = levelize(&m, &lib, &conn).unwrap();
        assert_eq!(order, vec![InstId(0), InstId(1)]);
        assert_eq!(conn.fanout(a), 1);
    }

    #[test]
    fn register_breaks_loops() {
        // q = dff(!q) is a perfectly fine divider; levelize must accept it.
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("divider", &lib);
        // Create the dff first with a placeholder input we patch below.
        let tmp = b.net("tmp");
        let q = b.add(CellKind::Dff, &[tmp])[0];
        let nq = b.not(q);
        // Patch the dff input to close the loop through the register.
        b.output("q", q);
        let mut m = b.finish();
        m.inputs_mut(InstId(0))[0] = nq;
        // Remove the now-dangling tmp net reference by redirecting: tmp is
        // unused, which is fine (it is not read by anything).
        let conn = Connectivity::build(&m).unwrap();
        let order = levelize(&m, &lib, &conn).unwrap();
        assert_eq!(order.len(), 1, "only the inverter is combinational");
    }

    #[test]
    fn combinational_loop_detected() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("latchup", &lib);
        let a = b.input("a");
        let x = b.and2(a, a);
        let y = b.and2(x, x);
        b.output("y", y);
        let mut m = b.finish();
        // Short the first AND's second input to the second AND's output.
        let y_net = m.instance(InstId(1)).outputs[0];
        m.inputs_mut(InstId(0))[1] = y_net;
        let conn = Connectivity::build(&m).unwrap();
        let err = levelize(&m, &lib, &conn).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("short", &lib);
        let a = b.input("a");
        let x = b.not(a);
        let _y = b.not(x);
        let m0 = b.finish();
        let mut m = m0.clone();
        // Make the second inverter drive the same net as the first.
        let first_out = m.instance(InstId(0)).outputs[0];
        m.outputs_mut(InstId(1))[0] = first_out;
        let err = Connectivity::build(&m).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn sinks_come_back_in_instance_then_pin_order() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("fan", &lib);
        let a = b.input("a");
        let x = b.and2(a, a); // instance 0 reads `a` on both pins
        let y = b.not(a);
        let z = b.xor2(x, a);
        b.output("y", y);
        b.output("z", z);
        let m = b.finish();
        let conn = Connectivity::build(&m).unwrap();

        let sinks = |net| conn.sinks(net).collect::<Vec<_>>();
        assert_eq!(sinks(a), [(InstId(0), 0), (InstId(0), 1), (InstId(1), 0), (InstId(2), 1)]);
        assert_eq!(sinks(x), [(InstId(2), 0)]);
        assert_eq!((conn.fanout(a), conn.fanout(x)), (4, 1));
        // Nets read only by output ports have no sinks.
        for net in [y, z] {
            assert_eq!(conn.sinks(net).len(), 0);
            assert_eq!(conn.fanout(net), 0);
        }

        // The stored columns rebuild the same tables.
        let (start, inst, pin) = conn.sink_columns();
        let drivers = (0..m.net_count()).map(|k| conn.driver_of(NetId(k as u32)));
        let back = Connectivity::from_columns(drivers, start.to_vec(), inst.to_vec(), pin.to_vec());
        assert_eq!(back, conn);
    }

    #[test]
    fn drivers_are_ports_instance_pins_or_none() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("drv", &lib);
        let a = b.input("a");
        let c = b.input("c");
        let (sum, carry) = b.ha(a, c);
        let unused = b.net("unused");
        b.output("s", sum);
        b.output("co", carry);
        let m = b.finish();
        let conn = Connectivity::build(&m).unwrap();
        assert_eq!(conn.driver_of(a), Driver::Port);
        assert_eq!(conn.driver_of(c), Driver::Port);
        assert_eq!(conn.driver_of(sum), Driver::Inst { inst: InstId(0), pin: 0 });
        assert_eq!(conn.driver_of(carry), Driver::Inst { inst: InstId(0), pin: 1 });
        assert_eq!(conn.driver_of(unused), Driver::None);
    }

    /// Each conflict kind is reported, and when a module holds several,
    /// the error names the first met scanning input ports, then each
    /// instance's outputs in instance order.
    #[test]
    fn multiple_drivers_name_the_first_conflict_in_scan_order() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("short", &lib);
        let a = b.input("a");
        let outs: Vec<NetId> = (0..4).map(|_| b.not(a)).collect();
        let m = b.finish();
        let conflict = |m: &Module| match Connectivity::build(m) {
            Err(NetlistError::MultipleDrivers { net }) => net,
            other => panic!("expected MultipleDrivers, got {other:?}"),
        };
        let name = |net: NetId| m.net_name(net).to_string();
        let second_port = |m: &mut Module, net: NetId| {
            m.ports.push(Port { name: format!("again{}", net.index()), dir: PortDir::Input, net })
        };

        // Port/port, ahead of a later instance/instance conflict.
        let mut pp = m.clone();
        pp.outputs_mut(InstId(3))[0] = outs[2];
        second_port(&mut pp, a);
        assert_eq!(conflict(&pp), "a");

        // Port/instance: the port claims instance 2's net first.
        let mut pi = m.clone();
        pi.outputs_mut(InstId(3))[0] = outs[0];
        second_port(&mut pi, outs[2]);
        assert_eq!(conflict(&pi), name(outs[2]));

        // Instance/instance: instance 2 re-drives instance 1's net before
        // instance 3 re-drives instance 0's.
        let mut ii = m.clone();
        ii.outputs_mut(InstId(2))[0] = outs[1];
        ii.outputs_mut(InstId(3))[0] = outs[0];
        assert_eq!(conflict(&ii), name(outs[1]));

        // An instance driving an input port's net.
        let mut ip = m.clone();
        ip.outputs_mut(InstId(1))[0] = a;
        assert_eq!(conflict(&ip), "a");
    }

    #[test]
    fn floating_net_rejected() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("float", &lib);
        let dangling = b.net("dangling");
        let y = b.not(dangling);
        b.output("y", y);
        let m = b.finish();
        let conn = Connectivity::build(&m).unwrap();
        let err = validate(&m, &conn).unwrap_err();
        assert!(matches!(err, NetlistError::FloatingNet { .. }));
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = NetlistError::FloatingNet { net: "x".into() };
        let s = e.to_string();
        assert!(s.contains("x") && s.starts_with("net"));
    }
}
