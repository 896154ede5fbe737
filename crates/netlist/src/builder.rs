//! Ergonomic construction of gate-level netlists.
//!
//! [`NetlistBuilder`] is the API all subcircuit generators use. It owns a
//! [`Module`] under construction and borrows the [`CellLibrary`] so pin
//! counts can be validated at insertion time. Names are written
//! straight into the module's arenas, so adding a net or an instance
//! makes no heap allocation of its own, and the synthetic names
//! (`u<n>`, `_n<k>`, `tielo<k>`, `tiehi<k>`) are [`Counter`]s spelled
//! without `core::fmt`. The cell of a kind is one table lookup
//! ([`CellLibrary::id_of`]), and a generator that re-enters the same
//! group path row after row pushes it by path
//! ([`NetlistBuilder::push_group_like`]) instead of spelling it again.

use std::collections::HashMap;
use std::ops::Deref;

use crate::graph::{Counter, GroupId, InstId, Module, Name, NetId, Port, PortDir};
use syndcim_pdk::{CellKind, CellLibrary};

/// Most output pins of any library cell (the 4-2 compressor's three).
const MAX_OUTPUTS: usize = 3;

/// The output nets of one added instance, in pin order: a copy type
/// that derefs to `[NetId]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outputs {
    nets: [NetId; MAX_OUTPUTS],
    len: u8,
}

impl Deref for Outputs {
    type Target = [NetId];

    fn deref(&self) -> &[NetId] {
        &self.nets[..self.len as usize]
    }
}

impl IntoIterator for Outputs {
    type Item = NetId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NetId, MAX_OUTPUTS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.nets.into_iter().take(self.len as usize)
    }
}

/// Builder for a flat [`Module`].
///
/// Gate helpers (`and2`, `xor2`, `fa`, …) allocate output nets
/// automatically and return their ids, so generator code reads like
/// structural RTL:
///
/// ```
/// use syndcim_netlist::NetlistBuilder;
/// use syndcim_pdk::CellLibrary;
///
/// let lib = CellLibrary::syn40();
/// let mut b = NetlistBuilder::new("half_adder", &lib);
/// let a = b.input("a");
/// let c = b.input("b");
/// let (s, carry) = b.ha(a, c);
/// b.output("s", s);
/// b.output("c", carry);
/// let module = b.finish();
/// assert_eq!(module.instance_count(), 1);
/// ```
#[derive(Debug)]
pub struct NetlistBuilder<'lib> {
    module: Module,
    lib: &'lib CellLibrary,
    group_stack: Vec<GroupId>,
    /// Path index of every distinct group path pushed so far, keyed by
    /// the full path (the parent's path, `/`, the segment).
    paths: HashMap<String, u32>,
    /// Reused buffer the next full path is spelled out in.
    scratch: String,
    const0: Option<(NetId, u32)>,
    const1: Option<(NetId, u32)>,
    anon_net: u64,
}

/// Maximum hand-outs of one tie cell's net before a fresh tie cell is
/// instantiated (keeps constant nets physically local, as real flows do
/// by replicating tie cells across the die).
const TIE_FANOUT_LIMIT: u32 = 48;

impl<'lib> NetlistBuilder<'lib> {
    /// Start building a module called `name` against `lib`.
    pub fn new(name: impl Into<String>, lib: &'lib CellLibrary) -> Self {
        NetlistBuilder {
            module: Module::new(name),
            lib,
            group_stack: vec![GroupId::TOP],
            paths: HashMap::from([("top".to_string(), 0)]),
            scratch: String::new(),
            const0: None,
            const1: None,
            anon_net: 0,
        }
    }

    /// The library this builder validates against.
    pub fn library(&self) -> &'lib CellLibrary {
        self.lib
    }

    /// Read-only view of the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Finish and return the constructed module.
    pub fn finish(self) -> Module {
        self.module
    }

    // ---- groups --------------------------------------------------------

    /// Push a new instance group; all instances created until the matching
    /// [`NetlistBuilder::pop_group`] belong to it. Group names nest with
    /// `/` separators. Every push makes a new [`GroupId`]; groups with
    /// the same path share its one stored copy.
    pub fn push_group(&mut self, name: &str) -> GroupId {
        let parent = self.current_group();
        let full = &mut self.scratch;
        full.clear();
        if parent != GroupId::TOP {
            full.push_str(self.module.group_name(parent));
            full.push('/');
        }
        full.push_str(name);
        let path = match self.paths.get(full.as_str()) {
            Some(&path) => path,
            None => {
                let path = self.module.paths.push(full.as_str()) as u32;
                self.paths.insert(full.clone(), path);
                path
            }
        };
        self.push_path(path)
    }

    /// Push a new group on the same path as `group`, without spelling
    /// or looking the path up: the group a generator re-enters on every
    /// row. Like [`NetlistBuilder::push_group`] it makes a new
    /// [`GroupId`]; the path is `group`'s full path, whatever group is
    /// current.
    pub fn push_group_like(&mut self, group: GroupId) -> GroupId {
        self.push_path(self.module.group_path(group))
    }

    fn push_path(&mut self, path: u32) -> GroupId {
        let id = GroupId(self.module.group_paths.len() as u32);
        self.module.group_paths.push(path);
        self.group_stack.push(id);
        id
    }

    /// Pop the current group.
    ///
    /// # Panics
    ///
    /// Panics if called more times than [`NetlistBuilder::push_group`].
    pub fn pop_group(&mut self) {
        assert!(self.group_stack.len() > 1, "cannot pop the top group");
        self.group_stack.pop();
    }

    /// The group new instances are currently assigned to.
    pub fn current_group(&self) -> GroupId {
        *self.group_stack.last().expect("group stack never empty")
    }

    // ---- nets and ports ------------------------------------------------

    /// Create a named net.
    pub fn net(&mut self, name: impl Name) -> NetId {
        self.module.add_net(name)
    }

    /// Create an anonymous net (`_n<k>`).
    pub fn anon(&mut self) -> NetId {
        self.anon_net += 1;
        self.net(Counter(&[("_n", self.anon_net)]))
    }

    /// Declare an input port and return its net.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let net = self.net(&name);
        self.module.ports.push(Port { name, dir: PortDir::Input, net });
        net
    }

    /// Declare a bit-blasted input bus `name[0..width]`, LSB first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        (0..width).map(|i| self.input(format!("{name}[{i}]"))).collect()
    }

    /// Expose an existing net as an output port.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        self.module.ports.push(Port { name: name.into(), dir: PortDir::Output, net });
    }

    /// Expose a slice of nets as a bit-blasted output bus, LSB first.
    pub fn output_bus(&mut self, name: &str, nets: &[NetId]) {
        for (i, &n) in nets.iter().enumerate() {
            self.output(format!("{name}[{i}]"), n);
        }
    }

    /// The constant-0 net. Tie cells are replicated after
    /// `TIE_FANOUT_LIMIT` uses so constant nets stay physically local.
    pub fn const0(&mut self) -> NetId {
        if let Some((n, uses)) = self.const0 {
            if uses < TIE_FANOUT_LIMIT {
                self.const0 = Some((n, uses + 1));
                return n;
            }
        }
        let k = self.module.instance_count() as u64;
        let n = self.add_named(Counter(&[("tielo", k)]), CellKind::TieLo, &[])[0];
        self.const0 = Some((n, 1));
        n
    }

    /// The constant-1 net. Tie cells are replicated after
    /// `TIE_FANOUT_LIMIT` uses so constant nets stay physically local.
    pub fn const1(&mut self) -> NetId {
        if let Some((n, uses)) = self.const1 {
            if uses < TIE_FANOUT_LIMIT {
                self.const1 = Some((n, uses + 1));
                return n;
            }
        }
        let k = self.module.instance_count() as u64;
        let n = self.add_named(Counter(&[("tiehi", k)]), CellKind::TieHi, &[])[0];
        self.const1 = Some((n, 1));
        n
    }

    // ---- instances -----------------------------------------------------

    /// Instantiate a cell of `kind` with the given input nets; output nets
    /// are allocated automatically and returned in pin order.
    ///
    /// # Panics
    ///
    /// Panics if `ins` does not match the cell's input pin count.
    pub fn add(&mut self, kind: CellKind, ins: &[NetId]) -> Outputs {
        let n = self.module.instance_count() as u64;
        self.add_named(Counter(&[("u", n)]), kind, ins)
    }

    /// Like [`NetlistBuilder::add`] but with an explicit instance name,
    /// written straight into the module's name arena (pass a
    /// [`Counter`] or `format_args!` to build one without allocating).
    pub fn add_named(&mut self, name: impl Name, kind: CellKind, ins: &[NetId]) -> Outputs {
        let cell_id = self.lib.id_of(kind);
        let cell = self.lib.cell(cell_id);
        assert_eq!(
            ins.len(),
            cell.inputs.len(),
            "cell {} expects {} inputs, got {}",
            cell.name,
            cell.inputs.len(),
            ins.len()
        );
        assert!(cell.outputs.len() <= MAX_OUTPUTS, "cell {} has more than {MAX_OUTPUTS} outputs", cell.name);
        let mut outs = Outputs { nets: [NetId(0); MAX_OUTPUTS], len: cell.outputs.len() as u8 };
        for net in &mut outs.nets[..cell.outputs.len()] {
            *net = self.anon();
        }
        let group = self.current_group();
        self.module.add_instance(name, cell_id, group, ins, &outs);
        outs
    }

    /// Rewire input pin `pin` of the instance at `inst_index` to `net`.
    ///
    /// Sequential feedback (counters, accumulators) requires creating a
    /// register before its next-state logic exists; generators create the
    /// register with a placeholder input and patch it afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the instance or pin index is out of range.
    pub fn patch_instance_input(&mut self, inst_index: usize, pin: usize, net: NetId) {
        self.module.inputs_mut(InstId(inst_index as u32))[pin] = net;
    }

    // ---- gate helpers ---------------------------------------------------

    /// `!a`
    pub fn not(&mut self, a: NetId) -> NetId {
        self.add(CellKind::Inv, &[a])[0]
    }

    /// Buffer of unit drive.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.add(CellKind::Buf, &[a])[0]
    }

    /// `a & b`
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add(CellKind::And2, &[a, b])[0]
    }

    /// `a | b`
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add(CellKind::Or2, &[a, b])[0]
    }

    /// `!(a & b)`
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add(CellKind::Nand2, &[a, b])[0]
    }

    /// `!(a | b)`
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add(CellKind::Nor2, &[a, b])[0]
    }

    /// `a ^ b`
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add(CellKind::Xor2, &[a, b])[0]
    }

    /// `s ? d1 : d0`
    pub fn mux2(&mut self, d0: NetId, d1: NetId, s: NetId) -> NetId {
        self.add(CellKind::Mux2, &[d0, d1, s])[0]
    }

    /// Half adder → `(sum, carry)`.
    pub fn ha(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        let o = self.add(CellKind::Ha, &[a, b]);
        (o[0], o[1])
    }

    /// Full adder → `(sum, carry_out)`.
    pub fn fa(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let o = self.add(CellKind::Fa, &[a, b, cin]);
        (o[0], o[1])
    }

    /// 4-2 compressor → `(sum, carry, cout)`.
    pub fn c42(&mut self, a: NetId, b: NetId, c: NetId, d: NetId, cin: NetId) -> (NetId, NetId, NetId) {
        let o = self.add(CellKind::C42, &[a, b, c, d, cin]);
        (o[0], o[1], o[2])
    }

    /// Positive-edge D flip-flop → `q`.
    pub fn dff(&mut self, d: NetId) -> NetId {
        self.add(CellKind::Dff, &[d])[0]
    }

    /// Enabled D flip-flop → `q`.
    pub fn dffe(&mut self, d: NetId, en: NetId) -> NetId {
        self.add(CellKind::DffEn, &[d, en])[0]
    }

    /// Register a whole bus; returns the q nets in order.
    pub fn dff_bus(&mut self, d: &[NetId]) -> Vec<NetId> {
        d.iter().map(|&n| self.dff(n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PortDir;

    #[test]
    fn builder_wires_a_full_adder() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("fa_top", &lib);
        let a = b.input("a");
        let x = b.input("b");
        let c = b.input("cin");
        let (s, co) = b.fa(a, x, c);
        b.output("s", s);
        b.output("co", co);
        let m = b.finish();
        assert_eq!(m.instance_count(), 1);
        assert_eq!(m.ports.iter().filter(|p| p.dir == PortDir::Input).count(), 3);
        assert_eq!(m.ports.iter().filter(|p| p.dir == PortDir::Output).count(), 2);
    }

    #[test]
    fn const_nets_are_shared() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let c0 = b.const0();
        let c0b = b.const0();
        let c1 = b.const1();
        assert_eq!(c0, c0b);
        assert_ne!(c0, c1);
        assert_eq!(b.module().instance_count(), 2);
    }

    #[test]
    fn groups_nest_with_slashes() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let g1 = b.push_group("col0");
        let g2 = b.push_group("tree");
        let a = b.input("a");
        b.not(a);
        b.pop_group();
        b.pop_group();
        let m = b.finish();
        assert_eq!(m.group_name(g1), "col0");
        assert_eq!(m.group_name(g2), "col0/tree");
        assert_eq!(m.instance(InstId(0)).group, g2);
    }

    #[test]
    fn groups_share_one_stored_path() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let mut ids = Vec::new();
        for col in ["c0", "c1"] {
            b.push_group(col);
            for _ in 0..2 {
                ids.push(b.push_group("bits"));
                b.pop_group();
            }
            b.pop_group();
        }
        // A slash inside one push spells an existing path; "top" is one too.
        ids.push(b.push_group("c0/bits"));
        b.pop_group();
        let top_again = b.push_group("top");
        let m = b.finish();
        let names: Vec<&str> = ids.iter().map(|&g| m.group_name(g)).collect();
        assert_eq!(names, ["c0/bits", "c0/bits", "c1/bits", "c1/bits", "c0/bits"]);
        assert_eq!(ids, [GroupId(2), GroupId(3), GroupId(5), GroupId(6), GroupId(7)], "one id per push");
        assert_eq!((m.group_count(), m.path_count()), (9, 5), "top, c0, c0/bits, c1, c1/bits");
        assert_eq!(m.group_path(top_again), m.group_path(GroupId::TOP));
        assert_eq!(m.group_path(ids[4]), m.group_path(ids[0]));
        let first_use: Vec<&str> = (0..m.path_count() as u32).map(|p| m.path_name(p)).collect();
        assert_eq!(first_use, ["top", "c0", "c0/bits", "c1", "c1/bits"]);
    }

    #[test]
    fn outputs_copy_derefs_and_iterates_in_pin_order() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let ins: Vec<NetId> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let o = b.add(CellKind::C42, &ins);
        assert_eq!(o.len(), 3);
        assert_eq!(o.into_iter().collect::<Vec<_>>(), o.to_vec());
        let named = b.add_named(format_args!("x{}", 7), CellKind::Inv, &ins[..1]);
        let m = b.finish();
        assert_eq!(m.instance(InstId(0)).outputs, &o[..]);
        assert_eq!((m.inst_name(InstId(0)), m.inst_name(InstId(1))), ("u0", "x7"));
        assert_eq!(m.instance(InstId(1)).outputs, &named[..]);
        assert_eq!(m.net_name(o[0]), "_n1");
    }

    #[test]
    #[should_panic(expected = "expects 3 inputs")]
    fn wrong_pin_count_panics() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let a = b.input("a");
        b.add(CellKind::Fa, &[a]);
    }

    #[test]
    fn bus_helpers_roundtrip() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("t", &lib);
        let xs = b.input_bus("x", 4);
        let inv: Vec<_> = xs.to_vec();
        b.output_bus("y", &inv);
        let m = b.finish();
        assert_eq!(m.bus("x", 4).unwrap().len(), 4);
        assert_eq!(m.bus("y", 4).unwrap(), m.bus("x", 4).unwrap());
    }
}
