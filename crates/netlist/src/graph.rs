//! Flat gate-level netlist representation.
//!
//! A [`Module`] is a flat graph of cell instances connected by nets.
//! Hierarchy is represented lightly: every instance carries a [`GroupId`]
//! naming the subcircuit it belongs to (e.g. `"adder_tree/col17"`), which
//! the layout, power and reporting stages use for per-subcircuit
//! breakdowns — the same role module boundaries play in a conventional
//! flow after flattening.
//!
//! Storage is flat, so a module of any size is a handful of heap blocks:
//! net and instance names sit back to back in two byte arenas with `u32`
//! end offsets, every instance's pins (inputs, then outputs) in one
//! [`NetId`] table, and each distinct group path once, however many
//! groups share it. Instances are read through [`Instance`] views.
//!
//! A name is appended to its arena through [`Name`]. Any
//! [`fmt::Display`] value goes through `core::fmt`; a [`Counter`] — the
//! builder's synthetic `u<n>` and `_n<k>`, the array's bitcell names —
//! is spelled by a small decimal writer with no formatter at all, in
//! the same bytes `format!` would write. Compaction moves the surviving
//! names' bytes down in place.

use std::fmt::{self, Write as _};

use syndcim_pdk::CellId;

/// Index of a net within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an instance within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

impl InstId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an instance group (logical subcircuit) within a [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The default group every instance starts in.
    pub const TOP: GroupId = GroupId(0);
}

/// Direction of a module port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven by the module, observed outside.
    Output,
}

/// A named boundary connection of a module.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name (bit-blasted buses use `name[i]`).
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// The net attached to the port.
    pub net: NetId,
}

/// One cell instance of a [`Module`], viewed in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance<'m> {
    /// Library cell reference.
    pub cell: CellId,
    /// Logical subcircuit this instance belongs to.
    pub group: GroupId,
    /// Nets bound to the cell's input pins, in pin order.
    pub inputs: &'m [NetId],
    /// Nets bound to the cell's output pins, in pin order.
    pub outputs: &'m [NetId],
}

/// Append `n` in decimal to `buf`: the bytes `format!("{n}")` writes,
/// without `core::fmt`.
pub(crate) fn push_decimal(buf: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// A name a [`Module`] appends straight into one of its name arenas.
pub trait Name {
    /// Append the name's bytes to `arena`.
    fn append_to(&self, arena: &mut String);
}

/// Every `Display` value is a name, written through `core::fmt`
/// (`"a"`, `format_args!("x{i}")`, a `String`).
impl<T: fmt::Display + ?Sized> Name for T {
    fn append_to(&self, arena: &mut String) {
        write!(arena, "{self}").expect("formatting into a String cannot fail");
    }
}

/// A synthetic name: literal pieces, each followed by a decimal number.
/// `Counter(&[("u", 17)])` is `u17`, and
/// `Counter(&[("bc_c", 3), ("_r", 5), ("_b", 1)])` is `bc_c3_r5_b1`.
/// It is appended by a small decimal writer, never through
/// `core::fmt`, and spells the same bytes as the equivalent `format!`.
#[derive(Debug, Clone, Copy)]
pub struct Counter<'a>(pub &'a [(&'a str, u64)]);

impl Name for Counter<'_> {
    fn append_to(&self, arena: &mut String) {
        for &(piece, n) in self.0 {
            arena.push_str(piece);
            push_decimal(arena, n);
        }
    }
}

/// Strings stored back to back in one arena: string `i` is
/// `bytes[ends[i - 1]..ends[i]]` (from 0 for the first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Names {
    bytes: String,
    ends: Vec<u32>,
}

impl Names {
    /// Append `name`, written straight into the arena.
    pub(crate) fn push(&mut self, name: impl Name) -> usize {
        name.append_to(&mut self.bytes);
        self.ends.push(u32::try_from(self.bytes.len()).expect("name arena past 4 GiB"));
        self.ends.len() - 1
    }

    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Keep the strings whose `keep` entry is true, in order, moving each
    /// survivor's bytes down in place from the first dropped string on.
    fn retain(&mut self, keep: &[bool]) {
        let Some(first) = keep.iter().position(|&k| !k) else {
            return;
        };
        let mut bytes = std::mem::take(&mut self.bytes).into_bytes();
        let mut start = if first == 0 { 0 } else { self.ends[first - 1] as usize };
        let (mut end, mut kept) = (start, first);
        for (i, &k) in keep.iter().enumerate().skip(first) {
            let next = self.ends[i] as usize;
            if k {
                bytes.copy_within(start..next, end);
                end += next - start;
                self.ends[kept] = end as u32;
                kept += 1;
            }
            start = next;
        }
        bytes.truncate(end);
        self.ends.truncate(kept);
        self.bytes = String::from_utf8(bytes).expect("whole strings moved, so the arena stays UTF-8");
    }
}

/// Per-instance record; its pins are `pins[pins..pins + inputs + outputs]`
/// of the module's pin table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InstRecord {
    cell: CellId,
    group: GroupId,
    pins: u32,
    inputs: u8,
    outputs: u8,
}

/// A flat gate-level module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Boundary ports.
    pub ports: Vec<Port>,
    net_names: Names,
    inst_names: Names,
    insts: Vec<InstRecord>,
    /// Every instance's pins, in instance order.
    pins: Vec<NetId>,
    /// Each distinct group path once, in order of first use.
    pub(crate) paths: Names,
    /// Index into `paths` per [`GroupId`].
    pub(crate) group_paths: Vec<u32>,
}

impl Module {
    /// Create an empty module with the given name and the implicit
    /// `"top"` group.
    pub fn new(name: impl Into<String>) -> Self {
        let mut m = Module { name: name.into(), ..Module::default() };
        m.paths.push("top");
        m.group_paths.push(0);
        m
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.insts.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of groups (see [`GroupId`]).
    pub fn group_count(&self) -> usize {
        self.group_paths.len()
    }

    /// Name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        self.net_names.get(net.index())
    }

    /// Name of an instance.
    pub fn inst_name(&self, inst: InstId) -> &str {
        self.inst_names.get(inst.index())
    }

    /// Name (full `/`-separated path) of a group.
    pub fn group_name(&self, id: GroupId) -> &str {
        self.paths.get(self.group_path(id) as usize)
    }

    /// Number of distinct group paths. Groups pushed with the same path
    /// share one entry.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Distinct path `path`, counting in order of first use: a path's
    /// first group comes before the next path's first group.
    pub fn path_name(&self, path: u32) -> &str {
        self.paths.get(path as usize)
    }

    /// Index of a group's path among the distinct paths.
    pub fn group_path(&self, id: GroupId) -> u32 {
        self.group_paths[id.index()]
    }

    fn view(&self, r: &InstRecord) -> Instance<'_> {
        let start = r.pins as usize;
        let mid = start + r.inputs as usize;
        Instance {
            cell: r.cell,
            group: r.group,
            inputs: &self.pins[start..mid],
            outputs: &self.pins[mid..mid + r.outputs as usize],
        }
    }

    /// View of one instance.
    pub fn instance(&self, inst: InstId) -> Instance<'_> {
        self.view(&self.insts[inst.index()])
    }

    /// Views of every instance, in instance order.
    pub fn instances(&self) -> impl ExactSizeIterator<Item = Instance<'_>> + Clone + '_ {
        self.insts.iter().map(|r| self.view(r))
    }

    /// The input nets of an instance, for rewiring in place.
    pub fn inputs_mut(&mut self, inst: InstId) -> &mut [NetId] {
        let r = self.insts[inst.index()];
        &mut self.pins[r.pins as usize..r.pins as usize + r.inputs as usize]
    }

    /// The output nets of an instance, for rewiring in place.
    #[cfg(test)]
    pub(crate) fn outputs_mut(&mut self, inst: InstId) -> &mut [NetId] {
        let r = self.insts[inst.index()];
        let mid = r.pins as usize + r.inputs as usize;
        &mut self.pins[mid..mid + r.outputs as usize]
    }

    /// Append a net named `name`, written straight into the name arena.
    pub fn add_net(&mut self, name: impl Name) -> NetId {
        NetId(self.net_names.push(name) as u32)
    }

    /// Append an instance of `cell` in `group` reading `inputs` and
    /// driving `outputs`.
    ///
    /// # Panics
    ///
    /// Panics if either pin list is longer than 255.
    pub fn add_instance(
        &mut self,
        name: impl Name,
        cell: CellId,
        group: GroupId,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> InstId {
        let count = |pins: &[NetId]| u8::try_from(pins.len()).expect("at most 255 pins per side");
        let rec = InstRecord {
            cell,
            group,
            pins: u32::try_from(self.pins.len()).expect("pin table past u32"),
            inputs: count(inputs),
            outputs: count(outputs),
        };
        self.pins.extend_from_slice(inputs);
        self.pins.extend_from_slice(outputs);
        self.insts.push(rec);
        InstId(self.inst_names.push(name) as u32)
    }

    /// Remove every instance whose `keep` entry is false, compacting the
    /// instance records, the pin table and the name arena in one pass.
    /// Survivors keep their order, names, cells, groups and pins; nets
    /// are untouched.
    ///
    /// # Panics
    ///
    /// Panics unless `keep` has one entry per instance.
    pub fn retain_instances(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.insts.len(), "one keep flag per instance");
        if !keep.contains(&false) {
            return;
        }
        let mut pin_end = 0;
        let mut kept = 0;
        for (i, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
            let mut r = self.insts[i];
            let (start, len) = (r.pins as usize, r.inputs as usize + r.outputs as usize);
            // Pins are laid out in instance order, so `pin_end <= start`.
            self.pins.copy_within(start..start + len, pin_end);
            r.pins = pin_end as u32;
            pin_end += len;
            self.insts[kept] = r;
            kept += 1;
        }
        self.insts.truncate(kept);
        self.pins.truncate(pin_end);
        self.inst_names.retain(keep);
    }

    /// Iterate over input ports.
    pub fn input_ports(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Input)
    }

    /// Iterate over output ports.
    pub fn output_ports(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Output)
    }

    /// Find a port by exact name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Collect the nets of a bit-blasted bus port `base[0] ... base[n-1]`,
    /// in ascending bit order. Returns `None` if any bit is missing.
    pub fn bus(&self, base: &str, width: usize) -> Option<Vec<NetId>> {
        (0..width).map(|i| self.port(&format!("{base}[{i}]")).map(|p| p.net)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_writer_spells_like_format() {
        for n in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let mut buf = String::from("x");
            push_decimal(&mut buf, n);
            assert_eq!(buf, format!("x{n}"));
        }
        let mut arena = String::new();
        Counter(&[("bc_c", 3), ("_r", 10), ("_b", 0)]).append_to(&mut arena);
        Counter(&[]).append_to(&mut arena);
        assert_eq!(arena, "bc_c3_r10_b0");
    }

    #[test]
    fn new_module_has_top_group() {
        let m = Module::new("m");
        assert_eq!(m.group_name(GroupId::TOP), "top");
        assert_eq!((m.group_count(), m.path_count()), (1, 1));
        assert_eq!(m.instance_count(), 0);
        assert_eq!(m.net_count(), 0);
    }

    #[test]
    fn bus_lookup_requires_all_bits() {
        let mut m = Module::new("m");
        for i in 0..3 {
            let net = m.add_net(format_args!("a[{i}]"));
            m.ports.push(Port { name: format!("a[{i}]"), dir: PortDir::Input, net });
        }
        assert_eq!(m.bus("a", 3).unwrap(), vec![NetId(0), NetId(1), NetId(2)]);
        assert!(m.bus("a", 4).is_none());
        assert!(m.bus("b", 1).is_none());
    }

    #[test]
    fn retain_compacts_names_and_pins_in_order() {
        let mut m = Module::new("m");
        let n: Vec<NetId> = (0..6).map(|i| m.add_net(format_args!("n{i}"))).collect();
        let (c0, c1) = (CellId(0), CellId(1));
        m.add_instance("a", c0, GroupId::TOP, &[n[0], n[1]], &[n[2]]);
        m.add_instance("b", c1, GroupId::TOP, &[n[2]], &[n[3], n[4]]);
        m.add_instance("", c0, GroupId(7), &[], &[n[5]]);
        m.add_instance("dd", c1, GroupId::TOP, &[n[5], n[3]], &[]);
        m.retain_instances(&[false, true, true, false]);
        assert_eq!(m.instance_count(), 2);
        assert_eq!((m.inst_name(InstId(0)), m.inst_name(InstId(1))), ("b", ""));
        let b = m.instance(InstId(0));
        assert_eq!(
            (b.cell, b.group, b.inputs, b.outputs),
            (c1, GroupId::TOP, &[n[2]][..], &[n[3], n[4]][..])
        );
        let e = m.instance(InstId(1));
        assert_eq!((e.cell, e.group, e.inputs, e.outputs), (c0, GroupId(7), &[][..], &[n[5]][..]));
        assert_eq!(m.net_count(), 6, "nets are untouched");
        // The compacted module equals one built with only the survivors.
        let mut fresh = Module::new("m");
        for i in 0..6 {
            fresh.add_net(format_args!("n{i}"));
        }
        fresh.add_instance("b", c1, GroupId::TOP, &[n[2]], &[n[3], n[4]]);
        fresh.add_instance("", c0, GroupId(7), &[], &[n[5]]);
        assert_eq!(m, fresh);
    }
}
