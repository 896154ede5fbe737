//! Symbol interning: the shared name layer of the compiled trinity.
//!
//! Compiled artifacts outlive the module they were lowered from, so
//! until this layer existed every one of them cloned owned `String`
//! name tables out of the netlist — `CompiledSta` alone carried a
//! per-net, a per-instance *and* a per-instance-group clone, which is
//! three `String`s per element of a macro that the scale tier grows to
//! 10⁵–10⁶ nets. Interning replaces those tables with 4-byte
//! [`Symbol`]s resolved lazily against one shared, immutable
//! [`Interner`]: the bytes of every distinct name are stored exactly
//! once, in one arena, behind one `Arc` that the lowering and all
//! downstream programs hand around for free. Its retained memory is
//! exactly `Σ unique name bytes + 4 bytes per symbol`; no hash table
//! survives the build.
//!
//! [`Symbols::from_module`] interns a module's whole name sequence as
//! one batch. Symbol ids are dense in first-occurrence order over that
//! sequence. The batch reads the nets and instances in place from the
//! module's name arenas (only the group paths, their prefixes and the
//! ports are listed apart), then:
//!
//! 0. finds the first occurrence of every canonical counter name — `u`
//!    or `_n`, then a decimal number with no leading zero whose value is
//!    below the sequence length, as the netlist builder spells its
//!    instances and anonymous nets — in one of two direct-indexed
//!    tables (one per prefix), walked in sequence order. On the scale
//!    tier that is 636,781 of 780,381 names. Whether a name is a counter
//!    depends on its bytes alone, so equal names always take the same
//!    path, and an explicit `u5` meets the builder's `u5` in the table;
//! 1. hashes every other name with a fixed in-crate 64-bit
//!    multiplicative hash over 8-byte chunks;
//! 2. stable-sorts those names' indices by the hash's top bits (a
//!    counting sort), so equal names, which share a hash, share a
//!    partition and keep their sequence order inside it;
//! 3. finds each hashed name's first occurrence inside its partition,
//!    in an open-addressed table whose slot comes from the hash bits
//!    below the partition bits;
//! 4. walks the sequence once, giving each first occurrence the next id
//!    and copying its bytes into the arena.
//!
//! The partition count follows the name count (a small module gets one
//! partition through the same code), sized so each partition's table
//! stays in L2. One table over the scale tier's 779k names held 16 MiB,
//! and random probes into it missed L2 and the TLB on nearly every
//! name; storing the names contiguously did not change that.
//!
//! The hash is fixed rather than randomly seeded (`RandomState`) on
//! purpose: ids are first-occurrence order whatever the hash, but a
//! fixed hash also makes the build's partitions and probe sequences —
//! and so its cost — identical on every run, and nothing about a build
//! depends on per-process state. Ids feed every `Symbols` table and the
//! `.scim` symbol section, whose save → load → save byte fixpoint the
//! artifact tests pin. The names come from the netlist generators, not
//! from outside input (decoded artifacts skip the batch), so a fixed
//! hash opens no collision-flooding attack.
//!
//! [`Symbols`] is the module-shaped view: per-net / per-instance /
//! per-group symbol tables (each an `Arc` slice, shared rather than
//! cloned between the lowering and the simulation, timing and power
//! programs) plus the group *parent* table that lets the power
//! breakdown reconstruct full hierarchical group paths without storing
//! a single path string per instance.

use std::collections::HashMap;
use std::sync::Arc;

use syndcim_netlist::{GroupId, InstId, Module, NetId};

/// An interned string: a 4-byte handle resolved against the
/// [`Interner`] it was created by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The symbol's dense index within its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a symbol from its dense id. Crate-internal: only the
    /// artifact decoder constructs symbols this way, and it validates
    /// every id against the decoded interner before handing them out.
    pub(crate) fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

/// A free slot in a partition's table.
const EMPTY: u32 = u32::MAX;

/// Inverse of a partition table's maximum load factor: every probe past
/// the home slot costs a compare, so the tables are kept sparse.
const MAX_LOAD_INV: usize = 4;

/// Most names a partition holds on average. A partition's table then
/// has about `2 × MAX_LOAD_INV × PARTITION_NAMES` 8-byte slots (256 KiB)
/// at most, well inside L2.
const PARTITION_NAMES: usize = 4096;

/// Odd 64-bit multiplier (2⁶⁴ / φ) of the interner's hash.
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The interner's fixed hash: each little-endian 8-byte chunk (the tail
/// zero-padded) is folded in by rotate–xor–multiply, seeded with the
/// length, and the result gets one final xor-shift–multiply so every
/// input bit reaches the high bits partitions and slots are taken from.
fn hash(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(HASH_K);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(HASH_K);
    }
    (h ^ (h >> 32)).wrapping_mul(HASH_K)
}

/// Partition bits for a batch of `names` names: between half and all
/// of `PARTITION_NAMES` names per partition on average, and one
/// partition (0 bits) below `2 × PARTITION_NAMES`.
fn partition_bits(names: usize) -> u32 {
    (names / PARTITION_NAMES).next_power_of_two().trailing_zeros()
}

/// The table and value of a canonical counter name: `u` (table 0) or
/// `_n` (table 1), then ASCII digits with no leading zero spelling a
/// value below `limit`. Every other name — `u`, `u01`, `U5`, `u5x`, a
/// non-ASCII digit, a value at or past `limit` — is `None`.
fn counter(name: &[u8], limit: usize) -> Option<(usize, usize)> {
    let (table, digits) = match name {
        [b'u', digits @ ..] => (0, digits),
        [b'_', b'n', digits @ ..] => (1, digits),
        _ => return None,
    };
    if digits.is_empty() || (digits[0] == b'0' && digits.len() > 1) {
        return None;
    }
    let mut value = 0u64;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        // `value < limit < 2³²` before this step, so it cannot overflow.
        value = value * 10 + u64::from(d - b'0');
        if value >= limit as u64 {
            return None;
        }
    }
    Some((table, value as usize))
}

/// Intern the `n` names `name(0..n)` as one batch over `1 << bits` hash
/// partitions (steps 0–4 of the module docs). Returns the frozen
/// interner and each name's symbol; ids are dense in first-occurrence
/// order, whatever `bits`.
fn intern_batch<'a>(n: usize, name: impl Fn(usize) -> &'a str, bits: u32) -> (Interner, Vec<Symbol>) {
    assert!(n < EMPTY as usize, "more names than symbol ids");
    // 0. Counters find their first occurrence by value (a table entry
    //    holds that index plus one, so a zeroed table is empty); 1.
    //    every other name is hashed, in sequence order.
    let mut first = vec![0u32; n];
    let mut hashed: Vec<(u64, u32)> = Vec::new();
    let mut bytes = 0;
    {
        let mut tables = [vec![0u32; n], vec![0u32; n]];
        for (i, f) in first.iter_mut().enumerate() {
            let name = name(i).as_bytes();
            bytes += name.len();
            match counter(name, n) {
                Some((table, value)) => {
                    let seen = &mut tables[table][value];
                    if *seen == 0 {
                        *seen = i as u32 + 1;
                    }
                    *f = *seen - 1;
                }
                None => hashed.push((hash(name), i as u32)),
            }
        }
    }

    // 2. Stable counting sort by the top `bits` bits, carrying each
    //    hash along so step 3 reads its partition sequentially.
    let partition = |h: u64| h.checked_shr(64 - bits).unwrap_or(0) as usize;
    let mut start = vec![0usize; (1 << bits) + 1];
    for &(h, _) in &hashed {
        start[partition(h) + 1] += 1;
    }
    for p in 1..start.len() {
        start[p] += start[p - 1];
    }
    let mut next = start.clone();
    let mut sorted = vec![(0u64, 0u32); hashed.len()];
    for &(h, i) in &hashed {
        let k = &mut next[partition(h)];
        sorted[*k] = (h, i);
        *k += 1;
    }
    drop(hashed);

    // 3. First occurrence per partition. A slot holds a name index and
    //    its hash's low half, so only a matching half compares bytes.
    let largest = start.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let mut table = vec![(EMPTY, 0u32); (largest * MAX_LOAD_INV).next_power_of_two().max(16)];
    for members in start.windows(2).map(|w| &sorted[w[0]..w[1]]) {
        if members.is_empty() {
            continue;
        }
        let len = (members.len() * MAX_LOAD_INV).next_power_of_two().max(16);
        let slots = &mut table[..len];
        slots.fill((EMPTY, 0));
        let (slot_shift, mask) = (64 - len.trailing_zeros(), len - 1);
        for &(h, i) in members {
            let mut slot = ((h << bits) >> slot_shift) as usize;
            first[i as usize] = loop {
                let (j, lo) = slots[slot];
                if j == EMPTY {
                    slots[slot] = (i, h as u32);
                    break i;
                }
                if lo == h as u32 && name(j as usize) == name(i as usize) {
                    break j;
                }
                slot = (slot + 1) & mask;
            };
        }
    }
    drop((sorted, table));

    // 4. Ids in sequence order; each first occurrence joins the arena.
    //    `first` turns into the ids in place: a name's first occurrence
    //    is never later than the name, so its id is already there.
    let mut buf = String::with_capacity(bytes);
    let mut ends = Vec::new();
    for i in 0..n {
        let f = first[i] as usize;
        first[i] = if f == i {
            buf.push_str(name(i));
            ends.push(buf.len() as u32);
            ends.len() as u32 - 1
        } else {
            first[f]
        };
    }
    let ids = first.into_iter().map(Symbol).collect();
    (Interner { buf: buf.into_boxed_str(), ends: ends.into_boxed_slice() }, ids)
}

/// A frozen string arena: resolve-only, immutable, cheaply shared via
/// `Arc` between the lowering and every compiled artifact built from
/// it. Retained heap is `buf` (every distinct name's bytes, once) plus
/// one `u32` end offset per symbol.
#[derive(Debug)]
pub struct Interner {
    buf: Box<str>,
    ends: Box<[u32]>,
}

impl Interner {
    /// Rebuild a frozen interner from its raw arena and offset table.
    /// Crate-internal: the artifact decoder is the only caller, and it
    /// has already checked the offsets are monotone char boundaries.
    pub(crate) fn from_parts(buf: String, ends: Vec<u32>) -> Interner {
        Interner { buf: buf.into_boxed_str(), ends: ends.into_boxed_slice() }
    }

    /// The raw byte arena (artifact encoder only).
    pub(crate) fn buf(&self) -> &str {
        &self.buf
    }

    /// The raw end-offset table (artifact encoder only).
    pub(crate) fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// The string a symbol stands for.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced with this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.buf[start..self.ends[i] as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if the interner holds no strings.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Retained heap bytes: the byte arena plus the offset table. This
    /// is the number the scale-tier bench compares against the owned
    /// `String`-table baseline.
    pub fn heap_bytes(&self) -> usize {
        self.buf.len() + self.ends.len() * std::mem::size_of::<u32>()
    }
}

/// Sentinel for "no parent group" in [`Symbols::group_parent`] (the
/// group is a hierarchy root such as `top` or a top-level head).
const NO_PARENT: u32 = u32::MAX;

/// The interned name tables of one module: per-net, per-instance and
/// per-group symbols over one shared [`Interner`].
///
/// Built once per [`Lowering`](crate::Lowering) (or standalone via
/// [`Symbols::from_module`]) and handed to every compiled artifact —
/// engine `Program`, `CompiledSta`, `CompiledPower` — as `Arc` handles,
/// so a clone is a few reference-count bumps, never a table copy, and
/// no compiled artifact owns a per-net or per-instance `String` again.
#[derive(Debug, Clone)]
pub struct Symbols {
    pub(crate) interner: Arc<Interner>,
    /// Net name per dense net slot.
    pub(crate) net_syms: Arc<[Symbol]>,
    /// Instance name per instance index.
    pub(crate) inst_syms: Arc<[Symbol]>,
    /// Group id per instance index.
    pub(crate) inst_group: Arc<[u32]>,
    /// Full hierarchical group path per group id (`"regs/bank0"`).
    pub(crate) group_syms: Arc<[Symbol]>,
    /// Top-level head of each group path (`"regs"`), matching the
    /// reference power analyzer's breakdown keys.
    pub(crate) group_head_syms: Arc<[Symbol]>,
    /// Path-tree node per group id (see `node_*` below).
    pub(crate) group_node: Arc<[u32]>,
    /// The hierarchical path tree: one node per distinct group path
    /// *and per prefix of one* (`"regs/bank0"` contributes `"regs"` and
    /// `"regs/bank0"` even when only the latter was pushed as a group).
    /// Parents always precede children, so a single reverse pass rolls
    /// subtree aggregates up the hierarchy.
    pub(crate) node_syms: Arc<[Symbol]>,
    /// Parent node per node; `NO_PARENT` for hierarchy roots (the
    /// roots are exactly the top-level heads).
    pub(crate) node_parent: Arc<[u32]>,
    /// Boundary-port symbols, sorted by port name — the shared lookup
    /// table behind [`Symbols::port_net`], so simulation backends stop
    /// building per-executor `HashMap<String, NetId>` port tables.
    pub(crate) port_syms: Arc<[Symbol]>,
    /// Net slot bound to each entry of `port_syms` (same order).
    pub(crate) port_nets: Arc<[u32]>,
}

impl Symbols {
    /// Intern every net, instance, group and port name of `module` as
    /// one batch. The sequence is every net, every instance, each
    /// distinct group path (in order of first use) followed by its
    /// `/`-prefixes, then the ports in name order; ids are dense in
    /// first-occurrence order over it. Group heads (the path segment
    /// before the first `/`) and the path tree are derived from the
    /// symbols of the paths and their prefixes.
    pub fn from_module(module: &Module) -> Symbols {
        let (nets, insts) = (module.net_count(), module.instance_count());
        let mut port_order: Vec<usize> = (0..module.ports.len()).collect();
        port_order.sort_by(|&a, &b| module.ports[a].name.cmp(&module.ports[b].name));

        // The nets and instances are read from the module's arenas in
        // place; the group paths, their prefixes and the ports follow.
        let paths = module.path_count() as u32;
        let mut tail: Vec<&str> = Vec::with_capacity(4 * paths as usize + port_order.len());
        for p in 0..paths {
            let path = module.path_name(p);
            tail.push(path);
            tail.extend(path.match_indices('/').map(|(end, _)| &path[..end]));
        }
        tail.extend(port_order.iter().map(|&i| module.ports[i].name.as_str()));
        let n = nets + insts + tail.len();
        let name = |i: usize| {
            if i < nets {
                module.net_name(NetId(i as u32))
            } else if i < nets + insts {
                module.inst_name(InstId((i - nets) as u32))
            } else {
                tail[i - nets - insts]
            }
        };
        let (interner, ids) = intern_batch(n, name, partition_bits(n));

        // Path tree keyed by full-path symbol: every `/`-prefix gets a
        // node of its own, created before its children, so node ids are
        // topologically ordered parents-first. A path that already has
        // a node (as a prefix of an earlier path) adds none.
        let mut node_index: HashMap<Symbol, u32> = HashMap::new();
        let mut node_syms: Vec<Symbol> = Vec::new();
        let mut node_parent: Vec<u32> = Vec::new();
        let (mut path_sym, mut path_head, mut path_node) = (Vec::new(), Vec::new(), Vec::new());
        let mut k = nets + insts;
        for p in 0..paths {
            let prefixes = module.path_name(p).matches('/').count();
            let (sym, prefix_syms) = (ids[k], &ids[k + 1..k + 1 + prefixes]);
            k += 1 + prefixes;
            let node = match node_index.get(&sym) {
                Some(&node) => node,
                None => {
                    let mut parent = NO_PARENT;
                    for &prefix in prefix_syms.iter().chain([&sym]) {
                        parent = *node_index.entry(prefix).or_insert_with(|| {
                            node_syms.push(prefix);
                            node_parent.push(parent);
                            node_syms.len() as u32 - 1
                        });
                    }
                    parent
                }
            };
            let mut root = node;
            while node_parent[root as usize] != NO_PARENT {
                root = node_parent[root as usize];
            }
            path_sym.push(sym);
            path_head.push(node_syms[root as usize]);
            path_node.push(node);
        }
        let group_path = |g: usize| module.group_path(GroupId(g as u32)) as usize;
        let groups = 0..module.group_count();

        Symbols {
            interner: Arc::new(interner),
            net_syms: ids[..nets].into(),
            inst_syms: ids[nets..nets + insts].into(),
            inst_group: module.instances().map(|i| i.group.0).collect(),
            group_syms: groups.clone().map(|g| path_sym[group_path(g)]).collect(),
            group_head_syms: groups.clone().map(|g| path_head[group_path(g)]).collect(),
            group_node: groups.map(|g| path_node[group_path(g)]).collect(),
            node_syms: node_syms.into(),
            node_parent: node_parent.into(),
            port_syms: ids[k..].into(),
            port_nets: port_order.iter().map(|&i| module.ports[i].net.index() as u32).collect(),
        }
    }

    /// The shared interner every symbol here resolves against.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Resolve any symbol produced by this table's interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Number of net slots.
    pub fn net_count(&self) -> usize {
        self.net_syms.len()
    }

    /// Number of instances.
    pub fn inst_count(&self) -> usize {
        self.inst_syms.len()
    }

    /// Number of groups (hierarchy nodes, not just heads).
    pub fn group_count(&self) -> usize {
        self.group_syms.len()
    }

    /// Interned name of net slot `slot`.
    pub fn net_sym(&self, slot: usize) -> Symbol {
        self.net_syms[slot]
    }

    /// Name of net slot `slot`.
    pub fn net_name(&self, slot: usize) -> &str {
        self.resolve(self.net_syms[slot])
    }

    /// Interned name of instance `inst`.
    pub fn inst_sym(&self, inst: usize) -> Symbol {
        self.inst_syms[inst]
    }

    /// Name of instance `inst`.
    pub fn inst_name(&self, inst: usize) -> &str {
        self.resolve(self.inst_syms[inst])
    }

    /// Group id of instance `inst`.
    pub fn group_of(&self, inst: usize) -> u32 {
        self.inst_group[inst]
    }

    /// Interned full path of group `gid` (e.g. `"regs/bank0"`).
    pub fn group_sym(&self, gid: u32) -> Symbol {
        self.group_syms[gid as usize]
    }

    /// Full hierarchical path of group `gid`.
    pub fn group_name(&self, gid: u32) -> &str {
        self.resolve(self.group_syms[gid as usize])
    }

    /// Interned top-level head of group `gid` (e.g. `"regs"`) — the
    /// key the power breakdown aggregates by.
    pub fn group_head_sym(&self, gid: u32) -> Symbol {
        self.group_head_syms[gid as usize]
    }

    /// The path-tree node carrying group `gid`'s full path.
    pub fn group_node(&self, gid: u32) -> u32 {
        self.group_node[gid as usize]
    }

    /// Number of nodes in the hierarchical path tree (distinct full
    /// paths plus every prefix of one).
    pub fn node_count(&self) -> usize {
        self.node_syms.len()
    }

    /// Interned full path of path-tree node `node`.
    pub fn node_sym(&self, node: u32) -> Symbol {
        self.node_syms[node as usize]
    }

    /// Full path of path-tree node `node`.
    pub fn node_name(&self, node: u32) -> &str {
        self.resolve(self.node_syms[node as usize])
    }

    /// Parent of path-tree node `node`, or `None` for hierarchy roots.
    /// Parent node ids are always smaller than their children's, so a
    /// reverse iteration over `0..node_count()` visits children before
    /// parents (the rollup order `CompiledPower::by_path_pj` relies
    /// on).
    pub fn node_parent(&self, node: u32) -> Option<u32> {
        let p = self.node_parent[node as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// Number of boundary ports.
    pub fn port_count(&self) -> usize {
        self.port_syms.len()
    }

    /// Interned name of boundary port `i`, counting in name order.
    pub fn port_sym(&self, i: usize) -> Symbol {
        self.port_syms[i]
    }

    /// Net slot bound to the boundary port `name`, by binary search
    /// over the shared sorted port table — no per-caller name map, no
    /// allocation. This is the lookup the simulation backends'
    /// `net_of` helpers ride.
    pub fn port_net(&self, name: &str) -> Option<u32> {
        self.port_syms.binary_search_by(|&s| self.resolve(s).cmp(name)).ok().map(|i| self.port_nets[i])
    }

    /// Retained heap bytes of the symbol tables *plus* the shared
    /// interner (counted once — every artifact holding this `Symbols`
    /// shares the same allocations).
    pub fn heap_bytes(&self) -> usize {
        let sym = std::mem::size_of::<Symbol>();
        self.net_syms.len() * sym
            + self.inst_syms.len() * sym
            + self.inst_group.len() * std::mem::size_of::<u32>()
            + self.group_syms.len() * sym
            + self.group_head_syms.len() * sym
            + self.group_node.len() * std::mem::size_of::<u32>()
            + self.node_syms.len() * sym
            + self.node_parent.len() * std::mem::size_of::<u32>()
            + self.port_syms.len() * sym
            + self.port_nets.len() * std::mem::size_of::<u32>()
            + self.interner.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::CellLibrary;

    fn intern_slice(names: &[&str], bits: u32) -> (Interner, Vec<Symbol>) {
        intern_batch(names.len(), |i| names[i], bits)
    }

    #[test]
    fn intern_round_trips_and_dedups() {
        let (frozen, ids) = intern_slice(&["alpha", "beta", "alpha", ""], 0);
        let [a1, beta, a2, empty] = ids[..] else { panic!("one symbol per name") };
        assert_eq!(a1, a2, "equal strings must intern to one symbol");
        assert_ne!(a1, beta);
        assert_eq!(frozen.len(), 3, "dedup: three distinct strings");
        assert_eq!(frozen.resolve(a1), "alpha");
        assert_eq!(frozen.resolve(beta), "beta");
        assert_eq!(frozen.resolve(empty), "");
        assert_eq!(frozen.len(), 3);
        assert_eq!(frozen.heap_bytes(), "alphabeta".len() + 3 * 4);
    }

    /// First-occurrence ids from a plain `HashMap<String, u32>`: the
    /// reference every builder id is pinned against.
    fn reference_ids<'a>(names: impl IntoIterator<Item = &'a str>) -> Vec<u32> {
        let mut index: HashMap<String, u32> = HashMap::new();
        names
            .into_iter()
            .map(|s| {
                let next = index.len() as u32;
                *index.entry(s.to_string()).or_insert(next)
            })
            .collect()
    }

    /// Intern `names` as one batch over one partition, the size-derived
    /// count and 256 partitions; pin every id against the reference,
    /// then pin that the frozen arena resolves each back.
    fn assert_matches_reference(names: &[String]) {
        let want = reference_ids(names.iter().map(String::as_str));
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        for bits in [0, partition_bits(names.len()), 8] {
            let (frozen, got) = intern_slice(&refs, bits);
            for (i, (g, &w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.0, w, "name #{i} {:?} over {bits} partition bits", names[i]);
            }
            assert_eq!(frozen.len(), want.iter().max().map_or(0, |&m| m as usize + 1));
            for (sym, name) in got.iter().zip(names) {
                assert_eq!(frozen.resolve(*sym), name);
            }
        }
    }

    #[test]
    fn ids_match_reference_on_long_shared_prefixes() {
        // 200k names that share a long prefix and suffix and differ in
        // the block number plus one middle byte, then a second pass of
        // every seventh name: duplicates far from their first occurrence.
        let mut names = Vec::new();
        for block in 0..2106 {
            for c in 0x20u8..0x7F {
                names.push(format!(
                    "macro/adder_tree/column_{block:04}/compressor_row/{}/carry_save_tail",
                    c as char
                ));
            }
        }
        assert!(names.len() >= 200_000);
        let again: Vec<String> = names.iter().step_by(7).cloned().collect();
        names.extend(again);
        assert!(partition_bits(names.len()) > 0, "the default splits this batch");
        assert_matches_reference(&names);
    }

    #[test]
    fn ids_match_reference_at_chunk_edges() {
        // Lengths 0, 7, 8, 9 and 16 straddle the hash's 8-byte chunks;
        // a trailing NUL must not collide with the zero-padded tail.
        let mut names = Vec::new();
        for len in [0usize, 7, 8, 9, 16] {
            for last in [b'a', b'b', 0] {
                let mut name: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
                if let Some(byte) = name.last_mut() {
                    *byte = last;
                }
                names.push(String::from_utf8(name).unwrap());
            }
        }
        names.extend(["a", "a\0", "a\0\0", "abcdefg", "abcdefg\0"].map(String::from));
        let again = names.clone();
        names.extend(again);
        assert_matches_reference(&names);
    }

    #[test]
    fn ids_match_reference_on_multibyte_utf8() {
        let mut names: Vec<String> = ["µ", "Ω/β", "日本語/回路", "🦀", "grün/öl", "1234567µ", "123456🦀"]
            .into_iter()
            .map(String::from)
            .collect();
        names.extend((0..500).map(|i| format!("ächse_{i}/Ω{}", i % 17)));
        let again = names.clone();
        names.extend(again.into_iter().rev());
        assert_matches_reference(&names);
    }

    #[test]
    fn ids_match_reference_on_counter_names() {
        // Counter-suffixed names like the generators' `u<k>` and
        // `_n<k>`, each `u<k>` repeated 2,000 names after its first.
        let mut names: Vec<String> = (0..1000).flat_map(|i| [format!("u{i}"), format!("_n{i}")]).collect();
        names.extend((0..1000).map(|i| format!("u{i}")));
        assert_matches_reference(&names);
        assert_eq!(intern_slice(&names.iter().map(String::as_str).collect::<Vec<_>>(), 3).0.len(), 2000);
    }

    #[test]
    fn ids_match_reference_on_counter_shaped_names() {
        // Names one byte away from a canonical counter, each in its own
        // right and next to the counter it resembles.
        let odd = ["u0", "u00", "u01", "u", "_n", "_n0", "_n007", "U5", "u5x", "u٣", "u18446744073709551616"];
        // An explicit `_n3` and `u5` before the synthetic ones.
        let mut names: Vec<String> = ["_n3", "u5"].into_iter().chain(odd).map(String::from).collect();
        for k in 0..40 {
            names.extend([format!("u{k}"), format!("_n{k}")]);
        }
        // ... and after them, then every odd name again.
        names.extend(["_n3", "u5"].into_iter().chain(odd).map(String::from));
        // Counters just below, at and above the sequence length.
        let len = names.len() as u64 + 6;
        for v in [len - 1, len, len + 1] {
            names.extend([format!("u{v}"), format!("_n{v}")]);
        }
        assert_eq!(names.len() as u64, len);
        assert_matches_reference(&names);

        let limit = len as usize;
        assert_eq!(counter(b"u0", limit), Some((0, 0)));
        assert_eq!(counter(format!("_n{}", len - 1).as_bytes(), limit), Some((1, limit - 1)));
        for name in ["u00", "u01", "u", "_n", "_n007", "U5", "u5x", "u٣", "u18446744073709551616"] {
            assert_eq!(counter(name.as_bytes(), limit), None, "{name}");
        }
        assert_eq!(counter(format!("u{len}").as_bytes(), limit), None, "at the sequence length");
    }

    #[test]
    fn partitions_follow_the_name_count() {
        assert_eq!(partition_bits(0), 0);
        assert_eq!(partition_bits(2 * PARTITION_NAMES - 1), 0, "small batches take one partition");
        assert_eq!(partition_bits(2 * PARTITION_NAMES), 1);
        assert_eq!(partition_bits(778_796), 8, "the scale tier's ~3k names per partition");
    }

    #[test]
    fn symbols_mirror_module_names() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let a = b.input("a");
        b.push_group("regs");
        b.push_group("bank0");
        let q = b.dff(a);
        b.pop_group();
        b.pop_group();
        b.output("q", q);
        let m = b.finish();
        let syms = Symbols::from_module(&m);
        assert_eq!(syms.net_count(), m.net_count());
        assert_eq!(syms.inst_count(), m.instance_count());
        for i in 0..m.net_count() {
            assert_eq!(syms.net_name(i), m.net_name(NetId(i as u32)));
        }
        for (i, inst) in m.instances().enumerate() {
            assert_eq!(syms.inst_name(i), m.inst_name(InstId(i as u32)));
            assert_eq!(syms.group_of(i), inst.group.0);
            assert_eq!(syms.group_name(inst.group.0), m.group_name(inst.group));
        }
    }

    #[test]
    fn path_tree_follows_prefixes_and_synthesizes_missing_ancestors() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let a = b.input("a");
        let g_regs = b.push_group("regs");
        let g_bank = b.push_group("bank0");
        let q = b.dff(a);
        b.pop_group();
        b.pop_group();
        // A slash inside one push: `mem/word0` has no explicit `mem`
        // group — the tree must synthesize the prefix node.
        let g_word = b.push_group("mem/word0");
        let y = b.not(q);
        b.pop_group();
        b.output("y", y);
        let m = b.finish();
        let syms = Symbols::from_module(&m);

        let top = syms.group_node(0);
        assert_eq!(syms.node_parent(top), None, "top is a root");
        let regs = syms.group_node(g_regs.0);
        let bank = syms.group_node(g_bank.0);
        assert_eq!(syms.node_parent(regs), None, "`regs` is a root (no `top/` prefix)");
        assert_eq!(syms.node_parent(bank), Some(regs), "`regs/bank0` hangs under `regs`");
        assert!(regs < bank, "parents precede children");
        let word = syms.group_node(g_word.0);
        let mem = syms.node_parent(word).expect("synthesized `mem` prefix node");
        assert_eq!(syms.node_name(mem), "mem");
        assert_eq!(syms.node_parent(mem), None);
        assert_eq!(syms.node_name(word), "mem/word0");

        assert_eq!(syms.resolve(syms.group_head_sym(g_bank.0)), "regs");
        assert_eq!(syms.resolve(syms.group_head_sym(g_word.0)), "mem");
        assert_eq!(syms.resolve(syms.group_head_sym(0)), "top");
    }

    #[test]
    fn port_lookup_matches_module_ports() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let xs = b.input_bus("x", 4);
        let a = b.input("a");
        let y = b.not(a);
        b.output_bus("z", &xs);
        b.output("y", y);
        let m = b.finish();
        let syms = Symbols::from_module(&m);
        assert_eq!(syms.port_count(), m.ports.len());
        for p in &m.ports {
            assert_eq!(syms.port_net(&p.name), Some(p.net.index() as u32), "port `{}`", p.name);
        }
        assert_eq!(syms.port_net("nonexistent"), None);
    }

    #[test]
    fn clones_share_the_interner() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("m", &lib);
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let m = b.finish();
        let syms = Symbols::from_module(&m);
        let clone = syms.clone();
        assert!(Arc::ptr_eq(syms.interner(), clone.interner()), "clone must share, not copy");
    }
}
