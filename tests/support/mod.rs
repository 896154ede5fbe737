//! The seeded random netlist generator shared by the integration tests:
//! levelized logic over 19 combinational kinds, tie-biased constant
//! cones, DFF/DFFE/SRAM registers closing feedback loops through state,
//! dead logic and multi-output cells (HA/FA/C42), spread over nested
//! and repeated group paths, with names that collide across the net,
//! instance, group and port namespaces and explicit names shaped like
//! the builder's `u<k>` and `_n<k>` counters.

use std::ops::Range;

use rand::Rng;
use syndcim_netlist::{InstId, Module, NetId, NetlistBuilder};
use syndcim_pdk::{CellKind, CellLibrary};
use syndcim_sim::vectors::seeded_rng;

/// Combinational cell kinds the generator draws from.
const COMB: [CellKind; 19] = [
    CellKind::Inv,
    CellKind::Buf,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Mux2,
    CellKind::Oai21,
    CellKind::Oai22,
    CellKind::Aoi21,
    CellKind::Ha,
    CellKind::Fa,
    CellKind::C42,
    CellKind::MultNor,
    CellKind::MuxPg2,
    CellKind::MuxTg2,
    CellKind::Oai22Fused,
];

/// Sequential kinds: their inputs are patched after the logic exists,
/// closing feedback loops through state.
const SEQ: [CellKind; 3] = [CellKind::Dff, CellKind::DffEn, CellKind::Sram6T2T];

/// Group paths the generator moves gates into, as pushed segments: one
/// segment under several parents (`tree`), paths re-pushed after others
/// (`col0`, `col0/tree`), a segment equal to a net name (`_n3`) and a
/// `/` inside one segment that spells a nested path.
const GROUP_PATHS: [&[&str]; 7] = [
    &["col0", "tree"],
    &["col1", "tree"],
    &["col0"],
    &["_n3"],
    &["col1", "_n3"],
    &["mix/deep", "tree"],
    &["col0", "tree"],
];

/// A seeded random levelized netlist with a gate count drawn from
/// `gates`. Gates read earlier nets only (so the combinational part is
/// acyclic), with a bias towards tie nets so constant cones form; some
/// gate outputs reach no port (dead logic).
///
/// Groups and names come from a second seeded stream, so the logic is
/// the same as without them: gates move between the `GROUP_PATHS`, some
/// gates get explicit counter-shaped names ([`counter_shaped`]), an
/// output port is named like the group prefix `col0`, and six unread
/// input ports are named like counters in both namespaces.
pub fn random_module(lib: &CellLibrary, seed: u64, gates: Range<usize>) -> Module {
    let mut rng = seeded_rng(seed);
    let mut names = seeded_rng(seed ^ 0x6E41_4D45);
    let mut b = NetlistBuilder::new("fuzz", lib);
    let mut pool: Vec<NetId> = b.input_bus("in", rng.gen_range(3usize..10));
    let ties = [b.const0(), b.const1()];
    pool.extend(ties);

    let mut regs = Vec::new();
    for _ in 0..rng.gen_range(2usize..12) {
        let kind = SEQ[rng.gen_range(0..SEQ.len())];
        let inputs = lib.cell(lib.id_of(kind)).inputs.len();
        regs.push(b.module().instance_count());
        pool.extend(b.add(kind, &vec![ties[0]; inputs]));
    }

    let mut depth = 0;
    for _ in 0..rng.gen_range(gates) {
        if names.gen_bool(0.05) {
            for _ in 0..depth {
                b.pop_group();
            }
            let path = GROUP_PATHS[names.gen_range(0..GROUP_PATHS.len())];
            for segment in path {
                b.push_group(segment);
            }
            depth = path.len();
        }
        let kind = COMB[rng.gen_range(0..COMB.len())];
        let inputs = lib.cell(lib.id_of(kind)).inputs.len();
        let ins: Vec<NetId> = (0..inputs)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    ties[rng.gen_range(0usize..2)]
                } else {
                    pool[rng.gen_range(0..pool.len())]
                }
            })
            .collect();
        let k = b.module().instance_count() as u64;
        pool.extend(if names.gen_bool(0.1) {
            b.add_named(counter_shaped(names.gen_range(0u32..6), k), kind, &ins)
        } else {
            b.add(kind, &ins)
        });
    }
    for _ in 0..depth {
        b.pop_group();
    }

    for &r in &regs {
        for pin in 0..b.module().instance(InstId(r as u32)).inputs.len() {
            let net = pool[rng.gen_range(0..pool.len())];
            b.patch_instance_input(r, pin, net);
        }
    }
    let outs: Vec<NetId> =
        (0..rng.gen_range(1usize..24)).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
    b.output_bus("out", &outs);
    b.output("col0", pool[names.gen_range(0..pool.len())]);
    // Unread inputs, one per shape: nets named like an instance (`u<j>`)
    // and like another net (`_n<j>`), then the non-canonical and
    // out-of-range shapes.
    let instances = b.module().instance_count() as u64;
    for shape in 0..6 {
        let j = names.gen_range(0..instances);
        b.input(match shape {
            0 => format!("u{j}"),
            1 => format!("_n{}", j + 1),
            shape => counter_shaped(shape, j),
        });
    }
    b.finish()
}

/// A name shaped like a counter, unique per `k` within its shape:
/// `_n<k>` (canonical, and within the interner's range on any generated
/// module), `u0<k>` and `_n0<k>` (a leading zero), `u<k + 2⁴⁰>` (past any
/// generated module's name count) and `_n18446744073709551615<k>` (past
/// `u64`).
pub fn counter_shaped(shape: u32, k: u64) -> String {
    match shape {
        0 | 1 => format!("_n{k}"),
        2 => format!("u0{k}"),
        3 => format!("_n0{k}"),
        4 => format!("u{}", k + (1 << 40)),
        _ => format!("_n{}{k}", u64::MAX),
    }
}
