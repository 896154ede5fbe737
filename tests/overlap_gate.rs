//! The overlapped path above the size gate.
//!
//! On a module of at least `OVERLAP_MIN_INSTANCES` instances,
//! `Lowering::validated` interns names beside the connectivity →
//! levelize → validate walk, and `CompiledMacro::compile_with_lowering`
//! compiles timing beside simulation and power (on two threads when the
//! host has two cores). Each arm is a pure function of the module, so
//! on a seeded generated module just above the gate the results must
//! equal the serial composition exactly — the same order, connectivity
//! and symbols, the same `.scim` section bytes — and broken copies must fail
//! with the serial composition's typed error.
//!
//! One test reads the process-global `ir.overlapped_joins` counter, so
//! every test here serializes on one lock.

mod support;

use std::sync::{Mutex, OnceLock};

use rand::Rng;
use support::random_module;
use syndcim_core::CompiledMacro;
use syndcim_engine::artifact::encode_program;
use syndcim_engine::Program;
use syndcim_ir::artifact::encode_symbols;
use syndcim_ir::{Lowering, SectionWriter, Symbols, OVERLAP_MIN_INSTANCES};
use syndcim_netlist::{levelize, validate, Connectivity, GroupId, InstId, Module, NetlistError};
use syndcim_pdk::{CellKind, CellLibrary};
use syndcim_power::artifact::encode_power;
use syndcim_power::CompiledPower;
use syndcim_sim::vectors::seeded_rng;
use syndcim_sta::artifact::encode_sta;
use syndcim_sta::{CompiledSta, WireLoads};
use syndcim_telemetry as telemetry;

static LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 0x0E7_6A7E;

/// The generated module, built once: ~66,000 gates, just above the gate.
fn gate_module(lib: &CellLibrary) -> &'static Module {
    static MODULE: OnceLock<Module> = OnceLock::new();
    MODULE.get_or_init(|| {
        let m = random_module(lib, SEED, 66_000..66_001);
        assert!(m.instance_count() >= OVERLAP_MIN_INSTANCES, "{} instances", m.instance_count());
        m
    })
}

/// The serial composition the overlapped lowering must reproduce.
fn serial_lowering(
    m: &Module,
    lib: &CellLibrary,
) -> Result<(Connectivity, Vec<InstId>, Symbols), NetlistError> {
    let conn = Connectivity::build(m)?;
    let order = levelize(m, lib, &conn)?;
    let symbols = Symbols::from_module(m);
    validate(m, &conn)?;
    Ok((conn, order, symbols))
}

#[test]
fn lowering_above_the_gate_equals_the_serial_composition() {
    let _guard = LOCK.lock().unwrap();
    let lib = CellLibrary::syn40();
    let m = gate_module(&lib);
    let low = Lowering::validated(m, &lib).unwrap();
    let (conn, order, symbols) = serial_lowering(m, &lib).unwrap();
    assert_eq!(low.order(), order.as_slice(), "levelized order");
    assert_eq!(low.connectivity(), &conn, "connectivity columns");
    assert_eq!(
        encode_symbols(low.symbols()).into_bytes(),
        encode_symbols(&symbols).into_bytes(),
        "symbol tables"
    );
}

#[test]
fn compiled_macro_above_the_gate_encodes_the_serial_sections() {
    let _guard = LOCK.lock().unwrap();
    let lib = CellLibrary::syn40();
    let m = gate_module(&lib);
    let mut rng = seeded_rng(SEED);
    let n = m.net_count();
    // Seeded wires in 1/16 steps: up to 4 fF and 9 ps per net.
    let mut column = |max: u32| (0..n).map(|_| f64::from(rng.gen_range(0..max * 16)) / 16.0).collect();
    let wires = WireLoads { cap_ff: column(4), delay_ps: column(9) };
    let lowering = Lowering::validated(m, &lib).unwrap();
    let serial = CompiledMacro {
        program: Program::from_lowering(&lowering, m, &lib),
        power: CompiledPower::from_lowering(&lowering, m, &lib, &wires.cap_ff),
        sta: CompiledSta::from_lowering(&lowering, m, &lib, &wires),
        lowering: lowering.clone(),
    };
    let overlapped = CompiledMacro::compile_with_lowering(m, &lib, &wires, lowering);
    // The lowering and symbol sections encode the same lowering, so
    // the `.scim` bytes agree when the three program sections do (the
    // container framing is a function of the sections; a whole save
    // takes seconds in a debug build).
    let sections = |cm: &CompiledMacro| {
        [encode_program(&cm.program), encode_sta(&cm.sta), encode_power(&cm.power)]
            .map(SectionWriter::into_bytes)
    };
    let [program, sta, power] = sections(&overlapped);
    let [serial_program, serial_sta, serial_power] = sections(&serial);
    assert!(program == serial_program, "program section differs");
    assert!(sta == serial_sta, "timing section differs");
    assert!(power == serial_power, "power section differs");
}

#[test]
fn broken_copies_above_the_gate_fail_like_the_serial_composition() {
    let _guard = LOCK.lock().unwrap();
    let lib = CellLibrary::syn40();
    let m = gate_module(&lib);
    let conn = Connectivity::build(m).unwrap();
    let inst = |i: usize| m.instance(InstId(i as u32));
    let comb = |i: usize| !lib.cell(inst(i).cell).is_sequential();
    let last = InstId(m.instance_count() as u32 - 1);

    // The last gate reads a net nothing drives.
    let mut floating = m.clone();
    let dangling = floating.add_net("dangling");
    floating.inputs_mut(last)[0] = dangling;

    // An added tie cell also drives the first gate's output net.
    let mut shorted = m.clone();
    let tie = lib.id_of(CellKind::TieLo);
    shorted.add_instance("short", tie, GroupId::TOP, &[], &inst(0).outputs[..1]);

    // A combinational gate reads the output of a combinational gate it
    // feeds, closing a two-gate loop.
    let (x, y) = (0..m.instance_count())
        .filter(|&x| comb(x) && !inst(x).inputs.is_empty())
        .find_map(|x| {
            let net = inst(x).outputs[0];
            conn.sinks(net).map(|(y, _)| y.index()).find(|&y| y != x && comb(y)).map(|y| (x, y))
        })
        .expect("the generator chains combinational gates");
    let mut looped = m.clone();
    looped.inputs_mut(InstId(x as u32))[0] = inst(y).outputs[0];

    for (what, broken) in [("floating read", &floating), ("second driver", &shorted), ("loop", &looped)] {
        let overlapped = Lowering::validated(broken, &lib).expect_err(what);
        let serial = serial_lowering(broken, &lib).expect_err(what);
        assert_eq!(overlapped, serial, "{what}");
        let expected = match what {
            "floating read" => matches!(serial, NetlistError::FloatingNet { .. }),
            "second driver" => matches!(serial, NetlistError::MultipleDrivers { .. }),
            _ => matches!(serial, NetlistError::CombinationalLoop { .. }),
        };
        assert!(expected, "{what}: {serial:?}");
    }
}

#[test]
fn overlapped_joins_count_two_above_the_gate_and_none_below() {
    let _guard = LOCK.lock().unwrap();
    let lib = CellLibrary::syn40();
    let small = random_module(&lib, SEED, 20..300);
    telemetry::set_mode(telemetry::Mode::Summary);
    let joins = |m: &Module| {
        telemetry::reset();
        let lowering = Lowering::validated(m, &lib).unwrap();
        CompiledMacro::compile_with_lowering(m, &lib, &WireLoads::zero(m.net_count()), lowering);
        telemetry::snapshot().counter("ir.overlapped_joins").unwrap_or(0)
    };
    let (above, below) = (joins(gate_module(&lib)), joins(&small));
    telemetry::set_mode(telemetry::Mode::Off);
    assert_eq!(above, 2, "the lowering and the compile each overlap once");
    assert_eq!(below, 0, "a small module stays serial");
}
