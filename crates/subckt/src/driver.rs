//! WL/BL driver generators.
//!
//! "The WL driver feeds input data and SRAM write/read signals into the
//! DCIM array, while the BL driver writes weights into the SRAM array.
//! The power and size of the WL/BL driver depend on the array
//! dimensions" (§II-B). Drivers are fanout-sized buffer chains: larger
//! arrays get deeper/stronger chains, which is exactly the
//! dimension-dependent cost the paper describes.

use syndcim_netlist::{NetId, NetlistBuilder};
use syndcim_pdk::CellKind;

/// Which line a driver chain feeds (controls the group it is placed in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverRole {
    /// Activation word lines (one per row) — group `wl_drivers`.
    WordLine,
    /// Write word lines (one per bank×row) — group `wl_drivers`.
    WriteWordLine,
    /// Write bit lines (one per column) — group `bl_drivers`.
    BitLine,
}

impl DriverRole {
    fn group(&self) -> &'static str {
        match self {
            DriverRole::WordLine | DriverRole::WriteWordLine => "wl_drivers",
            DriverRole::BitLine => "bl_drivers",
        }
    }
}

/// Buffer-chain stages chosen for a given fanout (receiver pin count).
pub fn chain_for_fanout(fanout: usize) -> Vec<CellKind> {
    match fanout {
        0..=4 => vec![CellKind::Buf],
        5..=16 => vec![CellKind::Buf, CellKind::BufX4],
        17..=96 => vec![CellKind::Buf, CellKind::BufX4, CellKind::BufX16],
        _ => vec![CellKind::Buf, CellKind::BufX4, CellKind::BufX16, CellKind::BufX16],
    }
}

/// Drive each net of `lines` through a fanout-sized buffer chain;
/// returns the driven nets in order.
pub fn build_drivers(
    b: &mut NetlistBuilder<'_>,
    role: DriverRole,
    lines: &[NetId],
    fanout: usize,
) -> Vec<NetId> {
    b.push_group(role.group());
    let chain = chain_for_fanout(fanout);
    let out = lines
        .iter()
        .map(|&n| {
            let mut cur = n;
            for &stage in &chain {
                cur = b.add(stage, &[cur])[0];
            }
            cur
        })
        .collect();
    b.pop_group();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_netlist::NetlistStats;
    use syndcim_pdk::CellLibrary;
    use syndcim_sim::Simulator;
    use syndcim_sta::Sta;

    #[test]
    fn chains_deepen_with_fanout() {
        assert_eq!(chain_for_fanout(2).len(), 1);
        assert_eq!(chain_for_fanout(10).len(), 2);
        assert_eq!(chain_for_fanout(64).len(), 3);
        assert_eq!(chain_for_fanout(300).len(), 4);
    }

    #[test]
    fn drivers_are_transparent_buffers() {
        let lib = CellLibrary::syn40();
        let mut b = syndcim_netlist::NetlistBuilder::new("d", &lib);
        let ins = b.input_bus("in", 3);
        let outs = build_drivers(&mut b, DriverRole::WordLine, &ins, 64);
        b.output_bus("out", &outs);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for v in [0b000i64, 0b101, 0b111] {
            sim.set_bus("in", 3, v);
            sim.settle();
            assert_eq!(sim.get_bus_unsigned("out", 3) as i64, v);
        }
        let stats = NetlistStats::of(&m, &lib);
        assert_eq!(stats.instances, 9); // 3 lines × 3 stages
    }

    #[test]
    fn sized_driver_beats_unit_buffer_under_load() {
        // Driving 64 NOR loads: the sized chain must be faster than a
        // single unit buffer.
        let lib = CellLibrary::syn40();
        let build = |sized: bool| {
            let mut b = syndcim_netlist::NetlistBuilder::new("d", &lib);
            let a = b.input("a");
            let driven =
                if sized { build_drivers(&mut b, DriverRole::WordLine, &[a], 64)[0] } else { b.buf(a) };
            let mut last = driven;
            for _ in 0..64 {
                last = b.add(CellKind::MultNor, &[driven, last])[0];
            }
            b.output("y", last);
            b.finish()
        };
        let slow = build(false);
        let fast = build(true);
        let d_slow = Sta::new(&slow, &lib).unwrap().analyze(1e6).max_delay_ps;
        let d_fast = Sta::new(&fast, &lib).unwrap().analyze(1e6).max_delay_ps;
        assert!(d_fast < d_slow, "sized {d_fast} vs unit {d_slow}");
    }

    #[test]
    fn groups_follow_roles() {
        let lib = CellLibrary::syn40();
        let mut b = syndcim_netlist::NetlistBuilder::new("d", &lib);
        let a = b.input("a");
        let w = b.input("w");
        build_drivers(&mut b, DriverRole::WordLine, &[a], 8);
        build_drivers(&mut b, DriverRole::BitLine, &[w], 8);
        let m = b.finish();
        let names: Vec<&str> = m.instances().map(|i| m.group_name(i.group)).collect();
        assert!(names.contains(&"wl_drivers"));
        assert!(names.contains(&"bl_drivers"));
    }
}
