//! The [`SimBackend`] abstraction: one trait over every cycle-accurate
//! simulation backend.
//!
//! Three implementations exist:
//!
//! * [`crate::Simulator`] — the interpreted, levelized reference
//!   implementation (1 lane);
//! * `syndcim_engine::BatchExec` — the compiled bit-parallel engine,
//!   generic over its lane word: `u64` (up to 64 lanes), `[u64; 4]`
//!   (up to 256) or `[u64; 8]` (up to 512);
//! * `syndcim_engine::EngineSim` — the same engine with the word
//!   selected per lane count, each pass compiled for the widest vector
//!   ISA the CPU has.
//!
//! The trait is *word-oriented*: lanes are independent simulations of
//! the same module, packed 64 per `u64` word. A backend exposes
//! [`SimBackend::words`] 64-lane words per net; the word-indexed
//! accessors ([`SimBackend::poke_word_at`] / [`SimBackend::peek_word_at`])
//! address lane `l` as bit `l % 64` of word `l / 64`. The unindexed
//! [`SimBackend::poke_word`] / [`SimBackend::peek_word`] operate on word
//! 0, which keeps every ≤64-lane caller unchanged; a 1-lane backend
//! simply uses bit 0 of word 0. Per-net toggle counts aggregate
//! transitions across all active lanes, so an L-lane backend reports the
//! same totals as L separate 1-lane runs over the same per-lane stimulus
//! — the property the power analyzer and the engine differential tests
//! rely on.

use syndcim_netlist::{InstId, Module, NetId};

/// A cycle-accurate, toggle-counting simulation backend over one module.
pub trait SimBackend {
    /// Number of active simulation lanes (≥ 1).
    fn lanes(&self) -> usize;

    /// Number of 64-lane words per net (`ceil(lanes / 64)`).
    fn words(&self) -> usize {
        self.lanes().div_ceil(64)
    }

    /// The module being simulated.
    fn module(&self) -> &Module;

    /// Drive word 0 of a net (bit `l` = value in lane `l`, lanes 0..64),
    /// counting one toggle per lane whose value changes.
    fn poke_word(&mut self, net: NetId, word: u64);

    /// Read word 0 of a net.
    fn peek_word(&self, net: NetId) -> u64;

    /// Drive 64-lane word `word_idx` of a net (lane `word_idx*64 + b` is
    /// bit `b`), counting one toggle per lane whose value changes.
    /// Backends with a single word (the default) only accept index 0.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= self.words()`.
    fn poke_word_at(&mut self, net: NetId, word_idx: usize, word: u64) {
        assert_eq!(word_idx, 0, "backend carries {} lane word(s)", self.words());
        self.poke_word(net, word);
    }

    /// Read 64-lane word `word_idx` of a net.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= self.words()`.
    fn peek_word_at(&self, net: NetId, word_idx: usize) -> u64 {
        assert_eq!(word_idx, 0, "backend carries {} lane word(s)", self.words());
        self.peek_word(net)
    }

    /// Incremental-stimulus poke: drive 64-lane word `word_idx` of a net
    /// only if it differs from the current value. Because toggle
    /// accounting is `popcount(prev ^ next)`, re-driving an unchanged
    /// word contributes nothing — skipping it is bit-identical and lets
    /// measurement drivers avoid touching quiet input ports every cycle.
    fn drive_word_at(&mut self, net: NetId, word_idx: usize, word: u64) {
        if self.peek_word_at(net, word_idx) != word {
            self.poke_word_at(net, word_idx, word);
        }
    }

    /// Settle the combinational logic (no clock edge).
    fn settle(&mut self);

    /// Advance one clock cycle in every lane.
    fn step(&mut self);

    /// Force word 0 of the stored state of a sequential instance.
    fn force_state_word(&mut self, inst: InstId, word: u64);

    /// Word 0 of the stored state of a sequential instance.
    fn state_word(&self, inst: InstId) -> u64;

    /// Force 64-lane word `word_idx` of a sequential instance's state.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= self.words()`.
    fn force_state_word_at(&mut self, inst: InstId, word_idx: usize, word: u64) {
        assert_eq!(word_idx, 0, "backend carries {} lane word(s)", self.words());
        self.force_state_word(inst, word);
    }

    /// 64-lane word `word_idx` of a sequential instance's state.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= self.words()`.
    fn state_word_at(&self, inst: InstId, word_idx: usize) -> u64 {
        assert_eq!(word_idx, 0, "backend carries {} lane word(s)", self.words());
        self.state_word(inst)
    }

    /// Total *lane-cycles* completed since the last
    /// [`SimBackend::reset_activity`]: each [`SimBackend::step`] adds
    /// [`SimBackend::lanes`]. This is the denominator matching
    /// [`SimBackend::toggle_table`] for per-cycle activity averages.
    fn lane_cycles(&self) -> u64;

    /// Zero toggle counters and the lane-cycle counter (values and state
    /// are preserved).
    fn reset_activity(&mut self);

    /// Per-net toggle counts (indexed by [`NetId::index`]), summed over
    /// all active lanes.
    fn toggle_table(&self) -> &[u64];

    // ------------------------------------------------------------------
    // Name-based convenience helpers over the word primitives.
    // ------------------------------------------------------------------

    /// Net bound to a port.
    ///
    /// # Panics
    ///
    /// Panics if no port with that name exists.
    fn net_of(&self, port: &str) -> NetId {
        self.module().port(port).unwrap_or_else(|| panic!("no port named `{port}`")).net
    }

    /// Set a port to the same value in every lane.
    fn set_all(&mut self, port: &str, value: bool) {
        let net = self.net_of(port);
        let word = if value { !0 } else { 0 };
        for wi in 0..self.words() {
            self.drive_word_at(net, wi, word);
        }
    }

    /// Set one lane of a port, leaving other lanes unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not an active lane.
    fn set_lane(&mut self, port: &str, lane: usize, value: bool) {
        assert!(lane < self.lanes(), "lane {lane} out of range (backend has {} lanes)", self.lanes());
        let net = self.net_of(port);
        let old = self.peek_word_at(net, lane / 64);
        let bit = 1u64 << (lane % 64);
        self.poke_word_at(net, lane / 64, if value { old | bit } else { old & !bit });
    }

    /// Drive a bit-blasted bus with the same two's-complement value in
    /// every lane.
    fn set_bus_all(&mut self, base: &str, width: u32, value: i64) {
        for i in 0..width {
            self.set_all(&format!("{base}[{i}]"), (value as u64 >> i) & 1 == 1);
        }
    }

    /// Drive one lane of a bit-blasted bus.
    fn set_bus_lane(&mut self, base: &str, width: u32, lane: usize, value: i64) {
        for i in 0..width {
            self.set_lane(&format!("{base}[{i}]"), lane, (value as u64 >> i) & 1 == 1);
        }
    }

    /// Read one lane of a port.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not an active lane.
    fn get_lane(&self, port: &str, lane: usize) -> bool {
        assert!(lane < self.lanes(), "lane {lane} out of range (backend has {} lanes)", self.lanes());
        (self.peek_word_at(self.net_of(port), lane / 64) >> (lane % 64)) & 1 == 1
    }

    /// Read one lane of a bit-blasted bus as an unsigned integer.
    fn get_bus_unsigned_lane(&self, base: &str, width: u32, lane: usize) -> u64 {
        (0..width).fold(0u64, |acc, i| acc | (self.get_lane(&format!("{base}[{i}]"), lane) as u64) << i)
    }

    /// Read one lane of a bit-blasted bus as a signed integer.
    fn get_bus_signed_lane(&self, base: &str, width: u32, lane: usize) -> i64 {
        let u = self.get_bus_unsigned_lane(base, width, lane);
        let sign = 1u64 << (width - 1);
        if u & sign != 0 {
            (u as i64) - (1i64 << width)
        } else {
            u as i64
        }
    }

    /// Force a sequential instance's state to the same value in every
    /// lane.
    fn force_state_all(&mut self, inst: InstId, value: bool) {
        let word = if value { !0 } else { 0 };
        for wi in 0..self.words() {
            self.force_state_word_at(inst, wi, word);
        }
    }

    /// Stored state of a sequential instance in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not an active lane.
    fn state_of_lane(&self, inst: InstId, lane: usize) -> bool {
        assert!(lane < self.lanes(), "lane {lane} out of range (backend has {} lanes)", self.lanes());
        (self.state_word_at(inst, lane / 64) >> (lane % 64)) & 1 == 1
    }

    /// Run `n` cycles.
    fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

impl SimBackend for crate::Simulator<'_> {
    fn lanes(&self) -> usize {
        1
    }

    fn module(&self) -> &Module {
        crate::Simulator::module(self)
    }

    fn net_of(&self, port: &str) -> NetId {
        self.port_net(port).unwrap_or_else(|| panic!("no port named `{port}`"))
    }

    fn poke_word(&mut self, net: NetId, word: u64) {
        self.poke(net, word & 1 == 1);
    }

    fn peek_word(&self, net: NetId) -> u64 {
        self.peek(net) as u64
    }

    fn settle(&mut self) {
        crate::Simulator::settle(self);
    }

    fn step(&mut self) {
        crate::Simulator::step(self);
    }

    fn force_state_word(&mut self, inst: InstId, word: u64) {
        self.force_state(inst, word & 1 == 1);
    }

    fn state_word(&self, inst: InstId) -> u64 {
        self.state_of(inst) as u64
    }

    fn lane_cycles(&self) -> u64 {
        self.cycles()
    }

    fn reset_activity(&mut self) {
        crate::Simulator::reset_activity(self);
    }

    fn toggle_table(&self) -> &[u64] {
        crate::Simulator::toggle_table(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::CellLibrary;

    #[test]
    fn simulator_implements_word_backend() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("fa", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let ci = b.input("cin");
        let (s, co) = b.fa(a, c, ci);
        b.output("s", s);
        b.output("co", co);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        let be: &mut dyn SimBackend = &mut sim;
        assert_eq!(be.lanes(), 1);
        be.set_all("a", true);
        be.set_all("b", true);
        be.set_lane("cin", 0, true);
        be.settle();
        assert!(be.get_lane("s", 0));
        assert!(be.get_lane("co", 0));
        let s_net = be.net_of("s");
        assert_eq!(be.peek_word(s_net) & 1, 1);
    }

    #[test]
    fn bus_helpers_roundtrip_signed() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("bus", &lib);
        let xs = b.input_bus("x", 8);
        b.output_bus("y", &xs);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        for v in [-128i64, -1, 0, 1, 127, -77] {
            SimBackend::set_bus_all(&mut sim, "x", 8, v);
            SimBackend::settle(&mut sim);
            assert_eq!(sim.get_bus_signed_lane("y", 8, 0), v);
        }
    }
}
