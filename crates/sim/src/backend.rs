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
//! address lane `l` as bit `l % 64` of word `l / 64`; a 1-lane backend
//! simply uses bit 0 of word 0. Per-net toggle counts aggregate
//! transitions across all active lanes, so an L-lane backend reports the
//! same totals as L separate 1-lane runs over the same per-lane stimulus
//! — the property the power analyzer and the engine differential tests
//! rely on.
//!
//! Ports are resolved by name once ([`SimBackend::net_of`],
//! [`SimBackend::bus`]); [`SimBackend::drive_bus`] and
//! [`SimBackend::read_bus`] then move one value per lane through them.

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

    /// Drive 64-lane word `word_idx` of a net (lane `word_idx*64 + b` is
    /// bit `b`), counting one toggle per lane whose value changes.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= self.words()`.
    fn poke_word_at(&mut self, net: NetId, word_idx: usize, word: u64);

    /// Read 64-lane word `word_idx` of a net.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= self.words()`.
    fn peek_word_at(&self, net: NetId, word_idx: usize) -> u64;

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

    /// Force 64-lane word `word_idx` of a sequential instance's state.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= self.words()`.
    fn force_state_word_at(&mut self, inst: InstId, word_idx: usize, word: u64);

    /// 64-lane word `word_idx` of a sequential instance's state.
    ///
    /// # Panics
    ///
    /// Panics if `word_idx >= self.words()`.
    fn state_word_at(&self, inst: InstId, word_idx: usize) -> u64;

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
    // Port helpers over the word primitives: resolve a name once, then
    // drive and read by net.
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

    /// Nets of the bit-blasted bus `base[0..width]`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if any bit of the bus has no port.
    fn bus(&self, base: &str, width: u32) -> Vec<NetId> {
        (0..width).map(|i| self.net_of(&format!("{base}[{i}]"))).collect()
    }

    /// Drive a resolved bus with one two's-complement value per lane
    /// (`values[l]` to lane `l`, sign-extended past 64 bits), one
    /// [`SimBackend::drive_word_at`] per bit and 64-lane word. An empty
    /// bus is a no-op.
    ///
    /// # Panics
    ///
    /// Panics unless `values` holds exactly one value per active lane.
    fn drive_bus(&mut self, bus: &[NetId], values: &[i64]) {
        assert_eq!(values.len(), self.lanes(), "drive_bus takes one value per active lane");
        for (i, &net) in bus.iter().enumerate() {
            for (wi, word_vals) in values.chunks(64).enumerate() {
                let bit = |v: i64| (v >> i.min(63)) as u64 & 1;
                let word = word_vals.iter().enumerate().fold(0u64, |w, (b, &v)| w | bit(v) << b);
                self.drive_word_at(net, wi, word);
            }
        }
    }

    /// Read a resolved bus in every active lane as a signed
    /// two's-complement integer (the last net is the sign bit).
    ///
    /// # Panics
    ///
    /// Panics unless the bus has 1..=64 bits.
    fn read_bus(&self, bus: &[NetId]) -> Vec<i64> {
        assert!((1..=64).contains(&bus.len()), "read_bus takes 1..=64 bits, got {}", bus.len());
        let mut raw = vec![0u64; self.lanes()];
        for (i, &net) in bus.iter().enumerate() {
            for (wi, word_vals) in raw.chunks_mut(64).enumerate() {
                let word = self.peek_word_at(net, wi);
                for (b, v) in word_vals.iter_mut().enumerate() {
                    *v |= (word >> b & 1) << i;
                }
            }
        }
        let pad = 64 - bus.len();
        raw.into_iter().map(|u| (u << pad) as i64 >> pad).collect()
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

    fn poke_word_at(&mut self, net: NetId, word_idx: usize, word: u64) {
        assert_eq!(word_idx, 0, "the interpreter carries one lane word");
        self.poke(net, word & 1 == 1);
    }

    fn peek_word_at(&self, net: NetId, word_idx: usize) -> u64 {
        assert_eq!(word_idx, 0, "the interpreter carries one lane word");
        self.peek(net) as u64
    }

    fn settle(&mut self) {
        crate::Simulator::settle(self);
    }

    fn step(&mut self) {
        crate::Simulator::step(self);
    }

    fn force_state_word_at(&mut self, inst: InstId, word_idx: usize, word: u64) {
        assert_eq!(word_idx, 0, "the interpreter carries one lane word");
        self.force_state(inst, word & 1 == 1);
    }

    fn state_word_at(&self, inst: InstId, word_idx: usize) -> u64 {
        assert_eq!(word_idx, 0, "the interpreter carries one lane word");
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
        let cin = [be.net_of("cin")];
        be.drive_bus(&cin, &[1]);
        be.settle();
        // {s, co} read as a 2-bit bus: 1 + 1 + 1 = 0b11, signed −1.
        let sum = [be.net_of("s"), be.net_of("co")];
        assert_eq!(be.read_bus(&sum), vec![-1]);
        assert_eq!(be.peek_word_at(sum[0], 0) & 1, 1);
    }

    #[test]
    fn bus_helpers_roundtrip_signed() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("bus", &lib);
        let xs = b.input_bus("x", 8);
        b.output_bus("y", &xs);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        let (x, y) = (sim.bus("x", 8), sim.bus("y", 8));
        for v in [-128i64, -1, 0, 1, 127, -77] {
            sim.drive_bus(&x, &[v]);
            SimBackend::settle(&mut sim);
            assert_eq!(sim.read_bus(&y), vec![v]);
        }
        // Bits above the bus width are dropped on drive; the top resolved
        // bit sign-extends on read.
        sim.drive_bus(&x, &[0x1F0]);
        SimBackend::settle(&mut sim);
        assert_eq!(sim.read_bus(&y), vec![-16]);
        assert_eq!(sim.read_bus(&y[..4]), vec![0]);
        // An empty bus drives nothing.
        sim.drive_bus(&[], &[7]);
        assert_eq!(sim.read_bus(&x), vec![-16]);
    }

    #[test]
    #[should_panic(expected = "one value per active lane")]
    fn drive_bus_takes_one_value_per_lane() {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("bus", &lib);
        let xs = b.input_bus("x", 2);
        b.output_bus("y", &xs);
        let m = b.finish();
        let mut sim = Simulator::new(&m, &lib).unwrap();
        let x = sim.bus("x", 2);
        sim.drive_bus(&x, &[1, 2]);
    }
}
