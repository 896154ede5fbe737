//! Output digests and exact-equality checks.
//!
//! A digest folds every bit of an op's output (placement coordinates,
//! the sign-off timing report, QoR numbers) into one `u64`, so each op
//! can be compared with the run's first op and with the committed
//! expectation without keeping whole macros alive.

use syndcim_layout::{Placement, Rect};
use syndcim_sta::TimingReport;

/// FNV-1a style fold over 64-bit words (strings byte by byte).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fold one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
        self
    }

    /// Fold the exact bits of a float.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold a string (length-prefixed, so concatenations differ).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        for &b in s.as_bytes() {
            self.u64(u64::from(b));
        }
        self
    }

    /// Fold a rectangle.
    pub fn rect(&mut self, r: &Rect) -> &mut Self {
        self.f64(r.x_um).f64(r.y_um).f64(r.w_um).f64(r.h_um)
    }

    /// Fold every coordinate of a placement.
    pub fn placement(&mut self, p: &Placement) -> &mut Self {
        self.rect(&p.die).f64(p.utilization).u64(p.cells.len() as u64);
        for c in &p.cells {
            self.u64(c.inst.index() as u64).rect(&c.rect);
        }
        for r in &p.regions {
            self.str(&r.name).rect(&r.rect);
        }
        self
    }

    /// Fold a timing report: every arrival, the summary numbers and the
    /// critical path.
    pub fn timing(&mut self, t: &TimingReport) -> &mut Self {
        self.f64(t.period_ps).f64(t.max_delay_ps).f64(t.wns_ps).f64(t.fmax_mhz);
        self.u64(t.arrival_ps.len() as u64);
        for &a in &t.arrival_ps {
            self.f64(a);
        }
        for s in &t.critical_path {
            self.str(&s.through).str(&s.group).str(&s.net).f64(s.arrival_ps);
        }
        self
    }

    /// The folded value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Bit-exact equality of two timing reports.
pub fn timing_identical(a: &TimingReport, b: &TimingReport) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.period_ps.to_bits() == b.period_ps.to_bits()
        && a.max_delay_ps.to_bits() == b.max_delay_ps.to_bits()
        && a.wns_ps.to_bits() == b.wns_ps.to_bits()
        && a.fmax_mhz.to_bits() == b.fmax_mhz.to_bits()
        && bits(&a.arrival_ps) == bits(&b.arrival_ps)
        && a.critical_path == b.critical_path
}
