//! Per-lane fault injection plans.
//!
//! A [`FaultPlan`] names defects to inject into individual lanes of a
//! [`BatchExec`](crate::BatchExec): permanent stuck-at-0 / stuck-at-1
//! faults and single-cycle transient bit flips, each pinned to one
//! `(net, lane)` coordinate. The executor compiles an installed plan
//! into dense AND / OR / XOR lane-mask tables applied inside its write
//! path, so 64–256 *different* faulty circuits evaluate in one pass
//! while lane 0 (or any designated lane) stays fault-free as the golden
//! reference. An empty plan installs no tables at all — the nominal
//! hot path is untouched (bench-pinned within 2% by
//! `cargo bench -p syndcim-bench --bench faults`).
//!
//! Semantics (pinned by `tests/faults_variation.rs`):
//!
//! * **Stuck-at** — from installation onward, every value the executor
//!   stores to the net has the lane forced to the stuck value;
//!   installation forces the current value immediately. Toggle
//!   accounting sees the forced values, exactly as if the stuck net
//!   had been driven that way by the circuit.
//! * **Transient flip at cycle `k`** — cycles count `step()` calls
//!   since the plan was installed. During step `k` the lane's value on
//!   the net is inverted (the inversion is visible to downstream logic
//!   in both settle phases, to the sequential capture, and to peeks
//!   after the step returns); the mask is lifted at the start of step
//!   `k + 1`, after which the fault persists only through whatever
//!   state captured it.
//!
//! Validation is strict and up front: [`FaultPlan::validate`] (called
//! by `install_faults`) rejects out-of-range nets or lanes and
//! contradictory stuck-at pairs with a typed [`EngineError`] instead
//! of panicking mid-run.

use std::collections::HashMap;

use syndcim_netlist::NetId;

/// What kind of defect a [`Fault`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Lane is forced to logic 0 from installation onward.
    StuckAt0,
    /// Lane is forced to logic 1 from installation onward.
    StuckAt1,
    /// Lane is inverted for exactly one cycle (`step()` calls counted
    /// from plan installation).
    FlipAtCycle(u64),
}

/// One injected defect: a [`FaultKind`] at a `(net, lane)` coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The net carrying the defect.
    pub net: NetId,
    /// The lane (vector index) the defect is confined to.
    pub lane: usize,
    /// The defect behaviour.
    pub kind: FaultKind,
}

/// A validated-on-install collection of per-lane faults.
///
/// ```
/// use syndcim_engine::FaultPlan;
/// use syndcim_netlist::NetId;
///
/// let mut plan = FaultPlan::new();
/// plan.stuck_at(NetId(3), 1, false) // lane 1: net 3 stuck at 0
///     .stuck_at(NetId(3), 2, true)  // lane 2: net 3 stuck at 1
///     .flip_at(NetId(7), 3, 5);     // lane 3: net 7 flips in cycle 5
/// assert_eq!(plan.len(), 3);
/// assert!(plan.validate(8, 4).is_ok());
/// assert!(plan.validate(8, 2).is_err()); // lanes 2,3 out of range
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (installing it is a no-op and costs nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a stuck-at fault (`value` is the forced logic level).
    pub fn stuck_at(&mut self, net: NetId, lane: usize, value: bool) -> &mut Self {
        let kind = if value { FaultKind::StuckAt1 } else { FaultKind::StuckAt0 };
        self.faults.push(Fault { net, lane, kind });
        self
    }

    /// Add a single-cycle transient flip at `cycle` (counted in
    /// `step()` calls from plan installation).
    pub fn flip_at(&mut self, net: NetId, lane: usize, cycle: u64) -> &mut Self {
        self.faults.push(Fault { net, lane, kind: FaultKind::FlipAtCycle(cycle) });
        self
    }

    /// Add an already-constructed [`Fault`].
    pub fn push(&mut self, fault: Fault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Check the plan against an executor shape: every net must be a
    /// real net of the program (`< net_count`), every lane an active
    /// lane (`< lanes`), and no `(net, lane)` may carry *both* a
    /// stuck-at-0 and a stuck-at-1 (the contradiction has no
    /// well-defined mask order).
    pub fn validate(&self, net_count: usize, lanes: usize) -> Result<(), EngineError> {
        let mut stuck: HashMap<(u32, usize), bool> = HashMap::new();
        for f in &self.faults {
            if f.net.index() >= net_count {
                return Err(EngineError::NetOutOfRange { net: f.net.index(), net_count });
            }
            if f.lane >= lanes {
                return Err(EngineError::LaneOutOfRange { lane: f.lane, lanes });
            }
            let value = match f.kind {
                FaultKind::StuckAt0 => false,
                FaultKind::StuckAt1 => true,
                FaultKind::FlipAtCycle(_) => continue,
            };
            if let Some(&prev) = stuck.get(&(f.net.0, f.lane)) {
                if prev != value {
                    return Err(EngineError::FaultConflict { net: f.net.index(), lane: f.lane });
                }
            } else {
                stuck.insert((f.net.0, f.lane), value);
            }
        }
        Ok(())
    }
}

/// Typed errors of the batch engine's fallible entry points — fault
/// plans that do not fit the executor, lane-set misuse, and per-lane
/// queries on inactive lanes. Converted into `syndcim_core::FlowError`
/// at the flow layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// A fault names a net outside the compiled program.
    NetOutOfRange {
        /// Offending net index.
        net: usize,
        /// Nets the program actually has.
        net_count: usize,
    },
    /// A fault or query names a lane outside the active lane set.
    LaneOutOfRange {
        /// Offending lane.
        lane: usize,
        /// Active lanes of the executor.
        lanes: usize,
    },
    /// One `(net, lane)` is stuck at both 0 and 1.
    FaultConflict {
        /// Net index of the contradiction.
        net: usize,
        /// Lane of the contradiction.
        lane: usize,
    },
    /// `set_lanes` asked to grow the lane set (only shrinking keeps
    /// the toggle invariant; create a new executor to grow).
    LaneGrow {
        /// Current lane count.
        have: usize,
        /// Requested lane count.
        asked: usize,
    },
    /// `set_lanes` after `enable_lane_toggles` (per-lane storage is
    /// strided by the lane count at enable time).
    LaneTogglesPinned,
    /// `set_lanes` while a fault plan is installed (its masks were
    /// validated against the lane set) — clear the plan first.
    FaultPlanPinned,
    /// A lane set of zero lanes was requested.
    ZeroLanes,
    /// `SYNDCIM_SIMD` (or [`crate::SimdPolicy::parse`]) was given a
    /// value that names no backend.
    SimdUnknown,
    /// A pinned SIMD backend is not supported by this CPU (or this
    /// architecture) — pins fail loudly instead of silently falling
    /// back to the portable words.
    SimdUnsupported {
        /// The backend that was pinned.
        backend: crate::SimdBackend,
    },
    /// The requested lane count exceeds what the selected SIMD policy
    /// can carry in one executor.
    SimdLaneCap {
        /// The widest backend the policy allows.
        backend: crate::SimdBackend,
        /// Requested lane count.
        lanes: usize,
        /// The backend word's lane capacity.
        max: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NetOutOfRange { net, net_count } => {
                write!(f, "fault names net {net} but the program has {net_count} nets")
            }
            EngineError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range (executor has {lanes} active lanes)")
            }
            EngineError::FaultConflict { net, lane } => {
                write!(f, "net {net} lane {lane} is stuck at both 0 and 1")
            }
            EngineError::LaneGrow { have, asked } => {
                write!(
                    f,
                    "lane set can only shrink (have {have}, asked {asked}); create a new executor to grow"
                )
            }
            EngineError::LaneTogglesPinned => {
                write!(f, "cannot resize the lane set once per-lane toggle accounting is enabled")
            }
            EngineError::FaultPlanPinned => {
                write!(f, "cannot resize the lane set while a fault plan is installed")
            }
            EngineError::ZeroLanes => write!(f, "lane set cannot be empty"),
            EngineError::SimdUnknown => {
                write!(f, "unknown SYNDCIM_SIMD value (expected portable|avx2|avx512|auto)")
            }
            EngineError::SimdUnsupported { backend } => {
                write!(f, "SIMD backend `{backend}` is not supported by this CPU")
            }
            EngineError::SimdLaneCap { backend, lanes, max } => {
                write!(f, "{lanes} lanes exceed the `{backend}` backend's {max}-lane word")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_catches_out_of_range_and_conflicts() {
        let mut p = FaultPlan::new();
        p.stuck_at(NetId(2), 0, true);
        assert!(p.validate(3, 1).is_ok());
        assert_eq!(p.validate(2, 1), Err(EngineError::NetOutOfRange { net: 2, net_count: 2 }));
        assert_eq!(p.validate(3, 0), Err(EngineError::LaneOutOfRange { lane: 0, lanes: 0 }));

        p.stuck_at(NetId(2), 0, false);
        assert_eq!(p.validate(3, 1), Err(EngineError::FaultConflict { net: 2, lane: 0 }));

        // Duplicate identical stuck-ats and flips never conflict.
        let mut q = FaultPlan::new();
        q.stuck_at(NetId(0), 0, true).stuck_at(NetId(0), 0, true).flip_at(NetId(0), 0, 3);
        assert!(q.validate(1, 1).is_ok());
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::default().validate(0, 0).is_ok());
    }
}
