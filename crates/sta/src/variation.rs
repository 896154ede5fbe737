//! Process-variation sampling for Monte-Carlo timing.
//!
//! A [`VariationModel`] describes the lane-to-lane spread of the gate
//! delay multiplier: each Monte-Carlo sample (one engine lane, one
//! virtual die) gets its own multiplier applied on top of the
//! operating point's voltage/temperature `delay_scale`. Sampling is
//! fully deterministic — the same `(model, seed, lanes)` triple always
//! yields the same vector, and a zero-sigma model yields *exactly*
//! `1.0` for every lane, which
//! [`CompiledSta::fmax_distribution`](crate::CompiledSta::fmax_distribution)
//! turns into a run bit-identical to the nominal `fmax_many` pass
//! (pinned by `tests/faults_variation.rs`). That batch runs die-major:
//! eight dies share each pass over the timing arcs, one per lane of the
//! arrival table, and each lane computes exactly what a single-die query
//! would.
//!
//! The gaussian draw is an Irwin–Hall sum (twelve uniforms minus six):
//! mean 0, variance 1, no transcendental functions, so the sampled
//! stream is reproducible bit-for-bit on every platform the rand shim
//! runs on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Multipliers closer to zero than this are clamped: a die that slow
/// is a yield loss, not a timing model, and non-positive scales would
/// corrupt the arrival recursion.
const MIN_SCALE: f64 = 0.05;

/// A per-lane gate-delay-multiplier distribution (one sample = one
/// virtual die).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Mean multiplier (`1.0` = the nominal corner).
    pub mean: f64,
    /// Standard deviation of the multiplier (`0.0` = no variation).
    pub sigma: f64,
}

impl VariationModel {
    /// The degenerate no-variation model: every sample is exactly
    /// `1.0`, making Monte-Carlo passes bit-identical to nominal.
    pub fn nominal() -> Self {
        VariationModel { mean: 1.0, sigma: 0.0 }
    }

    /// Gaussian spread around the nominal multiplier.
    pub fn gaussian(sigma: f64) -> Self {
        VariationModel { mean: 1.0, sigma }
    }

    /// Whether sampling this model can only ever produce `1.0`.
    pub fn is_nominal(&self) -> bool {
        self.sigma == 0.0 && self.mean == 1.0
    }

    /// Draw one deterministic multiplier vector, one entry per lane.
    /// Samples are clamped to at least `0.05` (a positive scale keeps
    /// the arrival recursion well-defined). With `sigma == 0` no
    /// random draw happens at all — every entry is exactly `mean`.
    pub fn sample(&self, seed: u64, lanes: usize) -> Vec<f64> {
        if self.sigma == 0.0 {
            return vec![self.mean.max(MIN_SCALE); lanes];
        }
        let mut rng = StdRng::seed_from_u64(seed);
        (0..lanes)
            .map(|_| {
                // Irwin–Hall standard normal: Σ₁₂ U(0,1) − 6.
                let mut z = -6.0;
                for _ in 0..12 {
                    z += ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
                }
                (self.mean + self.sigma * z).max(MIN_SCALE)
            })
            .collect()
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        Self::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_model_samples_exactly_one() {
        let v = VariationModel::nominal().sample(42, 256);
        assert_eq!(v, vec![1.0; 256]);
        assert!(VariationModel::nominal().is_nominal());
        assert!(!VariationModel::gaussian(0.05).is_nominal());
    }

    #[test]
    fn sampling_is_deterministic_and_spread_tracks_sigma() {
        let m = VariationModel::gaussian(0.1);
        let a = m.sample(7, 1000);
        assert_eq!(a, m.sample(7, 1000), "same seed, same vector");
        assert_ne!(a, m.sample(8, 1000), "different seed, different vector");
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        let var = a.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / a.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.1).abs() < 0.02, "sigma {}", var.sqrt());
    }

    #[test]
    fn samples_are_clamped_positive() {
        // A huge sigma would otherwise produce non-positive scales.
        let v = VariationModel::gaussian(10.0).sample(1, 512);
        assert!(v.iter().all(|&s| s >= 0.05));
    }
}
