//! Runtime SIMD backend selection for [`EngineSim`].
//!
//! A [`SimdBackend`] is a compilation frame, not a lane word: every
//! backend runs the same portable words ([`u64`], [`crate::W256`],
//! [`crate::W512`]), and an ISA backend runs each settle and
//! capture/commit pass inside a `#[target_feature]` function, so the
//! whole pass compiles with that vector ISA enabled. [`SimdPolicy`] is
//! the user-facing knob — `Auto` (probe the CPU once per construction
//! and take the widest detected frame) or a pin, normally supplied
//! through the `SYNDCIM_SIMD` environment variable:
//!
//! ```text
//! SYNDCIM_SIMD=auto      # default: widest detected frame
//! SYNDCIM_SIMD=portable  # no frame: the build's baseline target
//! SYNDCIM_SIMD=avx2      # pin the AVX2 frame (x86-64)
//! SYNDCIM_SIMD=avx512    # pin the AVX-512 frame (x86-64)
//! ```
//!
//! Other architectures run the portable backend. Every backend carries
//! up to [`EngineSim::MAX_LANES`] lanes.
//!
//! Validation is strict and typed: an unknown value or a pinned ISA the
//! host CPU lacks is an [`EngineError`] at parse time — never a silent
//! portable fallback — so a CI matrix arm that sets `SYNDCIM_SIMD`
//! fails loudly when the runner cannot honour it. `Auto` never errors:
//! it degrades to the portable backend on any host. Lane counts of 64
//! or fewer always run the scalar `u64` word outside any frame — a
//! single register is already the cheapest data path, and pinning an
//! ISA does not change that.
//!
//! The selected backend is recorded on the
//! `engine.simd_backend` telemetry gauge (value = [`SimdBackend::code`])
//! every time an executor is constructed, so flow reports show which
//! data path actually ran.

use crate::exec::EngineSim;
use crate::fault::EngineError;

/// The compilation frames [`EngineSim`] selects among at run time for
/// its settle and capture/commit passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// No frame: the passes compile for the build's baseline target.
    /// Available everywhere.
    Portable,
    /// AVX2 frame (x86-64).
    Avx2,
    /// AVX-512 frame with `vpopcntdq` for the toggle popcounts
    /// (x86-64).
    Avx512,
}

impl SimdBackend {
    /// Stable numeric code for the `engine.simd_backend` telemetry
    /// gauge: portable 0, avx2 1, avx512 2.
    pub fn code(self) -> u64 {
        match self {
            SimdBackend::Portable => 0,
            SimdBackend::Avx2 => 1,
            SimdBackend::Avx512 => 2,
        }
    }

    /// The backend's `SYNDCIM_SIMD` spelling.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Portable => "portable",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Avx512 => "avx512",
        }
    }

    /// Whether this host's CPU can run the backend, probed with the
    /// standard library's runtime feature detection (cached by `std`,
    /// so repeated calls are cheap). The AVX-512 backend requires both
    /// `avx512f` and `avx512vpopcntdq`, the features its frame enables.
    pub fn detected(self) -> bool {
        match self {
            SimdBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

impl std::fmt::Display for SimdBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How [`EngineSim`] picks its frame: probe and take the widest
/// detected backend, or honour a pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Probe the CPU, prefer the widest ISA frame, fall back portable.
    #[default]
    Auto,
    /// Always run wide words in the pinned backend's frame.
    Pin(SimdBackend),
}

impl SimdPolicy {
    /// Environment variable consulted by [`SimdPolicy::from_env`].
    pub const ENV: &'static str = "SYNDCIM_SIMD";

    /// Parse a policy from a `SYNDCIM_SIMD`-style string
    /// (case-insensitive, surrounding whitespace ignored).
    ///
    /// # Errors
    ///
    /// [`EngineError::SimdUnknown`] for a value that names no backend;
    /// [`EngineError::SimdUnsupported`] for a backend this CPU (or this
    /// architecture) cannot run — pinning must fail loudly, not fall
    /// back.
    pub fn parse(value: &str) -> Result<Self, EngineError> {
        let policy = match value.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => SimdPolicy::Auto,
            "portable" => SimdPolicy::Pin(SimdBackend::Portable),
            "avx2" => SimdPolicy::Pin(SimdBackend::Avx2),
            "avx512" => SimdPolicy::Pin(SimdBackend::Avx512),
            _ => return Err(EngineError::SimdUnknown),
        };
        if let SimdPolicy::Pin(backend) = policy {
            if !backend.detected() {
                return Err(EngineError::SimdUnsupported { backend });
            }
        }
        Ok(policy)
    }

    /// Read the policy from the `SYNDCIM_SIMD` environment variable
    /// (unset or empty means [`SimdPolicy::Auto`]). Read afresh on
    /// every call — construction-time dispatch is already once per
    /// batch, and tests flip the variable between executors.
    ///
    /// # Errors
    ///
    /// As [`SimdPolicy::parse`].
    pub fn from_env() -> Result<Self, EngineError> {
        match std::env::var(Self::ENV) {
            Ok(v) => Self::parse(&v),
            Err(_) => Ok(SimdPolicy::Auto),
        }
    }

    /// Resolve the backend for `lanes` lanes under this policy.
    /// `Auto` takes the widest detected ISA (AVX-512, then AVX2, then
    /// portable); a pin is honoured exactly. Lane counts of 64 or fewer
    /// report [`SimdBackend::Portable`] — they run on the scalar `u64`
    /// word outside any frame regardless of policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::SimdLaneCap`] when `lanes` exceeds
    /// [`EngineSim::MAX_LANES`].
    pub fn select(self, lanes: usize) -> Result<SimdBackend, EngineError> {
        let backend = match self {
            SimdPolicy::Pin(backend) => backend,
            SimdPolicy::Auto => [SimdBackend::Avx512, SimdBackend::Avx2]
                .into_iter()
                .find(|b| b.detected())
                .unwrap_or(SimdBackend::Portable),
        };
        let max = EngineSim::MAX_LANES;
        if lanes > max {
            return Err(EngineError::SimdLaneCap { backend, lanes, max });
        }
        Ok(if lanes <= 64 { SimdBackend::Portable } else { backend })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_spelling_and_rejects_junk() {
        assert_eq!(SimdPolicy::parse("auto"), Ok(SimdPolicy::Auto));
        assert_eq!(SimdPolicy::parse(""), Ok(SimdPolicy::Auto));
        assert_eq!(SimdPolicy::parse(" Portable "), Ok(SimdPolicy::Pin(SimdBackend::Portable)));
        assert_eq!(SimdPolicy::parse("sse9"), Err(EngineError::SimdUnknown));
        assert_eq!(SimdPolicy::parse("avx-512"), Err(EngineError::SimdUnknown));
        assert_eq!(SimdPolicy::parse("neon"), Err(EngineError::SimdUnknown));
    }

    #[test]
    fn pinning_an_undetected_isa_is_a_typed_error_not_a_fallback() {
        // An ISA spelling the host lacks (avx512 on most x86-64 hosts,
        // both on other architectures) must error with the backend
        // named, never degrade to portable.
        for (spelling, backend) in [("avx2", SimdBackend::Avx2), ("avx512", SimdBackend::Avx512)] {
            match SimdPolicy::parse(spelling) {
                Ok(SimdPolicy::Pin(b)) => {
                    assert_eq!(b, backend);
                    assert!(b.detected(), "pin succeeded on undetected backend");
                }
                Ok(other) => panic!("{spelling} parsed to {other:?}"),
                Err(e) => assert_eq!(e, EngineError::SimdUnsupported { backend }),
            }
        }
    }

    #[test]
    fn narrow_batches_stay_on_the_scalar_word() {
        for policy in [SimdPolicy::Auto, SimdPolicy::Pin(SimdBackend::Portable)] {
            assert_eq!(policy.select(1), Ok(SimdBackend::Portable));
            assert_eq!(policy.select(64), Ok(SimdBackend::Portable));
        }
    }

    #[test]
    fn pinned_backend_lane_caps_are_enforced() {
        // Every frame runs the same portable words, so every pin carries
        // the 512-lane word.
        for backend in [SimdBackend::Portable, SimdBackend::Avx2, SimdBackend::Avx512] {
            let pin = SimdPolicy::Pin(backend);
            assert_eq!(pin.select(512), Ok(backend));
            assert_eq!(pin.select(513), Err(EngineError::SimdLaneCap { backend, lanes: 513, max: 512 }));
        }
        assert!(matches!(SimdPolicy::Auto.select(513), Err(EngineError::SimdLaneCap { lanes: 513, .. })));
    }

    #[test]
    fn auto_never_selects_an_undetected_backend() {
        for lanes in [65, 256, 257, 512] {
            let b = SimdPolicy::Auto.select(lanes).expect("auto never errors in range");
            assert!(b.detected());
        }
    }
}
