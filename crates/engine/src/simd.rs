//! Runtime SIMD backend selection for [`EngineSim`](crate::EngineSim).
//!
//! [`SimdBackend`] names the lane-word data paths the engine can run
//! on; [`SimdPolicy`] is the user-facing knob — `Auto` (probe the CPU
//! once per construction and take the widest supported backend for the
//! requested lane count) or a pin, normally supplied through the
//! `SYNDCIM_SIMD` environment variable:
//!
//! ```text
//! SYNDCIM_SIMD=auto      # default: widest detected backend
//! SYNDCIM_SIMD=portable  # element-wise [u64; N] words, no intrinsics
//! SYNDCIM_SIMD=avx2      # pin the AVX2 word (x86-64, ≤ 256 lanes)
//! SYNDCIM_SIMD=avx512    # pin the AVX-512 word (x86-64, ≤ 512 lanes)
//! ```
//!
//! Other architectures run the portable words.
//!
//! Validation is strict and typed: an unknown value or a pinned ISA the
//! host CPU lacks is an [`EngineError`] at parse time — never a silent
//! portable fallback — so a CI matrix arm that sets `SYNDCIM_SIMD`
//! fails loudly when the runner cannot honour it. `Auto` never errors:
//! it degrades to the portable words on any host. Lane counts of 64 or
//! fewer always use the scalar `u64` word — a single register is
//! already the cheapest data path, and pinning an ISA does not change
//! that.
//!
//! The selected backend is recorded on the
//! `engine.simd_backend` telemetry gauge (value = [`SimdBackend::code`])
//! every time an executor is constructed, so flow reports show which
//! data path actually ran.

use crate::fault::EngineError;

/// The lane-word data paths [`EngineSim`](crate::EngineSim) selects
/// among at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Element-wise `[u64; N]` words ([`u64`], [`crate::W256`],
    /// [`crate::W512`]) — no intrinsics, available everywhere.
    Portable,
    /// AVX2 `__m256i` word (x86-64, up to 256 lanes).
    Avx2,
    /// AVX-512 `__m512i` word with `vpopcntdq` toggle accounting
    /// (x86-64, up to 512 lanes).
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

    /// Widest lane count the backend's word carries.
    pub fn max_lanes(self) -> usize {
        match self {
            SimdBackend::Portable | SimdBackend::Avx512 => 512,
            SimdBackend::Avx2 => 256,
        }
    }

    /// Whether this host's CPU can run the backend, probed with the
    /// standard library's runtime feature detection (cached by `std`,
    /// so repeated calls are cheap). The AVX-512 backend requires both
    /// `avx512f` and `avx512vpopcntdq` — its toggle accounting leans on
    /// the vector popcount.
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

/// How [`EngineSim`](crate::EngineSim) picks its lane word: probe and
/// take the widest supported backend, or honour a pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Probe the CPU, prefer ISA-native words, fall back portable.
    #[default]
    Auto,
    /// Always use the pinned backend; constructing an executor whose
    /// lane count exceeds the backend's word is a typed error.
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

    /// Widest lane count one executor may carry under this policy —
    /// what batch-sizing callers (core's `chunk_lanes`) must cap at so
    /// construction cannot fail on lane count.
    pub fn max_lanes(self) -> usize {
        match self {
            SimdPolicy::Auto | SimdPolicy::Pin(SimdBackend::Portable) => 512,
            SimdPolicy::Pin(b) => b.max_lanes(),
        }
    }

    /// Resolve the backend for `lanes` lanes under this policy.
    /// `Auto` prefers the widest detected ISA word that the lane count
    /// fits (falling back portable); a pin is honoured exactly. Lane
    /// counts of 64 or fewer report [`SimdBackend::Portable`] — they
    /// run on the scalar `u64` word regardless of policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::SimdLaneCap`] when `lanes` exceeds
    /// [`SimdPolicy::max_lanes`] — a pinned backend's word is narrower
    /// than the batch, or any batch beyond 512 lanes.
    pub fn select(self, lanes: usize) -> Result<SimdBackend, EngineError> {
        if lanes <= 64 {
            return Ok(SimdBackend::Portable);
        }
        let cap_backend = match self {
            SimdPolicy::Auto => SimdBackend::Portable,
            SimdPolicy::Pin(b) => b,
        };
        if lanes > self.max_lanes() {
            return Err(EngineError::SimdLaneCap { backend: cap_backend, lanes, max: self.max_lanes() });
        }
        match self {
            SimdPolicy::Pin(backend) => Ok(backend),
            SimdPolicy::Auto => {
                let isa = if lanes <= 256 { SimdBackend::Avx2 } else { SimdBackend::Avx512 };
                Ok(if isa.detected() { isa } else { SimdBackend::Portable })
            }
        }
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
        let avx2 = SimdPolicy::Pin(SimdBackend::Avx2);
        assert_eq!(
            avx2.select(257),
            Err(EngineError::SimdLaneCap { backend: SimdBackend::Avx2, lanes: 257, max: 256 })
        );
        assert_eq!(avx2.max_lanes(), 256);
        assert_eq!(SimdPolicy::Auto.max_lanes(), 512);
        let portable = SimdPolicy::Pin(SimdBackend::Portable);
        assert_eq!(portable.select(512), Ok(SimdBackend::Portable));
        assert!(portable.select(513).is_err());
    }

    #[test]
    fn auto_never_selects_an_undetected_backend() {
        for lanes in [65, 256, 257, 512] {
            let b = SimdPolicy::Auto.select(lanes).expect("auto never errors in range");
            assert!(b.detected());
            assert!(lanes <= b.max_lanes());
        }
    }
}
