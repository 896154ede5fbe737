//! Host shape and environment pinning.
//!
//! Results are only comparable between runs on the same host shape, so
//! every run records the core count, the CPU model and the SIMD word
//! `SimdPolicy::Auto` resolves for a full 512-lane batch. Environment
//! knobs that change what the program does (`SYNDCIM_TRACE` turns on
//! in-program telemetry, `SYNDCIM_SIMD` pins the engine word) make a run
//! incomparable with the baseline, so the benchmark refuses them.

use syndcim_engine::SimdPolicy;

/// The host's shape on one line, printed with every result: the cores
/// `parallel_map` sizes its pool from, the CPU model and the SIMD
/// backend chosen for a 512-lane engine batch.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let simd = SimdPolicy::Auto.select(512).map_or("unavailable", |b| b.name());
    format!("nproc={nproc} cpu=\"{cpu_model}\" simd512={simd}")
}

/// Refuse environments that make the run incomparable: in-program
/// telemetry on, or a pinned SIMD backend.
///
/// # Errors
///
/// A message naming the offending variable.
pub fn check_environment() -> Result<(), String> {
    if let Ok(v) = std::env::var("SYNDCIM_TRACE") {
        if !v.trim().is_empty() && !v.trim().eq_ignore_ascii_case("off") {
            return Err(format!("SYNDCIM_TRACE={v} turns on in-program telemetry; unset it"));
        }
    }
    if syndcim_telemetry::enabled() {
        return Err("in-program telemetry is enabled; unset SYNDCIM_TRACE".to_string());
    }
    match SimdPolicy::from_env() {
        Ok(SimdPolicy::Auto) => Ok(()),
        Ok(SimdPolicy::Pin(b)) => Err(format!("SYNDCIM_SIMD pins the {b} backend; unset it")),
        Err(e) => Err(format!("SYNDCIM_SIMD is invalid: {e}")),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
