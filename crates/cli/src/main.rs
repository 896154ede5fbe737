//! `syndcim` — compile DCIM macros to `.scim` artifacts and answer
//! timing/power queries from them.
//!
//! The compile-once/serve-many entry point of the workspace:
//!
//! ```text
//! syndcim compile --out chip.scim            # spec → netlist → .scim
//! syndcim info chip.scim                     # header/section/size dump
//! syndcim verify chip.scim                   # checksums + decode + recompile diff
//! syndcim query fmax chip.scim --vdd 0.9     # answered from the artifact alone
//! syndcim query power chip.scim --freq 800   #     "        "        "
//! ```
//!
//! `compile` is deterministic (no timestamps, zero-wire annotation, the
//! default design choice), so `verify` can recompile the same spec and
//! compare the artifact byte-for-byte. The query commands never touch a
//! netlist: they load the compiled programs and evaluate — on the paper
//! test chip a query answers in milliseconds where a fresh compile pays
//! the full lowering + trinity cost.

use std::process::ExitCode;

use syndcim_core::{assemble, CompiledMacro, DesignChoice, MacroSpec};
use syndcim_ir::artifact::ArtifactReader;
use syndcim_pdk::{CellLibrary, OperatingPoint};
use syndcim_sta::WireLoads;

fn usage() -> &'static str {
    "syndcim — SynDCIM artifact tool\n\
     \n\
     USAGE:\n\
       syndcim compile --out <file.scim> [spec flags]\n\
       syndcim info <file.scim>\n\
       syndcim verify <file.scim> [spec flags]\n\
       syndcim query fmax <file.scim> [--vdd <V>] [--temp <C>]\n\
       syndcim query power <file.scim> [--vdd <V>] [--temp <C>] [--freq <MHz>] [--alpha <a>]\n\
     \n\
     SPEC FLAGS (default: the 64×64 paper test chip):\n\
       --h <rows> --w <cols> --mcr <n> --fmac <MHz> --vdd <V>\n"
}

/// Parsed `--key value` flags after the positional arguments.
struct Flags {
    h: Option<usize>,
    w: Option<usize>,
    mcr: Option<usize>,
    fmac: Option<f64>,
    vdd: Option<f64>,
    temp: Option<f64>,
    freq: Option<f64>,
    alpha: Option<f64>,
    out: Option<String>,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("flag `{flag}`: cannot parse `{value}`"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        h: None,
        w: None,
        mcr: None,
        fmac: None,
        vdd: None,
        temp: None,
        freq: None,
        alpha: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--h" => f.h = Some(parse_value(flag, value)?),
            "--w" => f.w = Some(parse_value(flag, value)?),
            "--mcr" => f.mcr = Some(parse_value(flag, value)?),
            "--fmac" => f.fmac = Some(parse_value(flag, value)?),
            "--vdd" => f.vdd = Some(parse_value(flag, value)?),
            "--temp" => f.temp = Some(parse_value(flag, value)?),
            "--freq" => f.freq = Some(parse_value(flag, value)?),
            "--alpha" => f.alpha = Some(parse_value(flag, value)?),
            "--out" => f.out = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(f)
}

impl Flags {
    /// The macro spec these flags describe (paper test chip defaults).
    fn spec(&self) -> MacroSpec {
        let mut spec = MacroSpec::paper_test_chip();
        if let Some(h) = self.h {
            spec.h = h;
        }
        if let Some(w) = self.w {
            spec.w = w;
        }
        if let Some(mcr) = self.mcr {
            spec.mcr = mcr;
        }
        if let Some(f) = self.fmac {
            spec.f_mac_mhz = f;
            spec.f_wu_mhz = f;
        }
        if let Some(v) = self.vdd {
            spec.vdd_v = v;
        }
        spec
    }

    /// The operating point for query commands (defaults to the spec
    /// voltage at 25 °C).
    fn op(&self, default_vdd: f64) -> OperatingPoint {
        let mut op = OperatingPoint::at_voltage(self.vdd.unwrap_or(default_vdd));
        if let Some(t) = self.temp {
            op.temp_c = t;
        }
        op
    }
}

/// Deterministic spec → compiled bundle (the byte source of both
/// `compile` and `verify`'s reference). An invalid spec is a command
/// error, never a generator panic.
fn compile_spec(spec: &MacroSpec) -> Result<CompiledMacro, String> {
    spec.validate().map_err(|e| format!("invalid spec: {e}"))?;
    let lib = CellLibrary::syn40();
    let mac = assemble(&lib, spec, &DesignChoice::default());
    CompiledMacro::compile(&mac.module, &lib, &WireLoads::zero(mac.module.net_count()))
        .map_err(|e| format!("netlist failed to compile: {e}"))
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let out = flags.out.clone().ok_or("compile needs --out <file.scim>")?;
    let spec = flags.spec();
    let cm = compile_spec(&spec)?;
    let bytes = cm.save_to_vec().map_err(|e| e.to_string())?;
    std::fs::write(&out, &bytes).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!(
        "compiled {}x{} mcr {} ({} nets, {} instances) -> {out} ({} bytes)",
        spec.h,
        spec.w,
        spec.mcr,
        cm.lowering.net_count(),
        cm.lowering.symbols().inst_count(),
        bytes.len()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("info needs a <file.scim> argument")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let reader = ArtifactReader::parse(&bytes).map_err(|e| e.to_string())?;
    let meta = syndcim_core::artifact::read_meta(&reader).map_err(|e| e.to_string())?;
    println!("{path}: {} v{} ({} bytes)", meta.format, syndcim_ir::artifact::FORMAT_VERSION, bytes.len());
    println!("  producer:  {}", meta.producer);
    println!("  nets:      {}", meta.net_count);
    println!("  instances: {}", meta.inst_count);
    println!("  sections:");
    for e in reader.entries() {
        println!("    {:<8} {:>12} bytes  crc32 {:#010x}", e.id.name(), e.len, e.stored_crc);
    }
    let cm = CompiledMacro::load_from_bytes(&bytes).map_err(|e| e.to_string())?;
    println!("  retained:  {} bytes in memory after load", syndcim_core::artifact::retained_bytes(&cm));
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("verify needs a <file.scim> argument")?;
    let flags = parse_flags(&args[1..])?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;

    let reader = ArtifactReader::parse(&bytes).map_err(|e| format!("framing: {e}"))?;
    let checked = reader.verify_checksums().map_err(|e| format!("checksum: {e}"))?;
    println!("{path}: {checked} section checksums ok");

    let cm = CompiledMacro::load_from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
    println!("{path}: full decode ok ({} nets)", cm.lowering.net_count());

    let spec = flags.spec();
    let fresh = compile_spec(&spec)?;
    let fresh_bytes = fresh.save_to_vec().map_err(|e| e.to_string())?;
    if fresh_bytes != bytes {
        return Err(format!(
            "content differs from a fresh compile of the {}x{} mcr {} spec \
             (artifact {} bytes, fresh {} bytes) — wrong spec flags, or a stale artifact",
            spec.h,
            spec.w,
            spec.mcr,
            bytes.len(),
            fresh_bytes.len()
        ));
    }
    println!("{path}: byte-identical to a fresh compile of the {}x{} mcr {} spec", spec.h, spec.w, spec.mcr);
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let what = args.first().ok_or("query needs a subcommand: fmax | power")?;
    let path = args.get(1).ok_or("query needs a <file.scim> argument")?;
    let flags = parse_flags(&args[2..])?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let cm = CompiledMacro::load_from_bytes(&bytes).map_err(|e| e.to_string())?;
    let op = flags.op(0.9);
    match what.as_str() {
        "fmax" => {
            let fmax = cm.sta.fmax_mhz(op);
            println!("fmax @ {:.3} V / {:.1} C: {fmax:.3} MHz", op.vdd_v, op.temp_c);
        }
        "power" => {
            let freq = flags.freq.unwrap_or(800.0);
            let alpha = flags.alpha.unwrap_or(0.2);
            let report = cm.power.report_static(alpha, freq, op);
            println!(
                "power @ {:.3} V / {:.1} C, {freq:.1} MHz, alpha {alpha:.2}: {:.3} uW total",
                op.vdd_v,
                op.temp_c,
                report.total_uw()
            );
            println!("  dynamic: {:.3} uW", report.dynamic_uw);
            println!("  clock:   {:.3} uW", report.clock_uw);
            println!("  leakage: {:.3} uW", report.leakage_uw);
            for (group, pj) in &report.by_group_pj {
                println!("  group {group}: {pj:.4} pJ/cycle");
            }
        }
        other => return Err(format!("unknown query `{other}` (expected fmax | power)")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "compile" => cmd_compile(rest),
        "info" => cmd_info(rest),
        "verify" => cmd_verify(rest),
        "query" => cmd_query(rest),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("syndcim: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_core::SpecError;

    /// Spec flags the generators cannot build (or `implement` rejects)
    /// fail validation as a command error before anything is assembled.
    #[test]
    fn bad_spec_flags_are_command_errors_not_panics() {
        for (flag, value, want) in [
            ("--mcr", "3", SpecError::BadMcr),
            ("--h", "0", SpecError::BadDimensions),
            ("--h", "3", SpecError::BadDimensions),
            ("--w", "2", SpecError::BadDimensions),
        ] {
            let spec = parse_flags(&[flag.to_string(), value.to_string()]).unwrap().spec();
            assert_eq!(spec.validate(), Err(want.clone()), "{flag} {value}");
            let err = compile_spec(&spec).unwrap_err();
            assert_eq!(err, format!("invalid spec: {want}"), "{flag} {value}");
        }
    }
}
