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
//!
//! Reports go to stdout through one locked handle. A reader that closes
//! the pipe early (`syndcim info chip.scim | head -1`) ends the command
//! with status 0; any other failed write exits 1 with a message.

use std::io::{self, Write};
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

/// Why a command stopped early.
#[derive(Debug)]
enum CmdError {
    /// A user-facing error, printed to stderr.
    Msg(String),
    /// Writing the report to stdout failed.
    Write(io::Error),
}

impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::Msg(msg)
    }
}

impl From<&str> for CmdError {
    fn from(msg: &str) -> Self {
        CmdError::Msg(msg.to_string())
    }
}

impl From<io::Error> for CmdError {
    fn from(e: io::Error) -> Self {
        CmdError::Write(e)
    }
}

type CmdResult = Result<(), CmdError>;

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

/// The spec flags `compile` and `verify` read.
const SPEC_FLAGS: [&str; 5] = ["--h", "--w", "--mcr", "--fmac", "--vdd"];

/// Parse the flags of subcommand `cmd`, which reads only the flags in
/// `reads`; any other flag, or a stray argument, is an error naming it
/// and `cmd`.
fn parse_flags(cmd: &str, args: &[String], reads: &[&str]) -> Result<Flags, String> {
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
        if !reads.contains(&flag.as_str()) {
            return Err(format!("`{cmd}` does not read `{flag}`"));
        }
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
    fn op(&self, default_vdd: f64) -> Result<OperatingPoint, String> {
        let vdd = checked("--vdd", self.vdd.unwrap_or(default_vdd), |v| v > 0.0, "finite and positive")?;
        let mut op = OperatingPoint::at_voltage(vdd);
        if let Some(t) = self.temp {
            op.temp_c = checked("--temp", t, |_| true, "finite")?;
        }
        Ok(op)
    }
}

/// `value` of the query flag `flag`, or an error naming the flag unless
/// the value is finite and `ok`.
fn checked(flag: &str, value: f64, ok: fn(f64) -> bool, want: &str) -> Result<f64, String> {
    if value.is_finite() && ok(value) {
        Ok(value)
    } else {
        Err(format!("flag `{flag}` must be {want}, got `{value}`"))
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

fn cmd_compile(args: &[String], out: &mut impl Write) -> CmdResult {
    let flags = parse_flags("compile", args, &[&SPEC_FLAGS[..], &["--out"]].concat())?;
    let path = flags.out.clone().ok_or("compile needs --out <file.scim>")?;
    let spec = flags.spec();
    let cm = compile_spec(&spec)?;
    let bytes = cm.save_to_vec().map_err(|e| e.to_string())?;
    std::fs::write(&path, &bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    writeln!(
        out,
        "compiled {}x{} mcr {} ({} nets, {} instances) -> {path} ({} bytes)",
        spec.h,
        spec.w,
        spec.mcr,
        cm.lowering.net_count(),
        cm.lowering.symbols().inst_count(),
        bytes.len()
    )?;
    Ok(())
}

fn cmd_info(args: &[String], out: &mut impl Write) -> CmdResult {
    let path = args.first().ok_or("info needs a <file.scim> argument")?;
    parse_flags("info", &args[1..], &[])?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let reader = ArtifactReader::parse(&bytes).map_err(|e| e.to_string())?;
    let meta = syndcim_core::artifact::read_meta(&reader).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{path}: {} v{} ({} bytes)",
        meta.format,
        syndcim_ir::artifact::FORMAT_VERSION,
        bytes.len()
    )?;
    writeln!(out, "  producer:  {}", meta.producer)?;
    writeln!(out, "  nets:      {}", meta.net_count)?;
    writeln!(out, "  instances: {}", meta.inst_count)?;
    writeln!(out, "  sections:")?;
    for e in reader.entries() {
        writeln!(out, "    {:<8} {:>12} bytes  crc32 {:#010x}", e.id.name(), e.len, e.stored_crc)?;
    }
    let cm = CompiledMacro::load_from_bytes(&bytes).map_err(|e| e.to_string())?;
    writeln!(out, "  retained:  {} bytes in memory after load", syndcim_core::artifact::retained_bytes(&cm))?;
    Ok(())
}

fn cmd_verify(args: &[String], out: &mut impl Write) -> CmdResult {
    let path = args.first().ok_or("verify needs a <file.scim> argument")?;
    let flags = parse_flags("verify", &args[1..], &SPEC_FLAGS)?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;

    let reader = ArtifactReader::parse(&bytes).map_err(|e| format!("framing: {e}"))?;
    let checked = reader.verify_checksums().map_err(|e| format!("checksum: {e}"))?;
    writeln!(out, "{path}: {checked} section checksums ok")?;

    let cm = CompiledMacro::load_from_bytes(&bytes).map_err(|e| format!("decode: {e}"))?;
    writeln!(out, "{path}: full decode ok ({} nets)", cm.lowering.net_count())?;

    let spec = flags.spec();
    let fresh = compile_spec(&spec)?;
    let fresh_bytes = fresh.save_to_vec().map_err(|e| e.to_string())?;
    if fresh_bytes != bytes {
        return Err(CmdError::Msg(format!(
            "content differs from a fresh compile of the {}x{} mcr {} spec \
             (artifact {} bytes, fresh {} bytes) — wrong spec flags, or a stale artifact",
            spec.h,
            spec.w,
            spec.mcr,
            bytes.len(),
            fresh_bytes.len()
        )));
    }
    let (h, w, mcr) = (spec.h, spec.w, spec.mcr);
    writeln!(out, "{path}: byte-identical to a fresh compile of the {h}x{w} mcr {mcr} spec")?;
    Ok(())
}

fn cmd_query(args: &[String], out: &mut impl Write) -> CmdResult {
    let what = args.first().ok_or("query needs a subcommand: fmax | power")?;
    let power = match what.as_str() {
        "fmax" => false,
        "power" => true,
        other => return Err(format!("unknown query `{other}` (expected fmax | power)").into()),
    };
    let path = args.get(1).ok_or("query needs a <file.scim> argument")?;
    let reads: &[&str] = if power { &["--vdd", "--temp", "--freq", "--alpha"] } else { &["--vdd", "--temp"] };
    let flags = parse_flags(&format!("query {what}"), &args[2..], reads)?;
    let op = flags.op(0.9)?;
    let freq = checked("--freq", flags.freq.unwrap_or(800.0), |f| f > 0.0, "finite and positive")?;
    let alpha = checked("--alpha", flags.alpha.unwrap_or(0.2), |a| a >= 0.0, "finite and non-negative")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let cm = CompiledMacro::load_from_bytes(&bytes).map_err(|e| e.to_string())?;
    if power {
        let report = cm.power.report_static(alpha, freq, op);
        writeln!(
            out,
            "power @ {:.3} V / {:.1} C, {freq:.1} MHz, alpha {alpha:.2}: {:.3} uW total",
            op.vdd_v,
            op.temp_c,
            report.total_uw()
        )?;
        writeln!(out, "  dynamic: {:.3} uW", report.dynamic_uw)?;
        writeln!(out, "  clock:   {:.3} uW", report.clock_uw)?;
        writeln!(out, "  leakage: {:.3} uW", report.leakage_uw)?;
        for (group, pj) in &report.by_group_pj {
            writeln!(out, "  group {group}: {pj:.4} pJ/cycle")?;
        }
    } else {
        let fmax = cm.sta.fmax_mhz(op);
        writeln!(out, "fmax @ {:.3} V / {:.1} C: {fmax:.3} MHz", op.vdd_v, op.temp_c)?;
    }
    Ok(())
}

/// Run one command line, writing its report to `out`, and return the
/// exit status.
fn run(args: &[String], out: &mut impl Write) -> u8 {
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        return 1;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "compile" => cmd_compile(rest, out),
        "info" => cmd_info(rest, out),
        "verify" => cmd_verify(rest, out),
        "query" => cmd_query(rest, out),
        "help" | "--help" | "-h" => write!(out, "{}", usage()).map_err(CmdError::from),
        other => Err(format!("unknown command `{other}`\n\n{}", usage()).into()),
    };
    match result.and_then(|()| out.flush().map_err(CmdError::from)) {
        Ok(()) => 0,
        Err(CmdError::Write(e)) if e.kind() == io::ErrorKind::BrokenPipe => 0,
        Err(CmdError::Write(e)) => {
            eprintln!("syndcim: cannot write to stdout: {e}");
            1
        }
        Err(CmdError::Msg(msg)) => {
            eprintln!("syndcim: {msg}");
            1
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args, &mut io::stdout().lock()))
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
            ("--vdd", "nan", SpecError::BadSupply),
            ("--fmac", "0", SpecError::BadFrequency),
        ] {
            let spec =
                parse_flags("compile", &[flag.to_string(), value.to_string()], &SPEC_FLAGS).unwrap().spec();
            assert_eq!(spec.validate(), Err(want.clone()), "{flag} {value}");
            let err = compile_spec(&spec).unwrap_err();
            assert_eq!(err, format!("invalid spec: {want}"), "{flag} {value}");
        }
    }

    /// The message `query` stops with on `line`, which names no file on
    /// disk: the flag checks run before the artifact is read.
    fn query_error(line: &str) -> String {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        match cmd_query(&args, &mut Vec::new()) {
            Err(CmdError::Msg(msg)) => msg,
            other => panic!("{line}: {other:?}"),
        }
    }

    /// For each query in `reads`, each bad value is rejected with a
    /// message naming `flag`, and each good value passes the checks (and
    /// fails on the missing file instead); the other query rejects the
    /// flag whatever its value, because it does not read it.
    fn assert_query_flag(flag: &str, reads: &[&str], bad: &[&str], good: &[&str]) {
        for what in ["fmax", "power"] {
            for (values, want) in
                [(bad, format!("flag `{flag}` must be")), (good, "cannot read `missing.scim`".into())]
            {
                let want = if reads.contains(&what) {
                    want
                } else {
                    format!("`query {what}` does not read `{flag}`")
                };
                for v in values {
                    let msg = query_error(&format!("{what} missing.scim {flag} {v}"));
                    assert!(msg.starts_with(&want), "{what} {flag} {v}: {msg}");
                }
            }
        }
    }

    #[test]
    fn query_rejects_a_non_finite_or_non_positive_vdd() {
        assert_query_flag("--vdd", &["fmax", "power"], &["nan", "inf", "0", "-1"], &["0.9", "0.05"]);
    }

    #[test]
    fn query_rejects_a_non_finite_temperature() {
        assert_query_flag("--temp", &["fmax", "power"], &["nan", "-inf"], &["-40", "125"]);
    }

    #[test]
    fn query_rejects_a_non_finite_or_non_positive_frequency() {
        assert_query_flag("--freq", &["power"], &["nan", "inf", "0", "-5"], &["800", "0.5"]);
    }

    #[test]
    fn query_rejects_a_non_finite_or_negative_activity() {
        assert_query_flag("--alpha", &["power"], &["nan", "inf", "-0.1"], &["0", "0.2", "1"]);
    }

    /// A flag the subcommand does not read exits 1 with a message naming
    /// the flag and the subcommand, before any file is read or written.
    #[test]
    fn a_subcommand_rejects_a_flag_it_does_not_read() {
        let args = |line: &str| line.split_whitespace().map(String::from).collect::<Vec<_>>();
        for (line, cmd, flag) in [
            ("query fmax x.scim --mcr 3", "query fmax", "--mcr"),
            ("compile --out x.scim --alpha 0.2", "compile", "--alpha"),
            ("info x.scim --h 4", "info", "--h"),
            ("verify x.scim --out y.scim", "verify", "--out"),
            ("query power x.scim --w 8", "query power", "--w"),
        ] {
            let (name, rest) = line.split_once(' ').unwrap();
            let result = match name {
                "query" => cmd_query(&args(rest), &mut Vec::new()),
                "compile" => cmd_compile(&args(rest), &mut Vec::new()),
                "info" => cmd_info(&args(rest), &mut Vec::new()),
                _ => cmd_verify(&args(rest), &mut Vec::new()),
            };
            match result {
                Err(CmdError::Msg(msg)) => {
                    assert_eq!(msg, format!("`{cmd}` does not read `{flag}`"), "{line}")
                }
                other => panic!("{line}: {other:?}"),
            }
            assert_eq!(run(&args(line), &mut Vec::new()), 1, "{line}");
        }
        assert!(!std::path::Path::new("x.scim").exists(), "a rejected compile writes nothing");
    }

    /// A writer whose every write fails with `kind`.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(self.0.into())
        }
    }

    /// A reader that closed the pipe ends the command cleanly; any other
    /// write failure is an error, and so is a bad command.
    #[test]
    fn a_closed_pipe_is_a_clean_exit_and_other_write_errors_fail() {
        let args = |line: &str| line.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(run(&args("help"), &mut Failing(io::ErrorKind::BrokenPipe)), 0);
        assert_eq!(run(&args("help"), &mut Failing(io::ErrorKind::WriteZero)), 1);
        assert_eq!(run(&args("bogus"), &mut Failing(io::ErrorKind::BrokenPipe)), 1);
        let mut out = Vec::new();
        assert_eq!(run(&args("help"), &mut out), 0);
        assert_eq!(out, usage().as_bytes());
    }
}
