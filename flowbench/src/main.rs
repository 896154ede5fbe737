//! `flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints `#`-prefixed notes (host shape, sample counts, failures), then
//! one JSON result line. `--quick` runs small specs; without
//! `--workload` it runs every workload, untraced and traced.

use std::process::ExitCode;

use flowbench::{committed_design_digest, host, run, Config, Workload, DEFAULT_SEED};

fn parse(args: &[String]) -> Result<(Option<Workload>, Config), String> {
    let mut cfg = Config {
        workload: Workload::ScaleImplement,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        quick: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            cfg.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if workload.is_none() && !cfg.quick {
        return Err("--workload is required (scale_implement, paper_flow, paper_signoff)".to_string());
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::check_environment() {
        eprintln!("flowbench: refusing to run: {e}");
        return ExitCode::from(2);
    }
    println!("# host {}", host::describe());

    // Quick mode without a workload: every workload, both modes.
    let runs: Vec<Config> = match workload {
        Some(w) => vec![Config { workload: w, ..cfg }],
        None => Workload::ALL
            .into_iter()
            .flat_map(|w| {
                [false, true].map(|trace| Config { workload: w, trace, seconds: 0.0, ..cfg.clone() })
            })
            .collect(),
    };
    let mut failed = false;
    for cfg in &runs {
        println!(
            "# workload {} seed {} trace {} quick {}",
            cfg.workload.name(),
            cfg.seed,
            cfg.trace as u8,
            cfg.quick
        );
        match run(cfg, committed_design_digest(cfg.workload, cfg.quick)) {
            Ok(report) => {
                for note in &report.notes {
                    println!("# {note}");
                }
                failed |= report.failed > 0;
                println!("{}", report.to_json());
            }
            Err(e) => {
                eprintln!("flowbench: {} failed: {e}", cfg.workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if failed && runs.len() > 1 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
