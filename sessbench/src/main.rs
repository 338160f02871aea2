//! `sessbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans-out <file>] [--smoke] [--tamper]`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when any session returned an unexpected verdict
//! and 2 on a usage or set-up error (printing no result).
//!
//! `--spans-out` writes each traced session's spans as JSON lines;
//! `--smoke` runs the small self-test sizes; `--tamper` makes every
//! expected verdict wrong, to show that the gate fails.

use sessbench::{run, Config, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(Config, Option<String>), String> {
    let mut cfg = Config {
        workload: Workload::LeaderReplay,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        tamper: false,
    };
    let mut workload = None;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            "--spans-out" => spans_out = Some(value()?.clone()),
            "--smoke" => cfg.smoke = true,
            "--tamper" => cfg.tamper = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if !(cfg.seconds.is_finite() && cfg.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok((cfg, spans_out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, spans_out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("sessbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sessbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = spans_out {
        if let Err(e) = std::fs::write(&path, report.spans_jsonl()) {
            eprintln!("sessbench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "# {} seed={} attempted={} failed={}; {}",
        cfg.workload.name(),
        cfg.seed,
        report.attempted,
        report.failed,
        report.summary
    );
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
