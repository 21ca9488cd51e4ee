//! `perfbench --workload <pipeline|churn> [--seed N] [--seconds S]
//! [--trace 0|1]`
//!
//! Prints progress and any failed check on stderr, and as the last line of
//! stdout one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). Exits 1 when a correctness check fails, 2 on bad usage.

use std::process::ExitCode;

use perfbench::run::{self, Options};
use perfbench::workload::{Size, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str =
    "usage: perfbench --workload <pipeline|churn> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Options {
            workload,
            seed,
            seconds,
            size: Size::Full,
        },
        trace,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, trace) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if trace {
        run::traced(&opts)
    } else {
        Ok(run::timed(&opts))
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &report.metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
