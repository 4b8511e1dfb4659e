//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints a detail
//! record (`perfbench detail: {...}`) followed, as the last line of
//! standard output, by the result object: `correct`, `attempted`,
//! `failed` and every metric of the run with its unit. Exits 0 when
//! every output check passed, 1 when one failed or the run could not
//! complete, 2 on a usage error.

use perfbench::{detail_line, result_line, sys, Config, Workload};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload corpus-ooc|campaign-reveal|serve-spool \
--seed N --seconds S --trace 0|1";

/// World scale of the batch workloads: a scale-3 cycle is 58K primary
/// traces, ~68 MB of warts, small enough for 30–50 iterations in a
/// measured window, so the medians do not hang on a handful of samples.
const SCALE: usize = 3;

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"wants a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"wants 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: SCALE,
        work: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match perfbench::run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            std::process::exit(1);
        }
    };
    let line = match result_line(&cfg, &outcome) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let machine = sys::Machine::detect();
    let rev = sys::git_rev(std::path::Path::new("."));
    println!(
        "perfbench detail: {}",
        detail_line(&cfg, &outcome, &machine, &rev)
    );
    println!("{line}");
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}
