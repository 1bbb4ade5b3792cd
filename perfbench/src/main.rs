//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--trace-out <file>]`
//!
//! Runs one workload and prints a table followed by one JSON summary
//! line.  Exits 1 when any op failed or the run could not be set up.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use openmeta_perfbench::report::{BenchError, RunConfig};
use openmeta_perfbench::{discovery, fanout, rpc_small};

/// Fewest set-ups per process, and the set-up seconds after which a
/// process makes no more: `setup_s` is the median of 3 (`discovery`) to
/// about 15 (`rpc_small`) set-ups, the first of which pays the process's
/// cold start.
const SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 0.25;

fn parse(args: &[String]) -> Result<(String, RunConfig), BenchError> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        setups: SETUPS,
        setup_budget_s: SETUP_BUDGET_S,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| BenchError(format!("{flag} needs a value")))?;
        let bad = |e: &dyn std::fmt::Display| BenchError(format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cfg.trace = value != "0",
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(value)),
            _ => return Err(BenchError(format!("unknown flag {flag}"))),
        }
    }
    let workload = workload.ok_or_else(|| BenchError("--workload is required".into()))?;
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "rpc_small" => rpc_small::run(&cfg),
        "fanout" => fanout::run(&cfg),
        "discovery" => discovery::run(&cfg),
        other => Err(BenchError(format!("unknown workload {other}"))),
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.render(&workload, &cfg));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
