//! Regenerate Figure 7: encode times, native vs XMIT metadata, plus the
//! zero-copy columns (view decode vs memcpy, allocations per encode).
//! `--check` asserts the zero-copy gates (0 allocs/op everywhere; view
//! decode ≤ 2× memcpy on bulk rows) and exits nonzero on violation.

use openmeta_bench::reports::{check_figure7_rows, figure7_report_from, figure7_rows};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let iters = if args.iter().any(|a| a == "--quick") { 20 } else { 500 };
    let rows = figure7_rows(iters);
    println!("{}", figure7_report_from(&rows));
    if args.iter().any(|a| a == "--check") {
        if let Err(msg) = check_figure7_rows(&rows) {
            eprintln!("zero-copy check FAILED: {msg}");
            std::process::exit(1);
        }
        eprintln!("zero-copy check passed");
    }
}
