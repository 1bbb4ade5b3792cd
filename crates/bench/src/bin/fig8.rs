//! Regenerate Figure 8: send-side encode times across wire formats.
//! `--quick` for fewer iterations.

fn main() {
    let iters = if std::env::args().any(|a| a == "--quick") { 10 } else { 200 };
    println!("{}", openmeta_bench::reports::figure8_report(iters));
}
