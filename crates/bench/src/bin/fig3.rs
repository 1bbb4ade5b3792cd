//! Regenerate Figure 3: proof-of-concept registration costs and RDM.
//! `--quick` for fewer iterations.

fn main() {
    let iters = if std::env::args().any(|a| a == "--quick") { 50 } else { 2000 };
    println!("{}", openmeta_bench::reports::figure3_report(iters));
}
