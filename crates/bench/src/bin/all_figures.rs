//! Regenerate every figure in one run (used to fill EXPERIMENTS.md).

use openmeta_bench::reports;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (reg, enc, wire_iters) = if quick { (50, 20, 10) } else { (2000, 500, 200) };
    println!("{}\n", reports::figure3_report(reg));
    println!("{}\n", reports::figure6_report(reg));
    println!("{}\n", reports::figure7_report(enc));
    println!("{}\n", reports::figure8_report(wire_iters));
    println!("{}\n", reports::figure8_decode_report(wire_iters));
    println!("{}\n", reports::figure1_report(wire_iters));
    println!("{}", reports::plan_ablation_report(wire_iters));
}
