//! Quick self-test: every workload at a tiny size, untraced and traced,
//! with every check on.  One test, so the workloads never share the
//! process-wide metrics registry concurrently.

use openmeta_perfbench::report::{Outcome, RunConfig};
use openmeta_perfbench::{discovery, fanout, rpc_small, END_TO_END, PER_LAYER};

/// Per-layer counts that must repeat exactly for a given seed.
const EXACT: [&str; 9] = [
    "pbio.allocs_per_op",
    "pbio.bytes_copied_per_op",
    "pbio.plan_compiles",
    "net.frames_per_op",
    "net.accepted_per_op",
    "xmit.content_hits",
    "echo.encodes_per_event",
    "echo.drops",
    "echo.payload_bytes_per_event",
];

fn run(workload: &str, trace: bool) -> Outcome {
    let cfg =
        RunConfig { seed: 7, seconds: 0.3, trace, setups: 2, setup_budget_s: 0.0, trace_out: None };
    let out = match workload {
        "rpc_small" => rpc_small::run(&cfg),
        "fanout" => fanout::run(&cfg),
        _ => discovery::run(&cfg),
    }
    .unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(out.attempted > 0, "{workload}: no ops ran");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.errors);
    out
}

fn layer(out: &Outcome, name: &str) -> (f64, u64) {
    out.per_layer.iter().find(|m| m.name == name).map(|m| (m.value, m.samples)).unwrap_or_default()
}

#[test]
fn every_workload_runs_clean_and_counts_repeat() {
    for workload in ["rpc_small", "fanout", "discovery"] {
        let plain = run(workload, false);
        let names: Vec<&str> = plain.end_to_end.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{workload}");
        assert!(
            plain.end_to_end.iter().all(|m| m.value > 0.0),
            "{workload}: {:?}",
            plain.end_to_end
        );

        let a = run(workload, true);
        let b = run(workload, true);
        assert_eq!(a.per_layer.len(), PER_LAYER.len());
        // Root spans are recorded only in traced rounds.
        let roots = layer(&a, &format!("{workload}.unattributed_pct")).1;
        assert!(roots > 0, "{workload}: no traced round ran");
        for name in EXACT {
            assert_eq!(layer(&a, name).0, layer(&b, name).0, "{workload}: {name} is not exact");
        }
    }
}
