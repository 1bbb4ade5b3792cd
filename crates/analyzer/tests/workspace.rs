//! The source-level engines, run against this workspace's own tree.
//!
//! These are the zero-false-positive guarantees: the lock-order graph
//! of the real crates is acyclic and no wire-derived integer reaches an
//! allocation unbounded.  `cargo xtask analyze` runs the same checks in
//! CI; this test keeps them honest from inside the test suite too.

use std::path::PathBuf;

use openmeta_analyzer::lockorder::{analyze_lock_order, LockOrderConfig};
use openmeta_analyzer::source::collect_workspace_sources;
use openmeta_analyzer::taint::analyze_taint;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

#[test]
fn workspace_lock_order_graph_is_acyclic() {
    let files = collect_workspace_sources(&repo_root()).expect("collect sources");
    assert!(!files.is_empty());
    let report = analyze_lock_order(&files, &LockOrderConfig::default());
    assert!(report.passed(), "lock-order violations in the workspace: {:?}", report.diagnostics);
    // Every `sync::lock`/`read`/`write`/`wait` call site must be seen —
    // the echo fan-out alone has more than a dozen, the format registry
    // as many again.
    assert!(report.lock_sites >= 80, "only {} lock sites found", report.lock_sites);
}

#[test]
fn workspace_has_no_unbounded_wire_allocations() {
    let files = collect_workspace_sources(&repo_root()).expect("collect sources");
    let report = analyze_taint(&files);
    assert!(report.passed(), "tainted allocations in the workspace: {:?}", report.diagnostics);
    assert!(report.taint_flows_checked >= 1, "no flows checked — sources not collected?");
}
