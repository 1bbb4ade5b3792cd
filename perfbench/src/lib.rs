//! The repository benchmark: three seeded, closed-loop workloads over
//! loopback, each loading a different layer of the stack.
//!
//! | workload | loop | what it loads |
//! |---|---|---|
//! | [`rpc_small`] | 1 client, 2 threads, 2 connections | small-record XMIT messaging: framing, syscalls, per-record decode, plan lookup |
//! | [`fanout`] | 1 publisher + 1 drain thread, 2 subscriber connections | ECho fan-out of bulk frames: copies, projection convert, large writes |
//! | [`discovery`] | 1 caller, 2 connections (HTTP, format server) | the metadata plane: HTTP, XSD parse, binding, registry and format server |
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run reports the per-layer metrics ([`PER_LAYER`]), every name
//! on every workload, with 0 where the workload does not reach a layer.
//! See `README.md` beside this crate for the reasoning behind each
//! workload and metric.

#![deny(unsafe_code)]

pub mod discovery;
pub mod fanout;
pub mod gen;
pub mod placement;
pub mod report;
pub mod rpc_small;
pub mod sockets;
pub mod trace;

use std::collections::BTreeMap;

use openmeta_obs::clock;

use report::{err, median, metric, peak_rss_mib, BenchError, Metric, Outcome, RunConfig, Windows};
use trace::{Probe, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["rpc_small", "fanout", "discovery"];

/// End-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 4] =
    [("ops_per_s", "op/s"), ("op_p50_us", "us"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics every traced run reports, with units.  Names are
/// `<layer>.<metric>`, layers named after the crates and modules.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("pbio.encode_ns", "ns"),
    ("pbio.decode_ns", "ns"),
    ("pbio.convert_ns", "ns"),
    ("pbio.allocs_per_op", "count"),
    ("pbio.bytes_copied_per_op", "B"),
    ("pbio.register_us", "us"),
    ("pbio.plan_compiles", "count"),
    ("pbio.plan_hit_ratio", "ratio"),
    ("pbio.fs_resolve_us", "us"),
    ("net.frames_per_op", "count"),
    ("net.accepted_per_op", "count"),
    ("net.server_request_us", "us"),
    ("xmit.send_ns", "ns"),
    ("xmit.recv_ns", "ns"),
    ("xmit.recv_wait_ns", "ns"),
    ("xmit.negotiate_first_us", "us"),
    ("xmit.negotiate_cached_us", "us"),
    ("ohttp.get_us", "us"),
    ("ohttp.revalidate_us", "us"),
    ("ohttp.reuse_ratio", "ratio"),
    ("schema.parse_us", "us"),
    ("schema.parse_ns_per_field", "ns"),
    ("xmit.bind_us", "us"),
    ("xmit.bind_hit_ns", "ns"),
    ("xmit.content_hits", "count"),
    ("discovery.rdm", "ratio"),
    ("discovery.cold_p50_us", "us"),
    ("discovery.warm_p50_us", "us"),
    ("discovery.change_p50_us", "us"),
    ("discovery.resolve_p50_us", "us"),
    ("echo.publish_us", "us"),
    ("echo.recv_us", "us"),
    ("echo.encodes_per_event", "count"),
    ("echo.drops", "count"),
    ("echo.payload_bytes_per_event", "B"),
    ("obs.tracing_overhead_pct", "%"),
    ("rpc_small.unattributed_pct", "%"),
    ("fanout.unattributed_pct", "%"),
    ("discovery.unattributed_pct", "%"),
    ("bench.check_pct", "%"),
];

/// Per-layer values a workload measured, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Layers {
    /// Set `name` to `value`, summarizing `samples` observations.
    ///
    /// # Panics
    /// On a name missing from [`PER_LAYER`]: a typo here is a bug in the
    /// benchmark, not in the program under test.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.values.insert(name, (value, samples));
    }

    /// Every [`PER_LAYER`] metric, 0 where this workload set none.
    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
                metric(name, v, unit, n)
            })
            .collect()
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Tracing overhead from alternating untraced/traced rounds: the traced
/// rounds' mean time per op over the untraced rounds', minus one, in %.
pub fn overhead_pct(untraced: (f64, u64), traced: (f64, u64)) -> f64 {
    let base = ratio(untraced.0, untraced.1 as f64);
    let with = ratio(traced.0, traced.1 as f64);
    ratio(with - base, base) * 100.0
}

/// Most set-ups one run makes.
pub const MAX_SETUPS: usize = 101;

/// Set a workload up at least `cfg.setups` times and until set-ups took
/// `cfg.setup_budget_s` seconds in all (at most [`MAX_SETUPS`]), timing
/// each.  Every rig but the last goes to `finish`; the last is returned
/// with the set-up times, whose median is `setup_s`.
pub fn run_setups<R>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> Result<R, BenchError>,
    mut finish: impl FnMut(R) -> Result<(), BenchError>,
) -> Result<(R, Vec<f64>), BenchError> {
    let mut times = Vec::new();
    loop {
        let t0 = clock::now();
        let rig = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= cfg.setups && times.iter().sum::<f64>() >= cfg.setup_budget_s;
        if enough || times.len() >= MAX_SETUPS {
            return Ok((rig, times));
        }
        finish(rig)?;
    }
}

/// The per-layer figures every workload reads the same way from its
/// probe deltas `d` over `ops` ops: marshal stage means, marshal and
/// transport counts per op, and the plan cache.
pub fn common_layers(l: &mut Layers, ops: u64, d: &Probe) {
    let opsf = ops as f64;
    let per_op = |counter: &str| ratio(d.counter(counter) as f64, opsf);
    l.set("pbio.encode_ns", d.stage_mean_ns("marshal.encode"), d.stage("marshal.encode").0);
    l.set("pbio.decode_ns", d.stage_mean_ns("marshal.decode"), d.stage("marshal.decode").0);
    l.set("pbio.allocs_per_op", per_op("openmeta_marshal_alloc_total"), ops);
    l.set("pbio.bytes_copied_per_op", per_op("openmeta_marshal_bytes_copied_total"), ops);
    let hits = d.counter("openmeta_plan_cache_hits_total") as f64;
    let misses = d.counter("openmeta_plan_cache_misses_total") as f64;
    l.set("pbio.plan_compiles", ratio(misses, opsf), ops);
    l.set("pbio.plan_hit_ratio", ratio(hits, hits + misses), (hits + misses) as u64);
    l.set("net.frames_per_op", per_op("openmeta_transport_frames_in_total"), ops);
    l.set("net.accepted_per_op", per_op("openmeta_transport_accepted_total"), ops);
}

/// The residuals of a traced run: the self time of the `root` spans as
/// `unattributed` (`<workload>.unattributed_pct`), the share of the
/// benchmark's own checks, and the tracing overhead from the untraced
/// and traced rounds' `(seconds, ops)`.
pub fn residuals(
    l: &mut Layers,
    tr: &Tracer,
    root: &str,
    unattributed: &'static str,
    rounds: [(f64, u64); 2],
) {
    let root = tr.agg(&[], root);
    let check = tr.agg(&[], "bench.check");
    let pct = |ns: u64| ratio(ns as f64, root.total_ns as f64) * 100.0;
    l.set(unattributed, pct(root.self_ns), root.count);
    l.set("bench.check_pct", pct(check.total_ns), check.count);
    l.set("obs.tracing_overhead_pct", overhead_pct(rounds[0], rounds[1]), rounds[1].1);
}

/// Fill in a finished run's metrics: the per-layer metrics from `layers`
/// and the written spans for a traced run, the end-to-end metrics
/// otherwise.
pub fn conclude(
    cfg: &RunConfig,
    out: &mut Outcome,
    tr: &Tracer,
    layers: impl FnOnce() -> Layers,
    windows: Windows,
    setup_s: &[f64],
) -> Result<(), BenchError> {
    if cfg.trace {
        out.per_layer = layers().into_metrics();
        if let Some(path) = &cfg.trace_out {
            tr.write_spans(path).map_err(|e| err("write spans", e))?;
        }
    } else {
        windows.metrics(&mut out.end_to_end, &mut out.extra);
        out.end_to_end.push(metric("setup_s", median(setup_s), "s", setup_s.len() as u64));
        out.end_to_end.push(metric("peak_rss_mib", peak_rss_mib(), "MiB", 1));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this crate name the same metrics and
    /// workloads.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let names_after = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("key present");
            let end = text[start..].find(']').map(|e| start + e).expect("array closes");
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .filter_map(|s| s.split('"').next())
                .map(str::to_string)
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let workloads: Vec<String> = WORKLOADS.iter().map(|n| n.to_string()).collect();
        assert_eq!(names_after("end_to_end"), e2e);
        assert_eq!(names_after("per_layer"), layers);
        assert_eq!(names_after("workloads"), workloads);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    /// The repo's `cargo xtask analyze` source lints, applied to this
    /// crate: no `.unwrap()` outside tests, timing through
    /// `openmeta_obs::clock`, connects through `openmeta_net`.
    #[test]
    fn source_lints_hold() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut bad = Vec::new();
        for entry in std::fs::read_dir(dir).expect("src dir") {
            let path = entry.expect("dir entry").path();
            let text = std::fs::read_to_string(&path).expect("source file");
            let body = text.split("#[cfg(test)]").next().unwrap_or_default();
            for (i, line) in body.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                for pat in [".unwrap()", "Instant::now()", "TcpStream::connect("] {
                    if line.contains(pat) {
                        bad.push(format!("{}:{}: {pat}", path.display(), i + 1));
                    }
                }
            }
        }
        assert!(bad.is_empty(), "{bad:#?}");
    }
}
