//! Run configuration, results, and the summary line.

use std::fmt::Write as _;
use std::path::PathBuf;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measured seconds (the loop stops at the first round boundary
    /// after this).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fewest times the workload is set up; `setup_s` is the median.
    pub setups: usize,
    /// Seconds of set-up after which no more set-ups are made once
    /// `setups` are done.
    pub setup_budget_s: f64,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: u64,
}

/// Shorthand constructor.
pub fn metric(name: &str, value: f64, unit: &'static str, samples: u64) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name: name.to_string(), value, unit, samples }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started in the measured phase.
    pub attempted: u64,
    /// Ops that errored or failed a correctness check (warm-up and
    /// set-up failures abort the run instead).
    pub failed: u64,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Extra end-to-end figures printed in the table but not gated
    /// (tail percentiles, per-kind latencies).  The table also prints
    /// `fail_rate`.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// First few failure descriptions, for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record a failed op.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// The human-readable table followed by the JSON summary line.
    pub fn render(&self, workload: &str, cfg: &RunConfig) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload={workload} seed={} seconds={} trace={} attempted={} failed={}",
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            self.attempted,
            self.failed
        );
        for e in &self.errors {
            let _ = writeln!(out, "  failure: {e}");
        }
        let gated = if cfg.trace { &self.per_layer } else { &self.end_to_end };
        let fail_rate = metric(
            "fail_rate",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted,
        );
        for m in gated.iter().chain(&self.extra).chain([&fail_rate]) {
            let _ =
                writeln!(out, "  {:<32} {:>16.4} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
        }
        let mut json = String::from("{\"correct\": ");
        json.push_str(if self.failed == 0 { "true" } else { "false" });
        let _ = write!(
            json,
            ", \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in gated.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        out
    }
}

/// Errors that abort a run (set-up or warm-up failures).
#[derive(Debug)]
pub struct BenchError(pub String);

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

/// Wrap any displayable error with context.
pub fn err(context: &str, e: impl std::fmt::Display) -> BenchError {
    BenchError(format!("{context}: {e}"))
}

/// The `q`-quantile (nearest rank) of `samples`, sorting them in place.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// Median of floats.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Seconds of measured time per latency window of [`Windows`].
pub const WINDOW_S: f64 = 1.0;

/// Throughput and latency that a short stall of the shared machine
/// cannot move much: `ops_per_s` is the median over rounds of each
/// round's rate, and the latency percentiles are medians over windows of
/// about [`WINDOW_S`] measured seconds.
#[derive(Debug, Default)]
pub struct Windows {
    round_rates: Vec<f64>,
    lat: Vec<u64>,
    secs: f64,
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    ops: u64,
}

impl Windows {
    /// Add one round: its measured seconds and per-op latencies.
    pub fn add_round(&mut self, secs: f64, lat_ns: &[u64]) {
        if secs > 0.0 && !lat_ns.is_empty() {
            self.round_rates.push(lat_ns.len() as f64 / secs);
        }
        self.lat.extend_from_slice(lat_ns);
        self.secs += secs;
        self.ops += lat_ns.len() as u64;
        if self.secs >= WINDOW_S {
            self.close();
        }
    }

    fn close(&mut self) {
        if self.lat.is_empty() {
            return;
        }
        self.p50.push(quantile(&mut self.lat, 0.50) / 1e3);
        self.p90.push(quantile(&mut self.lat, 0.90) / 1e3);
        self.p99.push(quantile(&mut self.lat, 0.99) / 1e3);
        self.lat.clear();
        self.secs = 0.0;
    }

    /// Push `ops_per_s` and `op_p50_us` to `gated`, and the tail
    /// percentiles — too noisy on a shared machine to gate — to `extra`.
    /// A trailing partial window counts only when no full window closed.
    pub fn metrics(mut self, gated: &mut Vec<Metric>, extra: &mut Vec<Metric>) {
        if self.p50.is_empty() {
            self.close();
        }
        let n = self.ops;
        gated.push(metric("ops_per_s", median(&self.round_rates), "op/s", n));
        gated.push(metric("op_p50_us", median(&self.p50), "us", n));
        extra.push(metric("op_p90_us", median(&self.p90), "us", n));
        extra.push(metric("op_p99_us", median(&self.p99), "us", n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn summary_line_is_last_and_lists_gated_metrics() {
        let o = Outcome {
            attempted: 5,
            end_to_end: vec![metric("ops_per_s", 12.5, "op/s", 5)],
            extra: vec![metric("op_p99_us", 3.0, "us", 5)],
            ..Outcome::default()
        };
        let cfg = RunConfig {
            seed: 1,
            seconds: 1.0,
            trace: false,
            setups: 1,
            setup_budget_s: 0.0,
            trace_out: None,
        };
        let text = o.render("w", &cfg);
        assert!(text.contains("fail_rate"), "{text}");
        let last = text.lines().last().unwrap_or_default();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"op/s\"}}}"
        );
    }
}
