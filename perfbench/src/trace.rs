//! The benchmark's own tracing: spans around its calls into each layer,
//! plus read-only probes of the stage histograms and counters the
//! program already exports.
//!
//! A [`Tracer`] belongs to one thread.  [`Tracer::enter`] /
//! [`Tracer::exit`] keep a stack, so each span's *self* time is its
//! duration minus its children's.  Aggregates are keyed by
//! `(kind, name)` — `kind` is the op kind the caller is inside (e.g.
//! `cold` or `warm`) — and the first [`RAW_SPAN_CAP`] spans are kept
//! verbatim and written out when the run ends.  A disabled tracer does
//! one branch per call and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use openmeta_obs::{clock, MetricsRegistry, Snapshot, STAGE_HISTOGRAM};

/// Spans kept verbatim per thread; later spans only feed aggregates.
pub const RAW_SPAN_CAP: usize = 20_000;

/// Aggregate of every span with one `(kind, name)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus children).
    pub self_ns: u64,
}

impl SpanAgg {
    fn merge(&mut self, o: &SpanAgg) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }

    /// Mean duration in ns, 0 with no spans.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
struct RawSpan {
    thread: &'static str,
    kind: &'static str,
    name: &'static str,
    op: u64,
    depth: usize,
    start_ns: u64,
    dur_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    thread: &'static str,
    enabled: bool,
    epoch: Instant,
    kind: &'static str,
    op: u64,
    stack: Vec<Open>,
    aggs: BTreeMap<(&'static str, &'static str), SpanAgg>,
    raw: Vec<RawSpan>,
}

impl Tracer {
    /// A recorder for `thread`; starts disabled.
    pub fn new(thread: &'static str) -> Tracer {
        Tracer {
            thread,
            enabled: false,
            epoch: clock::now(),
            kind: "all",
            op: 0,
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            raw: Vec::new(),
        }
    }

    /// Turn recording on or off (between ops only).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tag later spans with op kind `kind` and op number `op`.
    pub fn set_op(&mut self, kind: &'static str, op: u64) {
        self.kind = kind;
        self.op = op;
    }

    /// Open a span.
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            self.stack.push(Open { name, start: clock::now(), child_ns: 0 });
        }
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let Some(open) = self.stack.pop() else { return };
        let dur = clock::duration_ns(open.start.elapsed());
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry((self.kind, open.name)).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(RawSpan {
                thread: self.thread,
                kind: self.kind,
                name: open.name,
                op: self.op,
                depth: self.stack.len(),
                start_ns: clock::duration_ns(open.start.duration_since(self.epoch)),
                dur_ns: dur,
            });
        }
    }

    /// Record a leaf span that began at `start` and ends now (for calls
    /// whose tracing state is only known once they return).
    pub fn record(&mut self, name: &'static str, start: Instant) {
        if self.enabled {
            self.stack.push(Open { name, start, child_ns: 0 });
            self.exit();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Fold another thread's recorder into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (k, a) in other.aggs {
            self.aggs.entry(k).or_default().merge(&a);
        }
        self.raw.extend(other.raw);
    }

    /// Aggregate for `name` summed over the given kinds (all kinds when
    /// `kinds` is empty).
    pub fn agg(&self, kinds: &[&str], name: &str) -> SpanAgg {
        let mut out = SpanAgg::default();
        for ((k, n), a) in &self.aggs {
            if *n == name && (kinds.is_empty() || kinds.contains(k)) {
                out.merge(a);
            }
        }
        out
    }

    /// Write the kept spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.raw {
            writeln!(
                out,
                "{{\"thread\":\"{}\",\"kind\":\"{}\",\"name\":\"{}\",\"op\":{},\"depth\":{},\
                 \"start_ns\":{},\"dur_ns\":{}}}",
                s.thread, s.kind, s.name, s.op, s.depth, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Stage histograms the probes read (`openmeta_stage_duration_ns`).
pub const STAGES: [&str; 13] = [
    "marshal.encode",
    "marshal.decode",
    "transport.send",
    "transport.recv",
    "negotiate.handshake",
    "negotiate.respond",
    "discovery.load",
    "discovery.fetch",
    "discovery.parse",
    "binding.bind",
    "channel.publish",
    "channel.fanout",
    "server.request",
];

/// Counters the probes read.
pub const COUNTERS: [&str; 9] = [
    "openmeta_marshal_alloc_total",
    "openmeta_marshal_bytes_copied_total",
    "openmeta_plan_cache_hits_total",
    "openmeta_plan_cache_misses_total",
    "openmeta_transport_frames_in_total",
    "openmeta_transport_accepted_total",
    "openmeta_schema_cache_content_hits_total",
    "openmeta_http_requests_total",
    "openmeta_http_not_modified_total",
];

/// A point-in-time reading of [`STAGES`] (count, summed ns) and
/// [`COUNTERS`] from the global metrics registry.  Read-only: nothing is
/// added inside the program.
///
/// Counters owned by an object are summed only while the object lives,
/// so a probe pair must bracket work whose objects are still alive at
/// the second probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    stages: [(u64, u64); STAGES.len()],
    counters: [u64; COUNTERS.len()],
}

impl Probe {
    /// Read the registry now.
    pub fn take() -> Probe {
        Probe::from_snapshot(&MetricsRegistry::global().snapshot())
    }

    fn from_snapshot(snap: &Snapshot) -> Probe {
        let mut p = Probe::default();
        for (i, stage) in STAGES.iter().enumerate() {
            if let Some(h) = snap.histogram_value(STAGE_HISTOGRAM, &[("stage", stage)]) {
                p.stages[i] = (h.count, h.sum);
            }
        }
        for (i, name) in COUNTERS.iter().enumerate() {
            p.counters[i] = snap.counter_value(name).unwrap_or(0);
        }
        p
    }

    /// `self - earlier`, saturating (a series can shrink when an owner
    /// drops between probes).
    pub fn since(&self, earlier: &Probe) -> Probe {
        let mut d = Probe::default();
        for i in 0..STAGES.len() {
            d.stages[i] = (
                self.stages[i].0.saturating_sub(earlier.stages[i].0),
                self.stages[i].1.saturating_sub(earlier.stages[i].1),
            );
        }
        for i in 0..COUNTERS.len() {
            d.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        d
    }

    /// Accumulate another delta.
    pub fn add(&mut self, other: &Probe) {
        for i in 0..STAGES.len() {
            self.stages[i].0 += other.stages[i].0;
            self.stages[i].1 += other.stages[i].1;
        }
        for i in 0..COUNTERS.len() {
            self.counters[i] += other.counters[i];
        }
    }

    /// `(count, summed ns)` of a stage.
    pub fn stage(&self, name: &str) -> (u64, u64) {
        STAGES.iter().position(|s| *s == name).map(|i| self.stages[i]).unwrap_or((0, 0))
    }

    /// Mean ns of a stage, 0 when it never ran.
    pub fn stage_mean_ns(&self, name: &str) -> f64 {
        let (n, sum) = self.stage(name);
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> u64 {
        COUNTERS.iter().position(|c| *c == name).map(|i| self.counters[i]).unwrap_or(0)
    }
}

/// Probe deltas accumulated per op kind.
#[derive(Debug, Default)]
pub struct KindDeltas {
    by_kind: BTreeMap<&'static str, (u64, Probe)>,
}

impl KindDeltas {
    /// Credit `delta`, covering `ops` ops, to `kind`.
    pub fn add(&mut self, kind: &'static str, ops: u64, delta: &Probe) {
        let e = self.by_kind.entry(kind).or_default();
        e.0 += ops;
        e.1.add(delta);
    }

    /// Summed ops and delta over the given kinds (all when empty).
    pub fn sum(&self, kinds: &[&str]) -> (u64, Probe) {
        let mut ops = 0;
        let mut p = Probe::default();
        for (k, (n, d)) in &self.by_kind {
            if kinds.is_empty() || kinds.contains(k) {
                ops += n;
                p.add(d);
            }
        }
        (ops, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("test");
        t.set_enabled(true);
        t.set_op("k", 1);
        t.enter("outer");
        t.leaf("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit();
        let outer = t.agg(&[], "outer");
        let inner = t.agg(&["k"], "inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("test");
        t.leaf("x", || ());
        assert_eq!(t.agg(&[], "x").count, 0);
    }
}
