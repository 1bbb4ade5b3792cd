//! `openmeta channel` — ECho-style event channels from the command line.
//!
//! ```text
//! openmeta channel bench     [--subs N] [--projections K] [--events N]
//!                            [--payload N] [--policy block|drop|disconnect]
//!                            [--queue-cap N] [--json] [--check]
//! openmeta channel publish   [--port P] [--events N] [--interval-ms MS]
//!                            [--payload N]
//! openmeta channel subscribe <host:port> [--keep f1,f2] [--narrow] [--id N]
//!                            [--count N]
//! ```
//!
//! All three modes speak the demo `FlowSample` channel, whose id is
//! content-addressed: a subscriber computes the same [`FormatId`] from
//! the shared definition that the publisher derived, so rendezvous needs
//! no registry round trip — any party holding the metadata can name the
//! channel.
//!
//! `bench` is the CI gate behind `BENCH_channels.json`: one in-process
//! host, `--subs` subscribers spread over `--projections` distinct views
//! (identity plus derived field projections), `--events` publishes.  The
//! headline number is **encodes per event**: with sender-side derivation,
//! subscribers sharing a view share one encode, so the encode count
//! scales with views, not subscribers.  `--check` fails the run unless
//! encodes-per-event equals the view count, nothing errored, and (under
//! the default `block` policy) every subscriber received every event.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::Duration;

use openmeta_echo::{ChannelConfig, ChannelHost, ChannelSubscriber, SlowPolicy};
use openmeta_pbio::{FormatId, MachineModel, Value};
use openmeta_schema::ComplexType;
use xmit::{Projection, Xmit};

use crate::ToolError;

/// What `openmeta channel` should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelMode {
    /// Host the demo channel and publish events.
    Publish,
    /// Connect to a host and print received events.
    Subscribe,
    /// In-process fan-out benchmark (the CI artifact).
    Bench,
}

/// Parsed `openmeta channel` options.
#[derive(Debug, Clone)]
pub struct ChannelOptions {
    /// Sub-mode (first positional argument).
    pub mode: ChannelMode,
    /// Bench: subscriber count.
    pub subs: usize,
    /// Bench: distinct views, identity plus `projections - 1` derived.
    pub projections: usize,
    /// Events to publish (`publish`: 0 means run until killed).
    pub events: usize,
    /// Doubles in each event's `depth` array.
    pub payload: usize,
    /// Slow-subscriber policy for the hosted channel.
    pub policy: SlowPolicy,
    /// Per-subscriber queue bound.
    pub queue_cap: usize,
    /// Emit the report as JSON (the `BENCH_channels.json` shape).
    pub json: bool,
    /// Gate mode: nonzero exit unless [`ChannelReport::passed`].
    pub check: bool,
    /// Subscribe: host to connect to.
    pub target: Option<String>,
    /// Subscribe: fields to keep (empty = identity subscription).
    pub keep: Vec<String>,
    /// Subscribe: narrow kept doubles to floats.
    pub narrow: bool,
    /// Subscribe: explicit channel id overriding the computed one.
    pub id: Option<u64>,
    /// Subscribe: stop after this many records (0 = until close).
    pub count: usize,
    /// Publish: listen port (0 = ephemeral, printed at startup).
    pub port: u16,
    /// Publish: pacing between events.
    pub interval_ms: u64,
}

impl Default for ChannelOptions {
    fn default() -> ChannelOptions {
        ChannelOptions {
            mode: ChannelMode::Bench,
            subs: 64,
            projections: 3,
            events: 200,
            payload: 512,
            policy: SlowPolicy::Block,
            queue_cap: 1024,
            json: false,
            check: false,
            target: None,
            keep: Vec::new(),
            narrow: false,
            id: None,
            count: 0,
            port: 0,
            interval_ms: 1000,
        }
    }
}

impl ChannelOptions {
    /// Parse CLI arguments (everything after `channel`).
    pub fn parse(args: &[String]) -> Result<ChannelOptions, ToolError> {
        let mut opts = ChannelOptions::default();
        let Some((mode, rest)) = args.split_first() else {
            return Err("channel needs a mode: bench, publish or subscribe".to_string());
        };
        opts.mode = match mode.as_str() {
            "bench" => ChannelMode::Bench,
            "publish" => ChannelMode::Publish,
            "subscribe" => ChannelMode::Subscribe,
            other => return Err(format!("unknown channel mode '{other}'")),
        };
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let mut value =
                |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value")).cloned();
            match arg.as_str() {
                "--subs" => {
                    opts.subs = value("--subs")?.parse().map_err(|e| format!("--subs: {e}"))?
                }
                "--projections" => {
                    opts.projections = value("--projections")?
                        .parse()
                        .map_err(|e| format!("--projections: {e}"))?
                }
                "--events" => {
                    opts.events =
                        value("--events")?.parse().map_err(|e| format!("--events: {e}"))?
                }
                "--payload" => {
                    opts.payload =
                        value("--payload")?.parse().map_err(|e| format!("--payload: {e}"))?
                }
                "--policy" => {
                    let v = value("--policy")?;
                    opts.policy = SlowPolicy::parse(&v)
                        .ok_or_else(|| format!("unknown policy '{v}' (block|drop|disconnect)"))?
                }
                "--queue-cap" => {
                    opts.queue_cap =
                        value("--queue-cap")?.parse().map_err(|e| format!("--queue-cap: {e}"))?
                }
                "--keep" => {
                    opts.keep = value("--keep")?.split(',').map(|s| s.trim().to_string()).collect()
                }
                "--id" => opts.id = Some(value("--id")?.parse().map_err(|e| format!("--id: {e}"))?),
                "--count" => {
                    opts.count = value("--count")?.parse().map_err(|e| format!("--count: {e}"))?
                }
                "--port" => {
                    opts.port = value("--port")?.parse().map_err(|e| format!("--port: {e}"))?
                }
                "--interval-ms" => {
                    opts.interval_ms = value("--interval-ms")?
                        .parse()
                        .map_err(|e| format!("--interval-ms: {e}"))?
                }
                "--narrow" => opts.narrow = true,
                "--json" => opts.json = true,
                "--check" => opts.check = true,
                other if opts.mode == ChannelMode::Subscribe && !other.starts_with('-') => {
                    opts.target = Some(other.to_string())
                }
                other => return Err(format!("unknown channel option '{other}'")),
            }
        }
        match opts.mode {
            ChannelMode::Bench => {
                if opts.projections == 0 || opts.projections > 1 + DERIVED_VIEWS.len() {
                    return Err(format!(
                        "--projections must be 1..={} (identity plus derived views)",
                        1 + DERIVED_VIEWS.len()
                    ));
                }
                if opts.subs < opts.projections {
                    return Err("--subs must be >= --projections so every view is live".to_string());
                }
                if opts.events == 0 {
                    return Err("--events must be positive for bench".to_string());
                }
            }
            ChannelMode::Subscribe => {
                if opts.target.is_none() {
                    return Err("subscribe needs a <host:port> target".to_string());
                }
            }
            ChannelMode::Publish => {}
        }
        Ok(opts)
    }
}

/// The demo channel definition every mode shares.  Mirrors the paper's
/// atmospheric-science flows: a timestep, a station label, a dynamic
/// grid of doubles, and a scalar quality figure.
const DEMO_XML: &str = r#"<xsd:complexType name="FlowSample"
    xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="timestep" type="xsd:integer" />
  <xsd:element name="station" type="xsd:string" />
  <xsd:element name="ncells" type="xsd:integer" />
  <xsd:element name="depth" type="xsd:double" maxOccurs="*"
      dimensionName="ncells" />
  <xsd:element name="quality" type="xsd:double" />
</xsd:complexType>"#;

/// Derived views `bench` cycles through after the identity view.  Each
/// is (kept fields, narrow doubles).
const DERIVED_VIEWS: &[(&[&str], bool)] = &[
    (&["timestep", "quality"], false),
    (&["depth"], true),
    (&["station", "timestep"], false),
    (&["quality"], true),
    (&["timestep"], false),
    (&["station"], false),
    (&["depth", "quality"], true),
];

fn demo_definition() -> Result<ComplexType, ToolError> {
    let mut doc = openmeta_schema::parse_str(DEMO_XML).map_err(|e| e.to_string())?;
    if doc.types.is_empty() {
        return Err("demo schema declares no types".to_string());
    }
    Ok(doc.types.remove(0))
}

/// The content-addressed id both sides derive from the shared
/// definition.
fn demo_channel_id() -> Result<FormatId, ToolError> {
    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&openmeta_schema::to_xml(&openmeta_schema::SchemaDocument {
        types: vec![demo_definition()?],
        enums: vec![],
    }))
    .map_err(|e| e.to_string())?;
    Ok(xm.bind("FlowSample").map_err(|e| e.to_string())?.format.id())
}

/// Identity plus `k - 1` derived views, in subscriber assignment order.
fn views(k: usize) -> Vec<Option<Projection>> {
    let mut out: Vec<Option<Projection>> = vec![None];
    for (keep, narrow) in DERIVED_VIEWS.iter().take(k.saturating_sub(1)) {
        let mut p = Projection::keeping(keep.iter().copied());
        if *narrow {
            p = p.with_narrowing();
        }
        out.push(Some(p));
    }
    out
}

fn policy_name(p: SlowPolicy) -> &'static str {
    match p {
        SlowPolicy::Block => "block",
        SlowPolicy::DropNewest => "drop",
        SlowPolicy::Disconnect => "disconnect",
    }
}

/// A bench run's outcome.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Wire encodes across all events (full + per active view).
    pub encodes: u64,
    /// Seat enqueues across all events.
    pub delivered: u64,
    /// Records subscribers actually decoded.
    pub received: u64,
    /// Events shed by `drop` policy.
    pub dropped: u64,
    /// Seats disconnected by policy or write failure.
    pub disconnected: u64,
    /// Write-deadline expiries.
    pub timed_out: u64,
    /// Subscriber threads that failed.
    pub errors: u64,
    /// Wall clock for the publish phase.
    pub elapsed: Duration,
}

impl BenchRun {
    fn events_per_s(&self, events: usize) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            events as f64 / secs
        }
    }

    fn deliveries_per_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.delivered as f64 / secs
        }
    }
}

/// Result of a full `channel bench` run.
pub struct ChannelReport {
    /// Options the run executed with.
    pub opts: ChannelOptions,
    /// What the run delivered.
    pub run: BenchRun,
}

impl ChannelReport {
    /// Encodes per published event — the headline number; equals the
    /// distinct view count when derivation shares encodes.
    pub fn encodes_per_event(&self) -> f64 {
        self.run.encodes as f64 / self.opts.events as f64
    }

    /// `--check` verdict: zero errors, encode sharing exact, and under
    /// the default `block` policy lossless delivery to every
    /// subscriber.
    pub fn passed(&self) -> bool {
        let run = &self.run;
        let shared = run.encodes == (self.opts.events * self.opts.projections) as u64;
        let lossless = self.opts.policy != SlowPolicy::Block
            || (run.dropped == 0
                && run.disconnected == 0
                && run.received == (self.opts.subs * self.opts.events) as u64);
        run.errors == 0 && shared && lossless
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "channels: {} subscribers x {} views, {} events ({} doubles each), {} policy",
            self.opts.subs,
            self.opts.projections,
            self.opts.events,
            self.opts.payload,
            policy_name(self.opts.policy)
        );
        let run = &self.run;
        let _ = writeln!(
            out,
            "  {} encodes ({:.2}/event), {} delivered, {} received, {} dropped, \
             {} disconnected, {} timed out, {} errors",
            run.encodes,
            self.encodes_per_event(),
            run.delivered,
            run.received,
            run.dropped,
            run.disconnected,
            run.timed_out,
            run.errors
        );
        let _ = writeln!(
            out,
            "  {:.2}s ({:.0} events/s, {:.0} deliveries/s)",
            run.elapsed.as_secs_f64(),
            run.events_per_s(self.opts.events),
            run.deliveries_per_s()
        );
        if self.opts.check {
            let _ = writeln!(out, "  check: {}", if self.passed() { "PASS" } else { "FAIL" });
        }
        out
    }

    /// JSON report (the `BENCH_channels.json` artifact shape).
    pub fn to_json(&self) -> String {
        let run = &self.run;
        format!(
            "{{\n  \"bench\": \"channels\",\n  \"subscribers\": {},\n  \"projections\": {},\n  \
             \"events\": {},\n  \"payload_doubles\": {},\n  \"policy\": \"{}\",\n  \
             \"encodes\": {},\n  \"encodes_per_event\": {:.3},\n  \"delivered\": {},\n  \
             \"received\": {},\n  \"dropped\": {},\n  \"disconnected\": {},\n  \
             \"timed_out\": {},\n  \"errors\": {},\n  \"elapsed_s\": {:.3},\n  \
             \"events_per_s\": {:.1},\n  \"deliveries_per_s\": {:.1},\n  \"passed\": {}\n}}\n",
            self.opts.subs,
            self.opts.projections,
            self.opts.events,
            self.opts.payload,
            policy_name(self.opts.policy),
            run.encodes,
            self.encodes_per_event(),
            run.delivered,
            run.received,
            run.dropped,
            run.disconnected,
            run.timed_out,
            run.errors,
            run.elapsed.as_secs_f64(),
            run.events_per_s(self.opts.events),
            run.deliveries_per_s(),
            self.passed()
        )
    }
}

fn channel_config(opts: &ChannelOptions) -> ChannelConfig {
    ChannelConfig { queue_cap: opts.queue_cap, policy: opts.policy, ..ChannelConfig::default() }
}

/// The fan-out bench: host in-process, `subs` subscriber threads over
/// `projections` views, publish `events`, then drain.
pub fn bench(opts: ChannelOptions) -> Result<ChannelReport, ToolError> {
    let host = ChannelHost::start(channel_config(&opts)).map_err(|e| e.to_string())?;
    let channel = host.create_channel(&demo_definition()?).map_err(|e| e.to_string())?;
    let addr: SocketAddr = host.addr();
    let id = channel.format_id();
    let views = views(opts.projections);

    let mut handles = Vec::with_capacity(opts.subs);
    for i in 0..opts.subs {
        let view = views[i % views.len()].clone();
        handles.push(std::thread::spawn(move || -> Result<u64, String> {
            let mut sub = ChannelSubscriber::connect(addr, id, view.as_ref())
                .map_err(|e| format!("subscribe: {e}"))?;
            let mut n = 0u64;
            while sub.recv().map_err(|e| format!("recv: {e}"))?.is_some() {
                n += 1;
            }
            Ok(n)
        }));
    }
    let ramp = openmeta_obs::clock::now();
    while channel.subscriber_count() < opts.subs {
        if ramp.elapsed() > Duration::from_secs(10) {
            return Err(format!(
                "only {}/{} subscribers attached within 10s",
                channel.subscriber_count(),
                opts.subs
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut rec = channel.new_record();
    rec.set_string("station", "bench").map_err(|e| e.to_string())?;
    rec.set_f64_array("depth", &vec![0.5; opts.payload]).map_err(|e| e.to_string())?;
    let started = openmeta_obs::clock::now();
    let (mut encodes, mut delivered, mut dropped, mut disconnected) = (0u64, 0u64, 0u64, 0u64);
    for t in 0..opts.events {
        rec.set_i64("timestep", t as i64).map_err(|e| e.to_string())?;
        rec.set_f64("quality", t as f64 / opts.events as f64).map_err(|e| e.to_string())?;
        let receipt = channel.publish(&rec).map_err(|e| e.to_string())?;
        encodes += receipt.encodes as u64;
        delivered += receipt.delivered as u64;
        dropped += receipt.dropped as u64;
        disconnected += receipt.disconnected as u64;
    }
    let elapsed = started.elapsed();
    let stats = channel.stats();

    // Dropping the host drains every queue and half-closes, so blocked
    // subscriber threads see a clean end-of-channel.
    drop(channel);
    drop(host);
    let (mut received, mut errors) = (0u64, 0u64);
    for h in handles {
        match h.join() {
            Ok(Ok(n)) => received += n,
            Ok(Err(e)) => {
                eprintln!("channel bench: subscriber failed: {e}");
                errors += 1;
            }
            Err(_) => errors += 1,
        }
    }
    let run = BenchRun {
        encodes,
        delivered,
        received,
        dropped,
        disconnected,
        timed_out: stats.timed_out,
        errors,
        elapsed,
    };
    Ok(ChannelReport { opts, run })
}

/// `openmeta channel publish` — host the demo channel and emit events.
pub fn publish(opts: &ChannelOptions) -> Result<(), ToolError> {
    let host = ChannelHost::start_on(("0.0.0.0", opts.port), channel_config(opts))
        .map_err(|e| e.to_string())?;
    let channel = host.create_channel(&demo_definition()?).map_err(|e| e.to_string())?;
    println!(
        "channel: FlowSample (id {}) on {} ({} policy)",
        channel.format_id().0,
        host.addr(),
        policy_name(opts.policy)
    );
    let mut rec = channel.new_record();
    rec.set_string("station", "cli").map_err(|e| e.to_string())?;
    rec.set_f64_array("depth", &vec![0.5; opts.payload]).map_err(|e| e.to_string())?;
    let mut t = 0usize;
    loop {
        rec.set_i64("timestep", t as i64).map_err(|e| e.to_string())?;
        rec.set_f64("quality", (t % 100) as f64 / 100.0).map_err(|e| e.to_string())?;
        let receipt = channel.publish(&rec).map_err(|e| e.to_string())?;
        println!(
            "event {t}: {} encodes, {} delivered to {} subscriber(s)",
            receipt.encodes,
            receipt.delivered,
            channel.subscriber_count()
        );
        t += 1;
        if opts.events > 0 && t >= opts.events {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(opts.interval_ms));
    }
}

/// `openmeta channel subscribe` — connect and print events as they
/// arrive.
pub fn subscribe(opts: &ChannelOptions) -> Result<(), ToolError> {
    let target = opts.target.as_deref().unwrap_or_default();
    let addr: SocketAddr = target.parse().map_err(|e| format!("target '{target}': {e}"))?;
    let id = match opts.id {
        Some(raw) => FormatId(raw),
        None => demo_channel_id()?,
    };
    let projection = if opts.keep.is_empty() {
        None
    } else {
        let mut p = Projection::keeping(opts.keep.iter().map(String::as_str));
        if opts.narrow {
            p = p.with_narrowing();
        }
        Some(p)
    };
    let mut sub =
        ChannelSubscriber::connect(addr, id, projection.as_ref()).map_err(|e| e.to_string())?;
    println!("subscribed to channel {} (delivered format {})", id.0, sub.delivered_format().0);
    let mut n = 0usize;
    while let Some(rec) = sub.recv().map_err(|e| e.to_string())? {
        n += 1;
        println!("event {n}: {}", rec.format().name);
        if let Ok(Value::Record(rv)) = Value::from_record(&rec) {
            for (name, value) in &rv.fields {
                let rendered = match value {
                    Value::FloatArray(v) if v.len() > 8 => format!("[{} floats]", v.len()),
                    Value::IntArray(v) if v.len() > 8 => format!("[{} ints]", v.len()),
                    other => format!("{other:?}"),
                };
                println!("    {name} = {rendered}");
            }
        }
        if opts.count > 0 && n >= opts.count {
            return Ok(());
        }
    }
    println!("channel closed after {n} event(s)");
    Ok(())
}

/// Dispatch per mode; `bench` returns a report for the binary to print
/// and gate on, the interactive modes stream their own output.
pub fn run(opts: ChannelOptions) -> Result<Option<ChannelReport>, ToolError> {
    match opts.mode {
        ChannelMode::Bench => bench(opts).map(Some),
        ChannelMode::Publish => publish(&opts).map(|()| None),
        ChannelMode::Subscribe => subscribe(&opts).map(|()| None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_recognizes_bench_flags() {
        let opts = ChannelOptions::parse(&argv(&[
            "bench",
            "--subs",
            "8",
            "--projections",
            "2",
            "--events",
            "16",
            "--payload",
            "64",
            "--policy",
            "drop",
            "--queue-cap",
            "4",
            "--json",
            "--check",
        ]))
        .unwrap();
        assert_eq!(opts.mode, ChannelMode::Bench);
        assert_eq!((opts.subs, opts.projections, opts.events, opts.payload), (8, 2, 16, 64));
        assert_eq!(opts.policy, SlowPolicy::DropNewest);
        assert_eq!(opts.queue_cap, 4);
        assert!(opts.json && opts.check);
    }

    #[test]
    fn parse_rejects_bad_shapes() {
        assert!(ChannelOptions::parse(&argv(&[])).is_err());
        assert!(ChannelOptions::parse(&argv(&["flood"])).is_err());
        assert!(ChannelOptions::parse(&argv(&["bench", "--projections", "0"])).is_err());
        assert!(
            ChannelOptions::parse(&argv(&["bench", "--subs", "2", "--projections", "3"])).is_err()
        );
        assert!(ChannelOptions::parse(&argv(&["subscribe"])).is_err());
        assert!(ChannelOptions::parse(&argv(&["bench", "--bogus"])).is_err());
    }

    #[test]
    fn subscribe_parses_target_and_projection() {
        let opts = ChannelOptions::parse(&argv(&[
            "subscribe",
            "127.0.0.1:7071",
            "--keep",
            "timestep,quality",
            "--narrow",
            "--count",
            "5",
        ]))
        .unwrap();
        assert_eq!(opts.target.as_deref(), Some("127.0.0.1:7071"));
        assert_eq!(opts.keep, vec!["timestep", "quality"]);
        assert!(opts.narrow);
        assert_eq!(opts.count, 5);
    }

    #[test]
    fn demo_channel_id_is_stable_across_computations() {
        assert_eq!(demo_channel_id().unwrap(), demo_channel_id().unwrap());
    }

    /// The CI gate in miniature: encode count scales with views and the
    /// block policy is lossless.
    #[test]
    fn bench_smoke_gates_on_shared_encodes() {
        let opts = ChannelOptions {
            subs: 6,
            projections: 3,
            events: 12,
            payload: 32,
            check: true,
            ..ChannelOptions::default()
        };
        let report = bench(opts).unwrap();
        let run = &report.run;
        assert_eq!(run.encodes, 12 * 3, "{}", report.to_text());
        assert_eq!(run.received, 6 * 12, "{}", report.to_text());
        assert_eq!(run.errors + run.dropped + run.disconnected, 0);
        assert!(report.passed(), "{}", report.to_text());
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"channels\""), "{json}");
        assert!(json.contains("\"encodes_per_event\": 3.000"), "{json}");
        assert!(json.contains("\"passed\": true"), "{json}");
    }
}
