//! `openmeta channel` — ECho-style event channels from the command line.
//!
//! ```text
//! openmeta channel publish   [--port P] [--events N] [--interval-ms MS]
//!                            [--payload N] [--policy block|drop|disconnect]
//!                            [--queue-cap N]
//! openmeta channel subscribe <host:port> [--keep f1,f2] [--narrow] [--id N]
//!                            [--count N]
//! ```
//!
//! Both modes speak the demo `FlowSample` channel, whose id is
//! content-addressed: a subscriber computes the same [`FormatId`] from
//! the shared definition that the publisher derived, so rendezvous needs
//! no registry round trip — any party holding the metadata can name the
//! channel.

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
}

/// Parsed `openmeta channel` options.
#[derive(Debug, Clone)]
pub struct ChannelOptions {
    /// Sub-mode (first positional argument).
    pub mode: ChannelMode,
    /// Events to publish (`publish`: 0 means run until killed).
    pub events: usize,
    /// Doubles in each event's `depth` array.
    pub payload: usize,
    /// Slow-subscriber policy for the hosted channel.
    pub policy: SlowPolicy,
    /// Per-subscriber queue bound.
    pub queue_cap: usize,
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
            mode: ChannelMode::Publish,
            events: 200,
            payload: 512,
            policy: SlowPolicy::Block,
            queue_cap: 1024,
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
            return Err("channel needs a mode: publish or subscribe".to_string());
        };
        opts.mode = match mode.as_str() {
            "publish" => ChannelMode::Publish,
            "subscribe" => ChannelMode::Subscribe,
            other => return Err(format!("unknown channel mode '{other}'")),
        };
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            let mut value =
                |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value")).cloned();
            match arg.as_str() {
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
                other if opts.mode == ChannelMode::Subscribe && !other.starts_with('-') => {
                    opts.target = Some(other.to_string())
                }
                other => return Err(format!("unknown channel option '{other}'")),
            }
        }
        if opts.mode == ChannelMode::Subscribe && opts.target.is_none() {
            return Err("subscribe needs a <host:port> target".to_string());
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

fn policy_name(p: SlowPolicy) -> &'static str {
    match p {
        SlowPolicy::Block => "block",
        SlowPolicy::DropNewest => "drop",
        SlowPolicy::Disconnect => "disconnect",
    }
}

fn channel_config(opts: &ChannelOptions) -> ChannelConfig {
    ChannelConfig { queue_cap: opts.queue_cap, policy: opts.policy, ..ChannelConfig::default() }
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

/// Dispatch per mode; each mode streams its own output.
pub fn run(opts: ChannelOptions) -> Result<(), ToolError> {
    match opts.mode {
        ChannelMode::Publish => publish(&opts),
        ChannelMode::Subscribe => subscribe(&opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_recognizes_publish_flags() {
        let opts = ChannelOptions::parse(&argv(&[
            "publish",
            "--events",
            "16",
            "--payload",
            "64",
            "--policy",
            "drop",
            "--queue-cap",
            "4",
        ]))
        .unwrap();
        assert_eq!(opts.mode, ChannelMode::Publish);
        assert_eq!((opts.events, opts.payload), (16, 64));
        assert_eq!(opts.policy, SlowPolicy::DropNewest);
        assert_eq!(opts.queue_cap, 4);
    }

    #[test]
    fn parse_rejects_bad_shapes() {
        assert!(ChannelOptions::parse(&argv(&[])).is_err());
        assert!(ChannelOptions::parse(&argv(&["flood"])).is_err());
        assert!(ChannelOptions::parse(&argv(&["bench"])).is_err());
        assert!(ChannelOptions::parse(&argv(&["subscribe"])).is_err());
        assert!(ChannelOptions::parse(&argv(&["publish", "--bogus"])).is_err());
        assert!(ChannelOptions::parse(&argv(&["publish", "--subs", "8"])).is_err());
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
}
