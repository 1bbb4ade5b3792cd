//! `fanout`: bulk ECho fan-out to an identity seat and a derived seat.
//!
//! One `ChannelHost` on the default `ChannelConfig` (`SlowPolicy::Block`)
//! carries a `FlowField2D` channel.  The main thread publishes seeded
//! frames with grids from 64×64 to 256×256 (about 100 KiB to 1.5 MiB
//! encoded); one drain thread reads two subscriber connections — the
//! identity view and a projection that keeps the `depth` array narrowed
//! to floats, so the host converts and re-encodes every frame byte by
//! byte.  The drain compares both deliveries field by field with what was
//! published.  One event decoded by both seats is one op.
//!
//! The loop is closed: the publisher sends the next event once the drain
//! has checked the previous one.  Left open, the default seat queue
//! (1024 frames) would let the publisher pin over a gigabyte of queued
//! frames, and peak memory would depend on scheduling.
//!
//! Frame sizes are stratified and laid out small, large, small, …, so
//! every seed puts frames of the same size class next to each other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use openmeta_echo::{
    Channel, ChannelConfig, ChannelHost, ChannelStats, ChannelSubscriber, Projection,
};
use openmeta_hydrology::hydrology_schema_xml;
use openmeta_obs::clock;
use openmeta_pbio::value::RecordValue;
use openmeta_pbio::{MachineModel, RawRecord, Value};
use openmeta_schema::{parse_str, to_xml, ComplexType, SchemaDocument, TypeRef};
use xmit::{project_type, Xmit};

use crate::gen::{record_value, stratified, Rng};
use crate::report::{err, BenchError, Outcome, RunConfig, Windows};
use crate::trace::{KindDeltas, Probe, Tracer};
use crate::{common_layers, conclude, ratio, residuals, run_setups, Layers};

/// Frames per deck (one round publishes each once).
const FRAMES: usize = 32;

/// How long the publisher waits for one delivery before failing.
const DELIVERY_LIMIT: Duration = Duration::from_secs(30);

struct Frame {
    rec: RawRecord,
    /// What the projected seat must decode to.
    projected: RawRecord,
    /// Encoded bytes of both deliveries.
    payload_bytes: u64,
}

struct Completion {
    at: Instant,
    verdict: Result<(), String>,
}

struct Rig {
    host: ChannelHost,
    chan: Channel,
    deck: Arc<Vec<Frame>>,
    done: Receiver<Completion>,
    drain: JoinHandle<Result<Tracer, String>>,
    drain_tracing: Arc<AtomicBool>,
}

impl Rig {
    fn finish(self) -> Result<Tracer, BenchError> {
        let Rig { host, chan, drain, done, .. } = self;
        drop(chan);
        drop(host);
        let res = drain.join().map_err(|_| BenchError("drain thread panicked".to_string()))?;
        drop(done);
        res.map_err(|e| BenchError(format!("drain thread: {e}")))
    }
}

/// `FlowField2D` with its `GridMetadata` header inlined: a channel binds
/// one `complexType`, so the nested header is flattened into it.
fn flow_type() -> Result<ComplexType, BenchError> {
    let doc = parse_str(&hydrology_schema_xml()).map_err(|e| err("parse Hydrology", e))?;
    let grid = doc.get("GridMetadata").ok_or_else(|| BenchError("no GridMetadata".into()))?;
    let flow = doc.get("FlowField2D").ok_or_else(|| BenchError("no FlowField2D".into()))?;
    let mut elements = grid.elements.clone();
    elements
        .extend(flow.elements.iter().filter(|e| !matches!(e.type_ref, TypeRef::Named(_))).cloned());
    Ok(ComplexType::new("FlowField2D", elements))
}

fn projection() -> Projection {
    Projection::keeping(["timestep", "frame_id", "nx", "ny", "depth"]).with_narrowing()
}

fn set(rv: &mut RecordValue, name: &str, v: Value) {
    if let Some(slot) = rv.fields.iter_mut().find(|(n, _)| n == name) {
        slot.1 = v;
    }
}

fn frames(
    seed: u64,
    chan: &Channel,
    projected: &Arc<openmeta_pbio::FormatDescriptor>,
) -> Result<Vec<Frame>, BenchError> {
    let mut rng = Rng::new(seed, 0xFA0);
    // Stratified grid areas between 64² and 256² cells, interleaved
    // smallest, largest, second smallest, …
    let sorted = stratified(&mut rng, FRAMES, 64 * 64, 256 * 256);
    let areas: Vec<u64> = (0..FRAMES)
        .map(|i| if i % 2 == 0 { sorted[i / 2] } else { sorted[FRAMES - 1 - i / 2] })
        .collect();
    let mut out = Vec::with_capacity(FRAMES);
    for (k, area) in areas.into_iter().enumerate() {
        let nx = (area as f64).sqrt().round().max(1.0) as usize;
        let ny = (area as usize / nx).max(1);
        let cells = nx * ny;
        let Value::Record(mut rv) = record_value(&mut rng, chan.format(), 0) else {
            return Err(BenchError("record value is not a record".into()));
        };
        let depth: Vec<f64> = (0..cells).map(|_| rng.unit() * 10.0).collect();
        let velocity: Vec<f64> = (0..2 * cells).map(|_| rng.unit() * 4.0 - 2.0).collect();
        set(&mut rv, "nx", Value::Int(nx as i64));
        set(&mut rv, "ny", Value::Int(ny as i64));
        set(&mut rv, "frame_id", Value::Int(k as i64));
        set(&mut rv, "ncells", Value::Int(cells as i64));
        set(&mut rv, "nvel", Value::Int(2 * cells as i64));
        let narrowed: Vec<f64> = depth.iter().map(|&d| d as f32 as f64).collect();
        set(&mut rv, "depth", Value::FloatArray(depth));
        set(&mut rv, "velocity", Value::FloatArray(velocity));
        let proj_fields = projected
            .fields
            .iter()
            .map(|f| {
                let v = if f.name == "depth" {
                    Value::FloatArray(narrowed.clone())
                } else {
                    rv.get(&f.name).cloned().unwrap_or(Value::Int(0))
                };
                (f.name.clone(), v)
            })
            .collect();
        let proj_rv = RecordValue { format_name: projected.name.clone(), fields: proj_fields };
        let rec = Value::Record(rv)
            .into_record(Arc::clone(chan.format()))
            .map_err(|e| err("frame record", e))?;
        let projected_rec = Value::Record(proj_rv)
            .into_record(Arc::clone(projected))
            .map_err(|e| err("projected record", e))?;
        let full_len = openmeta_pbio::encode(&rec).map_err(|e| err("encode frame", e))?.len();
        let proj_len =
            openmeta_pbio::encode(&projected_rec).map_err(|e| err("encode projection", e))?.len();
        out.push(Frame {
            rec,
            projected: projected_rec,
            payload_bytes: (full_len + proj_len) as u64,
        });
    }
    Ok(out)
}

fn check(full: &RawRecord, proj: &RawRecord, frame: &Frame) -> Result<(), String> {
    if *full != frame.rec {
        return Err(format!("identity seat: frame {:?} differs", frame.rec.get_i64("frame_id")));
    }
    if *proj != frame.projected {
        return Err(format!("projected seat: frame {:?} differs", frame.rec.get_i64("frame_id")));
    }
    Ok(())
}

fn drain_main(
    mut full: ChannelSubscriber,
    mut proj: ChannelSubscriber,
    deck: Arc<Vec<Frame>>,
    done: mpsc::Sender<Completion>,
    tracing: Arc<AtomicBool>,
) -> Result<Tracer, String> {
    let mut tr = Tracer::new("drain");
    for k in 0.. {
        let frame = &deck[k % deck.len()];
        let start = clock::now();
        let a = full.recv();
        tr.set_enabled(tracing.load(Ordering::Acquire));
        tr.record("echo.recv", start);
        let a = match a {
            Ok(Some(rec)) => rec,
            Ok(None) => return Ok(tr),
            Err(e) => return Err(format!("identity seat: {e}")),
        };
        let b = match tr.leaf("echo.recv", || proj.recv()) {
            Ok(Some(rec)) => rec,
            Ok(None) => return Err("projected seat closed before the identity seat".into()),
            Err(e) => return Err(format!("projected seat: {e}")),
        };
        let at = clock::now();
        let verdict = tr.leaf("bench.check", || check(&a, &b, frame));
        if done.send(Completion { at, verdict }).is_err() {
            return Ok(tr);
        }
    }
    Ok(tr)
}

fn setup(seed: u64) -> Result<Rig, BenchError> {
    let flow = flow_type()?;
    let host = ChannelHost::start(ChannelConfig::default()).map_err(|e| err("channel host", e))?;
    let chan = host.create_channel(&flow).map_err(|e| err("create channel", e))?;
    let p = projection();
    let projected_type = project_type(&flow, &p).map_err(|e| err("project", e))?;
    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&to_xml(&SchemaDocument { types: vec![projected_type.clone()], enums: vec![] }))
        .map_err(|e| err("load projection", e))?;
    let projected = xm.bind(&projected_type.name).map_err(|e| err("bind projection", e))?.format;
    let deck = Arc::new(frames(seed, &chan, &projected)?);

    let full = ChannelSubscriber::connect(host.addr(), chan.format_id(), None)
        .map_err(|e| err("identity subscribe", e))?;
    let proj = ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&p))
        .map_err(|e| err("projected subscribe", e))?;
    if proj.delivered_format() != projected.id() || full.delivered_format() != chan.format_id() {
        return Err(BenchError("a seat delivers an unexpected format".into()));
    }
    let (tx, done) = mpsc::channel();
    let drain_tracing = Arc::new(AtomicBool::new(false));
    let (flag, frames) = (Arc::clone(&drain_tracing), Arc::clone(&deck));
    let drain = std::thread::Builder::new()
        .name("fanout-drain".to_string())
        .spawn(move || drain_main(full, proj, frames, tx, flag))
        .map_err(|e| err("spawn drain", e))?;
    let mut rig = Rig { host, chan, deck, done, drain, drain_tracing };
    // Warm-up: one full deck, every delivery checked.
    let mut tr = Tracer::new("warm-up");
    let mut lat = Vec::new();
    let mut warm = Outcome::default();
    let mut next = 0;
    publish_round(&mut rig, &mut tr, &mut next, &mut lat, &mut warm)?;
    if warm.failed > 0 {
        return Err(BenchError(format!("warm-up: {}", warm.errors.join("; "))));
    }
    Ok(rig)
}

/// Publish one deck, each event after the previous one reached both
/// seats.  `next` is the running event number.
fn publish_round(
    rig: &mut Rig,
    tr: &mut Tracer,
    next: &mut u64,
    lat: &mut Vec<u64>,
    out: &mut Outcome,
) -> Result<(), BenchError> {
    for frame in rig.deck.iter() {
        tr.set_op("event", *next);
        *next += 1;
        out.attempted += 1;
        let t0 = clock::now();
        if let Err(e) = tr.leaf("echo.publish", || rig.chan.publish(&frame.rec)) {
            return Err(err("publish", e));
        }
        let c = match tr.leaf("bench.wait", || rig.done.recv_timeout(DELIVERY_LIMIT)) {
            Ok(c) => c,
            Err(RecvTimeoutError::Timeout) => return Err(BenchError("delivery timed out".into())),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(BenchError("drain thread stopped early".into()))
            }
        };
        lat.push(clock::duration_ns(c.at.saturating_duration_since(t0)));
        if let Err(what) = c.verdict {
            out.fail(what);
        }
    }
    Ok(())
}

fn stats_delta(after: &ChannelStats, before: &ChannelStats) -> (u64, u64, u64) {
    (after.events - before.events, after.encodes - before.encodes, after.dropped - before.dropped)
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, BenchError> {
    let (mut rig, setup_s) =
        run_setups(cfg, || setup(cfg.seed), |rig: Rig| rig.finish().map(drop))?;

    let mut tr = Tracer::new("publisher");
    let mut out = Outcome::default();
    let mut windows = Windows::default();
    let mut deltas = KindDeltas::default();
    let (mut events, mut encodes, mut drops, mut payload) = (0u64, 0u64, 0u64, 0u64);
    let mut rounds = [(0.0f64, 0u64); 2];
    let round_payload: u64 = rig.deck.iter().map(|f| f.payload_bytes).sum();
    let mut next = 0u64;
    let start = clock::now();
    let mut round = 0u64;
    while start.elapsed().as_secs_f64() < cfg.seconds || (cfg.trace && round < 2) {
        let traced = cfg.trace && round % 2 == 1;
        tr.set_enabled(traced);
        rig.drain_tracing.store(traced, Ordering::Release);
        let (p0, s0) =
            if traced { (Some(Probe::take()), Some(rig.chan.stats())) } else { (None, None) };
        let r0 = clock::now();
        tr.set_op("event", next);
        tr.enter("round");
        let mut round_lat = Vec::with_capacity(FRAMES);
        let res = publish_round(&mut rig, &mut tr, &mut next, &mut round_lat, &mut out);
        tr.exit();
        let dt = r0.elapsed().as_secs_f64();
        if let Err(e) = res {
            out.fail(e.0);
            break;
        }
        if let (Some(p0), Some(s0)) = (p0, s0) {
            deltas.add("event", FRAMES as u64, &Probe::take().since(&p0));
            let (ev, enc, dr) = stats_delta(&rig.chan.stats(), &s0);
            (events, encodes, drops, payload) =
                (events + ev, encodes + enc, drops + dr, payload + round_payload);
        } else {
            windows.add_round(dt, &round_lat);
        }
        let slot = &mut rounds[usize::from(traced)];
        slot.0 += dt;
        slot.1 += FRAMES as u64;
        round += 1;
    }
    tr.absorb(rig.finish()?);

    let layers = || {
        let mut l = Layers::default();
        let (ops, d) = deltas.sum(&[]);
        common_layers(&mut l, ops, &d);
        let (_, dec_ns) = d.stage("marshal.decode");
        let (_, recv_ns) = d.stage("transport.recv");
        l.set("pbio.convert_ns", ratio(dec_ns.saturating_sub(recv_ns) as f64, ops as f64), ops);
        let publish = tr.agg(&[], "echo.publish");
        let recv = tr.agg(&[], "echo.recv");
        l.set("echo.publish_us", publish.mean_ns() / 1e3, publish.count);
        l.set("echo.recv_us", recv.mean_ns() / 1e3, recv.count);
        l.set("echo.encodes_per_event", ratio(encodes as f64, events as f64), events);
        l.set("echo.drops", drops as f64, events);
        l.set("echo.payload_bytes_per_event", ratio(payload as f64, events as f64), events);
        residuals(&mut l, &tr, "round", "fanout.unattributed_pct", rounds);
        l
    };
    conclude(cfg, &mut out, &tr, layers, windows, &setup_s)?;
    Ok(out)
}
