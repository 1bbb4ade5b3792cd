//! `rpc_small`: small-record XMIT messaging in a closed loop.
//!
//! One client with two threads and two loopback connections.  The
//! client thread sends a record on connection A; an echo thread decodes
//! it, sends it back on connection B, and the client decodes the echo
//! and compares it field by field with what it sent.  One round trip is
//! one op.
//!
//! The records are the Hydrology control plane — `SimpleData` with 1–64
//! floats, `JoinRequest`, `ControlMsg`, `GridMetadata`, 30–600 B
//! encoded — 64 of each per deck.  `JoinRequest` and `GridMetadata` are
//! bound for big-endian `SPARC64`, so both hops byte-swap them;
//! `ControlMsg` is sent at a newer compatible version (one extra field)
//! negotiated by `HELLO` at set-up, so both hops convert across
//! versions; `SimpleData` stays native and same-layout.
//!
//! The client and the echo thread are pinned to two different CPUs
//! (see [`crate::placement`]), so every hop wakes the other CPU.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use openmeta_hydrology::hydrology_schema_xml;
use openmeta_net::TransportConfig;
use openmeta_obs::clock;
use openmeta_pbio::{MachineModel, RawRecord, Value};
use xmit::{NegotiationCache, Xmit, XmitReceiver, XmitSender};

use crate::gen::{record_value, stratified, Rng};
use crate::placement::{pin_current_thread, ping_pong_cpus};
use crate::report::{err, BenchError, Outcome, RunConfig, Windows};
use crate::sockets::{accept_within, listen};
use crate::trace::{KindDeltas, Probe, Tracer};
use crate::{common_layers, conclude, ratio, residuals, run_setups, Layers};

/// Records of each format per deck.
const PER_FORMAT: usize = 64;

/// Warm-up passes over the deck during set-up.
const WARMUP_ROUNDS: usize = 2;

const CONNECT_LIMIT: Duration = Duration::from_secs(10);

/// Which decode path a record takes on both hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Path {
    /// Native layout end to end.
    Same,
    /// Bound for `SPARC64`: byte-swap convert on both hops.
    Swap,
    /// Newer version: cross-version convert on both hops.
    Version,
}

impl Path {
    fn name(self) -> &'static str {
        match self {
            Path::Same => "same",
            Path::Swap => "swap",
            Path::Version => "version",
        }
    }
}

struct Item {
    path: Path,
    send: RawRecord,
    /// The record the echo must decode to on the client.
    expect: RawRecord,
}

struct Rig {
    tx: XmitSender,
    rx: XmitReceiver,
    echo: JoinHandle<Result<Tracer, String>>,
    echo_tracing: Arc<AtomicBool>,
    deck: Vec<Item>,
}

impl Rig {
    /// Hang up and collect the echo thread's spans.
    fn finish(self) -> Result<Tracer, BenchError> {
        let Rig { tx, rx, echo, .. } = self;
        drop(tx);
        let res = echo.join().map_err(|_| BenchError("echo thread panicked".to_string()))?;
        drop(rx);
        res.map_err(|e| BenchError(format!("echo thread: {e}")))
    }
}

/// The Hydrology document with `ControlMsg` grown by one field.
fn hydrology_v2() -> Result<String, BenchError> {
    let v1 = hydrology_schema_xml();
    let anchor = r#"<xsd:element name="note" type="xsd:string" />"#;
    if !v1.contains(anchor) {
        return Err(BenchError("ControlMsg anchor missing from the Hydrology schema".into()));
    }
    let grown = format!("{anchor}\n    <xsd:element name=\"epoch\" type=\"xsd:unsignedLong\" />");
    Ok(v1.replacen(anchor, &grown, 1))
}

fn with_field_zeroed(v: &Value, field: &str) -> Value {
    match v {
        Value::Record(rv) => {
            let mut rv = rv.clone();
            for (name, value) in &mut rv.fields {
                if name == field {
                    *value = Value::UInt(0);
                }
            }
            Value::Record(rv)
        }
        other => other.clone(),
    }
}

fn deck(seed: u64, v2: &str) -> Result<Vec<Item>, BenchError> {
    let native = Xmit::new(MachineModel::native());
    native.load_str(v2).map_err(|e| err("load v2 (native)", e))?;
    let sparc = Xmit::new(MachineModel::SPARC64);
    sparc.load_str(v2).map_err(|e| err("load v2 (SPARC64)", e))?;
    let bind = |xm: &Xmit, name: &str| xm.bind(name).map_err(|e| err(name, e));
    let simple = bind(&native, "SimpleData")?.format;
    let control = bind(&native, "ControlMsg")?.format;
    let join = bind(&sparc, "JoinRequest")?.format;
    let grid = bind(&sparc, "GridMetadata")?.format;
    let control_back = bind(&sparc, "ControlMsg")?.format;

    let mut rng = Rng::new(seed, 0x2B5);
    let lens = stratified(&mut rng, PER_FORMAT, 1, 64);
    let mut deck = Vec::with_capacity(4 * PER_FORMAT);
    let rec = |v: Value, f: &Arc<_>| v.into_record(Arc::clone(f)).map_err(|e| err("record", e));
    for &len in &lens {
        let v = record_value(&mut rng, &simple, len as usize);
        let send = rec(v, &simple)?;
        deck.push(Item { path: Path::Same, expect: send.clone(), send });
        for f in [&join, &grid] {
            let send = rec(record_value(&mut rng, f, 0), f)?;
            deck.push(Item { path: Path::Swap, expect: send.clone(), send });
        }
        // The echo drops `epoch` (v2 → v1); the way back widens it to 0.
        let v = record_value(&mut rng, &control, 0);
        let expect = rec(with_field_zeroed(&v, "epoch"), &control_back)?;
        deck.push(Item { path: Path::Version, send: rec(v, &control)?, expect });
    }
    rng.shuffle(&mut deck);
    Ok(deck)
}

fn echo_main(
    listener: std::net::TcpListener,
    reply_to: std::net::SocketAddr,
    registry: Arc<xmit::FormatRegistry>,
    tracing: Arc<AtomicBool>,
    cpu: Option<usize>,
) -> Result<Tracer, String> {
    if let Some(cpu) = cpu {
        pin(cpu, "echo");
    }
    let mut tr = Tracer::new("echo");
    let stream = accept_within(&listener, CONNECT_LIMIT).map_err(|e| e.0)?;
    let mut rx = XmitReceiver::new_with(stream, registry, &TransportConfig::default())
        .map_err(|e| e.to_string())?;
    // A fresh pair cache per set-up: the first HELLO is first contact.
    rx.set_negotiation_cache(Arc::new(NegotiationCache::new()));
    let mut tx = XmitSender::connect(reply_to).map_err(|e| e.to_string())?;
    loop {
        let start = clock::now();
        let got = rx.recv();
        tr.set_enabled(tracing.load(Ordering::Acquire));
        tr.record("xmit.recv", start);
        match got {
            Ok(Some(rec)) => tr.leaf("xmit.send", || tx.send(&rec)).map_err(|e| e.to_string())?,
            Ok(None) => return Ok(tr),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Pin the calling thread, or say on standard error that it runs where
/// the scheduler puts it.
fn pin(cpu: usize, who: &str) {
    if let Err(e) = pin_current_thread(cpu) {
        eprintln!("perfbench: rpc_small: {who} thread left unpinned: {e}");
    }
}

/// Servers, connections, handshake and warm-up; the echo thread runs
/// on `echo_cpu`.
fn setup(seed: u64, tr: &mut Tracer, echo_cpu: Option<usize>) -> Result<Rig, BenchError> {
    let v1 = hydrology_schema_xml();
    let v2 = hydrology_v2()?;
    let echo_side = Xmit::new(MachineModel::native());
    echo_side.load_str(&v1).map_err(|e| err("load v1", e))?;
    echo_side.bind_all().map_err(|e| err("bind v1", e))?;
    let client_side = Xmit::new(MachineModel::SPARC64);
    client_side.load_str(&v2).map_err(|e| err("load v2", e))?;
    for name in ["JoinRequest", "GridMetadata", "ControlMsg"] {
        client_side.bind(name).map_err(|e| err(name, e))?;
    }
    let deck = deck(seed, &v2)?;

    let (la, addr_a) = listen()?;
    let (lb, addr_b) = listen()?;
    let echo_tracing = Arc::new(AtomicBool::new(false));
    let (flag, registry) = (Arc::clone(&echo_tracing), Arc::clone(echo_side.registry()));
    let echo = std::thread::Builder::new()
        .name("rpc-echo".to_string())
        .spawn(move || echo_main(la, addr_b, registry, flag, echo_cpu))
        .map_err(|e| err("spawn echo", e))?;
    let mut tx = XmitSender::connect(addr_a).map_err(|e| err("connect echo", e))?;
    let stream = accept_within(&lb, CONNECT_LIMIT)?;
    let rx = XmitReceiver::new_with(
        stream,
        Arc::clone(client_side.registry()),
        &TransportConfig::default(),
    )
    .map_err(|e| err("reply stream", e))?;

    let v2_format = deck
        .iter()
        .find(|i| i.path == Path::Version)
        .map(|i| Arc::clone(i.send.format()))
        .ok_or_else(|| BenchError("deck has no versioned record".into()))?;
    for span in ["xmit.negotiate_first", "xmit.negotiate_cached"] {
        let accept = tr.leaf(span, || tx.negotiate(&[&v2_format])).map_err(|e| err(span, e))?;
        if !accept.verdict_for(v2_format.id()).is_some_and(|v| v.is_compatible()) {
            return Err(BenchError(format!("{span}: ControlMsg v2 not accepted")));
        }
    }
    let mut rig = Rig { tx, rx, echo, echo_tracing, deck };
    for _ in 0..WARMUP_ROUNDS {
        for i in 0..rig.deck.len() {
            let item = &rig.deck[i];
            rig.tx.send(&item.send).map_err(|e| err("warm-up send", e))?;
            let got = rig.rx.recv().map_err(|e| err("warm-up recv", e))?;
            check(got.as_ref(), item).map_err(BenchError)?;
        }
    }
    Ok(rig)
}

/// Field-by-field comparison of the echo with what it should be.
fn check(got: Option<&RawRecord>, item: &Item) -> Result<(), String> {
    let Some(got) = got else { return Err("echo hung up".to_string()) };
    if *got == item.expect {
        return Ok(());
    }
    let (a, b) = (Value::from_record(got), Value::from_record(&item.expect));
    Err(format!("{} echo differs: got {a:?}, want {b:?}", item.expect.format().name))
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, BenchError> {
    let cpus = ping_pong_cpus();
    if let Some((client, _)) = cpus {
        pin(client, "client");
    }
    let echo_cpu = cpus.map(|c| c.1);
    let mut tr = Tracer::new("client");
    tr.set_enabled(cfg.trace);
    let (mut rig, setup_s) =
        run_setups(cfg, || setup(cfg.seed, &mut tr, echo_cpu), |rig: Rig| rig.finish().map(drop))?;
    tr.set_enabled(false);

    // A traced run replays the deck grouped by decode path in every
    // round, so its probes attribute per path and its untraced rounds
    // match the traced ones op for op.
    let mut order: Vec<usize> = (0..rig.deck.len()).collect();
    if cfg.trace {
        order.sort_by_key(|&i| rig.deck[i].path);
    }

    let mut out = Outcome::default();
    let mut windows = Windows::default();
    let mut lat = Vec::with_capacity(1024);
    let mut deltas = KindDeltas::default();
    let mut rounds = [(0.0f64, 0u64); 2];
    let mut op = 0u64;
    let start = clock::now();
    let mut round = 0u64;
    'rounds: while start.elapsed().as_secs_f64() < cfg.seconds || (cfg.trace && round < 2) {
        let traced = cfg.trace && round % 2 == 1;
        tr.set_enabled(traced);
        rig.echo_tracing.store(traced, Ordering::Release);
        let r0 = clock::now();
        lat.clear();
        let mut seg: Option<(Path, Probe, u64)> = None;
        for &i in &order {
            let item = &rig.deck[i];
            if traced && seg.as_ref().map(|s| s.0) != Some(item.path) {
                if let Some((p, p0, n)) = seg.take() {
                    deltas.add(p.name(), n, &Probe::take().since(&p0));
                }
                seg = Some((item.path, Probe::take(), 0));
            }
            tr.set_op(item.path.name(), op);
            tr.enter("op");
            let t0 = clock::now();
            let sent = tr.leaf("xmit.send", || rig.tx.send(&item.send));
            let got = match sent {
                Ok(()) => tr.leaf("xmit.recv", || rig.rx.recv()),
                Err(e) => Err(e),
            };
            let dt = t0.elapsed();
            let verdict = match &got {
                Ok(rec) => tr.leaf("bench.check", || check(rec.as_ref(), item)),
                Err(e) => Err(format!("transport: {e}")),
            };
            tr.exit();
            out.attempted += 1;
            op += 1;
            if let Some(s) = seg.as_mut() {
                s.2 += 1;
            }
            if !traced {
                lat.push(clock::duration_ns(dt));
            }
            if let Err(what) = verdict {
                out.fail(what);
                if !matches!(got, Ok(Some(_))) {
                    break 'rounds;
                }
            }
        }
        if let Some((p, p0, n)) = seg.take() {
            deltas.add(p.name(), n, &Probe::take().since(&p0));
        }
        let dt = r0.elapsed().as_secs_f64();
        if !traced {
            windows.add_round(dt, &lat);
        }
        let slot = &mut rounds[usize::from(traced)];
        slot.0 += dt;
        slot.1 += order.len() as u64;
        round += 1;
    }
    let echo_tr = rig.finish()?;
    tr.absorb(echo_tr);

    conclude(cfg, &mut out, &tr, || layers(&tr, &deltas, rounds), windows, &setup_s)?;
    Ok(out)
}

fn layers(tr: &Tracer, deltas: &KindDeltas, rounds: [(f64, u64); 2]) -> Layers {
    let mut l = Layers::default();
    let (ops, d) = deltas.sum(&[]);
    common_layers(&mut l, ops, &d);
    let (_, conv) = deltas.sum(&["swap", "version"]);
    l.set("pbio.convert_ns", conv.stage_mean_ns("marshal.decode"), conv.stage("marshal.decode").0);
    let send = tr.agg(&[], "xmit.send");
    let recv = tr.agg(&[], "xmit.recv");
    l.set("xmit.send_ns", send.mean_ns(), send.count);
    l.set("xmit.recv_ns", recv.mean_ns(), recv.count);
    let (_, recv_stage_ns) = d.stage("transport.recv");
    l.set(
        "xmit.recv_wait_ns",
        ratio(recv.total_ns.saturating_sub(recv_stage_ns) as f64, recv.count as f64),
        recv.count,
    );
    for (span, name) in [
        ("xmit.negotiate_first", "xmit.negotiate_first_us"),
        ("xmit.negotiate_cached", "xmit.negotiate_cached_us"),
    ] {
        let a = tr.agg(&[], span);
        l.set(name, a.mean_ns() / 1e3, a.count);
    }
    residuals(&mut l, tr, "op", "rpc_small.unattributed_pct", rounds);
    l
}
