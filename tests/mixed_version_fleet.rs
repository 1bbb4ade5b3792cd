//! Mixed-version fleet interop: every compatible version pairing of the
//! `Telemetry` format negotiates at connection setup and interoperates,
//! over raw XMIT links and over ECho channels; the one breaking variant
//! is bounced at the handshake —
//! before any record crosses the wire — and reconnections ride the pair
//! cache with zero plan recompiles and zero steady-state allocations.

use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use openmeta_echo::{ChannelConfig, ChannelHost, ChannelSubscriber, EchoError};
use openmeta_net::TransportConfig;
use openmeta_pbio::{FormatDescriptor, FormatRegistry, MachineModel};
use xmit::{NegotiationCache, PairVerdict, Xmit, XmitError, XmitReceiver, XmitSender};

const XSD: &str = "http://www.w3.org/2001/XMLSchema";

/// One version of the fleet's shared `Telemetry` format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The baseline everyone started from.
    V1,
    /// Gained a trailing `tag` field.
    Grown,
    /// Lost the `station` field.
    Shrunk,
    /// Same fields, `station` moved ahead of `reading`.
    Reordered,
    /// `reading` widened from float to double.
    Widened,
    /// `timestep` retyped to a string — breaking.
    Retyped,
}

const COMPATIBLE: [Variant; 5] =
    [Variant::V1, Variant::Grown, Variant::Shrunk, Variant::Reordered, Variant::Widened];

fn xml(v: Variant) -> String {
    let timestep = match v {
        Variant::Retyped => r#"<xsd:element name="timestep" type="xsd:string" />"#,
        _ => r#"<xsd:element name="timestep" type="xsd:integer" />"#,
    };
    let reading = match v {
        Variant::Widened => r#"<xsd:element name="reading" type="xsd:double" />"#,
        _ => r#"<xsd:element name="reading" type="xsd:float" />"#,
    };
    let station = r#"<xsd:element name="station" type="xsd:string" />"#;
    let samples = r#"<xsd:element name="samples" type="xsd:double" minOccurs="0"
        maxOccurs="*" dimensionPlacement="before" dimensionName="nsamples" />"#;
    let tag = r#"<xsd:element name="tag" type="xsd:long" />"#;
    let body = match v {
        Variant::Shrunk => format!("{timestep}{reading}{samples}"),
        Variant::Reordered => format!("{timestep}{station}{reading}{samples}"),
        Variant::Grown => format!("{timestep}{reading}{samples}{station}{tag}"),
        _ => format!("{timestep}{reading}{samples}{station}"),
    };
    format!(r#"<xsd:complexType name="Telemetry" xmlns:xsd="{XSD}">{body}</xsd:complexType>"#)
}

fn bind(v: Variant, machine: MachineModel) -> (Xmit, Arc<FormatDescriptor>) {
    let xm = Xmit::new(machine);
    xm.load_str(&xml(v)).unwrap();
    let format = xm.bind("Telemetry").unwrap().format.clone();
    (xm, format)
}

/// The verdict negotiation must reach for an ordered (sender, receiver)
/// variant pairing.
fn expected_verdict(s: Variant, r: Variant) -> PairVerdict {
    if s == r {
        PairVerdict::Identical
    } else if s == Variant::Widened || r == Variant::Widened {
        PairVerdict::Widening
    } else {
        PairVerdict::Projectable
    }
}

fn fill(xm: &Xmit, v: Variant, t: i64) -> openmeta_pbio::RawRecord {
    let token = xm.bind("Telemetry").unwrap();
    let mut rec = token.new_record();
    rec.set_i64("timestep", t).unwrap();
    rec.set_f64("reading", t as f64 * 0.5).unwrap();
    rec.set_f64_array("samples", &[1.0, 2.0, 3.0]).unwrap();
    if v != Variant::Shrunk {
        rec.set_string("station", "fleet").unwrap();
    }
    if v == Variant::Grown {
        rec.set_i64("tag", 99).unwrap();
    }
    rec
}

/// Every ordered pairing of the five compatible variants (both
/// directions of every version skew) negotiates and delivers records.
#[test]
fn point_to_point_matrix_interoperates_across_versions() {
    for s in COMPATIBLE {
        for r in COMPATIBLE {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap();
            let rx_thread = std::thread::spawn(move || {
                let (stream, _) = listener.accept().unwrap();
                let (rx_xmit, _) = bind(r, MachineModel::native());
                let mut rx = XmitReceiver::new(stream, rx_xmit.registry().clone());
                rx.set_negotiation_cache(Arc::new(NegotiationCache::new()));
                let mut seen = Vec::new();
                while let Some(rec) = rx.recv().unwrap() {
                    seen.push(rec.get_i64("timestep").unwrap());
                }
                seen
            });

            let (tx_xmit, format) = bind(s, MachineModel::native());
            let mut tx = XmitSender::connect(addr).unwrap();
            let accept = tx.negotiate(&[&format]).unwrap();
            assert_eq!(
                accept.verdict_for(format.id()),
                Some(expected_verdict(s, r)),
                "pairing {s:?} -> {r:?}"
            );
            for t in 0..3 {
                tx.send(&fill(&tx_xmit, s, t)).unwrap();
            }
            drop(tx);
            assert_eq!(rx_thread.join().unwrap(), vec![0, 1, 2], "pairing {s:?} -> {r:?}");
        }
    }
}

/// The breaking variant is refused during the handshake, in both
/// directions, before a single record is accepted.
#[test]
fn incompatible_pairing_is_rejected_at_handshake() {
    for (s, r) in [(Variant::V1, Variant::Retyped), (Variant::Retyped, Variant::V1)] {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rx_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (rx_xmit, _) = bind(r, MachineModel::native());
            let mut rx = XmitReceiver::new(stream, rx_xmit.registry().clone());
            rx.set_negotiation_cache(Arc::new(NegotiationCache::new()));
            (rx.recv().map(|_| ()), 0u32)
        });

        let (_tx_xmit, format) = bind(s, MachineModel::native());
        let mut tx = XmitSender::connect(addr).unwrap();
        let err = tx.negotiate(&[&format]).unwrap_err();
        match &err {
            XmitError::Negotiation(reason) => {
                assert!(
                    reason.contains("incompatible versions"),
                    "pairing {s:?} -> {r:?}: unexpected reason: {reason}"
                );
            }
            other => panic!("pairing {s:?} -> {r:?}: expected Negotiation, got {other}"),
        }
        let (rx_outcome, records) = rx_thread.join().unwrap();
        assert!(rx_outcome.is_err(), "receiver must surface the rejection");
        assert_eq!(records, 0, "no record may precede the rejection");
    }
}

/// Reconnections are steady state: one pair-cache miss ever, every
/// later handshake a hit, no convert plan recompiles, and the marshal
/// path stays allocation-free.
#[test]
fn reconnect_loop_rides_the_pair_cache() {
    const RECONNECTS: usize = 6;
    let (rx_xmit, _) = bind(Variant::Grown, MachineModel::native());
    let registry: Arc<FormatRegistry> = rx_xmit.registry().clone();
    let cache = Arc::new(NegotiationCache::new());

    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let (ack_tx, ack_rx) = mpsc::channel::<u64>();
    let thread_registry = registry.clone();
    let thread_cache = cache.clone();
    let rx_thread = std::thread::spawn(move || {
        for _ in 0..RECONNECTS {
            let (stream, _) = listener.accept().unwrap();
            let mut rx = XmitReceiver::new(stream, thread_registry.clone());
            rx.set_negotiation_cache(thread_cache.clone());
            let mut n = 0u64;
            while rx.recv().unwrap().is_some() {
                n += 1;
            }
            ack_tx.send(n).unwrap();
        }
    });

    let (tx_xmit, format) = bind(Variant::V1, MachineModel::native());
    let rec = fill(&tx_xmit, Variant::V1, 7);
    let mut plan_misses_after_first = 0u64;
    for h in 0..RECONNECTS {
        let mut tx = XmitSender::connect(addr).unwrap();
        let accept = tx.negotiate(&[&format]).unwrap();
        assert_eq!(accept.verdict_for(format.id()), Some(PairVerdict::Projectable));
        for _ in 0..4 {
            tx.send(&rec).unwrap();
        }
        let warm = tx.marshal_stats().allocs;
        for _ in 0..16 {
            tx.send(&rec).unwrap();
        }
        assert_eq!(tx.marshal_stats().allocs, warm, "steady sends must not allocate");
        drop(tx);
        assert_eq!(ack_rx.recv().unwrap(), 20);
        let plan_misses =
            registry.plan_cache_stats().misses + tx_xmit.registry().plan_cache_stats().misses;
        if h == 0 {
            plan_misses_after_first = plan_misses;
        } else {
            assert_eq!(plan_misses, plan_misses_after_first, "reconnect {h} recompiled a plan");
        }
    }
    rx_thread.join().unwrap();

    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "one first contact");
    assert_eq!(stats.hits, (RECONNECTS - 1) as u64, "every reconnect a cache hit");
    assert_eq!(stats.rejected, 0);
}

/// A mixed-version ECho fleet: the host publishes its v1 channel, five
/// versions of subscriber (two seats each) negotiate their own formats
/// at SUBSCRIBE time, the breaking version bounces with SUB_ERR, and
/// the host's pair cache amortizes repeated versions.
#[test]
fn echo_fleet_mixed_versions() {
    const EVENTS: usize = 8;
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let mut doc = openmeta_schema::parse_str(&xml(Variant::V1)).unwrap();
    let channel = host.create_channel(&doc.types.remove(0)).unwrap();
    let addr = host.addr();
    let id = channel.format_id();

    let versions = [Variant::Grown, Variant::Shrunk, Variant::Reordered, Variant::Widened];
    let mut handles = Vec::new();
    for v in versions {
        for _ in 0..2 {
            handles.push(std::thread::spawn(move || -> Result<Vec<i64>, String> {
                let (_xm, format) = bind(v, MachineModel::native());
                let mut sub = ChannelSubscriber::connect_versioned(
                    addr,
                    id,
                    &format,
                    &TransportConfig::default(),
                )
                .map_err(|e| format!("{v:?}: subscribe: {e}"))?;
                let mut seen = Vec::new();
                while let Some(rec) = sub.recv().map_err(|e| format!("{v:?}: recv: {e}"))? {
                    seen.push(rec.get_i64("timestep").map_err(|e| format!("{v:?}: {e}"))?);
                }
                Ok(seen)
            }));
        }
    }
    // An unversioned (old-protocol) subscriber rides along untouched.
    handles.push(std::thread::spawn(move || -> Result<Vec<i64>, String> {
        let mut sub =
            ChannelSubscriber::connect(addr, id, None).map_err(|e| format!("identity: {e}"))?;
        let mut seen = Vec::new();
        while let Some(rec) = sub.recv().map_err(|e| format!("identity: {e}"))? {
            seen.push(rec.get_i64("timestep").map_err(|e| e.to_string())?);
        }
        Ok(seen)
    }));

    let expected_subs = versions.len() * 2 + 1;
    let ramp = std::time::Instant::now();
    while channel.subscriber_count() < expected_subs {
        assert!(
            ramp.elapsed() < Duration::from_secs(10),
            "only {}/{expected_subs} subscribers attached",
            channel.subscriber_count()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // The breaking version is refused a seat at the handshake.
    let (_xm, retyped) = bind(Variant::Retyped, MachineModel::native());
    let refused =
        ChannelSubscriber::connect_versioned(addr, id, &retyped, &TransportConfig::default());
    match refused.map(|_| ()) {
        Err(EchoError::Rejected(reason)) => {
            assert!(reason.contains("incompatible versions"), "reason: {reason}")
        }
        other => panic!("breaking version must be rejected, got {other:?}"),
    }

    let mut rec = channel.new_record();
    rec.set_f64("reading", 0.5).unwrap();
    rec.set_f64_array("samples", &[4.0; 5]).unwrap();
    rec.set_string("station", "host").unwrap();
    for t in 0..EVENTS {
        rec.set_i64("timestep", t as i64).unwrap();
        channel.publish(&rec).unwrap();
    }
    drop(channel);
    let stats = host.negotiation_stats();
    drop(host);

    let want: Vec<i64> = (0..EVENTS as i64).collect();
    for h in handles {
        assert_eq!(h.join().unwrap().unwrap(), want);
    }
    // One miss per distinct version, plus the retyped first contact
    // (a rejection is classified once, then cached like any pair).
    assert_eq!(stats.misses, versions.len() as u64 + 1);
    assert_eq!(stats.hits, versions.len() as u64, "second seat of each version hits");
    assert_eq!(stats.rejected, 1, "the retyped offer");
}
