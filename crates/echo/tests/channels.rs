//! End-to-end channel tests: identity and derived subscriptions,
//! shared projected encodes, slow-subscriber policies, rejection paths
//! and the per-frame write deadline.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use openmeta_echo::wire::{FRAME_FORMAT, FRAME_RECORD, FRAME_SUBSCRIBE, FRAME_SUB_OK};
use openmeta_echo::{
    ChannelConfig, ChannelHost, ChannelSubscriber, EchoError, FormatId, Projection, SlowPolicy,
    SubscribeRequest,
};
use openmeta_pbio::codec::decode_descriptor;
use openmeta_pbio::{decode, FormatRegistry, MachineModel, PbioError};
use openmeta_schema::{parse_str, ComplexType};

const XSD: &str = "http://www.w3.org/2001/XMLSchema";

fn flow_type() -> ComplexType {
    parse_str(&format!(
        r#"<xsd:complexType name="Flow" xmlns:xsd="{XSD}">
             <xsd:element name="timestep" type="xsd:integer" />
             <xsd:element name="station" type="xsd:string" />
             <xsd:element name="depth" type="xsd:double" maxOccurs="*"
                 dimensionName="ncells" />
             <xsd:element name="quality" type="xsd:double" />
           </xsd:complexType>"#
    ))
    .unwrap()
    .types
    .remove(0)
}

#[test]
fn identity_subscription_receives_full_records() {
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let mut sub = ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap();
    assert_eq!(sub.delivered_format(), chan.format_id());

    for t in 0..5 {
        let mut rec = chan.new_record();
        rec.set_i64("timestep", t).unwrap();
        rec.set_string("station", "gauge-7").unwrap();
        rec.set_f64_array("depth", &[0.5 * t as f64; 3]).unwrap();
        rec.set_f64("quality", 0.99).unwrap();
        let receipt = chan.publish(&rec).unwrap();
        assert_eq!(receipt.encodes, 1);
        assert_eq!(receipt.delivered, 1);
    }
    for t in 0..5 {
        let rec = sub.recv().unwrap().unwrap();
        assert_eq!(rec.get_i64("timestep").unwrap(), t);
        assert_eq!(rec.get_string("station").unwrap(), "gauge-7");
    }
}

#[test]
fn derived_subscription_receives_projected_records() {
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let projection = Projection::keeping(["timestep", "depth"]);
    let mut sub =
        ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&projection)).unwrap();
    assert_ne!(sub.delivered_format(), chan.format_id());

    let mut rec = chan.new_record();
    rec.set_i64("timestep", 42).unwrap();
    rec.set_string("station", "gauge-7").unwrap();
    rec.set_f64_array("depth", &[1.25, 2.5]).unwrap();
    rec.set_f64("quality", 0.5).unwrap();
    chan.publish(&rec).unwrap();

    let got = sub.recv().unwrap().unwrap();
    assert_eq!(got.get_i64("timestep").unwrap(), 42);
    assert_eq!(got.get_f64_array("depth").unwrap(), vec![1.25, 2.5]);
    assert!(got.get_string("station").is_err(), "projected away");
    assert!(got.get_f64("quality").is_err(), "projected away");
}

#[test]
fn narrowed_projection_quantizes_doubles() {
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let projection = Projection::keeping(["quality"]).with_narrowing();
    let mut sub =
        ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&projection)).unwrap();

    let mut rec = chan.new_record();
    rec.set_i64("timestep", 1).unwrap();
    rec.set_string("station", "s").unwrap();
    rec.set_f64_array("depth", &[]).unwrap();
    rec.set_f64("quality", std::f64::consts::PI).unwrap();
    chan.publish(&rec).unwrap();

    let got = sub.recv().unwrap().unwrap();
    assert_eq!(got.get_f64("quality").unwrap(), std::f64::consts::PI as f32 as f64);
}

#[test]
fn subscribers_sharing_a_projection_share_one_encode() {
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();

    // 6 subscribers across 3 distinct views: identity, {timestep},
    // {timestep, quality}.  Keep-order must not split a group.
    let p1a = Projection::keeping(["timestep"]);
    let p2a = Projection::keeping(["timestep", "quality"]);
    let p2b = Projection::keeping(["quality", "timestep"]);
    let mut subs = vec![
        ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap(),
        ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap(),
        ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&p1a)).unwrap(),
        ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&p1a)).unwrap(),
        ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&p2a)).unwrap(),
        ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&p2b)).unwrap(),
    ];
    assert_eq!(chan.subscriber_count(), 6);
    assert_eq!(chan.active_groups(), 3);

    let events = 4;
    for t in 0..events {
        let mut rec = chan.new_record();
        rec.set_i64("timestep", t).unwrap();
        rec.set_string("station", "s").unwrap();
        rec.set_f64_array("depth", &[0.5]).unwrap();
        rec.set_f64("quality", 1.0).unwrap();
        let receipt = chan.publish(&rec).unwrap();
        assert_eq!(receipt.encodes, 3, "one encode per distinct projection");
        assert_eq!(receipt.delivered, 6);
        assert_eq!(receipt.dropped, 0);
    }
    let stats = chan.stats();
    assert_eq!(stats.events, events as u64);
    assert_eq!(stats.encodes, 3 * events as u64);

    for sub in &mut subs {
        for t in 0..events {
            let rec = sub.recv().unwrap().unwrap();
            assert_eq!(rec.get_i64("timestep").unwrap(), t);
        }
    }
}

#[test]
fn drop_newest_policy_sheds_events_without_blocking() {
    let host = ChannelHost::start(ChannelConfig {
        queue_cap: 2,
        policy: SlowPolicy::DropNewest,
        ..ChannelConfig::default()
    })
    .unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    // Subscriber that never reads: its queue fills at the cap.
    let _stalled = ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap();

    let mut rec = chan.new_record();
    rec.set_i64("timestep", 0).unwrap();
    rec.set_string("station", "s").unwrap();
    rec.set_f64_array("depth", &[0.0; 4096]).unwrap();
    rec.set_f64("quality", 0.0).unwrap();

    let start = Instant::now();
    let mut dropped = 0usize;
    for _ in 0..256 {
        dropped += chan.publish(&rec).unwrap().dropped;
    }
    assert!(dropped > 0, "a never-reading subscriber must shed events");
    assert!(start.elapsed() < Duration::from_secs(10), "DropNewest must not block the publisher");
    assert_eq!(chan.stats().dropped, dropped as u64);
}

#[test]
fn disconnect_policy_removes_slow_subscriber() {
    let host = ChannelHost::start(ChannelConfig {
        queue_cap: 2,
        policy: SlowPolicy::Disconnect,
        ..ChannelConfig::default()
    })
    .unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let _stalled = ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap();
    assert_eq!(chan.subscriber_count(), 1);

    let mut rec = chan.new_record();
    rec.set_i64("timestep", 0).unwrap();
    rec.set_string("station", "s").unwrap();
    rec.set_f64_array("depth", &[0.0; 4096]).unwrap();
    rec.set_f64("quality", 0.0).unwrap();
    let mut disconnected = 0usize;
    for _ in 0..256 {
        disconnected += chan.publish(&rec).unwrap().disconnected;
        if disconnected > 0 {
            break;
        }
    }
    assert_eq!(disconnected, 1);
    assert_eq!(chan.subscriber_count(), 0);
}

#[test]
fn block_policy_is_lossless_for_a_slow_subscriber() {
    let host =
        ChannelHost::start(ChannelConfig { queue_cap: 4, ..ChannelConfig::default() }).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let mut sub = ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap();

    let events = 64i64;
    let publisher = {
        let chan = chan.clone();
        thread::spawn(move || {
            let mut dropped = 0usize;
            for t in 0..events {
                let mut rec = chan.new_record();
                rec.set_i64("timestep", t).unwrap();
                rec.set_string("station", "s").unwrap();
                rec.set_f64_array("depth", &[0.25; 64]).unwrap();
                rec.set_f64("quality", 0.5).unwrap();
                dropped += chan.publish(&rec).unwrap().dropped;
            }
            dropped
        })
    };
    // Drain slowly: far slower than the publisher fills the cap-4
    // queue, so Block engages; every event must still arrive, in
    // order.
    for t in 0..events {
        thread::sleep(Duration::from_millis(2));
        let rec = sub.recv().unwrap().unwrap();
        assert_eq!(rec.get_i64("timestep").unwrap(), t);
    }
    assert_eq!(publisher.join().unwrap(), 0, "Block must not drop");
    assert_eq!(chan.stats().dropped, 0);
}

#[test]
fn unknown_channel_and_bad_projection_are_rejected() {
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();

    let unknown = openmeta_echo::FormatId(0xBAD);
    match ChannelSubscriber::connect(host.addr(), unknown, None) {
        Err(EchoError::Rejected(reason)) => assert!(reason.contains("no channel"), "{reason}"),
        other => panic!("expected rejection, got {:?}", other.err()),
    }

    let bad = Projection::keeping(["not_a_field"]);
    match ChannelSubscriber::connect(host.addr(), chan.format_id(), Some(&bad)) {
        Err(EchoError::Rejected(reason)) => {
            assert!(reason.contains("not_a_field"), "{reason}")
        }
        other => panic!("expected rejection, got {:?}", other.err()),
    }
    // The channel still works after rejections.
    assert!(ChannelSubscriber::connect(host.addr(), chan.format_id(), None).is_ok());
}

#[test]
fn host_shutdown_drains_and_closes_subscribers() {
    let chan_and_sub = {
        let host = ChannelHost::start(ChannelConfig::default()).unwrap();
        let chan = host.create_channel(&flow_type()).unwrap();
        let mut sub = ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap();
        let mut rec = chan.new_record();
        rec.set_i64("timestep", 9).unwrap();
        rec.set_string("station", "s").unwrap();
        rec.set_f64_array("depth", &[]).unwrap();
        rec.set_f64("quality", 0.0).unwrap();
        chan.publish(&rec).unwrap();
        // Host drops here: queued frames must still be delivered,
        // then the subscriber sees EOF.
        drop(host);
        let got = sub.recv().unwrap().unwrap();
        assert_eq!(got.get_i64("timestep").unwrap(), 9);
        sub
    };
    let mut sub = chan_and_sub;
    assert!(matches!(sub.recv(), Ok(None)), "clean EOF after shutdown");
}

#[test]
fn publish_rejects_foreign_format_records() {
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let other = parse_str(&format!(
        r#"<xsd:complexType name="Other" xmlns:xsd="{XSD}">
             <xsd:element name="x" type="xsd:integer" />
           </xsd:complexType>"#
    ))
    .unwrap()
    .types
    .remove(0);
    let other_chan = host.create_channel(&other).unwrap();
    let rec = other_chan.new_record();
    assert!(matches!(chan.publish(&rec), Err(EchoError::Schema(_))));
}

#[test]
fn fanout_scales_encodes_with_groups_not_subscribers() {
    // The headline property at a size CI can afford: 24 subscribers,
    // 3 distinct projections → 3 encodes per event.
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let views = [
        None,
        Some(Projection::keeping(["timestep"])),
        Some(Projection::keeping(["timestep", "depth"])),
    ];
    let mut subs: Vec<ChannelSubscriber> = (0..24)
        .map(|i| {
            ChannelSubscriber::connect(
                host.addr(),
                chan.format_id(),
                views[i % views.len()].as_ref(),
            )
            .unwrap()
        })
        .collect();
    let drainers: Vec<_> = subs
        .drain(..)
        .map(|mut sub| {
            thread::spawn(move || {
                let mut n = 0usize;
                while let Some(rec) = sub.recv().unwrap() {
                    assert!(rec.get_i64("timestep").is_ok());
                    n += 1;
                }
                n
            })
        })
        .collect();

    let events = 16;
    for t in 0..events {
        let mut rec = chan.new_record();
        rec.set_i64("timestep", t).unwrap();
        rec.set_string("station", "s").unwrap();
        rec.set_f64_array("depth", &[1.0, 2.0]).unwrap();
        rec.set_f64("quality", 0.75).unwrap();
        let receipt = chan.publish(&rec).unwrap();
        assert_eq!(receipt.encodes, 3);
        assert_eq!(receipt.delivered, 24);
    }
    let stats = chan.stats();
    assert_eq!(stats.encodes, 3 * events as u64);
    assert_eq!(stats.dropped, 0);

    drop(chan);
    drop(host); // drain + EOF
    let sum: usize = drainers.into_iter().map(|d| d.join().unwrap()).sum();
    assert_eq!(sum, 24 * events as usize, "every event reaches every seat");
}

/// Arc-shared frames come from `pbio`'s buffer pool and return to it:
/// steady-state publishing reuses buffers instead of allocating.
#[test]
fn publish_frames_recycle_through_the_buffer_pool() {
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let mut sub = ChannelSubscriber::connect(host.addr(), chan.format_id(), None).unwrap();

    let pool = openmeta_pbio::BufferPool::global();
    let mut rec = chan.new_record();
    rec.set_i64("timestep", 0).unwrap();
    rec.set_string("station", "s").unwrap();
    rec.set_f64_array("depth", &[0.5; 32]).unwrap();
    rec.set_f64("quality", 0.5).unwrap();
    // Warm up, then check the pool sees returns while publishing.
    for _ in 0..4 {
        chan.publish(&rec).unwrap();
        sub.recv().unwrap().unwrap();
    }
    let before = pool.stats();
    for _ in 0..16 {
        chan.publish(&rec).unwrap();
        sub.recv().unwrap().unwrap();
    }
    let after = pool.stats();
    assert!(
        after.reuses > before.reuses,
        "publish must recycle pooled frame buffers ({before:?} → {after:?})"
    );
}

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.push(kind);
    out.extend_from_slice(payload);
    out
}

/// Read one whole `len kind payload` frame from a raw socket.
fn read_frame(stream: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; 5];
    stream.read_exact(&mut header).unwrap();
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).unwrap();
    (header[4], payload)
}

/// A stand-in host: accepts one subscriber, reads its whole SUBSCRIBE
/// frame, writes `reply` (possibly a partial or lying frame) and hangs
/// up.
fn scripted_host(reply: Vec<u8>) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let (kind, _) = read_frame(&mut stream);
        assert_eq!(kind, FRAME_SUBSCRIBE);
        stream.write_all(&reply).unwrap();
    });
    (addr, handle)
}

#[test]
fn subscriber_handshake_reports_eof_and_oversized_replies() {
    let connect = |reply: Vec<u8>| {
        let (addr, host) = scripted_host(reply);
        let err = ChannelSubscriber::connect(addr, FormatId(7), None).err().expect("must fail");
        host.join().unwrap();
        err
    };

    // The host hangs up before replying: a clean close.
    let err = connect(Vec::new());
    assert!(matches!(err, EchoError::Closed), "{err:?}");

    // The host hangs up after half a SUB_OK: a truncated frame.
    let half = frame(FRAME_SUB_OK, &7u64.to_be_bytes())[..9].to_vec();
    let err = connect(half);
    assert!(matches!(&err, EchoError::Io(e) if e.kind() == ErrorKind::UnexpectedEof), "{err:?}");

    // A reply header claiming more than the frame cap.
    let mut oversized = u32::MAX.to_be_bytes().to_vec();
    oversized.push(FRAME_SUB_OK);
    let err = connect(oversized);
    assert!(matches!(err, EchoError::Bcm(PbioError::BadWireData(_))), "{err:?}");
}

#[test]
fn subscribe_with_trailing_junk_still_gets_sub_ok_and_events() {
    let host = ChannelHost::start(ChannelConfig::default()).unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let request = SubscribeRequest { channel: chan.format_id(), projection: None, version: None };
    // SUBSCRIBE plus bytes that belong to no frame, in one write: the
    // host reads exactly to the frame boundary and never reads the
    // seat again, so the junk is neither parsed nor fatal.
    let mut wire = frame(FRAME_SUBSCRIBE, &request.encode());
    wire.extend_from_slice(&[0xFF, 0, 0, 0, 9, b'j', b'u', b'n', b'k']);
    let mut stream = TcpStream::connect(host.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(&wire).unwrap();

    let (kind, payload) = read_frame(&mut stream);
    assert_eq!(kind, FRAME_SUB_OK);
    assert_eq!(payload, chan.format_id().0.to_be_bytes());
    assert_eq!(chan.subscriber_count(), 1);

    let registry = FormatRegistry::new(MachineModel::native());
    for t in 0..2 {
        let mut rec = chan.new_record();
        rec.set_i64("timestep", t).unwrap();
        rec.set_string("station", "gauge-7").unwrap();
        rec.set_f64_array("depth", &[1.0]).unwrap();
        rec.set_f64("quality", 0.5).unwrap();
        assert_eq!(chan.publish(&rec).unwrap().delivered, 1);
        if t == 0 {
            let (kind, payload) = read_frame(&mut stream);
            assert_eq!(kind, FRAME_FORMAT);
            registry.register_descriptor(decode_descriptor(&payload).unwrap());
        }
        let (kind, payload) = read_frame(&mut stream);
        assert_eq!(kind, FRAME_RECORD);
        let got = decode(&payload, &registry).unwrap();
        assert_eq!(got.get_i64("timestep").unwrap(), t);
    }
}

/// A subscriber that reads a little and often must still expire: a
/// frame has `write_timeout` from its first `write()` to be accepted
/// whole, however steadily its bytes trickle out.
#[test]
fn trickling_subscriber_hits_the_frame_write_deadline() {
    let host = ChannelHost::start(ChannelConfig {
        write_timeout: Some(Duration::from_millis(300)),
        ..ChannelConfig::default()
    })
    .unwrap();
    let chan = host.create_channel(&flow_type()).unwrap();
    let request = SubscribeRequest { channel: chan.format_id(), projection: None, version: None };
    let mut stream = TcpStream::connect(host.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(&frame(FRAME_SUBSCRIBE, &request.encode())).unwrap();
    assert_eq!(read_frame(&mut stream).0, FRAME_SUB_OK);

    // Drain 8 KiB every 25 ms: each write sees fresh buffer space, but
    // a 1 MiB frame would take seconds to get through.
    let stop = Arc::new(AtomicBool::new(false));
    let trickle = {
        let stop = stop.clone();
        thread::spawn(move || {
            let mut buf = vec![0u8; 8 * 1024];
            stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
            while !stop.load(Ordering::Acquire) {
                if let Ok(0) = stream.read(&mut buf) {
                    break;
                }
                thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let mut rec = chan.new_record();
    rec.set_i64("timestep", 0).unwrap();
    rec.set_string("station", "s").unwrap();
    rec.set_f64_array("depth", &vec![0.5; 128 * 1024]).unwrap();
    rec.set_f64("quality", 0.0).unwrap();
    // 16 MiB: far beyond what loopback socket buffers absorb.
    for _ in 0..16 {
        chan.publish(&rec).unwrap();
    }
    let start = Instant::now();
    while chan.stats().timed_out == 0 && start.elapsed() < Duration::from_secs(10) {
        thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Release);
    trickle.join().unwrap();
    assert_eq!(chan.stats().timed_out, 1);
    assert_eq!(chan.subscriber_count(), 0, "the timed-out seat is closed");
}
