//! Fault-injection suite: every transport is exercised through a
//! misbehaving TCP proxy — stalls, mid-frame resets, clean truncations,
//! byte-dribbling partial writes — and must fail *fast and cleanly*
//! (a typed error within its deadline), never block indefinitely or
//! panic.
//!
//! Each test carries its own wall-clock budget assertion; the CI step
//! additionally wraps the whole suite in a `timeout`.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use openmeta_net::{Fault, FaultProxy, RetryPolicy, TransportConfig};
use openmeta_ohttp::{ConnectionPool, PoolConfig, Url};
use openmeta_pbio::server::{FormatServer, FormatServerClient};
use xmit::{FormatRegistry, HttpServer, MachineModel, Xmit, XmitReceiver, XmitSender};

const XSD: &str = "http://www.w3.org/2001/XMLSchema";

fn metadata() -> String {
    format!(
        r#"<xsd:complexType name="Evt" xmlns:xsd="{XSD}">
             <xsd:element name="seq" type="xsd:unsignedLong" />
             <xsd:element name="data" type="xsd:double" minOccurs="0"
                 maxOccurs="*" dimensionPlacement="before" dimensionName="n" />
           </xsd:complexType>"#
    )
}

fn fast_transport() -> TransportConfig {
    TransportConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_millis(400)),
        write_timeout: Some(Duration::from_millis(400)),
        retry: RetryPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
        },
    }
}

/// What the hardened receiver saw: the record's fields, `None` for a
/// clean hang-up, or the transport error.
type ReceiveOutcome = Result<Option<(u64, Vec<f64>)>, xmit::XmitError>;

/// Send one record through a faulty proxy and return what the hardened
/// receiver saw, with the time the receive side took.
fn messaging_through(fault: Fault) -> (ReceiveOutcome, Duration) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let upstream = listener.local_addr().unwrap();
    let proxy = FaultProxy::start(upstream, fault).unwrap();

    let rx_thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
        let mut rx = XmitReceiver::new_with(stream, registry, &fast_transport()).unwrap();
        let start = Instant::now();
        let got = rx.recv().map(|opt| {
            opt.map(|rec| (rec.get_u64("seq").unwrap(), rec.get_f64_array("data").unwrap()))
        });
        (got, start.elapsed())
    });

    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&metadata()).unwrap();
    let token = xm.bind("Evt").unwrap();
    let mut rec = token.new_record();
    rec.set_u64("seq", 42).unwrap();
    rec.set_f64_array("data", &[1.5, 2.5, 3.5]).unwrap();
    // The record is small, so the sender's buffered write succeeds even
    // when the proxy never delivers; faults are the receiver's problem.
    let mut tx = XmitSender::connect_with(proxy.addr(), &fast_transport()).unwrap();
    let _ = tx.send(&rec);

    let (got, elapsed) = rx_thread.join().unwrap();
    drop(tx);
    drop(proxy);
    (got, elapsed)
}

#[test]
fn messaging_survives_a_clean_proxy() {
    let (got, _) = messaging_through(Fault::None);
    assert_eq!(got.unwrap(), Some((42, vec![1.5, 2.5, 3.5])));
}

#[test]
fn messaging_chopped_into_dribbles_still_reassembles() {
    // 7-byte writes with pauses: frame reassembly must tolerate
    // arbitrarily fragmented arrivals.
    let (got, _) = messaging_through(Fault::Chop { chunk: 7, delay: Duration::from_millis(2) });
    assert_eq!(got.unwrap(), Some((42, vec![1.5, 2.5, 3.5])));
}

#[test]
fn messaging_stall_hits_the_read_deadline_not_forever() {
    // The proxy forwards part of the frame then stops while keeping the
    // connection open: exactly the case read deadlines exist for.
    let (got, elapsed) = messaging_through(Fault::Stall { after: 9 });
    assert!(got.is_err(), "a stalled mid-frame read must surface as an error");
    assert!(
        elapsed < Duration::from_secs(10),
        "read deadline must bound the stall, took {elapsed:?}"
    );
}

#[test]
fn messaging_reset_mid_frame_errors_cleanly() {
    let start = Instant::now();
    let (got, _) = messaging_through(Fault::Reset { after: 10 });
    assert!(got.is_err(), "an aborted connection mid-frame must error, got {got:?}");
    assert!(start.elapsed() < Duration::from_secs(10));
}

#[test]
fn messaging_truncation_mid_frame_errors_cleanly() {
    let start = Instant::now();
    let (got, _) = messaging_through(Fault::Truncate { after: 10 });
    assert!(got.is_err(), "EOF mid-frame must error, got {got:?}");
    assert!(start.elapsed() < Duration::from_secs(10));
}

#[test]
fn huge_length_prefix_cannot_force_a_huge_allocation() {
    // A malicious peer promises a near-limit frame and sends 3 bytes.
    // The capped reader grows with arriving bytes, so this fails fast on
    // EOF instead of allocating tens of MiB on the attacker's say-so.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let rx_thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
        let mut rx = XmitReceiver::new_with(stream, registry, &fast_transport()).unwrap();
        rx.recv()
    });
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&((32u32 << 20) - 1).to_be_bytes()).unwrap();
    s.write_all(&[2, 0xde, 0xad]).unwrap();
    drop(s);
    let start = Instant::now();
    assert!(rx_thread.join().unwrap().is_err());
    assert!(start.elapsed() < Duration::from_secs(5));
}

#[test]
fn format_client_stall_is_bounded_by_deadlines_and_retries() {
    let server = FormatServer::start().unwrap();
    // Forward nothing: every request the client writes disappears into
    // the proxy and no reply ever comes.
    let proxy = FaultProxy::start(server.addr(), Fault::Stall { after: 0 }).unwrap();
    let client = FormatServerClient::connect_with(proxy.addr(), fast_transport());

    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&metadata()).unwrap();
    let token = xm.bind("Evt").unwrap();
    let start = Instant::now();
    let result = client.register(&token.format);
    assert!(result.is_err(), "a stalled format server must not hang the client");
    // Budget: initial exchange + one reconnect retry, each bounded by
    // the 400 ms read deadline plus connect/backoff overhead.
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "register took {:?} against a stalled server",
        start.elapsed()
    );
}

#[test]
fn format_client_truncation_errors_cleanly() {
    let server = FormatServer::start().unwrap();
    let proxy = FaultProxy::start(server.addr(), Fault::Truncate { after: 4 }).unwrap();
    let client = FormatServerClient::connect_with(proxy.addr(), fast_transport());

    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&metadata()).unwrap();
    let token = xm.bind("Evt").unwrap();
    let start = Instant::now();
    assert!(client.register(&token.format).is_err());
    assert!(start.elapsed() < Duration::from_secs(10));
}

#[test]
fn format_client_works_through_a_chopping_proxy() {
    let server = FormatServer::start().unwrap();
    let proxy =
        FaultProxy::start(server.addr(), Fault::Chop { chunk: 5, delay: Duration::from_millis(1) })
            .unwrap();
    // Generous read deadline: chopping is slow but must still succeed.
    let cfg = TransportConfig {
        read_timeout: Some(Duration::from_secs(30)),
        write_timeout: Some(Duration::from_secs(30)),
        ..TransportConfig::default()
    };
    let client = FormatServerClient::connect_with(proxy.addr(), cfg);

    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&metadata()).unwrap();
    let token = xm.bind("Evt").unwrap();
    let id = client.register(&token.format).unwrap();
    let fetched = client.fetch(id).unwrap().expect("descriptor round-trips in dribbles");
    assert_eq!(fetched.name, token.format.name);
}

#[test]
fn http_client_stall_is_bounded_by_the_pool_io_timeout() {
    let server = HttpServer::start().unwrap();
    server.put_xml("/evt.xsd", metadata());
    let proxy = FaultProxy::start(server.addr(), Fault::Stall { after: 0 }).unwrap();

    let pool = ConnectionPool::new(PoolConfig {
        io_timeout: Duration::from_millis(400),
        ..PoolConfig::default()
    });
    let url = Url::parse(&format!("http://{}/evt.xsd", proxy.addr())).unwrap();
    let start = Instant::now();
    assert!(pool.get(&url).is_err(), "a stalled HTTP host must not hang discovery");
    assert!(start.elapsed() < Duration::from_secs(10), "HTTP stall took {:?}", start.elapsed());
}

#[test]
fn http_client_truncation_errors_cleanly() {
    let server = HttpServer::start().unwrap();
    server.put_xml("/evt.xsd", metadata());
    // Cut the response off after the status line begins.
    let proxy = FaultProxy::start(server.addr(), Fault::Truncate { after: 20 }).unwrap();
    let pool = ConnectionPool::new(PoolConfig {
        io_timeout: Duration::from_millis(400),
        ..PoolConfig::default()
    });
    let url = Url::parse(&format!("http://{}/evt.xsd", proxy.addr())).unwrap();
    let start = Instant::now();
    assert!(pool.get(&url).is_err());
    assert!(start.elapsed() < Duration::from_secs(10));
}
