//! Transport-hardening integration tests: deadlines, retry backoff,
//! connection bounds, persistent client connections, and graceful
//! shutdown — across the record plane (xmit messaging) and the metadata
//! plane (format server, HTTP server).
//!
//! Every test asserts its own wall-clock bound: the point of the
//! hardening layer is that no call blocks past its deadline.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use openmeta_net::{RetryPolicy, ServerConfig, TransportConfig};
use openmeta_pbio::server::{FormatServer, FormatServerClient};
use xmit::{FormatRegistry, HttpServer, MachineModel, Xmit, XmitReceiver, XmitSender};

const XSD: &str = "http://www.w3.org/2001/XMLSchema";

fn metadata() -> String {
    format!(
        r#"<xsd:complexType name="Sample" xmlns:xsd="{XSD}">
             <xsd:element name="node" type="xsd:string" />
             <xsd:element name="values" type="xsd:double" minOccurs="0"
                 maxOccurs="*" dimensionPlacement="before" dimensionName="n" />
           </xsd:complexType>"#
    )
}

/// A short-deadline, short-retry client config so failure paths resolve
/// in test time, not production time.
fn fast_transport() -> TransportConfig {
    TransportConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_millis(500)),
        write_timeout: Some(Duration::from_millis(500)),
        retry: RetryPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(50),
        },
    }
}

#[test]
fn many_simultaneous_senders_share_one_receiver_registry() {
    const SENDERS: usize = 6;
    const RECORDS: usize = 10;
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();

    // One registry learns formats from every connection at once; the
    // descriptor registration is content-addressed, so concurrent
    // announcements of the same format must coexist.
    let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_thread = {
        let (registry, seen) = (registry.clone(), seen.clone());
        std::thread::spawn(move || {
            let mut conns = Vec::new();
            for _ in 0..SENDERS {
                let (stream, _) = listener.accept().unwrap();
                let (registry, seen) = (registry.clone(), seen.clone());
                conns.push(std::thread::spawn(move || {
                    let mut rx = XmitReceiver::new(stream, registry);
                    while let Some(rec) = rx.recv().unwrap() {
                        seen.lock().unwrap().push(rec.get_string("node").unwrap().to_string());
                    }
                }));
            }
            for c in conns {
                c.join().unwrap();
            }
        })
    };

    let mut senders = Vec::new();
    for s in 0..SENDERS {
        senders.push(std::thread::spawn(move || {
            let xm = Xmit::new(MachineModel::native());
            xm.load_str(&metadata()).unwrap();
            let token = xm.bind("Sample").unwrap();
            let mut tx = XmitSender::connect(addr).unwrap();
            for r in 0..RECORDS {
                let mut rec = token.new_record();
                rec.set_string("node", format!("s{s}-r{r}")).unwrap();
                rec.set_f64_array("values", &[s as f64, r as f64]).unwrap();
                tx.send(&rec).unwrap();
            }
        }));
    }
    for s in senders {
        s.join().unwrap();
    }
    accept_thread.join().unwrap();

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), SENDERS * RECORDS);
    for s in 0..SENDERS {
        for r in 0..RECORDS {
            assert!(seen.contains(&format!("s{s}-r{r}")), "missing record s{s}-r{r}");
        }
    }
}

#[test]
fn slow_reader_trips_the_sender_write_deadline() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    // The receiver accepts and then never reads: TCP buffers fill and an
    // unhardened sender would block in write() forever.
    let held = std::thread::spawn(move || listener.accept().unwrap());

    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&metadata()).unwrap();
    let token = xm.bind("Sample").unwrap();
    let mut rec = token.new_record();
    rec.set_string("node", "firehose").unwrap();
    rec.set_f64_array("values", &[0.5; 1 << 20]).unwrap(); // ~8 MiB per record

    let mut tx = XmitSender::connect_with(addr, &fast_transport()).unwrap();
    let start = Instant::now();
    let mut result = Ok(());
    for _ in 0..16 {
        result = tx.send(&rec);
        if result.is_err() {
            break;
        }
    }
    assert!(result.is_err(), "writes into a dead reader must eventually fail");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "the write deadline must bound the stall, took {:?}",
        start.elapsed()
    );
    drop(held);
}

#[test]
fn sender_connect_retries_until_receiver_appears() {
    // Reserve a port, drop the listener, and only rebind after a delay:
    // the first connect attempts fail, the backoff retries recover.
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);
    let rebind = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let listener = TcpListener::bind(addr).unwrap();
        listener.accept().unwrap()
    });

    let cfg = TransportConfig {
        retry: RetryPolicy {
            attempts: 30,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
        },
        ..TransportConfig::default()
    };
    let start = Instant::now();
    let tx = XmitSender::connect_with(addr, &cfg);
    assert!(tx.is_ok(), "retry must ride out the receiver's startup window");
    assert!(start.elapsed() < Duration::from_secs(10));
    drop(rebind.join().unwrap());
}

#[test]
fn format_server_enforces_its_connection_bound() {
    let cfg = ServerConfig {
        max_connections: 1,
        read_timeout: Some(Duration::from_secs(2)),
        ..ServerConfig::default()
    };
    let server = FormatServer::start_with(cfg).unwrap();
    // Occupy the only connection slot with an idle connection.
    let holder = TcpStream::connect(server.addr()).unwrap();
    let start = Instant::now();
    while server.transport_counters().active == 0 && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    // The next connection is admitted by the listener but rejected by
    // the event loop: it sees EOF, never a reply.
    let mut second = TcpStream::connect(server.addr()).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    assert_eq!(second.read_to_end(&mut buf).unwrap_or(0), 0);
    let counters = server.transport_counters();
    assert!(counters.rejected >= 1, "{counters:?}");
    assert!(counters.accepted >= 2, "{counters:?}");
    drop(holder);
}

#[test]
fn persistent_format_client_reuses_one_connection() {
    let server = FormatServer::start().unwrap();
    let client = FormatServerClient::connect_with(server.addr(), fast_transport());

    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&metadata()).unwrap();
    let token = xm.bind("Sample").unwrap();
    let id = client.register(&token.format).unwrap();
    for _ in 0..5 {
        assert!(client.fetch(id).unwrap().is_some());
    }
    let counters = server.transport_counters();
    assert_eq!(counters.accepted, 1, "six round trips must share one connection: {counters:?}");
    assert_eq!(counters.frames_in, 6, "{counters:?}");
}

#[test]
fn format_server_drop_drains_despite_idle_persistent_clients() {
    let server = FormatServer::start().unwrap();
    let client = FormatServerClient::connect_with(server.addr(), fast_transport());
    let xm = Xmit::new(MachineModel::native());
    xm.load_str(&metadata()).unwrap();
    let token = xm.bind("Sample").unwrap();
    // The round trip leaves the client's connection open and idle;
    // drop must not wait out the whole read deadline.
    client.register(&token.format).unwrap();
    let start = Instant::now();
    drop(server);
    assert!(start.elapsed() < Duration::from_secs(5), "graceful drain took {:?}", start.elapsed());
}

#[test]
fn http_server_rejections_and_counters_are_visible() {
    let cfg = ServerConfig {
        max_connections: 3,
        read_timeout: Some(Duration::from_millis(500)),
        ..ServerConfig::default()
    };
    let server = HttpServer::start_with(0, cfg).unwrap();
    server.put_xml("/doc.xsd", metadata());
    // Saturate: many idle connections, most must be rejected not served.
    let conns: Vec<TcpStream> =
        (0..8).map(|_| TcpStream::connect(server.addr()).unwrap()).collect();
    let start = Instant::now();
    while server.transport_counters().rejected == 0 && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    let counters = server.transport_counters();
    assert!(counters.rejected >= 1, "{counters:?}");
    assert!(counters.accepted >= counters.rejected, "{counters:?}");
    drop(conns);
    // The server notices the closes on its own schedule; fetching before
    // it has freed its 3 slots would be shed like the idle connections.
    let start = Instant::now();
    while server.transport_counters().active > 0 && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }

    // The server still serves real requests after shedding load.
    let xm = Xmit::new(MachineModel::native());
    xm.load_url(&server.url_for("/doc.xsd")).unwrap();
    assert!(xm.bind("Sample").is_ok());
}
