//! Backend-parity integration tests: both servers must behave
//! identically on `Backend::Threaded` and `Backend::EventLoop` — same
//! public API, same counters, same timeout semantics under fault
//! injection, same graceful drain.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use openmeta_net::{Backend, Fault, FaultProxy, ServerConfig, TransportCounters};
use openmeta_ohttp::HttpServer;
use openmeta_pbio::codec::encode_descriptor;
use openmeta_pbio::server::{fetch_request_payload, FormatServer, FormatServerClient};
use openmeta_pbio::{FormatDescriptor, FormatId, FormatSpec, IOField, MachineModel};

const BACKENDS: [Backend; 2] = [Backend::Threaded, Backend::EventLoop];

fn descriptor(name: &str) -> FormatDescriptor {
    FormatDescriptor::resolve(
        &FormatSpec::new(
            name,
            vec![IOField::auto("x", "integer", 4), IOField::auto("s", "string", 0)],
        ),
        MachineModel::native(),
        &|_| None,
    )
    .unwrap()
}

fn config(backend: Backend) -> ServerConfig {
    ServerConfig { backend, ..ServerConfig::default() }
}

/// Poll `get` until `pred` holds or ~3 s elapse; returns the last value.
fn wait_for(
    get: impl Fn() -> TransportCounters,
    pred: impl Fn(&TransportCounters) -> bool,
) -> TransportCounters {
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let counters = get();
        if pred(&counters) || Instant::now() > deadline {
            return counters;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn pbio_register_fetch_keepalive_on_both_backends() {
    for backend in BACKENDS {
        let server = FormatServer::start_with(config(backend)).unwrap();
        let client = FormatServerClient::connect(server.addr());
        let desc = descriptor("Parity");
        let id = client.register(&desc).unwrap();
        assert_eq!(client.fetch(id).unwrap().unwrap(), desc, "{backend:?}");
        assert_eq!(client.fetch(id).unwrap().unwrap(), desc, "{backend:?}");
        // One persistent connection carried all three requests.
        let c = wait_for(|| server.transport_counters(), |c| c.frames_out >= 3);
        assert_eq!(c.accepted, 1, "{backend:?}: {c:?}");
        assert_eq!(c.frames_in, 3, "{backend:?}: {c:?}");
        assert_eq!(c.frames_out, 3, "{backend:?}: {c:?}");
        assert_eq!(c.timed_out, 0, "{backend:?}: {c:?}");
    }
}

/// One raw keep-alive exchange: write `request`, read one response head
/// plus its `Content-Length` body.
fn http_exchange(stream: &mut TcpStream, request: &str) -> String {
    stream.write_all(request.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4);
        if let Some(head_end) = head_end {
            let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
            let body_len: usize = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().unwrap())
                })
                .unwrap_or(0);
            if buf.len() >= head_end + body_len {
                return String::from_utf8_lossy(&buf).into_owned();
            }
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn http_get_and_304_keepalive_on_both_backends() {
    for backend in BACKENDS {
        let server = HttpServer::start_with(0, config(backend)).unwrap();
        server.put("/doc", "text/xml", "<fmt/>".as_bytes().to_vec());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        let first = http_exchange(&mut stream, "GET /doc HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(first.starts_with("HTTP/1.1 200 OK"), "{backend:?}: {first}");
        assert!(first.ends_with("<fmt/>"), "{backend:?}: {first}");
        let etag = first
            .lines()
            .find_map(|l| l.strip_prefix("ETag: "))
            .expect("200 carries an ETag")
            .to_string();

        // Same connection, revalidation hit: 304, no body.
        let second = http_exchange(
            &mut stream,
            &format!("GET /doc HTTP/1.1\r\nHost: t\r\nIf-None-Match: {etag}\r\n\r\n"),
        );
        assert!(second.starts_with("HTTP/1.1 304"), "{backend:?}: {second}");

        assert_eq!(server.not_modified_count(), 1, "{backend:?}");
        let c = wait_for(|| server.transport_counters(), |c| c.frames_out >= 2);
        assert_eq!(c.accepted, 1, "{backend:?}: {c:?}");
        assert_eq!(c.frames_in, 2, "{backend:?}: {c:?}");
        assert_eq!(c.frames_out, 2, "{backend:?}: {c:?}");
    }
}

#[test]
fn pbio_midframe_stall_counts_timed_out_on_both_backends() {
    for backend in BACKENDS {
        let server = FormatServer::start_with(ServerConfig {
            read_timeout: Some(Duration::from_millis(300)),
            ..config(backend)
        })
        .unwrap();
        // The proxy forwards 2 bytes of the frame header, then stalls:
        // the server is parked mid-frame until its read deadline fires.
        let proxy = FaultProxy::start(server.addr(), Fault::Stall { after: 2 }).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.write_all(&8u32.to_be_bytes()).unwrap();
        let c = wait_for(|| server.transport_counters(), |c| c.timed_out >= 1);
        assert_eq!(c.timed_out, 1, "{backend:?}: {c:?}");
        assert_eq!(c.frames_in, 0, "{backend:?}: {c:?}");
        drop(stream);
    }
}

#[test]
fn http_midrequest_stall_counts_timed_out_on_both_backends() {
    for backend in BACKENDS {
        let server = HttpServer::start_with(
            0,
            ServerConfig { read_timeout: Some(Duration::from_millis(300)), ..config(backend) },
        )
        .unwrap();
        let proxy = FaultProxy::start(server.addr(), Fault::Stall { after: 5 }).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        // Only "GET /" of the head gets through: a mid-request stall,
        // which (unlike an idle keep-alive expiry) must count.
        stream.write_all(b"GET /doc HTTP/1.1\r\n\r\n").unwrap();
        let c = wait_for(|| server.transport_counters(), |c| c.timed_out >= 1);
        assert_eq!(c.timed_out, 1, "{backend:?}: {c:?}");
        drop(stream);
    }
}

#[test]
fn http_write_stall_counts_timed_out_on_both_backends() {
    for backend in BACKENDS {
        let server = HttpServer::start_with(
            0,
            ServerConfig { write_timeout: Some(Duration::from_millis(300)), ..config(backend) },
        )
        .unwrap();
        // A body far beyond any kernel socket buffer, so the response
        // cannot be absorbed whole and the server must keep writing.
        server.put("/big", "application/octet-stream", vec![0x42u8; 32 << 20]);
        // The proxy forwards the whole request (well under the budget)
        // but relays only 4 KiB of the response before it stops
        // reading: the server's send buffer fills and its write stalls.
        let proxy = FaultProxy::start(server.addr(), Fault::Stall { after: 4096 }).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        stream.write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let c = wait_for(|| server.transport_counters(), |c| c.timed_out >= 1);
        assert_eq!(c.timed_out, 1, "{backend:?}: {c:?}");
        drop(stream);
    }
}

#[test]
fn http_idle_keepalive_expiry_is_not_a_timeout_on_both_backends() {
    for backend in BACKENDS {
        let server = HttpServer::start_with(
            0,
            ServerConfig { read_timeout: Some(Duration::from_millis(200)), ..config(backend) },
        )
        .unwrap();
        server.put("/doc", "text/xml", "<fmt/>".as_bytes().to_vec());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ok = http_exchange(&mut stream, "GET /doc HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.1 200"), "{backend:?}");
        // Idle past the deadline: the server closes the connection but
        // does NOT count a timeout (no partial request was buffered).
        let c = wait_for(|| server.transport_counters(), |c| c.active == 0);
        assert_eq!(c.timed_out, 0, "{backend:?}: {c:?}");
        assert_eq!(c.active, 0, "{backend:?}: {c:?}");
    }
}

#[test]
fn pbio_chopped_bytes_reassemble_on_both_backends() {
    for backend in BACKENDS {
        let server = FormatServer::start_with(config(backend)).unwrap();
        // Every segment in both directions arrives in 3-byte fragments.
        let fault = Fault::Chop { chunk: 3, delay: Duration::from_millis(1) };
        let proxy = FaultProxy::start(server.addr(), fault).unwrap();
        let client = FormatServerClient::connect(proxy.addr());
        let desc = descriptor("Chopped");
        let id = client.register(&desc).unwrap();
        assert_eq!(client.fetch(id).unwrap().unwrap(), desc, "{backend:?}");
    }
}

#[test]
fn drop_drains_promptly_on_both_backends() {
    for backend in BACKENDS {
        let started = Instant::now();
        {
            let server = FormatServer::start_with(config(backend)).unwrap();
            let client = FormatServerClient::connect(server.addr());
            client.register(&descriptor("Drain")).unwrap();
            // Drop with the keep-alive connection still open.
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{backend:?}: drop took {:?}",
            started.elapsed()
        );
    }
}

/// `payloads` as `len:u32be payload` frames, concatenated for one write.
fn pbio_frames(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for p in payloads {
        wire.extend_from_slice(&(p.len() as u32).to_be_bytes());
        wire.extend_from_slice(p);
    }
    wire
}

fn read_pbio_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut payload).unwrap();
    payload
}

#[test]
fn pbio_write_stall_counts_timed_out_on_both_backends() {
    // ~1 MiB of descriptor per fetch reply: long field names, many fields.
    let fields = (0..4000)
        .map(|i| IOField::auto(format!("field_{i:04}_{}", "n".repeat(200)), "integer", 4))
        .collect();
    let big =
        FormatDescriptor::resolve(&FormatSpec::new("Big", fields), MachineModel::native(), &|_| {
            None
        })
        .unwrap();
    for backend in BACKENDS {
        let server = FormatServer::start_with(ServerConfig {
            write_timeout: Some(Duration::from_millis(300)),
            ..config(backend)
        })
        .unwrap();
        let id = FormatServerClient::connect(server.addr()).register(&big).unwrap();
        // Every fetch gets through, but the proxy relays only 4 KiB of
        // the ~32 MiB of replies before it stops reading: the server's
        // send buffer fills and its write stalls.
        let proxy = FaultProxy::start(server.addr(), Fault::Stall { after: 4096 }).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        let fetches = vec![fetch_request_payload(id); 32];
        stream.write_all(&pbio_frames(&fetches)).unwrap();
        let c = wait_for(|| server.transport_counters(), |c| c.timed_out >= 1);
        assert_eq!(c.timed_out, 1, "{backend:?}: {c:?}");
        drop(stream);
    }
}

#[test]
fn pipelined_requests_in_one_segment_on_both_backends() {
    for backend in BACKENDS {
        let server = FormatServer::start_with(config(backend)).unwrap();
        let (a, b) = (descriptor("PipeA"), descriptor("PipeB"));
        let client = FormatServerClient::connect(server.addr());
        let (id_a, id_b) = (client.register(&a).unwrap(), client.register(&b).unwrap());
        let before = wait_for(|| server.transport_counters(), |c| c.frames_out >= 2);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let fetches = [fetch_request_payload(id_b), fetch_request_payload(id_a)];
        stream.write_all(&pbio_frames(&fetches)).unwrap();
        for desc in [&b, &a] {
            let mut want = vec![0u8]; // ST_OK
            want.extend_from_slice(&encode_descriptor(desc));
            assert_eq!(read_pbio_frame(&mut stream), want, "{backend:?}: reply order");
        }
        let c = wait_for(|| server.transport_counters(), |c| c.frames_out >= before.frames_out + 2);
        assert_eq!(c.frames_in - before.frames_in, 2, "{backend:?}: {c:?}");
        assert_eq!(c.frames_out - before.frames_out, 2, "{backend:?}: {c:?}");
        assert_eq!(client.fetch(FormatId(0)).unwrap(), None, "{backend:?}: server still serves");
    }
    for backend in BACKENDS {
        let server = HttpServer::start_with(0, config(backend)).unwrap();
        server.put("/a", "text/xml", "<a/>".as_bytes().to_vec());
        server.put("/b", "text/xml", "<b/>".as_bytes().to_vec());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream
            .write_all(
                b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /b HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        // The server answers both, in order, then closes: read to EOF.
        let mut all = Vec::new();
        stream.read_to_end(&mut all).unwrap();
        let text = String::from_utf8(all).unwrap();
        let second = text.rfind("HTTP/1.1 200 OK").unwrap();
        assert!(second > 0 && text.starts_with("HTTP/1.1 200 OK"), "{backend:?}: {text}");
        assert!(text[..second].ends_with("<a/>"), "{backend:?}: {text}");
        assert!(text[second..].ends_with("<b/>"), "{backend:?}: {text}");
        let c = wait_for(|| server.transport_counters(), |c| c.frames_out >= 2);
        assert_eq!(c.frames_in, 2, "{backend:?}: {c:?}");
        assert_eq!(c.frames_out, 2, "{backend:?}: {c:?}");
    }
}
