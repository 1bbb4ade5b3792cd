//! A static-content HTTP/1.1 server.
//!
//! Stands in for the Apache server of §4.3: it hosts the XML metadata
//! documents that XMIT retrieves at format-registration time.  Content is
//! an in-memory path → document map, mutable while the server runs (which
//! is exactly how "changes to the message formats used by distributed
//! programs can be centralized" in §3).
//!
//! Connections are persistent (HTTP/1.1 keep-alive): a connection serves
//! requests until the client closes it, asks for `Connection: close`, or
//! goes idle.  Every response carries a strong `ETag` derived from the
//! body, and `If-None-Match` revalidation answers `304 Not Modified` —
//! the substrate the discovery fast path's schema cache revalidates
//! against.
//!
//! The protocol exists once, as the sans-io `HttpConnHandler` (the
//! incremental [`RequestParser`] plus `render`); `openmeta_net::Server`
//! runs it on either connection engine (a bounded worker pool or the
//! readiness event loop) and owns the hardening: an accept-queue cap
//! instead of detached thread-per-connection spawns, read/write
//! deadlines on every connection, rejection of excess connects, and a
//! drain of in-flight requests when the server is dropped.
//!
//! Two built-in routes expose the process-wide metrics registry:
//! `GET /metrics` answers Prometheus text exposition and
//! `GET /metrics.json` the stable-schema JSON snapshot (see
//! `openmeta_obs`).  They shadow any published document at those paths.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use openmeta_obs::{Counter, MetricsRegistry};

use openmeta_net::{Dispatch, EventHandler, Server, ServerConfig, ServerStats, TransportCounters};
use parking_lot::RwLock;

use crate::content_hash64;
use crate::error::HttpError;
use crate::request::{Request, RequestParser};

/// A published document with the strong `ETag` computed once, when it
/// was published.
struct Document {
    content_type: String,
    body: Vec<u8>,
    etag: String,
}

/// Hosted content: path → document.
type ContentMap = HashMap<String, Arc<Document>>;

/// The content map and the request counters, shared by the server
/// handle (which publishes) and every connection's handler (which reads).
struct HttpShared {
    content: RwLock<ContentMap>,
    hits: Arc<Counter>,
    not_modified: Arc<Counter>,
}

/// A running HTTP server; dropping it shuts it down gracefully,
/// draining in-flight requests.
pub struct HttpServer {
    shared: Arc<HttpShared>,
    server: Server,
    stats: ServerStats,
}

impl HttpServer {
    /// Start a server on an ephemeral localhost port.
    pub fn start() -> Result<HttpServer, HttpError> {
        HttpServer::start_on(0)
    }

    /// Start a server on a specific localhost port (0 = ephemeral).
    pub fn start_on(port: u16) -> Result<HttpServer, HttpError> {
        HttpServer::start_with(port, ServerConfig::default())
    }

    /// Start a server with explicit worker/queue/deadline bounds.  The
    /// config's backend selects the connection engine; the rest of the
    /// API is identical either way.
    pub fn start_with(port: u16, cfg: ServerConfig) -> Result<HttpServer, HttpError> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let m = MetricsRegistry::global();
        let shared = Arc::new(HttpShared {
            content: RwLock::new(HashMap::new()),
            hits: m.counter("openmeta_http_requests_total"),
            not_modified: m.counter("openmeta_http_not_modified_total"),
        });
        let stats = ServerStats::new();
        let sh = shared.clone();
        let factory = Arc::new(move || {
            Box::new(HttpConnHandler { shared: sh.clone(), parser: RequestParser::new() })
                as Box<dyn EventHandler>
        });
        let server = Server::start("http-server", listener, &cfg, stats.clone(), factory)?;
        Ok(HttpServer { shared, server, stats })
    }

    /// Address for clients.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Full `http://` URL for a hosted path.
    pub fn url_for(&self, path: &str) -> String {
        let path = if path.starts_with('/') { path.to_string() } else { format!("/{path}") };
        format!("http://{}{}", self.addr(), path)
    }

    /// Publish (or replace) a text document.
    pub fn put(&self, path: &str, content_type: &str, body: impl Into<Vec<u8>>) {
        let path = if path.starts_with('/') { path.to_string() } else { format!("/{path}") };
        let body = body.into();
        let doc = Document { content_type: content_type.to_string(), etag: etag_for(&body), body };
        self.shared.content.write().insert(path, Arc::new(doc));
    }

    /// Publish an XML document (convenience for metadata hosting).
    pub fn put_xml(&self, path: &str, body: impl Into<Vec<u8>>) {
        self.put(path, "text/xml", body);
    }

    /// Remove a document; `true` if it existed.
    pub fn remove(&self, path: &str) -> bool {
        let path = if path.starts_with('/') { path.to_string() } else { format!("/{path}") };
        self.shared.content.write().remove(&path).is_some()
    }

    /// Number of requests served (for amortization experiments).
    pub fn hit_count(&self) -> u64 {
        self.shared.hits.get()
    }

    /// Number of requests answered `304 Not Modified` (successful
    /// `If-None-Match` revalidations).
    pub fn not_modified_count(&self) -> u64 {
        self.shared.not_modified.get()
    }

    /// Transport counters: accepted/active/rejected/timed-out connections
    /// and requests/responses (frames) in/out.
    pub fn transport_counters(&self) -> TransportCounters {
        self.stats.snapshot()
    }
}

/// Strong ETag for a body: quoted 16-hex-digit FNV-1a 64 content hash.
fn etag_for(body: &[u8]) -> String {
    format!("\"{:016x}\"", content_hash64(body))
}

/// Does an `If-None-Match` header value match `etag`?
fn if_none_match_matches(header: &str, etag: &str) -> bool {
    header.split(',').map(str::trim).any(|candidate| candidate == "*" || candidate == etag)
}

/// One connection's protocol core: the incremental parser plus
/// [`render`], run by either connection engine.
struct HttpConnHandler {
    shared: Arc<HttpShared>,
    parser: RequestParser,
}

impl EventHandler for HttpConnHandler {
    fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> std::io::Result<Dispatch> {
        self.parser.push(bytes);
        let mut dispatch = Dispatch::default();
        while let Some(request) = self.parser.next_request()? {
            out.extend_from_slice(&render(&self.shared, &request));
            dispatch.requests += 1;
            if request.close_requested {
                dispatch.close = true;
                break;
            }
        }
        Ok(dispatch)
    }

    /// Only a mid-request stall counts as a timeout; an idle keep-alive
    /// connection expiring is a routine close.
    fn deadline_counts_as_timeout(&self) -> bool {
        self.parser.has_partial()
    }
}

/// Handle one parsed request, returning the complete response bytes.
fn render(shared: &HttpShared, request: &Request) -> Vec<u8> {
    shared.hits.inc();
    if request.method != "GET" {
        return response_bytes(405, "Method Not Allowed", "text/plain", None, Some(b"GET only\n"));
    }
    match request.path.as_str() {
        // Built-in registry scrapes (shadow any published document).
        "/metrics" => {
            let body = MetricsRegistry::global().snapshot().to_prometheus();
            response_bytes(200, "OK", "text/plain; version=0.0.4", None, Some(body.as_bytes()))
        }
        "/metrics.json" => {
            let body = MetricsRegistry::global().snapshot().to_json();
            response_bytes(200, "OK", "application/json", None, Some(body.as_bytes()))
        }
        path => {
            let doc = shared.content.read().get(path).cloned();
            match doc {
                Some(doc) => {
                    let fresh = request
                        .if_none_match
                        .as_deref()
                        .is_some_and(|inm| if_none_match_matches(inm, &doc.etag));
                    let (code, reason, body) = if fresh {
                        shared.not_modified.inc();
                        (304, "Not Modified", None)
                    } else {
                        (200, "OK", Some(doc.body.as_slice()))
                    };
                    response_bytes(code, reason, &doc.content_type, Some(&doc.etag), body)
                }
                None => response_bytes(
                    404,
                    "Not Found",
                    "text/plain",
                    None,
                    Some(b"no such document\n"),
                ),
            }
        }
    }
}

/// Build one response as a single byte vector.  `body: None` means a
/// bodiless status (304): no `Content-Length` and no payload bytes.
/// One buffer per response: head and body in separate write segments
/// would hand Nagle a reason to park the body behind a delayed ACK.
fn response_bytes(
    code: u16,
    reason: &str,
    content_type: &str,
    etag: Option<&str>,
    body: Option<&[u8]>,
) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n");
    if let Some(tag) = etag {
        head.push_str(&format!("ETag: {tag}\r\n"));
    }
    if let Some(body) = body {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("Connection: keep-alive\r\n\r\n");
    let mut out = head.into_bytes();
    if let Some(body) = body {
        out.extend_from_slice(body);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_get, http_get_conditional, Fetch};
    use crate::url::Url;
    use std::net::TcpStream;
    use std::time::Duration;

    #[test]
    fn serves_published_documents() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/formats/a.xsd", "<a/>");
        let url = Url::parse(&server.url_for("/formats/a.xsd")).unwrap();
        let resp = http_get(&url).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"<a/>");
        assert_eq!(resp.content_type.as_deref(), Some("text/xml"));
        assert_eq!(server.hit_count(), 1);
        let counters = server.transport_counters();
        assert_eq!(counters.accepted, 1);
        assert_eq!(counters.frames_in, 1);
        // frame_out is counted after the response is flushed, so the
        // client can observe the reply before the worker's increment —
        // wait for the accounting to land.
        assert_eq!(wait_for_frames_out(&server, 1), 1);
    }

    /// Poll until the server's `frames_out` reaches `want` (bounded):
    /// the counter is incremented after the response bytes are flushed,
    /// so a client-side assert races the worker without this.
    fn wait_for_frames_out(server: &HttpServer, want: u64) -> u64 {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        loop {
            let got = server.transport_counters().frames_out;
            if got >= want || std::time::Instant::now() >= deadline {
                return got;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn missing_documents_are_404() {
        let server = HttpServer::start().unwrap();
        let url = Url::parse(&server.url_for("/nope")).unwrap();
        let err = http_get(&url).unwrap_err();
        assert_eq!(err, HttpError::Status { code: 404, reason: "Not Found".to_string() });
    }

    #[test]
    fn documents_can_be_replaced_centrally() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/f.xsd", "<v1/>");
        let url = Url::parse(&server.url_for("/f.xsd")).unwrap();
        assert_eq!(http_get(&url).unwrap().body, b"<v1/>");
        server.put_xml("/f.xsd", "<v2/>");
        assert_eq!(http_get(&url).unwrap().body, b"<v2/>");
        assert!(server.remove("/f.xsd"));
        assert!(http_get(&url).is_err());
    }

    #[test]
    fn concurrent_fetches() {
        let server = HttpServer::start().unwrap();
        for i in 0..10 {
            server.put_xml(&format!("/doc{i}"), format!("<doc n=\"{i}\"/>"));
        }
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..8 {
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let url = Url::parse(&format!("http://{addr}/doc{}", (t + i) % 10)).unwrap();
                    let resp = http_get(&url).unwrap();
                    assert_eq!(resp.status, 200);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.hit_count(), 80);
    }

    #[test]
    fn responses_carry_stable_etags() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/f.xsd", "<v1/>");
        let url = Url::parse(&server.url_for("/f.xsd")).unwrap();
        let first = http_get(&url).unwrap().etag.expect("etag");
        let second = http_get(&url).unwrap().etag.expect("etag");
        assert_eq!(first, second);
        server.put_xml("/f.xsd", "<v2/>");
        let third = http_get(&url).unwrap().etag.expect("etag");
        assert_ne!(first, third, "changed content must change the ETag");
    }

    #[test]
    fn if_none_match_revalidation() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/f.xsd", "<v1/>");
        let url = Url::parse(&server.url_for("/f.xsd")).unwrap();
        let etag = http_get(&url).unwrap().etag.unwrap();

        // Matching validator: 304 with the ETag, counted.
        let fetch = http_get_conditional(&url, Some(&etag)).unwrap();
        assert_eq!(fetch, Fetch::NotModified { etag: Some(etag.clone()) });
        assert_eq!(server.not_modified_count(), 1);

        // Stale validator after a content change: full 200 again.
        server.put_xml("/f.xsd", "<v2/>");
        match http_get_conditional(&url, Some(&etag)).unwrap() {
            Fetch::Full(resp) => assert_eq!(resp.body, b"<v2/>"),
            other => panic!("expected full response, got {other:?}"),
        }
        assert_eq!(server.not_modified_count(), 1);
    }

    #[test]
    fn if_none_match_list_and_wildcard() {
        let etag = "\"00000000deadbeef\"";
        assert!(if_none_match_matches(etag, etag));
        assert!(if_none_match_matches("\"x\", \"00000000deadbeef\"", etag));
        assert!(if_none_match_matches("*", etag));
        assert!(!if_none_match_matches("\"y\"", etag));
    }

    #[test]
    fn connection_bound_rejects_excess_connects() {
        use std::io::Read as _;
        // One worker, no queue slack: the held connection occupies the
        // only worker and the second connect is rejected (closed).
        let cfg = ServerConfig {
            workers: 1,
            accept_queue: 0,
            max_connections: 1,
            read_timeout: Some(Duration::from_secs(2)),
            ..ServerConfig::default()
        };
        let server = HttpServer::start_with(0, cfg).unwrap();
        server.put_xml("/f.xsd", "<v1/>");
        let holder = TcpStream::connect(server.addr()).unwrap();
        // Wait until the worker picks the holder up.
        let start = std::time::Instant::now();
        while server.transport_counters().active == 0 && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut second = TcpStream::connect(server.addr()).unwrap();
        second.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        // The rejected connection is closed without a byte of response.
        assert_eq!(second.read_to_end(&mut buf).unwrap_or(0), 0);
        let counters = server.transport_counters();
        assert!(counters.rejected >= 1, "{counters:?}");
        drop(holder);
    }

    #[test]
    fn graceful_drop_is_prompt_with_idle_keepalive_clients() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/f.xsd", "<v1/>");
        // An idle keep-alive connection pins a worker in a blocked read.
        let url = Url::parse(&server.url_for("/f.xsd")).unwrap();
        let pool = crate::pool::ConnectionPool::default();
        assert_eq!(pool.get(&url).unwrap().body, b"<v1/>");
        let start = std::time::Instant::now();
        drop(server);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must not wait out the keep-alive idle deadline"
        );
    }
}
