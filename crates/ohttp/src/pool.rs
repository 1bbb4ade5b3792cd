//! A keep-alive HTTP/1.1 connection pool.
//!
//! Discovery hammers the same metadata server with many small GETs; the
//! one-shot [`crate::client::http_get`] pays a TCP handshake per fetch.
//! The pool keeps idle connections per authority (`host:port`) and reuses
//! them whenever the previous response left the connection in a framed,
//! persistent state.  A pooled connection may have been closed by the
//! server in the meantime (a drain closes every idle keep-alive socket),
//! so checkout probes the socket with a zero-timeout `read_ready` first:
//! a readable-or-EOF connection is discarded (counted as
//! `dead_on_checkout`) instead of burning the request's single
//! stale-conn retry.  The retry remains as a backstop for the
//! unavoidable race where the server closes between probe and use.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use openmeta_net::nio::{read_ready, ReadOutcome};
use openmeta_obs::{Counter, Gauge, MetricsRegistry};

use crate::client::{
    interpret, read_response, transport, write_get_request, Fetch, Response, CONNECT_TIMEOUT,
    IO_TIMEOUT,
};
use crate::error::HttpError;
use crate::url::Url;
use openmeta_obs::sync;

/// A capped, per-key store of idle reusable resources — the pool's
/// retention policy, extracted so its check-in/check-out races can be
/// model-tested in isolation (`cargo xtask loom`).
///
/// Keys are authorities (`host:port`); at most `cap` items are retained
/// per key, and a check-in beyond the cap reports `false` and drops the
/// item on the caller's side.
pub struct IdleSet<T> {
    cap: usize,
    idle: sync::Mutex<HashMap<String, Vec<T>>>,
}

impl<T> IdleSet<T> {
    /// An empty set retaining at most `cap` items per key.
    pub fn new(cap: usize) -> IdleSet<T> {
        IdleSet { cap, idle: sync::Mutex::new(HashMap::new()) }
    }

    /// Take one idle item for `key`, most recently checked in first.
    pub fn check_out(&self, key: &str) -> Option<T> {
        sync::lock(&self.idle).get_mut(key)?.pop()
    }

    /// Return an item for `key`; `false` means the per-key cap was
    /// already met and the item was not retained.
    pub fn check_in(&self, key: &str, item: T) -> bool {
        let mut idle = sync::lock(&self.idle);
        let items = idle.entry(key.to_string()).or_default();
        if items.len() < self.cap {
            items.push(item);
            true
        } else {
            false
        }
    }

    /// Total idle items across all keys.
    pub fn count(&self) -> usize {
        sync::lock(&self.idle).values().map(Vec::len).sum()
    }

    /// Largest idle count held by any single key.
    pub fn max_per_key(&self) -> usize {
        sync::lock(&self.idle).values().map(Vec::len).max().unwrap_or(0)
    }

    /// Drop every idle item, returning how many were dropped.
    pub fn clear(&self) -> usize {
        let mut idle = sync::lock(&self.idle);
        let dropped = idle.values().map(Vec::len).sum();
        idle.clear();
        dropped
    }
}

/// Counters describing pool behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total requests issued through the pool.
    pub requests: u64,
    /// Fresh TCP connections established.
    pub connects: u64,
    /// Requests served over a reused (pooled) connection.
    pub reuses: u64,
    /// Reused connections that had gone stale and were retried fresh.
    pub stale_retries: u64,
    /// Idle connections the checkout probe found dead (peer EOF or
    /// stray bytes) and discarded before any request was spent on them.
    pub dead_on_checkout: u64,
}

/// Pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Maximum idle connections kept per authority.
    pub max_idle_per_authority: usize,
    /// TCP connect timeout (per resolved address).
    pub connect_timeout: Duration,
    /// Read/write timeout on established connections.
    pub io_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_idle_per_authority: 4,
            connect_timeout: CONNECT_TIMEOUT,
            io_timeout: IO_TIMEOUT,
        }
    }
}

/// A keep-alive connection pool for HTTP/1.1 GETs.
pub struct ConnectionPool {
    cfg: PoolConfig,
    idle: IdleSet<TcpStream>,
    /// Global-registry-backed instruments (`openmeta_pool_*`): this
    /// pool's exact numbers via [`ConnectionPool::stats`], process-wide
    /// sums via a `/metrics` scrape.
    requests: Arc<Counter>,
    connects: Arc<Counter>,
    reuses: Arc<Counter>,
    stale_retries: Arc<Counter>,
    dead_on_checkout: Arc<Counter>,
    idle_gauge: Arc<Gauge>,
}

impl Default for ConnectionPool {
    fn default() -> Self {
        ConnectionPool::new(PoolConfig::default())
    }
}

impl ConnectionPool {
    /// A pool with the given configuration.
    pub fn new(cfg: PoolConfig) -> ConnectionPool {
        let m = MetricsRegistry::global();
        ConnectionPool {
            cfg,
            idle: IdleSet::new(cfg.max_idle_per_authority),
            requests: m.counter("openmeta_pool_requests_total"),
            connects: m.counter("openmeta_pool_connects_total"),
            reuses: m.counter("openmeta_pool_reuses_total"),
            stale_retries: m.counter("openmeta_pool_stale_retries_total"),
            dead_on_checkout: m.counter("openmeta_pool_dead_on_checkout_total"),
            idle_gauge: m.gauge("openmeta_pool_idle_connections"),
        }
    }

    /// Fetch `url`, reusing a pooled connection when possible.
    /// Non-2xx statuses become [`HttpError::Status`].
    pub fn get(&self, url: &Url) -> Result<Response, HttpError> {
        match self.get_conditional(url, None)? {
            Fetch::Full(r) => Ok(r),
            Fetch::NotModified { .. } => {
                Err(HttpError::BadResponse("unsolicited 304 Not Modified".to_string()))
            }
        }
    }

    /// Conditional GET with `If-None-Match: etag` when a validator is
    /// given; a `304 Not Modified` becomes [`Fetch::NotModified`].
    pub fn get_conditional(&self, url: &Url, etag: Option<&str>) -> Result<Fetch, HttpError> {
        if url.scheme != "http" {
            return Err(HttpError::UnsupportedScheme(url.scheme.clone()));
        }
        self.requests.inc();
        let authority = url.authority();

        // First attempt on a pooled connection, if one is idle.  The
        // server may have closed it since check-in, so any failure here
        // falls through to one fresh-connection retry.
        if let Some(stream) = self.check_out(&authority) {
            match self.request_on(stream, url, etag) {
                Ok(outcome) => {
                    self.reuses.inc();
                    return Ok(outcome);
                }
                Err(_) => {
                    self.stale_retries.inc();
                }
            }
        }

        // The connection gets the pool's deadlines and no Nagle: requests
        // are single small writes that Nagle would queue behind the
        // previous exchange's delayed ACK on a reused connection.
        let cfg = transport(self.cfg.connect_timeout, self.cfg.io_timeout);
        let stream = openmeta_net::connect_with_deadline((url.host.as_str(), url.port), &cfg)?;
        self.connects.inc();
        self.request_on(stream, url, etag)
    }

    /// Issue one request on `stream`; on success the connection is
    /// checked back in when the response allows reuse.
    fn request_on(
        &self,
        stream: TcpStream,
        url: &Url,
        etag: Option<&str>,
    ) -> Result<Fetch, HttpError> {
        write_get_request(&mut &stream, url, etag, true)?;
        let raw = read_response(&mut BufReader::new(&stream))?;
        // Check the connection back in even when the status is an error:
        // a framed 404 leaves the connection perfectly reusable.
        if raw.reusable {
            self.check_in(&url.authority(), stream);
        }
        interpret(raw)
    }

    fn check_out(&self, authority: &str) -> Option<TcpStream> {
        while let Some(stream) = self.idle.check_out(authority) {
            self.idle_gauge.dec();
            if let Some(healthy) = probe_idle(stream) {
                return Some(healthy);
            }
            self.dead_on_checkout.inc();
        }
        None
    }

    fn check_in(&self, authority: &str, stream: TcpStream) {
        if self.idle.check_in(authority, stream) {
            self.idle_gauge.inc();
        }
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            requests: self.requests.get(),
            connects: self.connects.get(),
            reuses: self.reuses.get(),
            stale_retries: self.stale_retries.get(),
            dead_on_checkout: self.dead_on_checkout.get(),
        }
    }

    /// Number of idle connections currently held.
    pub fn idle_count(&self) -> usize {
        self.idle.count()
    }

    /// Drop all idle connections (counters are kept).
    pub fn clear(&self) {
        let dropped = self.idle.clear();
        self.idle_gauge.add(-(dropped as i64));
    }
}

/// Zero-timeout health probe on an idle keep-alive connection: between
/// responses the peer owes us nothing, so a healthy socket reads as
/// `WouldBlock`.  EOF means the server closed it; readable bytes mean a
/// desynchronized connection (neither is usable).  The probe itself
/// never blocks — the socket is flipped to nonblocking for one
/// `read_ready` call and restored before it is handed out.
fn probe_idle(mut stream: TcpStream) -> Option<TcpStream> {
    if stream.set_nonblocking(true).is_err() {
        return None;
    }
    let mut scratch = [0u8; 16];
    let healthy = matches!(read_ready(&mut stream, &mut scratch), Ok(ReadOutcome::NotReady));
    if healthy && stream.set_nonblocking(false).is_ok() {
        Some(stream)
    } else {
        None
    }
}

#[cfg(test)]
mod idle_set_tests {
    use super::*;

    #[test]
    fn caps_per_key_not_globally() {
        let set = IdleSet::new(2);
        assert!(set.check_in("a:80", 1));
        assert!(set.check_in("a:80", 2));
        assert!(!set.check_in("a:80", 3), "per-key cap reached");
        assert!(set.check_in("b:80", 4), "other keys unaffected");
        assert_eq!(set.count(), 3);
        assert_eq!(set.max_per_key(), 2);
    }

    #[test]
    fn check_out_is_lifo_and_empties() {
        let set = IdleSet::new(4);
        set.check_in("a:80", 1);
        set.check_in("a:80", 2);
        assert_eq!(set.check_out("a:80"), Some(2));
        assert_eq!(set.check_out("a:80"), Some(1));
        assert_eq!(set.check_out("a:80"), None);
        assert_eq!(set.check_out("missing:80"), None);
    }

    #[test]
    fn clear_drops_everything() {
        let set = IdleSet::new(4);
        set.check_in("a:80", 1);
        set.check_in("b:80", 2);
        set.clear();
        assert_eq!(set.count(), 0);
        assert_eq!(set.max_per_key(), 0);
    }
}

/// Model tests: `RUSTFLAGS="--cfg loom" cargo test -p openmeta-ohttp`
/// (driven by `cargo xtask loom`).
#[cfg(all(test, loom))]
mod loom_tests {
    use super::*;
    use std::sync::Arc;

    /// Concurrent check-ins never exceed the per-key cap, and every item
    /// is either retained or reported dropped — none lost.
    #[test]
    fn loom_idle_set_cap_under_contention() {
        loom::model(|| {
            let set = Arc::new(IdleSet::new(1));
            let handles: Vec<_> = (0..2)
                .map(|n| {
                    let set = set.clone();
                    loom::thread::spawn(move || set.check_in("a:80", n))
                })
                .collect();
            let retained =
                handles.into_iter().map(|h| h.join().expect("join")).filter(|&kept| kept).count();
            assert_eq!(retained, 1, "exactly one concurrent check-in may win");
            assert!(set.max_per_key() <= 1, "cap must hold");
            assert!(set.check_out("a:80").is_some());
            assert!(set.check_out("a:80").is_none(), "cap 1 retains at most one");
        });
    }

    /// A checker-out racing a checker-in sees each item at most once.
    #[test]
    fn loom_check_out_races_check_in() {
        loom::model(|| {
            let set = Arc::new(IdleSet::new(4));
            let set2 = set.clone();
            let producer = loom::thread::spawn(move || {
                set2.check_in("a:80", 7);
            });
            let set3 = set.clone();
            let consumer = loom::thread::spawn(move || set3.check_out("a:80"));
            producer.join().expect("join");
            let taken = consumer.join().expect("join");
            let remaining = set.check_out("a:80");
            match taken {
                Some(v) => {
                    assert_eq!(v, 7);
                    assert_eq!(remaining, None, "item must not be duplicated");
                }
                None => assert_eq!(remaining, Some(7), "item must not be lost"),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HttpServer;

    #[test]
    fn reuses_connections_across_requests() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/a.xsd", "<a/>");
        let pool = ConnectionPool::default();
        let url = Url::parse(&server.url_for("/a.xsd")).unwrap();
        for _ in 0..5 {
            assert_eq!(pool.get(&url).unwrap().body, b"<a/>");
        }
        let stats = pool.stats();
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.connects, 1, "keep-alive should reuse one connection");
        assert_eq!(stats.reuses, 4);
        assert_eq!(stats.stale_retries, 0);
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn non_success_statuses_keep_connection_alive() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/a.xsd", "<a/>");
        let pool = ConnectionPool::default();
        let missing = Url::parse(&server.url_for("/nope")).unwrap();
        let present = Url::parse(&server.url_for("/a.xsd")).unwrap();
        assert!(matches!(pool.get(&missing), Err(HttpError::Status { code: 404, .. })));
        assert_eq!(pool.get(&present).unwrap().body, b"<a/>");
        assert_eq!(pool.stats().connects, 1);
    }

    #[test]
    fn drained_pooled_connection_is_discarded_at_checkout() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/a.xsd", "<a/>");
        let url = Url::parse(&server.url_for("/a.xsd")).unwrap();
        let pool = ConnectionPool::default();
        assert_eq!(pool.get(&url).unwrap().body, b"<a/>");
        assert_eq!(pool.idle_count(), 1);
        // Drain the server and restart on the same port: its shutdown
        // closed the pooled keep-alive connection.  The checkout probe
        // must catch the dead socket up front, so the first real request
        // keeps its single stale-conn retry unspent.
        let addr = server.addr();
        drop(server);
        let server = HttpServer::start_on(addr.port()).unwrap();
        server.put_xml("/a.xsd", "<a/>");
        // Dropping the old server joined its workers, so the FIN is
        // already queued on the pooled socket when the probe runs.
        let resp = pool.get(&url).unwrap();
        assert_eq!(resp.body, b"<a/>");
        let stats = pool.stats();
        assert_eq!(stats.dead_on_checkout, 1, "probe must discard the drained conn");
        assert_eq!(stats.stale_retries, 0, "retry budget must stay unspent");
        assert_eq!(stats.connects, 2);
        assert_eq!(pool.idle_count(), 1, "the fresh connection is pooled again");
    }

    #[test]
    fn conditional_get_through_pool() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/a.xsd", "<a/>");
        let pool = ConnectionPool::default();
        let url = Url::parse(&server.url_for("/a.xsd")).unwrap();
        let Fetch::Full(first) = pool.get_conditional(&url, None).unwrap() else {
            panic!("expected full response")
        };
        let etag = first.etag.expect("server should send an ETag");
        let second = pool.get_conditional(&url, Some(&etag)).unwrap();
        assert_eq!(second, Fetch::NotModified { etag: Some(etag) });
        // Both requests over the same connection.
        assert_eq!(pool.stats().connects, 1);
    }

    #[test]
    fn idle_cap_is_enforced() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/a.xsd", "<a/>");
        let cfg = PoolConfig { max_idle_per_authority: 1, ..PoolConfig::default() };
        let pool = ConnectionPool::new(cfg);
        let url = Url::parse(&server.url_for("/a.xsd")).unwrap();
        // Run several concurrent fetches: each claims its own connection,
        // but only one may be retained.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    pool.get(&url).unwrap();
                });
            }
        });
        assert!(pool.idle_count() <= 1);
    }

    #[test]
    fn connect_timeout_fails_fast() {
        // RFC 5737 TEST-NET-1 address: guaranteed unroutable, so connect
        // either times out or is rejected — never hangs for minutes.
        let cfg = PoolConfig { connect_timeout: Duration::from_millis(200), ..Default::default() };
        let pool = ConnectionPool::new(cfg);
        let url = Url::parse("http://192.0.2.1:9/x").unwrap();
        let start = std::time::Instant::now();
        assert!(matches!(pool.get(&url), Err(HttpError::Io(_))));
        // Generous bound: the point is "not the OS default of minutes",
        // and a loaded CI machine can stretch a 200 ms timeout a lot.
        assert!(start.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn endless_response_header_is_cut_at_the_head_limit() {
        use std::io::{Read, Write};
        // A server that streams a 1 MiB header line with no newline and
        // then holds the connection open: without the cap the client
        // buffers all of it and waits for the rest until its I/O
        // deadline.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let url = Url::parse(&format!("http://{}/big", listener.local_addr().unwrap())).unwrap();
        let cfg = PoolConfig { io_timeout: Duration::from_secs(20), ..PoolConfig::default() };
        let pool = ConnectionPool::new(cfg);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (mut s, _) = listener.accept().unwrap();
                let mut request = [0u8; 1024];
                let _ = s.read(&mut request);
                let mut reply = b"HTTP/1.1 200 OK\r\nX-Big: ".to_vec();
                reply.resize(reply.len() + (1 << 20), b'a');
                // The client hangs up at the cap; a failed write is expected.
                let _ = s.write_all(&reply);
                let _ = s.read(&mut request);
            });
            let start = std::time::Instant::now();
            let err = pool.get(&url).unwrap_err();
            assert!(
                matches!(&err, HttpError::BadResponse(m) if m.contains("head limit")),
                "{err:?}"
            );
            assert!(start.elapsed() < Duration::from_secs(10), "{:?}", start.elapsed());
        });
        assert_eq!(pool.idle_count(), 0);
    }

    #[test]
    fn non_http_scheme_rejected() {
        let pool = ConnectionPool::default();
        let url = Url::parse("mem://doc").unwrap();
        assert!(matches!(pool.get(&url), Err(HttpError::UnsupportedScheme(_))));
    }
}
