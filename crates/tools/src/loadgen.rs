//! `openmeta loadgen` — drive many concurrent keep-alive clients
//! against a format server or HTTP metadata host.
//!
//! The generator is a single-threaded readiness loop over nonblocking
//! sockets — the same technique as `openmeta_net`'s server event loop,
//! so one process can hold 10k+ connections without 10k threads.  It
//! blocks in `poll(2)` ([`openmeta_net::sys`]) until a connection is
//! ready, then advances only the ready ones.  Each connection runs a
//! request/response state machine (write request → track response
//! bytes → record latency → next request) and every
//! completed round trip lands in the `openmeta_loadgen_latency_ns`
//! histogram in the global metrics registry, where `openmeta stats` and
//! the `--json` report read p50/p99/p999 from.
//!
//! ```text
//! openmeta loadgen [--server http|pbio] [--connections N] [--requests N]
//!                  [--json] [--check] [--max-p99-ms MS] [--serve-only]
//!                  [--target HOST:PORT]
//! ```
//!
//! Without `--target` the generator starts the chosen server in-process
//! and reports its transport counters alongside
//! the latency numbers.  For scales past the per-process fd limit, run
//! `--serve-only` in one process (it prints the listen address) and
//! point a second process at it with `--target`.  `--check` turns the
//! run into a gate: nonzero exit when any request failed or p99 exceeds
//! `--max-p99-ms` (for CI).

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use openmeta_net::nio::{read_ready, write_ready, ReadOutcome, WriteOutcome};
use openmeta_net::sys::{poll, PollFd, POLLIN, POLLOUT};
use openmeta_net::{LengthFramer, ServerConfig, TransportCounters};
use openmeta_obs::{Histogram, MetricsRegistry};
use openmeta_ohttp::HttpServer;
use openmeta_pbio::server::{fetch_request_payload, FormatServer, FormatServerClient};
use openmeta_pbio::{FormatDescriptor, FormatSpec, IOField, MachineModel};

use crate::ToolError;

/// Which server protocol to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// The `ohttp` static-content HTTP/1.1 server (`GET /doc`).
    Http,
    /// The `pbio` format server (fetch-by-id frames).
    Pbio,
}

/// Parsed `openmeta loadgen` options.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Protocol / server under test.
    pub server: ServerKind,
    /// Concurrent keep-alive connections.
    pub connections: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Emit the report as JSON.
    pub json: bool,
    /// Gate mode: fail on errors or a p99 above `max_p99_ms`.
    pub check: bool,
    /// p99 budget for `--check`, in milliseconds.
    pub max_p99_ms: u64,
    /// Start the server and wait (for a second loadgen process).
    pub serve_only: bool,
    /// Drive an already-running server instead of an in-process one.
    pub target: Option<SocketAddr>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            server: ServerKind::Http,
            connections: 1000,
            requests: 10,
            json: false,
            check: false,
            max_p99_ms: 2000,
            serve_only: false,
            target: None,
        }
    }
}

impl LoadgenOptions {
    /// Parse CLI arguments (everything after `loadgen`).
    pub fn parse(args: &[String]) -> Result<LoadgenOptions, ToolError> {
        let mut opts = LoadgenOptions::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value =
                |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value")).cloned();
            match arg.as_str() {
                "--server" => {
                    opts.server = match value("--server")?.as_str() {
                        "http" => ServerKind::Http,
                        "pbio" => ServerKind::Pbio,
                        other => return Err(format!("unknown server '{other}'")),
                    }
                }
                "--connections" => {
                    opts.connections = value("--connections")?
                        .parse()
                        .map_err(|e| format!("--connections: {e}"))?
                }
                "--requests" => {
                    opts.requests =
                        value("--requests")?.parse().map_err(|e| format!("--requests: {e}"))?
                }
                "--max-p99-ms" => {
                    opts.max_p99_ms =
                        value("--max-p99-ms")?.parse().map_err(|e| format!("--max-p99-ms: {e}"))?
                }
                "--target" => {
                    opts.target =
                        Some(value("--target")?.parse().map_err(|e| format!("--target: {e}"))?)
                }
                "--json" => opts.json = true,
                "--check" => opts.check = true,
                "--serve-only" => opts.serve_only = true,
                other => return Err(format!("unknown loadgen option '{other}'")),
            }
        }
        if opts.connections == 0 || opts.requests == 0 {
            return Err("--connections and --requests must be positive".to_string());
        }
        Ok(opts)
    }
}

/// The shared-by-construction format both processes of a two-process run
/// derive the same content-addressed id from.
fn loadgen_descriptor() -> FormatDescriptor {
    FormatDescriptor::resolve(
        &FormatSpec::new(
            "LoadgenProbe",
            vec![IOField::auto("seq", "integer", 8), IOField::auto("payload", "string", 0)],
        ),
        MachineModel::native(),
        &|_| None,
    )
    .expect("loadgen probe format resolves")
}

/// An in-process server under test (kept alive for the run's duration).
enum ServerUnderTest {
    Http(HttpServer),
    Pbio(FormatServer),
}

impl ServerUnderTest {
    fn addr(&self) -> SocketAddr {
        match self {
            ServerUnderTest::Http(s) => s.addr(),
            ServerUnderTest::Pbio(s) => s.addr(),
        }
    }

    fn counters(&self) -> TransportCounters {
        match self {
            ServerUnderTest::Http(s) => s.transport_counters(),
            ServerUnderTest::Pbio(s) => s.transport_counters(),
        }
    }
}

/// Server bounds sized for a load test: admit every planned connection
/// plus slack.  The read deadline is
/// stretched well past the ramp-up window — connecting 10k clients one
/// by one takes longer than the keep-alive idle default, and an
/// idle-killed connection would show up as a spurious client error.
fn server_config(opts: &LoadgenOptions) -> ServerConfig {
    let base = ServerConfig::default();
    ServerConfig {
        max_connections: opts.connections + 64,
        read_timeout: Some(Duration::from_secs(300)),
        ..base
    }
}

fn start_server(opts: &LoadgenOptions) -> Result<ServerUnderTest, ToolError> {
    let cfg = server_config(opts);
    match opts.server {
        ServerKind::Http => {
            let server = HttpServer::start_with(0, cfg).map_err(|e| e.to_string())?;
            server.put("/doc", "text/xml", DOC_BODY.as_bytes().to_vec());
            Ok(ServerUnderTest::Http(server))
        }
        ServerKind::Pbio => {
            FormatServer::start_with(cfg).map(ServerUnderTest::Pbio).map_err(|e| e.to_string())
        }
    }
}

/// The document the HTTP run fetches — small enough that each response
/// fits one segment, so latency measures dispatch, not bandwidth.
const DOC_BODY: &str = "<format name='LoadgenProbe'><field name='seq' type='integer'/></format>";

/// Tracks response-completion for one connection.
enum Tracker {
    Http { buf: Vec<u8> },
    Frame(LengthFramer),
}

impl Tracker {
    fn new(kind: ServerKind) -> Tracker {
        match kind {
            ServerKind::Http => Tracker::Http { buf: Vec::new() },
            ServerKind::Pbio => Tracker::Frame(LengthFramer::new(16 << 20)),
        }
    }

    /// Feed received bytes; return how many complete responses finished.
    fn push(&mut self, bytes: &[u8]) -> Result<usize, ToolError> {
        match self {
            Tracker::Frame(framer) => {
                framer.push(bytes);
                let mut done = 0;
                while framer.next_frame().map_err(|e| e.to_string())?.is_some() {
                    done += 1;
                }
                Ok(done)
            }
            Tracker::Http { buf } => {
                buf.extend_from_slice(bytes);
                let mut done = 0;
                while let Some(head_end) = find_head_end(buf) {
                    let head = String::from_utf8_lossy(&buf[..head_end]);
                    let mut body_len = 0usize;
                    for line in head.lines() {
                        if let Some((name, value)) = line.split_once(':') {
                            if name.eq_ignore_ascii_case("content-length") {
                                body_len =
                                    value.trim().parse().map_err(|e| format!("bad length: {e}"))?;
                            }
                        }
                    }
                    let total = head_end + body_len;
                    if buf.len() < total {
                        break;
                    }
                    buf.drain(..total);
                    done += 1;
                }
                Ok(done)
            }
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// One keep-alive client connection's state machine.
struct ClientConn {
    stream: TcpStream,
    tracker: Tracker,
    out: Vec<u8>,
    out_pos: usize,
    in_flight: bool,
    sent_at: Instant,
    done: usize,
    failed: bool,
}

/// Result of one full generator run.
pub struct LoadReport {
    /// Options the run executed with.
    pub opts: LoadgenOptions,
    /// Round trips that completed.
    pub completed: u64,
    /// Connections that failed (connect error, reset, or short run).
    pub errors: u64,
    /// Wall-clock duration of the measurement phase.
    pub elapsed: Duration,
    /// Latency quantiles in nanoseconds (from the obs histogram).
    pub p50_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th percentile, nanoseconds.
    pub p999_ns: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Server transport counters (in-process runs only).
    pub counters: Option<TransportCounters>,
}

impl LoadReport {
    /// Requests per second over the measurement phase.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// `--check` verdict: every planned request completed and p99 is
    /// within budget.
    pub fn passed(&self) -> bool {
        let planned = (self.opts.connections * self.opts.requests) as u64;
        self.errors == 0
            && self.completed == planned
            && self.p99_ns <= self.opts.max_p99_ms.saturating_mul(1_000_000)
    }

    fn server_name(&self) -> &'static str {
        match self.opts.server {
            ServerKind::Http => "http",
            ServerKind::Pbio => "pbio",
        }
    }

    /// Human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} server, {} connections x {} requests",
            self.server_name(),
            self.opts.connections,
            self.opts.requests
        );
        let _ = writeln!(
            out,
            "  completed {} round trips in {:.2}s ({:.0} req/s), {} errors",
            self.completed,
            self.elapsed.as_secs_f64(),
            self.throughput(),
            self.errors
        );
        let _ = writeln!(
            out,
            "  latency: mean {:.2}ms  p50 {:.2}ms  p99 {:.2}ms  p999 {:.2}ms",
            self.mean_ns / 1e6,
            self.p50_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
            self.p999_ns as f64 / 1e6
        );
        if let Some(c) = &self.counters {
            let _ = writeln!(
                out,
                "  server: accepted {} rejected {} timed_out {} frames_in {} frames_out {}",
                c.accepted, c.rejected, c.timed_out, c.frames_in, c.frames_out
            );
        }
        if self.opts.check {
            let _ = writeln!(out, "  check: {}", if self.passed() { "PASS" } else { "FAIL" });
        }
        out
    }

    /// JSON report.
    pub fn to_json(&self) -> String {
        let counters = match &self.counters {
            Some(c) => format!(
                "{{\"accepted\": {}, \"rejected\": {}, \"timed_out\": {}, \
                 \"frames_in\": {}, \"frames_out\": {}}}",
                c.accepted, c.rejected, c.timed_out, c.frames_in, c.frames_out
            ),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \"bench\": \"loadgen\",\n  \"server\": \"{}\",\n  \
             \"connections\": {},\n  \"requests_per_connection\": {},\n  \"completed\": {},\n  \
             \"errors\": {},\n  \"elapsed_s\": {:.3},\n  \"requests_per_s\": {:.1},\n  \
             \"latency_ns\": {{\"mean\": {:.0}, \"p50\": {}, \"p99\": {}, \"p999\": {}}},\n  \
             \"server_counters\": {},\n  \"passed\": {}\n}}\n",
            self.server_name(),
            self.opts.connections,
            self.opts.requests,
            self.completed,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.throughput(),
            self.mean_ns,
            self.p50_ns,
            self.p99_ns,
            self.p999_ns,
            counters,
            self.passed()
        )
    }
}

/// Run the generator per `opts`.  In `--serve-only` mode this never
/// returns (the caller's process hosts the server until killed).
pub fn run(opts: LoadgenOptions) -> Result<LoadReport, ToolError> {
    if opts.serve_only {
        let server = start_server(&opts)?;
        println!("loadgen: serving {:?} on {} (ctrl-c to stop)", opts.server, server.addr());
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    let server = match opts.target {
        Some(_) => None,
        None => Some(start_server(&opts)?),
    };
    let addr = opts.target.unwrap_or_else(|| server.as_ref().expect("in-process server").addr());

    // The pbio run fetches a registered descriptor by id; registration is
    // content-addressed and idempotent, so the driving process can always
    // register it (even against a `--serve-only` peer).
    let request = match opts.server {
        ServerKind::Http => b"GET /doc HTTP/1.1\r\nHost: loadgen\r\n\r\n".to_vec(),
        ServerKind::Pbio => {
            let client = FormatServerClient::connect(addr);
            let id = client.register(&loadgen_descriptor()).map_err(|e| e.to_string())?;
            let payload = fetch_request_payload(id);
            let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(&payload);
            framed
        }
    };

    let report = sweep(&opts, addr, &request, server.as_ref())?;
    Ok(report)
}

/// Connect all clients, then sweep their state machines to completion.
fn sweep(
    opts: &LoadgenOptions,
    addr: SocketAddr,
    request: &[u8],
    server: Option<&ServerUnderTest>,
) -> Result<LoadReport, ToolError> {
    let latency = MetricsRegistry::global().histogram("openmeta_loadgen_latency_ns");
    let mut conns: Vec<ClientConn> = Vec::with_capacity(opts.connections);
    let mut errors = 0u64;
    for i in 0..opts.connections {
        // Localhost connects are cheap but not free: retry a few times so
        // a momentarily full backlog doesn't fail the run.
        let mut attempt = 0;
        let stream = loop {
            match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
                Ok(s) => break Some(s),
                Err(_) if attempt < 5 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20 << attempt));
                }
                Err(e) => {
                    eprintln!("loadgen: connect {i}: {e}");
                    break None;
                }
            }
        };
        let Some(stream) = stream else {
            errors += 1;
            continue;
        };
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        conns.push(ClientConn {
            stream,
            tracker: Tracker::new(opts.server),
            out: Vec::new(),
            out_pos: 0,
            in_flight: false,
            sent_at: openmeta_obs::clock::now(),
            done: 0,
            failed: false,
        });
    }

    let started = openmeta_obs::clock::now();
    // Generous overall budget: a wedged server must not hang the tool.
    let budget = Duration::from_secs(60)
        + Duration::from_millis((opts.connections * opts.requests) as u64 / 10);
    let mut scratch = vec![0u8; 64 * 1024];
    let mut completed = 0u64;
    // One poll entry per connection, in `conns` order.  Every connection
    // starts "ready" so the first pass sends each one's first request.
    let mut fds: Vec<PollFd> =
        conns.iter().map(|c| PollFd::new(c.stream.as_raw_fd(), POLLOUT)).collect();
    let mut first_pass = true;
    loop {
        let mut live = 0usize;
        let mut busy = false;
        for (conn, fd) in conns.iter_mut().zip(fds.iter_mut()) {
            if conn.failed || conn.done >= opts.requests {
                continue;
            }
            if first_pass || fd.revents() != 0 {
                busy = true;
                match drive(conn, opts.requests, request, &mut scratch, &latency) {
                    Ok(round_trips) => completed += round_trips,
                    Err(_) => conn.failed = true,
                }
            }
            if conn.failed || conn.done >= opts.requests {
                // Finished or failed: poll skips negative descriptors.
                *fd = PollFd::new(-1, 0);
                errors += u64::from(conn.failed);
                continue;
            }
            live += 1;
            fd.set_events(if conn.out_pos < conn.out.len() { POLLOUT } else { POLLIN });
        }
        first_pass = false;
        if live == 0 {
            break;
        }
        let Some(left) = budget.checked_sub(started.elapsed()) else {
            // Count every unfinished connection as one error.
            errors += conns.iter().filter(|c| !c.failed && c.done < opts.requests).count() as u64;
            break;
        };
        // After a pass that found work, look again without blocking, as
        // the server's event loop does.
        let wait = if busy { Duration::ZERO } else { left };
        poll(&mut fds, Some(wait)).map_err(|e| format!("poll: {e}"))?;
    }
    let elapsed = started.elapsed();

    let snap = latency.snapshot();
    Ok(LoadReport {
        opts: opts.clone(),
        completed,
        errors,
        elapsed,
        p50_ns: snap.quantile(0.50),
        p99_ns: snap.quantile(0.99),
        p999_ns: snap.quantile(0.999),
        mean_ns: snap.mean(),
        counters: server.map(|s| s.counters()),
    })
}

/// Advance one ready connection's state machine until its socket would
/// block or it has made `target` round trips, recording each completed
/// round trip's latency; returns how many completed.
fn drive(
    conn: &mut ClientConn,
    target: usize,
    request: &[u8],
    scratch: &mut [u8],
    latency: &Histogram,
) -> Result<u64, ToolError> {
    let mut completed = 0;
    while conn.done < target {
        // Start the next request when idle.
        if !conn.in_flight {
            conn.out.clear();
            conn.out.extend_from_slice(request);
            conn.out_pos = 0;
            conn.in_flight = true;
            conn.sent_at = openmeta_obs::clock::now();
        }
        // Flush any unwritten request bytes.
        while conn.out_pos < conn.out.len() {
            match write_ready(&mut conn.stream, &conn.out[conn.out_pos..])
                .map_err(|e| e.to_string())?
            {
                WriteOutcome::Wrote(n) => conn.out_pos += n,
                WriteOutcome::NotReady => return Ok(completed),
            }
        }
        // Consume whatever response bytes are ready.
        match read_ready(&mut conn.stream, scratch).map_err(|e| e.to_string())? {
            ReadOutcome::Bytes(n) => {
                for _ in 0..conn.tracker.push(&scratch[..n])? {
                    let ns = u64::try_from(conn.sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    latency.record(ns);
                    completed += 1;
                    conn.done += 1;
                    conn.in_flight = false;
                }
            }
            ReadOutcome::Eof => return Err("server closed the connection mid-run".to_string()),
            ReadOutcome::NotReady => return Ok(completed),
        }
    }
    Ok(completed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts(server: ServerKind) -> LoadgenOptions {
        LoadgenOptions { server, connections: 24, requests: 4, ..LoadgenOptions::default() }
    }

    #[test]
    fn parse_recognizes_all_flags() {
        let args: Vec<String> = [
            "--server",
            "pbio",
            "--connections",
            "7",
            "--requests",
            "3",
            "--json",
            "--check",
            "--max-p99-ms",
            "1500",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = LoadgenOptions::parse(&args).unwrap();
        assert_eq!(opts.server, ServerKind::Pbio);
        assert_eq!(opts.connections, 7);
        assert_eq!(opts.requests, 3);
        assert!(opts.json && opts.check);
        assert_eq!(opts.max_p99_ms, 1500);
    }

    #[test]
    fn parse_rejects_unknown_and_invalid() {
        assert!(LoadgenOptions::parse(&["--bogus".to_string()]).is_err());
        assert!(LoadgenOptions::parse(&["--connections".to_string(), "0".to_string()]).is_err());
    }

    #[test]
    fn http_smoke() {
        let report = run(smoke_opts(ServerKind::Http)).unwrap();
        assert_eq!(report.errors, 0, "{}", report.to_text());
        assert_eq!(report.completed, 24 * 4);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"loadgen\""), "{json}");
        assert!(json.contains("\"completed\": 96"), "{json}");
    }

    #[test]
    fn pbio_smoke() {
        let report = run(smoke_opts(ServerKind::Pbio)).unwrap();
        assert_eq!(report.errors, 0, "{}", report.to_text());
        assert_eq!(report.completed, 24 * 4);
        let counters = report.counters.as_ref().expect("in-process counters");
        // 24 load connections plus the registering client.
        assert!(counters.accepted >= 25, "accepted {}", counters.accepted);
    }

    #[test]
    fn tracker_reassembles_split_http_responses() {
        let mut t = Tracker::new(ServerKind::Http);
        let response = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let (a, b) = response.split_at(20);
        assert_eq!(t.push(a).unwrap(), 0);
        assert_eq!(t.push(b).unwrap(), 1);
        // A 304 (no body) completes at the blank line.
        assert_eq!(t.push(b"HTTP/1.1 304 Not Modified\r\n\r\n").unwrap(), 1);
    }
}
