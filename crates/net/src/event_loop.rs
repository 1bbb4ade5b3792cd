//! Readiness-based server backend: a poll loop over nonblocking sockets.
//!
//! The threaded backend pins one OS thread per active connection, so
//! concurrency is bounded by [`crate::ServerConfig::workers`].  This
//! backend inverts that: a small, fixed set of *shard* threads sweeps
//! every connection's state machine, and concurrency is bounded only by
//! `max_connections` (file descriptors), not thread stacks.  10k+
//! keep-alive connections cost a few MB of buffers instead of 10k
//! stacks.
//!
//! ## Per-connection state machine
//!
//! ```text
//!             +-> NotReady: park, retry next sweep
//!  [reading] -+-> bytes -> sans-io handler -> output queued -> [writing]
//!             +-> EOF / error / deadline ------------------> [closed]
//!
//!             +-> NotReady (kernel buffer full): write-interest stays on
//!  [writing] -+-> partial progress: advance cursor (deadline anchored)
//!             +-> flushed: back to [reading] (or [closed] after close)
//! ```
//!
//! Protocol logic never appears here: each connection owns a boxed
//! [`EventHandler`] (an incremental parser plus request handler) that
//! consumes byte chunks and appends response bytes — the same handlers
//! the threaded engine's blocking driver (`crate::server`) runs.  All
//! socket I/O goes through
//! [`crate::nio`]'s readiness probes; `cargo xtask analyze` rejects any
//! blocking I/O call in this module.
//!
//! ## Deadlines
//!
//! Each connection carries read and write deadlines mirroring the
//! threaded backend's socket timeouts.  The nearer deadline is parked in
//! a [`TimerWheel`]; entries are lazy (never cancelled or moved on
//! refresh), so a delivered token is validated against the connection's
//! live deadline and generation before it kills anything.  Expiries feed
//! the same `timed_out` counter as the threaded backend — with the
//! protocol deciding, via [`EventHandler::deadline_counts_as_timeout`],
//! whether an idle keep-alive expiry counts (pbio: yes) or only a
//! mid-request stall does (HTTP).
//!
//! The write deadline is *anchored*: it is armed (and parked in the
//! wheel) when the output queue goes empty → non-empty, cleared when the
//! queue fully drains, and — unlike the read deadline — **not** refreshed
//! on partial progress.  Refreshing on progress would let a peer that
//! drains one segment per timeout window hold a loadgen-size burst of
//! queued responses forever; anchoring makes the deadline a bound on the
//! total drain time of the queued buffer, and an expiry always counts as
//! `timed_out`.
//!
//! ## Drain
//!
//! Graceful shutdown stops reading, flushes queued responses, closes
//! connections as their output drains, and force-closes stragglers when
//! the budget expires — the event-loop analog of the worker pool's
//! drain.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use openmeta_obs::{clock, span, Gauge, MetricsRegistry};

use crate::config::ServerConfig;
use crate::nio::{self, ReadOutcome, WriteOutcome};
use crate::stats::ServerStats;
use crate::sync::{self, Condvar, Mutex};
use crate::timer::TimerWheel;
use crate::workers::spawn_worker;

/// What a handler did with a chunk of bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch {
    /// Complete requests/frames consumed (feeds the `frames_in`
    /// counter; responses are counted as their bytes flush).
    pub requests: usize,
    /// Close the connection once queued output has flushed (e.g.
    /// `Connection: close`).
    pub close: bool,
}

/// The sans-io protocol core a connection runs on the event loop.
///
/// The loop feeds raw byte chunks in whatever sizes the kernel delivers;
/// the handler buffers partial input, and appends complete response
/// bytes to `out` for the loop to flush as the socket accepts them.
/// Returning an error closes the connection (protocol violation,
/// oversized frame, …), matching a blocking worker bailing out.
pub trait EventHandler: Send {
    /// Consume `bytes`, appending any response bytes to `out`.
    fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> io::Result<Dispatch>;

    /// When a *read* deadline expires, should it count as `timed_out`?
    /// Protocols that treat an idle keep-alive connection's expiry as a
    /// routine close (HTTP) return `false` unless mid-request; frame
    /// protocols that count every read expiry (pbio) keep the default.
    fn deadline_counts_as_timeout(&self) -> bool {
        true
    }
}

/// Factory producing one handler per accepted connection.
pub type HandlerFactory = dyn Fn() -> Box<dyn EventHandler> + Send + Sync;

/// Wheel slot width: deadlines fire at most this much late.
const WHEEL_SLOT: Duration = Duration::from_millis(50);
/// Wheel slots: horizon of 128 × 50ms = 6.4s before lazy re-insert.
const WHEEL_SLOTS: usize = 128;
/// Read scratch size and per-connection fairness budget per sweep.
const SWEEP_READ_BUDGET: usize = 64 * 1024;
/// Idle park between sweeps while connections are open.
const PARK_BUSY: Duration = Duration::from_millis(1);
/// Park while the shard has no connections at all.
const PARK_EMPTY: Duration = Duration::from_millis(50);

struct Inbox {
    incoming: Vec<TcpStream>,
    draining: bool,
    force_close: bool,
}

struct Shard {
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

/// A readiness poll loop serving connections on a few shard threads.
///
/// [`crate::Server`] constructs one via [`EventLoop::start`] when its
/// [`ServerConfig`] selects [`crate::config::Backend::EventLoop`], hands
/// accepted sockets to [`EventLoop::register`], and drains with
/// [`EventLoop::shutdown`] — the same lifecycle as the worker pool.
pub(crate) struct EventLoop {
    shards: Vec<Arc<Shard>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    open: Arc<AtomicUsize>,
    next_shard: AtomicUsize,
    max_connections: usize,
    stats: ServerStats,
    drain_timeout: Duration,
}

impl EventLoop {
    /// Spawn the shard threads.  `factory` builds one [`EventHandler`]
    /// per connection; `stats` receives the same counter updates the
    /// threaded backend produces.
    pub(crate) fn start(
        name: &str,
        cfg: &ServerConfig,
        stats: ServerStats,
        factory: Arc<HandlerFactory>,
    ) -> EventLoop {
        let shard_count = if cfg.event_loop_shards > 0 {
            cfg.event_loop_shards
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
        };
        let open = Arc::new(AtomicUsize::new(0));
        let mut shards = Vec::with_capacity(shard_count);
        let mut threads = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let shard = Arc::new(Shard {
                inbox: Mutex::new(Inbox {
                    incoming: Vec::new(),
                    draining: false,
                    force_close: false,
                }),
                wake: Condvar::new(),
            });
            shards.push(shard.clone());
            let stats = stats.clone();
            let factory = factory.clone();
            let open = open.clone();
            let timeouts = (cfg.read_timeout, cfg.write_timeout);
            threads.push(spawn_worker(format!("{name}-evloop-{i}"), move || {
                shard_loop(&shard, &stats, &factory, &open, timeouts);
            }));
        }
        EventLoop {
            shards,
            threads: Mutex::new(threads),
            open,
            next_shard: AtomicUsize::new(0),
            max_connections: cfg.max_connections.max(1),
            stats,
            drain_timeout: cfg.drain_timeout,
        }
    }

    /// Adopt an accepted connection.  Returns `false` (counting a
    /// rejection) when the `max_connections` bound is hit or the loop is
    /// draining; the caller drops the socket.
    pub(crate) fn register(&self, stream: TcpStream) -> bool {
        if self.open.fetch_add(1, Ordering::SeqCst) >= self.max_connections {
            self.open.fetch_sub(1, Ordering::SeqCst);
            self.stats.rejected();
            return false;
        }
        let shard_idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[shard_idx];
        {
            let mut inbox = sync::lock(&shard.inbox);
            if inbox.draining {
                drop(inbox);
                self.open.fetch_sub(1, Ordering::SeqCst);
                self.stats.rejected();
                return false;
            }
            inbox.incoming.push(stream);
        }
        shard.wake.notify_one();
        true
    }

    /// Graceful drain: stop reading, flush queued responses, close as
    /// output drains.  Returns `true` if every connection closed inside
    /// `budget`; stragglers past the budget are force-closed either way,
    /// so the loop's threads always exit.
    pub(crate) fn shutdown(&self, budget: Duration) -> bool {
        let deadline = clock::now() + budget;
        for shard in &self.shards {
            sync::lock(&shard.inbox).draining = true;
            shard.wake.notify_one();
        }
        let mut drained = true;
        while self.open.load(Ordering::SeqCst) > 0 {
            if clock::now() >= deadline {
                drained = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for shard in &self.shards {
            sync::lock(&shard.inbox).force_close = true;
            shard.wake.notify_one();
        }
        for t in sync::lock(&self.threads).drain(..) {
            let _ = t.join();
        }
        drained
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        if !sync::get_mut(&mut self.threads).is_empty() {
            self.shutdown(self.drain_timeout);
        }
    }
}

/// One connection's slot in a shard's sweep table.
struct Conn {
    stream: TcpStream,
    handler: Box<dyn EventHandler>,
    out: Vec<u8>,
    out_pos: usize,
    /// Responses queued in `out`; counted as `frames_out` once flushed.
    pending_out: usize,
    read_deadline: Option<Instant>,
    /// Anchored at the moment `out` went empty → non-empty; never
    /// refreshed on partial progress (a slow-but-progressing drain must
    /// still expire), cleared when `out` fully drains.
    write_deadline: Option<Instant>,
    /// Slot-reuse guard for lazy wheel tokens.
    gen: u64,
    /// Has a live wheel entry (lazy: at most one per connection).
    scheduled: bool,
    close_after_flush: bool,
}

impl Conn {
    fn nearest_deadline(&self) -> Option<Instant> {
        match (self.read_deadline, self.write_deadline) {
            (Some(r), Some(w)) => Some(r.min(w)),
            (r, w) => r.or(w),
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }
}

fn token_of(slot: usize, gen: u64) -> u64 {
    (gen << 32) | slot as u64
}

fn token_parts(token: u64) -> (usize, u64) {
    ((token & 0xffff_ffff) as usize, token >> 32)
}

enum SweepVerdict {
    Keep,
    Close,
}

/// Per-shard sweep state: the connection table, its slot generations
/// (stale-token guard), the deadline wheel and the shared gauge.
struct ShardState {
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gens: Vec<u64>,
    wheel: TimerWheel,
    gauge: Arc<Gauge>,
}

impl ShardState {
    fn new(gauge: Arc<Gauge>, now: Instant) -> ShardState {
        ShardState {
            conns: Vec::new(),
            free: Vec::new(),
            gens: Vec::new(),
            wheel: TimerWheel::new(WHEEL_SLOT, WHEEL_SLOTS, now),
            gauge,
        }
    }

    fn adopt(
        &mut self,
        stream: TcpStream,
        handler: Box<dyn EventHandler>,
        now: Instant,
        read_timeout: Option<Duration>,
        stats: &ServerStats,
        open: &AtomicUsize,
    ) {
        if stream.set_nonblocking(true).is_err() {
            open.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self.gens.len() <= slot {
            self.gens.resize(slot + 1, 0);
        }
        self.gens[slot] += 1;
        self.conns[slot] = Some(Conn {
            stream,
            handler,
            out: Vec::new(),
            out_pos: 0,
            pending_out: 0,
            read_deadline: read_timeout.map(|t| now + t),
            write_deadline: None,
            gen: self.gens[slot],
            scheduled: false,
            close_after_flush: false,
        });
        self.ensure_scheduled(slot);
        stats.conn_started();
        self.gauge.inc();
    }

    /// Park the connection's nearest deadline in the wheel if it is not
    /// already parked (lazy refresh: at most one live entry per conn).
    fn ensure_scheduled(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].as_mut() {
            if !conn.scheduled {
                if let Some(deadline) = conn.nearest_deadline() {
                    self.wheel.schedule(token_of(slot, conn.gen), deadline);
                    conn.scheduled = true;
                }
            }
        }
    }

    fn close(&mut self, slot: usize, stats: &ServerStats, open: &AtomicUsize) {
        if self.conns[slot].take().is_some() {
            self.free.push(slot);
            stats.conn_finished();
            self.gauge.dec();
            open.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn open_count(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }
}

fn shard_loop(
    shard: &Shard,
    stats: &ServerStats,
    factory: &Arc<HandlerFactory>,
    open: &AtomicUsize,
    (read_timeout, write_timeout): (Option<Duration>, Option<Duration>),
) {
    let gauge = MetricsRegistry::global().gauge("openmeta_eventloop_connections");
    let mut state = ShardState::new(gauge, clock::now());
    let mut scratch = vec![0u8; SWEEP_READ_BUDGET];
    let mut expired: Vec<u64> = Vec::new();
    let mut draining = false;
    loop {
        // Adopt newly registered connections and pick up drain flags.
        let (force, adopted) = {
            let mut inbox = sync::lock(&shard.inbox);
            draining = draining || inbox.draining;
            let force = inbox.force_close;
            let incoming = std::mem::take(&mut inbox.incoming);
            drop(inbox);
            let adopted = !incoming.is_empty();
            let now = clock::now();
            for stream in incoming {
                state.adopt(stream, factory(), now, read_timeout, stats, open);
            }
            (force, adopted)
        };
        if force {
            for slot in 0..state.conns.len() {
                state.close(slot, stats, open);
            }
            return;
        }

        let mut progressed = adopted;
        if state.open_count() > 0 {
            let poll_span = span!("eventloop.poll");
            for slot in 0..state.conns.len() {
                let verdict = {
                    let ShardState { conns, wheel, .. } = &mut state;
                    let Some(conn) = conns[slot].as_mut() else { continue };
                    let token = token_of(slot, conn.gen);
                    sweep_conn(
                        conn,
                        wheel,
                        token,
                        &mut scratch,
                        stats,
                        draining,
                        write_timeout,
                        read_timeout,
                        &mut progressed,
                    )
                };
                if matches!(verdict, SweepVerdict::Close) {
                    state.close(slot, stats, open);
                }
            }
            drop(poll_span);

            // Deadline sweep: validate lazy tokens against live state.
            let now = clock::now();
            expired.clear();
            state.wheel.expired(now, &mut expired);
            for &token in &expired {
                let (slot, gen) = token_parts(token);
                // 0 = stale, 1 = reschedule, 2 = expire (not timed_out),
                // 3 = expire and count timed_out.
                let action = match state.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                    Some(conn) if conn.gen == gen => {
                        conn.scheduled = false;
                        match conn.nearest_deadline() {
                            Some(d) if d <= now => {
                                // Write stalls always count; read expiries
                                // defer to the protocol's idle semantics.
                                if conn.write_deadline.is_some_and(|w| w <= now)
                                    || conn.handler.deadline_counts_as_timeout()
                                {
                                    3
                                } else {
                                    2
                                }
                            }
                            Some(_) => 1,
                            None => 0,
                        }
                    }
                    _ => 0,
                };
                match action {
                    1 => state.ensure_scheduled(slot),
                    2 | 3 => {
                        if action == 3 {
                            stats.timed_out();
                        }
                        state.close(slot, stats, open);
                    }
                    _ => {}
                }
            }
        }

        if draining && state.open_count() == 0 {
            // Exit only if nothing is waiting to be adopted; register()
            // rejects once draining, so the inbox can only shrink.
            let inbox = sync::lock(&shard.inbox);
            if inbox.incoming.is_empty() {
                return;
            }
            continue;
        }

        if !progressed {
            let park = if state.open_count() == 0 { PARK_EMPTY } else { PARK_BUSY };
            let inbox = sync::lock(&shard.inbox);
            let work_waiting =
                !inbox.incoming.is_empty() || inbox.force_close || (inbox.draining && !draining);
            if !work_waiting {
                let _ = sync::wait_timeout(&shard.wake, inbox, park);
            }
        }
    }
}

/// Advance one connection's state machine by one sweep step.
#[allow(clippy::too_many_arguments)]
fn sweep_conn(
    conn: &mut Conn,
    wheel: &mut TimerWheel,
    token: u64,
    scratch: &mut [u8],
    stats: &ServerStats,
    draining: bool,
    write_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
    progressed: &mut bool,
) -> SweepVerdict {
    // [writing]: flush queued output while the kernel accepts it.
    if !conn.flushed() {
        match flush_out(conn, stats) {
            Ok(true) => *progressed = true,
            Ok(false) => {}
            Err(_) => return SweepVerdict::Close,
        }
    }
    if conn.close_after_flush && conn.flushed() {
        return SweepVerdict::Close;
    }

    // [reading]: a draining loop stops consuming new requests, and a
    // connection waiting to close only flushes.
    if draining || conn.close_after_flush {
        if draining && conn.flushed() {
            return SweepVerdict::Close;
        }
        return SweepVerdict::Keep;
    }

    let mut consumed = 0usize;
    while consumed < SWEEP_READ_BUDGET {
        match nio::read_ready(&mut conn.stream, scratch) {
            Ok(ReadOutcome::NotReady) => break,
            Ok(ReadOutcome::Eof) => {
                // Peer closed: mirror the threaded worker, which returns
                // (and closes) on EOF without writing further.
                return SweepVerdict::Close;
            }
            Ok(ReadOutcome::Bytes(n)) => {
                *progressed = true;
                consumed += n;
                let now = clock::now();
                conn.read_deadline = read_timeout.map(|t| now + t);
                let had_out = !conn.flushed();
                let dispatch = {
                    let _span = span!("eventloop.dispatch");
                    conn.handler.on_bytes(&scratch[..n], &mut conn.out)
                };
                match dispatch {
                    Ok(d) => {
                        for _ in 0..d.requests {
                            stats.frame_in();
                        }
                        conn.pending_out += d.requests;
                        if d.close {
                            conn.close_after_flush = true;
                        }
                        if !had_out && !conn.flushed() {
                            // The queue just went empty → non-empty: anchor
                            // the write deadline here.  flush_out never
                            // refreshes it, so it bounds the total drain
                            // time of this burst of queued output.
                            conn.write_deadline = write_timeout.map(|t| now + t);
                            // Flush eagerly: the common case is a response
                            // that fits the socket's send buffer whole.
                            if flush_out(conn, stats).is_err() {
                                return SweepVerdict::Close;
                            }
                            *progressed = true;
                            // Queued output survived the eager flush: park
                            // the anchored deadline now — the entry from
                            // adopt time may be scheduled much later.
                            if let Some(w) = conn.write_deadline {
                                wheel.schedule(token, w);
                                conn.scheduled = true;
                            }
                        }
                        if conn.close_after_flush {
                            if conn.flushed() {
                                return SweepVerdict::Close;
                            }
                            break;
                        }
                    }
                    Err(_) => return SweepVerdict::Close,
                }
            }
            Err(_) => return SweepVerdict::Close,
        }
    }
    SweepVerdict::Keep
}

/// Push queued output at the socket; returns whether bytes moved.
/// Partial progress deliberately does NOT refresh the write deadline:
/// it stays anchored where the queue went non-empty, so a peer draining
/// one segment per timeout window still expires.
fn flush_out(conn: &mut Conn, stats: &ServerStats) -> io::Result<bool> {
    let mut moved = false;
    while !conn.flushed() {
        match nio::write_ready(&mut conn.stream, &conn.out[conn.out_pos..])? {
            WriteOutcome::Wrote(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"));
            }
            WriteOutcome::Wrote(n) => {
                moved = true;
                conn.out_pos += n;
            }
            WriteOutcome::NotReady => break,
        }
    }
    if conn.flushed() {
        for _ in 0..conn.pending_out {
            stats.frame_out();
        }
        conn.pending_out = 0;
        conn.out.clear();
        conn.out_pos = 0;
        conn.write_deadline = None;
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpListener;
    use std::time::Duration;

    /// Echo handler framed as `len:u32be payload` via the sans-io framer.
    struct Echo {
        framer: crate::sansio::LengthFramer,
    }

    impl Echo {
        fn boxed() -> Box<dyn EventHandler> {
            Box::new(Echo { framer: crate::sansio::LengthFramer::new(1 << 20) })
        }
    }

    impl EventHandler for Echo {
        fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> io::Result<Dispatch> {
            self.framer.push(bytes);
            let mut d = Dispatch::default();
            while let Some((_, payload)) = self.framer.next_frame()? {
                out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                out.extend_from_slice(&payload);
                d.requests += 1;
            }
            Ok(d)
        }

        fn deadline_counts_as_timeout(&self) -> bool {
            !self.framer.is_empty()
        }
    }

    fn echo_loop(cfg: &ServerConfig, stats: ServerStats) -> (EventLoop, TcpListener) {
        let el = EventLoop::start("test", cfg, stats, Arc::new(|| Echo::boxed()));
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        (el, listener)
    }

    fn connect_registered(el: &EventLoop, listener: &TcpListener) -> TcpStream {
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        assert!(el.register(server));
        client
    }

    fn round_trip(client: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
        let mut msg = (payload.len() as u32).to_be_bytes().to_vec();
        msg.extend_from_slice(payload);
        client.write_all(&msg).unwrap();
        let mut len = [0u8; 4];
        client.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
        client.read_exact(&mut body).unwrap();
        body
    }

    #[test]
    fn echoes_frames_across_many_keepalive_connections() {
        let stats = ServerStats::new();
        let cfg =
            ServerConfig { max_connections: 64, event_loop_shards: 2, ..ServerConfig::default() };
        let (el, listener) = echo_loop(&cfg, stats.clone());
        let mut clients: Vec<TcpStream> =
            (0..8).map(|_| connect_registered(&el, &listener)).collect();
        for round in 0..3u8 {
            for (i, c) in clients.iter_mut().enumerate() {
                c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let payload = vec![round ^ i as u8; 64 + i];
                assert_eq!(round_trip(c, &payload), payload);
            }
        }
        // frames_out increments after the kernel accepts the bytes, so a
        // client can observe a response a beat before the counter moves.
        let start = std::time::Instant::now();
        while stats.snapshot().frames_out < 24 && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = stats.snapshot();
        assert_eq!(snap.frames_in, 24);
        assert_eq!(snap.frames_out, 24);
        assert!(el.shutdown(Duration::from_secs(5)));
        assert_eq!(stats.snapshot().active, 0);
    }

    #[test]
    fn rejects_beyond_max_connections() {
        let stats = ServerStats::new();
        let cfg =
            ServerConfig { max_connections: 2, event_loop_shards: 1, ..ServerConfig::default() };
        let (el, listener) = echo_loop(&cfg, stats.clone());
        let _a = connect_registered(&el, &listener);
        let _b = connect_registered(&el, &listener);
        let addr = listener.local_addr().unwrap();
        let _c = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        assert!(!el.register(server), "third connection must be rejected");
        assert_eq!(stats.snapshot().rejected, 1);
        drop(el);
    }

    #[test]
    fn read_deadline_times_out_midframe_connection() {
        let stats = ServerStats::new();
        let cfg = ServerConfig {
            read_timeout: Some(Duration::from_millis(200)),
            event_loop_shards: 1,
            ..ServerConfig::default()
        };
        let (el, listener) = echo_loop(&cfg, stats.clone());
        let mut client = connect_registered(&el, &listener);
        // Send a header promising 100 bytes, then stall.
        client.write_all(&100u32.to_be_bytes()).unwrap();
        let start = std::time::Instant::now();
        let mut deadline_hit = false;
        while start.elapsed() < Duration::from_secs(5) {
            if stats.snapshot().timed_out >= 1 {
                deadline_hit = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(deadline_hit, "stalled mid-frame connection must time out");
        // The loop closed the socket: the client sees EOF.
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).unwrap_or(0), 0);
        drop(el);
    }

    #[test]
    fn write_deadline_expires_while_queue_drains_slowly() {
        // Regression: a reader that trickles one small read per sweep
        // keeps the flush making *partial* progress.  The old refresh-on
        // -progress deadline slid forever; the anchored deadline must
        // expire and count `timed_out` even though bytes keep moving.
        let stats = ServerStats::new();
        let cfg = ServerConfig {
            write_timeout: Some(Duration::from_millis(300)),
            read_timeout: Some(Duration::from_secs(30)),
            event_loop_shards: 1,
            max_connections: 8,
            ..ServerConfig::default()
        };
        let (el, listener) = echo_loop(&cfg, stats.clone());
        let client = connect_registered(&el, &listener);

        // Trickle reader: drains ~8 KiB every 25 ms, so the server's
        // flush sees fresh socket-buffer space (partial progress) in
        // every deadline window without ever catching up to 16 MiB.
        let reader = client.try_clone().unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_r = stop.clone();
        let trickle = std::thread::spawn(move || {
            let mut reader = reader;
            let mut buf = vec![0u8; 8 * 1024];
            reader.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
            let mut drained = 0usize;
            while !stop_r.load(Ordering::Acquire) {
                match std::io::Read::read(&mut reader, &mut buf) {
                    Ok(0) => break,
                    Ok(n) => drained += n,
                    Err(_) => {}
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            drained
        });

        // Queue ~16 MiB of echo responses: far beyond what the kernel's
        // loopback buffers can absorb, so the userspace queue stays
        // non-empty.  Writes may fail once the deadline kills the
        // connection mid-burst; that is the success case.
        let mut writer = client;
        let payload = vec![0x5au8; 1 << 20];
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&payload);
        for _ in 0..16 {
            if writer.write_all(&frame).is_err() {
                break;
            }
        }

        let start = std::time::Instant::now();
        while stats.snapshot().timed_out == 0 && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Release);
        let drained = trickle.join().unwrap();
        assert_eq!(
            stats.snapshot().timed_out,
            1,
            "anchored write deadline must expire despite partial progress \
             (client drained {drained} bytes)"
        );
        drop(el);
    }

    #[test]
    fn drain_flushes_then_closes() {
        let stats = ServerStats::new();
        let cfg =
            ServerConfig { event_loop_shards: 1, max_connections: 8, ..ServerConfig::default() };
        let (el, listener) = echo_loop(&cfg, stats.clone());
        let mut client = connect_registered(&el, &listener);
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(round_trip(&mut client, b"before-drain"), b"before-drain");
        let start = std::time::Instant::now();
        assert!(el.shutdown(Duration::from_secs(5)), "idle connection must drain promptly");
        assert!(start.elapsed() < Duration::from_secs(2), "drain took {:?}", start.elapsed());
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).unwrap_or(0), 0, "drained conn must be closed");
    }

    #[test]
    fn handler_error_closes_connection() {
        let stats = ServerStats::new();
        let cfg =
            ServerConfig { event_loop_shards: 1, max_connections: 8, ..ServerConfig::default() };
        let (el, listener) = echo_loop(&cfg, stats.clone());
        let mut client = connect_registered(&el, &listener);
        // Oversized length prefix: the framer (handler) errors out.
        client.write_all(&u32::MAX.to_be_bytes()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).unwrap_or(0), 0, "protocol error must close");
        drop(el);
    }
}
