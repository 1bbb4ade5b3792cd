//! The server engine: a readiness loop over nonblocking sockets.
//!
//! A small, fixed set of *shard* threads (one per core, at most four)
//! serves every connection, so concurrency is bounded by
//! [`crate::ServerConfig::max_connections`] (file descriptors), not
//! thread stacks: 10k+ keep-alive connections cost a few MB of buffers
//! instead of 10k stacks.  A shard blocks in `poll(2)` ([`crate::sys`])
//! on its connections plus a waker, and wakes when one of them is
//! ready or the next deadline is due.  It then advances only the
//! connections `poll` reported.
//!
//! ## Per-connection state machine
//!
//! ```text
//!             +-> NotReady: wait for POLLIN
//!  [reading] -+-> bytes -> sans-io handler -> output queued -> [writing]
//!             +-> EOF / error / deadline ------------------> [closed]
//!
//!             +-> NotReady (kernel buffer full): wait for POLLOUT
//!  [writing] -+-> partial progress: advance cursor (deadline anchored)
//!             +-> flushed: back to [reading] (or [closed] after close)
//! ```
//!
//! A connection's `poll` interest is read while it may take requests,
//! plus write while output is queued.  Protocol logic never appears
//! here: each connection owns a boxed [`EventHandler`] (an incremental
//! parser plus request handler) that consumes byte chunks and appends
//! response bytes.  All socket I/O goes through [`crate::nio`]'s
//! readiness probes; `cargo xtask analyze` rejects any blocking I/O
//! call in this module.
//!
//! ## Waking a shard
//!
//! [`EventLoop::register`] and the drain hand a shard work through its
//! inbox, then write one byte to the shard's waker: a
//! `UnixStream::pair()` whose read end sits at index 0 of the shard's
//! `pollfd` array.  The byte ends the shard's `poll`; the shard reads
//! the waker dry and picks up the inbox.
//!
//! ## Deadlines
//!
//! Each connection carries a read deadline (refreshed by every byte
//! received) and a write deadline.  After every wake the shard makes one
//! pass over its connection table, the same table `poll` just walked:
//! it closes each connection whose nearer deadline has passed, and the
//! earliest deadline left bounds how long the next `poll` blocks, so a
//! deadline fires on time.  Refreshing a deadline is a field store.
//! Expiries feed the `timed_out` counter, with the protocol deciding,
//! via [`EventHandler::deadline_counts_as_timeout`], whether an idle
//! keep-alive expiry counts (pbio: yes) or only a mid-request stall
//! does (HTTP).
//!
//! The write deadline is *anchored*: it is armed when the output queue
//! goes empty → non-empty, cleared when the queue fully drains, and —
//! unlike the read deadline — **not** refreshed on partial progress.
//! Refreshing on progress would let a peer that drains one segment per
//! timeout window hold a loadgen-size burst of queued responses forever;
//! anchoring makes the deadline a bound on the total drain time of the
//! queued buffer, and an expiry always counts as `timed_out`.
//!
//! ## Drain
//!
//! Graceful shutdown stops reading, flushes queued responses, closes
//! connections as their output drains, and force-closes stragglers when
//! the budget expires.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use openmeta_obs::{clock, span, Gauge, MetricsRegistry};

use crate::config::ServerConfig;
use crate::nio::{self, ReadOutcome, WriteOutcome};
use crate::stats::ServerStats;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use openmeta_obs::sync::{self, Mutex};

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

/// Read scratch size and per-connection fairness budget per wake.
const SWEEP_READ_BUDGET: usize = 64 * 1024;
/// Most shard threads a loop runs, whatever the core count.
const MAX_SHARDS: usize = 4;
/// Back-off after a failed `poll` (resource exhaustion) before the
/// shard sweeps every connection instead.
const POLL_FAILED_PARK: Duration = Duration::from_millis(1);

struct Inbox {
    incoming: Vec<TcpStream>,
    draining: bool,
    force_close: bool,
}

/// The cross-thread half of a shard: the inbox that `register` and the
/// drain fill, and the waker pair whose read end its `poll` watches.
/// Both ends live as long as the shard, so a wake never hits a closed
/// socket.
struct Shard {
    inbox: Mutex<Inbox>,
    waker: UnixStream,
    wakee: UnixStream,
}

impl Shard {
    /// End the shard's `poll`.  The waker is nonblocking; a full buffer
    /// already holds an unread wake, so a refused write loses nothing.
    fn wake(&self) {
        let _ = nio::write_ready(&mut &self.waker, &[1]);
    }
}

/// A readiness loop serving connections on a few shard threads.
///
/// [`crate::Server`] constructs one via [`EventLoop::start`], hands
/// accepted sockets to [`EventLoop::register`], and drains with
/// [`EventLoop::shutdown`].
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
    /// per connection; `stats` receives the transport counters.
    pub(crate) fn start(
        name: &str,
        cfg: &ServerConfig,
        stats: ServerStats,
        factory: Arc<HandlerFactory>,
    ) -> io::Result<EventLoop> {
        let shard_count =
            std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_SHARDS);
        let mut el = EventLoop {
            shards: Vec::with_capacity(shard_count),
            threads: Mutex::new(Vec::with_capacity(shard_count)),
            open: Arc::new(AtomicUsize::new(0)),
            next_shard: AtomicUsize::new(0),
            max_connections: cfg.max_connections.max(1),
            stats,
            drain_timeout: cfg.drain_timeout,
        };
        // On any error below, dropping `el` drains the shards already
        // running, so a failed start leaks no thread.
        for i in 0..shard_count {
            let (waker, wakee) = UnixStream::pair()?;
            waker.set_nonblocking(true)?;
            wakee.set_nonblocking(true)?;
            let shard = Arc::new(Shard {
                inbox: Mutex::new(Inbox {
                    incoming: Vec::new(),
                    draining: false,
                    force_close: false,
                }),
                waker,
                wakee,
            });
            let (shard_t, stats, factory, open) =
                (shard.clone(), el.stats.clone(), factory.clone(), el.open.clone());
            let timeouts = (cfg.read_timeout, cfg.write_timeout);
            let thread = std::thread::Builder::new()
                .name(format!("{name}-evloop-{i}"))
                .spawn(move || shard_loop(&shard_t, &stats, &factory, &open, timeouts))?;
            el.shards.push(shard);
            sync::get_mut(&mut el.threads).push(thread);
        }
        Ok(el)
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
        shard.wake();
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
            shard.wake();
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
            shard.wake();
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

/// One connection's slot in a shard's table.
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

    /// What to wait for: input while the connection may take requests,
    /// writability while output is queued.
    fn interest(&self, draining: bool) -> i16 {
        let read = if draining || self.close_after_flush { 0 } else { POLLIN };
        let write = if self.flushed() { 0 } else { POLLOUT };
        read | write
    }
}

enum SweepVerdict {
    Keep,
    Close,
}

/// Per-shard state: the connection table with its `pollfd` array and
/// the gauge.
struct ShardState {
    conns: Vec<Option<Conn>>,
    /// `poll` entries: index 0 is the waker, index `slot + 1` watches
    /// `conns[slot]` (fd -1 while the slot is free).
    fds: Vec<PollFd>,
    free: Vec<usize>,
    /// Open connections in `conns`.
    live: usize,
    gauge: Arc<Gauge>,
}

impl ShardState {
    fn new(wakee: &UnixStream, gauge: Arc<Gauge>) -> ShardState {
        ShardState {
            conns: Vec::new(),
            fds: vec![PollFd::new(wakee.as_raw_fd(), POLLIN)],
            free: Vec::new(),
            live: 0,
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
        // Responses go out in one write; without TCP_NODELAY a reused
        // connection can stall ~40 ms per exchange (Nagle vs delayed ACK).
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.fds.push(PollFd::new(-1, 0));
            self.conns.len() - 1
        });
        self.fds[slot + 1] = PollFd::new(stream.as_raw_fd(), POLLIN);
        self.conns[slot] = Some(Conn {
            stream,
            handler,
            out: Vec::new(),
            out_pos: 0,
            pending_out: 0,
            read_deadline: read_timeout.map(|t| now + t),
            write_deadline: None,
            close_after_flush: false,
        });
        self.live += 1;
        stats.conn_started();
        self.gauge.inc();
    }

    fn close(&mut self, slot: usize, stats: &ServerStats, open: &AtomicUsize) {
        if self.conns[slot].take().is_some() {
            self.fds[slot + 1] = PollFd::new(-1, 0);
            self.free.push(slot);
            self.live -= 1;
            stats.conn_finished();
            self.gauge.dec();
            open.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// The deadline pass: close every connection whose nearer deadline
    /// has passed by `now`, and return the earliest deadline left.
    fn expire(&mut self, now: Instant, stats: &ServerStats, open: &AtomicUsize) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        for slot in 0..self.conns.len() {
            let Some(conn) = &self.conns[slot] else { continue };
            match conn.nearest_deadline() {
                Some(d) if d <= now => {
                    // Write stalls always count; read expiries defer to
                    // the protocol's idle semantics.
                    if conn.write_deadline.is_some_and(|w| w <= now)
                        || conn.handler.deadline_counts_as_timeout()
                    {
                        stats.timed_out();
                    }
                    self.close(slot, stats, open);
                }
                Some(d) => next = Some(next.map_or(d, |n| n.min(d))),
                None => {}
            }
        }
        next
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
    let mut state = ShardState::new(&shard.wakee, gauge);
    let mut scratch = vec![0u8; SWEEP_READ_BUDGET];
    let mut next_deadline: Option<Instant> = None;
    let mut draining = false;
    let mut busy = false;
    loop {
        // Block until a socket or the waker is ready, or the nearest
        // deadline is due.  After a wake that found work, look once
        // more without blocking: under load more is usually ready, and a
        // zero-timeout poll neither sleeps nor queues on every socket.
        // `None` (poll failed) sweeps everyone.
        let timeout = if busy {
            Some(Duration::ZERO)
        } else {
            next_deadline.map(|t| t.saturating_duration_since(clock::now()))
        };
        let ready = match sys::poll(&mut state.fds, timeout) {
            Ok(n) => Some(n),
            Err(_) => {
                std::thread::sleep(POLL_FAILED_PARK);
                None
            }
        };
        let mut pending = ready.unwrap_or(0);
        busy = pending > 0;
        let mut drain_began = false;
        // The inbox changes only before a wake, so it is read only after
        // one: adopt new connections and pick up the drain flags.
        if ready.is_none() || state.fds[0].revents() != 0 {
            pending = pending.saturating_sub(1);
            let mut wakee = &shard.wakee;
            while let Ok(ReadOutcome::Bytes(_)) = nio::read_ready(&mut wakee, &mut scratch) {}
            let (force, incoming) = {
                let mut inbox = sync::lock(&shard.inbox);
                drain_began = inbox.draining && !draining;
                draining |= inbox.draining;
                (inbox.force_close, std::mem::take(&mut inbox.incoming))
            };
            if force {
                for slot in 0..state.conns.len() {
                    state.close(slot, stats, open);
                }
                return;
            }
            let now = clock::now();
            for stream in incoming {
                state.adopt(stream, factory(), now, read_timeout, stats, open);
            }
        }

        // Advance the connections poll reported — every one when a drain
        // begins, since every connection's interest changes.
        let sweep_all = ready.is_none() || drain_began;
        if sweep_all || pending > 0 {
            let _poll_span = span!("eventloop.poll");
            for slot in 0..state.conns.len() {
                if !sweep_all {
                    if pending == 0 {
                        break;
                    }
                    if state.fds[slot + 1].revents() == 0 {
                        continue;
                    }
                    pending -= 1;
                }
                let verdict = {
                    let ShardState { conns, fds, .. } = &mut state;
                    let Some(conn) = conns[slot].as_mut() else { continue };
                    let verdict = sweep_conn(
                        conn,
                        &mut scratch,
                        stats,
                        draining,
                        write_timeout,
                        read_timeout,
                    );
                    fds[slot + 1].set_events(conn.interest(draining));
                    verdict
                };
                if matches!(verdict, SweepVerdict::Close) {
                    state.close(slot, stats, open);
                }
            }
        }

        next_deadline = state.expire(clock::now(), stats, open);

        // register() rejects once draining, and the inbox was emptied
        // under the same lock that showed the flag, so nothing can
        // arrive after the last connection closes.
        if draining && state.live == 0 {
            return;
        }
    }
}

/// Advance one ready connection's state machine as far as its socket
/// allows without blocking.
fn sweep_conn(
    conn: &mut Conn,
    scratch: &mut [u8],
    stats: &ServerStats,
    draining: bool,
    write_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
) -> SweepVerdict {
    // [writing]: flush queued output while the kernel accepts it.
    if !conn.flushed() && flush_out(conn, stats).is_err() {
        return SweepVerdict::Close;
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
                // Peer closed: close without writing further.
                return SweepVerdict::Close;
            }
            Ok(ReadOutcome::Bytes(n)) => {
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
                // A short read emptied the socket; poll is level-triggered
                // and reports anything that arrives later.
                if n < scratch.len() {
                    break;
                }
            }
            Err(_) => return SweepVerdict::Close,
        }
    }
    SweepVerdict::Keep
}

/// Push queued output at the socket until it is flushed or the kernel
/// buffer fills.  Partial progress deliberately does NOT refresh the
/// write deadline: it stays anchored where the queue went non-empty, so
/// a peer draining one segment per timeout window still expires.
fn flush_out(conn: &mut Conn, stats: &ServerStats) -> io::Result<()> {
    while !conn.flushed() {
        match nio::write_ready(&mut conn.stream, &conn.out[conn.out_pos..])? {
            WriteOutcome::Wrote(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"));
            }
            WriteOutcome::Wrote(n) => conn.out_pos += n,
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
    Ok(())
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
        let el = EventLoop::start("test", cfg, stats, Arc::new(|| Echo::boxed())).unwrap();
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
        let cfg = ServerConfig { max_connections: 64, ..ServerConfig::default() };
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
        let cfg = ServerConfig { max_connections: 2, ..ServerConfig::default() };
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
    fn every_byte_refreshes_the_read_deadline() {
        let stats = ServerStats::new();
        let cfg = ServerConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        };
        let (el, listener) = echo_loop(&cfg, stats.clone());
        let mut client = connect_registered(&el, &listener);
        // Dribble a frame promising 100 bytes, one byte per 80 ms: each
        // gap is well inside the 200 ms deadline, the whole run is not.
        let frame = 100u32.to_be_bytes().into_iter().chain([0u8; 100]);
        let start = std::time::Instant::now();
        let mut last_byte = start;
        for byte in frame {
            client.write_all(&[byte]).unwrap();
            last_byte = std::time::Instant::now();
            if start.elapsed() >= Duration::from_millis(600) {
                break;
            }
            std::thread::sleep(Duration::from_millis(80));
        }
        client.set_nonblocking(true).unwrap();
        let peeked = client.peek(&mut [0u8; 1]).map_err(|e| e.kind());
        assert_eq!(peeked, Err(std::io::ErrorKind::WouldBlock), "refreshed conn must stay open");
        assert_eq!(stats.snapshot().timed_out, 0);
        // After the last byte the deadline runs out: the loop closes the
        // socket no sooner than 200 ms later, and without a long delay.
        client.set_nonblocking(false).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(client.read(&mut [0u8; 1]).unwrap_or(0), 0);
        let idle = last_byte.elapsed();
        assert!(idle >= Duration::from_millis(200), "closed early, {idle:?} after the last byte");
        assert!(idle < Duration::from_secs(1), "closed late, {idle:?} after the last byte");
        assert_eq!(stats.snapshot().timed_out, 1);
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
        let cfg = ServerConfig { max_connections: 8, ..ServerConfig::default() };
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
        let cfg = ServerConfig { max_connections: 8, ..ServerConfig::default() };
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
