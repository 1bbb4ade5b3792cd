//! One server front-end over both connection engines.
//!
//! A server is a listener plus a sans-io [`EventHandler`] per
//! connection; [`Server`] supplies everything else.  It owns the accept
//! thread, picks the engine from [`ServerConfig::backend`], and drains
//! on drop.  The protocol is written once, as a handler, and runs
//! unchanged on either engine:
//!
//! * [`Backend::Threaded`] — a bounded [`WorkerPool`] whose workers run
//!   [`serve_blocking`]: blocking reads into the handler, one
//!   `write_all` of its output per chunk.  A [`ConnTracker`] lets the
//!   drain wake workers parked in an idle read;
//! * [`Backend::EventLoop`] — the readiness sweep of [`EventLoop`],
//!   which feeds the same handler from nonblocking sockets.
//!
//! Both engines apply the config's read/write deadlines and feed the
//! same [`ServerStats`] counters with the same rules: a write-deadline
//! expiry always counts as `timed_out`, and a read-deadline expiry
//! counts only when [`EventHandler::deadline_counts_as_timeout`] says so.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config::{Backend, ServerConfig};
use crate::event_loop::{EventHandler, EventLoop, HandlerFactory};
use crate::framing::is_timeout;
use crate::stats::ServerStats;
use crate::workers::{ConnTracker, WorkerPool};

/// Bytes a blocking worker reads per call.
const READ_SCRATCH: usize = 8 * 1024;

/// The connection-handling engine behind a [`Server`].
enum Engine {
    Threaded { pool: WorkerPool, tracker: Arc<ConnTracker> },
    Event(EventLoop),
}

impl Engine {
    /// Hand an accepted connection over; `false` (a counted rejection)
    /// means the caller drops it.
    fn submit(&self, stream: TcpStream) -> bool {
        match self {
            Engine::Threaded { pool, .. } => pool.submit(stream),
            Engine::Event(el) => el.register(stream),
        }
    }
}

/// A running server: accept thread plus engine.  Dropping it shuts down
/// gracefully — accepting stops, in-flight requests finish, idle
/// keep-alive connections are closed, and the engine drains within
/// [`ServerConfig::drain_timeout`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    engine: Arc<Engine>,
    drain_timeout: Duration,
}

impl Server {
    /// Serve `listener` on the engine `cfg` selects.  `factory` builds
    /// one handler per accepted connection; `stats` receives the
    /// transport counters.  `name` labels the server's threads.
    pub fn start(
        name: &str,
        listener: TcpListener,
        cfg: &ServerConfig,
        stats: ServerStats,
        factory: Arc<HandlerFactory>,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let engine = Arc::new(match cfg.backend {
            Backend::Threaded => {
                let tracker = Arc::new(ConnTracker::new());
                let (stop_w, stats_w, tracker_w) = (stop.clone(), stats.clone(), tracker.clone());
                let deadlines = (cfg.read_timeout, cfg.write_timeout);
                let pool = WorkerPool::new(name, cfg, stats.clone(), move |stream: TcpStream| {
                    let id = tracker_w.register(&stream);
                    serve_blocking(stream, factory(), deadlines, &stop_w, &stats_w);
                    tracker_w.unregister(id);
                });
                Engine::Threaded { pool, tracker }
            }
            Backend::EventLoop => {
                Engine::Event(EventLoop::start(name, cfg, stats.clone(), factory))
            }
        });

        let (stop_a, engine_a) = (stop.clone(), engine.clone());
        let accept_thread =
            std::thread::Builder::new().name(format!("{name}-accept")).spawn(move || {
                for conn in listener.incoming() {
                    if stop_a.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    stats.accepted();
                    // submit() counts the rejection and the dropped stream
                    // closes, so a flood costs closed sockets, never an
                    // unbounded thread.
                    let _ = engine_a.submit(stream);
                }
            })?;
        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            engine,
            drain_timeout: cfg.drain_timeout,
        })
    }

    /// The listener's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection — bounded, so a
        // filtered loopback can never wedge the drop.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        match &*self.engine {
            Engine::Threaded { pool, tracker } => {
                // Workers parked waiting for a peer's next request get EOF
                // and exit; a worker mid-reply keeps its write half and
                // finishes.
                tracker.shutdown_reads();
                pool.shutdown(self.drain_timeout);
            }
            Engine::Event(el) => {
                // The loop stops reading, flushes queued responses and
                // closes connections as their output drains.
                el.shutdown(self.drain_timeout);
            }
        }
    }
}

/// Run one connection's handler on a blocking socket until the peer
/// hangs up, the handler errors or asks to close, a deadline fires, or
/// the server stops.  The threaded engine's twin of the event loop's
/// per-connection state machine, with the same counter rules.
fn serve_blocking(
    mut stream: TcpStream,
    mut handler: Box<dyn EventHandler>,
    (read_timeout, write_timeout): (Option<Duration>, Option<Duration>),
    stop: &AtomicBool,
    stats: &ServerStats,
) {
    // Responses go out in one write; without TCP_NODELAY a reused
    // connection can stall ~40 ms per exchange (Nagle vs delayed ACK).
    let hardened = stream
        .set_read_timeout(read_timeout)
        .and_then(|()| stream.set_write_timeout(write_timeout))
        .and_then(|()| stream.set_nodelay(true));
    if hardened.is_err() {
        return;
    }
    let mut scratch = [0u8; READ_SCRATCH];
    let mut out = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let n = match stream.read(&mut scratch) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                if is_timeout(&e) && handler.deadline_counts_as_timeout() {
                    stats.timed_out();
                }
                return;
            }
        };
        // A stopped server must not answer from state that may already
        // be stale; closing makes pooled clients reconnect.
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(dispatch) = handler.on_bytes(&scratch[..n], &mut out) else { return };
        for _ in 0..dispatch.requests {
            stats.frame_in();
        }
        if let Err(e) = stream.write_all(&out) {
            // A peer that stops draining its responses: always a stall.
            if is_timeout(&e) {
                stats.timed_out();
            }
            return;
        }
        out.clear();
        for _ in 0..dispatch.requests {
            stats.frame_out();
        }
        if dispatch.close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::Dispatch;
    use crate::sansio::LengthFramer;
    use std::time::Instant;

    /// Echoes `len:u32be payload` frames.
    struct Echo(LengthFramer);

    impl EventHandler for Echo {
        fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> io::Result<Dispatch> {
            self.0.push(bytes);
            let mut d = Dispatch::default();
            while let Some((_, payload)) = self.0.next_frame()? {
                out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                out.extend_from_slice(&payload);
                d.requests += 1;
            }
            Ok(d)
        }
    }

    fn echo_server(backend: Backend, stats: ServerStats) -> Server {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let cfg = ServerConfig { backend, ..ServerConfig::default() };
        let factory =
            Arc::new(|| Box::new(Echo(LengthFramer::new(1 << 20))) as Box<dyn EventHandler>);
        Server::start("test", listener, &cfg, stats, factory).unwrap()
    }

    #[test]
    fn pipelined_frames_echo_and_drop_drains_on_both_engines() {
        for backend in [Backend::Threaded, Backend::EventLoop] {
            let stats = ServerStats::new();
            let server = echo_server(backend, stats.clone());
            let mut client = TcpStream::connect(server.addr()).unwrap();
            client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut wire = Vec::new();
            for payload in [&b"one"[..], b"two"] {
                wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                wire.extend_from_slice(payload);
            }
            client.write_all(&wire).unwrap();
            let mut echoed = vec![0u8; wire.len()];
            client.read_exact(&mut echoed).unwrap();
            assert_eq!(echoed, wire, "{backend:?}");

            // The idle keep-alive client must not hold up the drain.
            let start = Instant::now();
            drop(server);
            assert!(start.elapsed() < Duration::from_secs(5), "{backend:?}");
            let snap = stats.snapshot();
            assert_eq!((snap.accepted, snap.frames_in, snap.frames_out), (1, 2, 2), "{backend:?}");
            assert_eq!(snap.active, 0, "{backend:?}");
            assert_eq!(client.read(&mut [0u8; 1]).unwrap_or(0), 0, "{backend:?}: closed");
        }
    }
}
