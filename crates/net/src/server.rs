//! The one server front-end.
//!
//! A server is a listener plus a sans-io [`EventHandler`] per
//! connection; [`Server`] supplies everything else.  It owns the accept
//! thread, runs every connection on the readiness loop of
//! [`EventLoop`], and drains on drop.  The protocol is written once, as
//! a handler; the loop applies the config's read/write deadlines and
//! feeds the [`ServerStats`] counters: a write-deadline expiry always
//! counts as `timed_out`, and a read-deadline expiry counts only when
//! [`EventHandler::deadline_counts_as_timeout`] says so.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config::ServerConfig;
use crate::event_loop::{EventLoop, HandlerFactory};
use crate::stats::ServerStats;

/// A running server: accept thread plus event loop.  Dropping it shuts
/// down gracefully — accepting stops, in-flight requests finish, idle
/// keep-alive connections are closed, and the loop drains within
/// [`ServerConfig::drain_timeout`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    engine: Arc<EventLoop>,
    drain_timeout: Duration,
}

impl Server {
    /// Serve `listener` under `cfg`'s bounds.  `factory` builds one
    /// handler per accepted connection; `stats` receives the transport
    /// counters.  `name` labels the server's threads.
    pub fn start(
        name: &str,
        listener: TcpListener,
        cfg: &ServerConfig,
        stats: ServerStats,
        factory: Arc<HandlerFactory>,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let engine = Arc::new(EventLoop::start(name, cfg, stats.clone(), factory)?);

        let (stop_a, engine_a) = (stop.clone(), engine.clone());
        let accept_thread =
            std::thread::Builder::new().name(format!("{name}-accept")).spawn(move || {
                for conn in listener.incoming() {
                    if stop_a.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    stats.accepted();
                    // register() counts the rejection and the dropped
                    // stream closes, so a flood costs closed sockets,
                    // never unbounded state.
                    let _ = engine_a.register(stream);
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
        // The loop stops reading, flushes queued responses and closes
        // connections as their output drains.
        self.engine.shutdown(self.drain_timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{Dispatch, EventHandler};
    use crate::sansio::LengthFramer;
    use std::io::{Read, Write};
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

    fn echo_server(stats: ServerStats) -> Server {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let factory =
            Arc::new(|| Box::new(Echo(LengthFramer::new(1 << 20))) as Box<dyn EventHandler>);
        Server::start("test", listener, &ServerConfig::default(), stats, factory).unwrap()
    }

    #[test]
    fn pipelined_frames_echo_and_drop_drains() {
        let stats = ServerStats::new();
        let server = echo_server(stats.clone());
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
        assert_eq!(echoed, wire);

        // The idle keep-alive client must not hold up the drain.
        let start = Instant::now();
        drop(server);
        assert!(start.elapsed() < Duration::from_secs(5));
        let snap = stats.snapshot();
        assert_eq!((snap.accepted, snap.frames_in, snap.frames_out), (1, 2, 2));
        assert_eq!(snap.active, 0);
        assert_eq!(client.read(&mut [0u8; 1]).unwrap_or(0), 0, "closed");
    }

    /// A request arriving on an idle keep-alive connection wakes the
    /// loop at once: no park or sweep interval sits between a request
    /// and its reply.
    #[test]
    fn sequential_round_trips_have_no_latency_floor() {
        let server = echo_server(ServerStats::new());
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        client.set_nodelay(true).unwrap();
        let frame = [0, 0, 0, 4, b'p', b'i', b'n', b'g'];
        let mut reply = [0u8; 8];
        let start = Instant::now();
        for _ in 0..500 {
            client.write_all(&frame).unwrap();
            client.read_exact(&mut reply).unwrap();
            assert_eq!(reply, frame);
        }
        let took = start.elapsed();
        assert!(took < Duration::from_millis(250), "500 round trips took {took:?}");
    }
}
