//! Deadline and bound configuration for clients and servers.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::retry::RetryPolicy;

/// Client-side transport knobs: how long to wait for a connect, a read
/// and a write, and how to retry a failed connect.
///
/// Every socket a hardened client opens gets these deadlines applied, so
/// a stalled peer surfaces as a timeout error instead of an indefinite
/// block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// TCP connect timeout (per resolved address).
    pub connect_timeout: Duration,
    /// Read deadline on established connections (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Write deadline on established connections (`None` = block forever).
    pub write_timeout: Option<Duration>,
    /// Disable Nagle so small frames are not parked behind delayed ACKs.
    pub nodelay: bool,
    /// Backoff schedule for connect retries.
    pub retry: RetryPolicy,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            nodelay: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// Server-side bounds: how many connections the event loop holds, and
/// the deadlines it applies to each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Hard cap on open connections; excess connects are rejected
    /// (closed), never given unbounded state.
    pub max_connections: usize,
    /// Per-connection read deadline (also the keep-alive idle bound).
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline, anchored when output is queued.
    pub write_timeout: Option<Duration>,
    /// How long graceful shutdown waits for in-flight connections to
    /// finish before force-closing the stragglers.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 40,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            drain_timeout: Duration::from_secs(15),
        }
    }
}

/// Apply a config's deadlines and nodelay to an established stream.
pub fn harden_stream(stream: &TcpStream, cfg: &TransportConfig) -> io::Result<()> {
    stream.set_read_timeout(cfg.read_timeout)?;
    stream.set_write_timeout(cfg.write_timeout)?;
    if cfg.nodelay {
        stream.set_nodelay(true)?;
    }
    Ok(())
}

/// Resolve `addr` and connect with `cfg`'s connect deadline, trying every
/// resolved address in order.  Unlike `TcpStream::connect`, a black-holed
/// host fails after the configured timeout rather than the OS default
/// (which can be minutes).  The returned stream has deadlines applied.
pub fn connect_with_deadline(
    addr: impl ToSocketAddrs,
    cfg: &TransportConfig,
) -> io::Result<TcpStream> {
    let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let mut last: Option<io::Error> = None;
    for a in &addrs {
        match TcpStream::connect_timeout(a, cfg.connect_timeout) {
            Ok(stream) => {
                harden_stream(&stream, cfg)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::AddrNotAvailable, "address resolved to no candidates")
    }))
}

/// [`connect_with_deadline`] wrapped in the config's retry-with-backoff
/// schedule: transient connect failures (a peer restarting, a full accept
/// queue) are retried before the error is surfaced.
pub fn connect_retrying(
    addr: impl ToSocketAddrs + Copy,
    cfg: &TransportConfig,
) -> io::Result<TcpStream> {
    cfg.retry.run(|| connect_with_deadline(addr, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn connect_applies_deadlines() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let cfg = TransportConfig {
            read_timeout: Some(Duration::from_millis(123)),
            ..TransportConfig::default()
        };
        let stream = connect_with_deadline(addr, &cfg).unwrap();
        // The kernel may round the timeout up to its clock granularity.
        let got = stream.read_timeout().unwrap().expect("deadline set");
        assert!(got >= Duration::from_millis(123) && got < Duration::from_millis(200), "{got:?}");
        assert!(stream.nodelay().unwrap());
    }

    #[test]
    fn refused_connect_fails_after_retries_not_hangs() {
        // Port 1 is essentially never listening; each attempt fails fast
        // with ECONNREFUSED and the retry schedule bounds total time.
        let cfg = TransportConfig {
            connect_timeout: Duration::from_millis(300),
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(10),
            },
            ..TransportConfig::default()
        };
        let start = Instant::now();
        assert!(connect_retrying(("127.0.0.1", 1), &cfg).is_err());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn retry_recovers_when_listener_appears() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        // Rebind the same port after a delay; the retrying connect should
        // land once the listener is back.
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let listener = TcpListener::bind(addr).unwrap();
            let _ = listener.accept();
        });
        let cfg = TransportConfig {
            retry: RetryPolicy {
                attempts: 20,
                base_delay: Duration::from_millis(25),
                max_delay: Duration::from_millis(100),
            },
            ..TransportConfig::default()
        };
        assert!(connect_retrying(addr, &cfg).is_ok());
    }
}
