//! Loopback listener helpers.  Outbound connects go through the
//! program's own `openmeta_net` connect paths (`XmitSender::connect`,
//! `ChannelSubscriber::connect`, `FormatServerClient`, the HTTP pool).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use openmeta_obs::clock;

use crate::report::{err, BenchError};

/// A listener on an ephemeral loopback port.
pub fn listen() -> Result<(TcpListener, SocketAddr), BenchError> {
    let l = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| err("bind loopback", e))?;
    let addr = l.local_addr().map_err(|e| err("listener address", e))?;
    Ok((l, addr))
}

/// Accept one connection, giving up after `limit` so a peer that died
/// before connecting fails the run instead of hanging it.
pub fn accept_within(l: &TcpListener, limit: Duration) -> Result<TcpStream, BenchError> {
    l.set_nonblocking(true).map_err(|e| err("listener nonblocking", e))?;
    let start = clock::now();
    loop {
        match l.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false).map_err(|e| err("stream blocking", e))?;
                return Ok(s);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if start.elapsed() > limit {
                    return Err(BenchError("peer never connected".to_string()));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(err("accept", e)),
        }
    }
}
