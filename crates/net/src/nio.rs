//! Nonblocking socket readiness helpers.
//!
//! The event loop never issues a blocking `read`/`write` on a socket —
//! `cargo xtask analyze` enforces that for the `event_loop` module.
//! Instead every socket (connections and the shard's waker alike) is
//! switched to nonblocking mode and all I/O funnels through the two
//! helpers here, which translate the `WouldBlock`/`Interrupted` dance
//! into explicit readiness outcomes the per-connection state machine
//! can act on.

use std::io::{self, Read, Write};

/// Outcome of a readiness-probe read.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` bytes were read into the scratch buffer.
    Bytes(usize),
    /// The peer closed its write half (clean EOF).
    Eof,
    /// No bytes available right now; wait for readiness and retry.
    NotReady,
}

/// Outcome of a readiness-probe write.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// `n` bytes were accepted by the kernel.
    Wrote(usize),
    /// The socket's send buffer is full; wait for readiness and retry.
    NotReady,
}

/// Try to read once from a nonblocking stream into `scratch`.
///
/// `Interrupted` is retried inline; `WouldBlock` maps to
/// [`ReadOutcome::NotReady`]; every other error propagates (the caller
/// closes the connection).
pub fn read_ready(stream: &mut impl Read, scratch: &mut [u8]) -> io::Result<ReadOutcome> {
    loop {
        match stream.read(scratch) {
            Ok(0) => return Ok(ReadOutcome::Eof),
            Ok(n) => return Ok(ReadOutcome::Bytes(n)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadOutcome::NotReady),
            Err(e) => return Err(e),
        }
    }
}

/// Try to write once to a nonblocking stream.
///
/// Partial writes are normal — the caller advances its output cursor by
/// the returned count and retries the remainder once writable.
pub fn write_ready(stream: &mut impl Write, bytes: &[u8]) -> io::Result<WriteOutcome> {
    loop {
        match stream.write(bytes) {
            Ok(n) => return Ok(WriteOutcome::Wrote(n)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(WriteOutcome::NotReady),
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn read_reports_not_ready_then_bytes_then_eof() {
        let (client, mut server) = pair();
        server.set_nonblocking(true).unwrap();
        let mut scratch = [0u8; 64];
        assert_eq!(read_ready(&mut server, &mut scratch).unwrap(), ReadOutcome::NotReady);
        {
            use std::io::Write as _;
            let mut c = &client;
            c.write_all(b"ping").unwrap();
        }
        // The bytes may take a beat to land in the receive buffer.
        let mut got = ReadOutcome::NotReady;
        for _ in 0..200 {
            got = read_ready(&mut server, &mut scratch).unwrap();
            if got != ReadOutcome::NotReady {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, ReadOutcome::Bytes(4));
        assert_eq!(&scratch[..4], b"ping");
        drop(client);
        let mut got = ReadOutcome::NotReady;
        for _ in 0..200 {
            got = read_ready(&mut server, &mut scratch).unwrap();
            if got != ReadOutcome::NotReady {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, ReadOutcome::Eof);
    }

    #[test]
    fn write_eventually_hits_not_ready_against_a_stalled_reader() {
        let (client, mut server) = pair();
        server.set_nonblocking(true).unwrap();
        let chunk = [0u8; 64 * 1024];
        let mut stalled = false;
        for _ in 0..10_000 {
            match write_ready(&mut server, &chunk).unwrap() {
                WriteOutcome::Wrote(_) => {}
                WriteOutcome::NotReady => {
                    stalled = true;
                    break;
                }
            }
        }
        assert!(stalled, "send buffer never filled against an unread peer");
        drop(client);
    }
}
