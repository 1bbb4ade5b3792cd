//! Sans-io incremental HTTP/1.1 request parsing.
//!
//! The server's event loop receives bytes in whatever fragments the
//! kernel delivers, so request heads are parsed incrementally:
//! [`RequestParser`] takes byte chunks and pops complete request heads.
//!
//! Parsing is deliberately lenient:
//! lines split on `\n` with a trailing `\r` trimmed, the request line
//! split on whitespace, headers on the first `:`; only `If-None-Match`
//! and `Connection` are interpreted.  A blank request line or an
//! oversized head is an error — the connection closes.

use std::io;

/// Everything the server needs from one request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, …).
    pub method: String,
    /// Request target path.
    pub path: String,
    /// `If-None-Match` validator list, verbatim.
    pub if_none_match: Option<String>,
    /// `Connection: close` was requested.
    pub close_requested: bool,
}

/// Cap on a buffered-but-incomplete request head; a peer dribbling an
/// endless header section loses the connection instead of pinning
/// memory.
pub(crate) const MAX_HEAD: usize = 64 * 1024;

/// Buffer compaction threshold (drained prefix tolerated before a
/// shift), mirroring `openmeta_net`'s frame decoder.
const COMPACT_THRESHOLD: usize = 16 * 1024;

/// Incremental request-head decoder: [`RequestParser::push`] bytes as
/// they arrive, [`RequestParser::next_request`] complete heads.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    pos: usize,
    max_head: usize,
}

impl Default for RequestParser {
    fn default() -> RequestParser {
        RequestParser::new()
    }
}

impl RequestParser {
    /// A fresh parser with the production head cap.
    pub fn new() -> RequestParser {
        RequestParser::with_max_head(MAX_HEAD)
    }

    /// A parser with an explicit head cap (the analyzer's model checker
    /// uses a tiny cap so oversized-head scenarios stay short).
    pub fn with_max_head(max_head: usize) -> RequestParser {
        RequestParser { buf: Vec::new(), pos: 0, max_head }
    }

    /// Append newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered that are not yet a complete request head.  A read
    /// deadline expiring while this is `true` is a mid-request stall
    /// (counted `timed_out`); expiring while `false` is a routine idle
    /// keep-alive close.
    pub fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Bytes buffered but not yet consumed by an emitted request head.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pop the next complete request head.  `Ok(None)` means more bytes
    /// are needed; errors (blank request line, oversized head) should
    /// close the connection.
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        let pending = &self.buf[self.pos..];
        // A complete head is a run of `\n`-terminated lines ending in a
        // line that is empty once its `\r` is trimmed.
        let mut line_start = 0usize;
        let mut lines: Vec<&[u8]> = Vec::new();
        let mut head_end: Option<usize> = None;
        for (i, b) in pending.iter().enumerate() {
            if *b != b'\n' {
                continue;
            }
            let mut line = &pending[line_start..i];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            if line.iter().all(|c| c.is_ascii_whitespace()) && !lines.is_empty() {
                head_end = Some(i + 1);
                break;
            }
            if lines.is_empty() && line.iter().all(|c| c.is_ascii_whitespace()) {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "blank request line"));
            }
            lines.push(line);
            line_start = i + 1;
        }
        let Some(head_end) = head_end else {
            if pending.len() > self.max_head {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request head exceeds limit",
                ));
            }
            return Ok(None);
        };
        // The cap binds complete heads too: without this, a head larger
        // than `max_head` parses when it lands in one push but errors
        // when dribbled byte-at-a-time — the split-sensitivity the
        // analyzer's exhaustive explorer exists to rule out.
        if head_end > self.max_head {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "request head exceeds limit"));
        }

        let request_line = String::from_utf8_lossy(lines[0]).into_owned();
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("/").to_string();
        let mut request = Request { method, path, if_none_match: None, close_requested: false };
        for line in &lines[1..] {
            let line = String::from_utf8_lossy(line);
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                match name.to_ascii_lowercase().as_str() {
                    "if-none-match" => request.if_none_match = Some(value.to_string()),
                    "connection" => {
                        request.close_requested =
                            value.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
                    }
                    _ => {}
                }
            }
        }
        self.pos += head_end;
        Ok(Some(request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GET: &str = "GET /doc HTTP/1.1\r\nHost: h\r\n\r\n";

    #[test]
    fn whole_head_parses() {
        let mut p = RequestParser::new();
        p.push(GET.as_bytes());
        let req = p.next_request().unwrap().expect("complete head");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/doc");
        assert!(!req.close_requested);
        assert!(req.if_none_match.is_none());
        assert!(!p.has_partial());
    }

    #[test]
    fn byte_at_a_time_parses_identically() {
        let mut p = RequestParser::new();
        for b in GET.as_bytes() {
            assert!(p.next_request().unwrap().is_none());
            p.push(&[*b]);
        }
        let req = p.next_request().unwrap().expect("complete head");
        assert_eq!(req.path, "/doc");
    }

    #[test]
    fn headers_are_interpreted() {
        let mut p = RequestParser::new();
        p.push(
            b"GET /x HTTP/1.1\r\nIf-None-Match: \"abc\", \"def\"\r\n\
              Connection: keep-alive, close\r\n\r\n",
        );
        let req = p.next_request().unwrap().unwrap();
        assert_eq!(req.if_none_match.as_deref(), Some("\"abc\", \"def\""));
        assert!(req.close_requested);
    }

    #[test]
    fn pipelined_requests_split() {
        let mut p = RequestParser::new();
        p.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/a");
        assert!(p.has_partial());
        assert_eq!(p.next_request().unwrap().unwrap().path, "/b");
        assert!(p.next_request().unwrap().is_none());
        assert!(!p.has_partial());
    }

    #[test]
    fn bare_lf_line_endings_accepted() {
        let mut p = RequestParser::new();
        p.push(b"GET /lf HTTP/1.1\nHost: h\n\n");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/lf");
    }

    #[test]
    fn blank_request_line_is_an_error() {
        let mut p = RequestParser::new();
        p.push(b"\r\nGET /x HTTP/1.1\r\n\r\n");
        assert!(p.next_request().is_err());
    }

    #[test]
    fn oversized_head_is_an_error() {
        let mut p = RequestParser::new();
        p.push(b"GET /x HTTP/1.1\r\n");
        let filler = vec![b'a'; MAX_HEAD + 16];
        p.push(&filler);
        assert!(p.next_request().is_err());
    }

    #[test]
    fn partial_flag_tracks_buffered_bytes() {
        let mut p = RequestParser::new();
        assert!(!p.has_partial());
        p.push(b"GET /x HT");
        assert!(p.has_partial());
        p.push(b"TP/1.1\r\n\r\n");
        assert!(p.next_request().unwrap().is_some());
        assert!(!p.has_partial());
    }
}
