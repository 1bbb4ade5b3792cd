//! A small HTTP/1.1 GET client.
//!
//! The response-framing logic ([`read_response`]) is shared with the
//! keep-alive connection pool ([`crate::pool`]): it understands
//! `Content-Length`, `Transfer-Encoding: chunked` and read-to-EOF bodies,
//! and reports whether the connection may be reused for another request.

use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

use openmeta_net::TransportConfig;

use crate::error::HttpError;
use crate::request::MAX_HEAD;
use crate::url::Url;

/// A successful HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (always 2xx here; other codes become errors).
    pub status: u16,
    /// `Content-Type` header, if present.
    pub content_type: Option<String>,
    /// `ETag` header, if present (used for conditional re-fetches).
    pub etag: Option<String>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// Body as UTF-8 text.
    pub fn text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadResponse("body is not UTF-8".to_string()))
    }
}

/// Outcome of a conditional GET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fetch {
    /// A full response (2xx with a body).
    Full(Response),
    /// The server answered `304 Not Modified`: the cached copy is current.
    NotModified {
        /// The (possibly refreshed) validator the server returned.
        etag: Option<String>,
    },
}

/// One fully framed HTTP/1.1 response, before status interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// `Content-Type` header, if present.
    pub content_type: Option<String>,
    /// `ETag` header, if present.
    pub etag: Option<String>,
    /// Response body (empty for bodiless statuses such as 304).
    pub body: Vec<u8>,
    /// `true` if HTTP/1.1 persistence rules allow reusing the connection:
    /// the body was delimited (Content-Length, chunked, or bodiless) and
    /// neither side demanded `Connection: close`.
    pub reusable: bool,
}

/// Write a GET request.  `conditional` adds `If-None-Match`; `keep_alive`
/// selects the `Connection` header.
pub(crate) fn write_get_request(
    w: &mut impl Write,
    url: &Url,
    etag: Option<&str>,
    keep_alive: bool,
) -> Result<(), HttpError> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut request = format!(
        "GET {} HTTP/1.1\r\nHost: {}\r\nUser-Agent: openmeta-xmit/0.1\r\n\
         Accept: text/xml, */*\r\nConnection: {connection}\r\n",
        url.path, url.host
    );
    if let Some(tag) = etag {
        request.push_str(&format!("If-None-Match: {tag}\r\n"));
    }
    request.push_str("\r\n");
    w.write_all(request.as_bytes())?;
    w.flush()?;
    Ok(())
}

/// Read and frame one HTTP/1.1 response from `reader`.
///
/// Handles `Content-Length`, `Transfer-Encoding: chunked`, bodiless
/// statuses (1xx/204/304), and read-to-EOF (`Connection: close`) framing.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<RawResponse, HttpError> {
    // The status line and headers share one budget, the request side's.
    let mut head_budget = MAX_HEAD;
    let Some(status_line) = read_line_capped(reader, &mut head_budget)? else {
        return Err(HttpError::BadResponse("connection closed before status line".to_string()));
    };
    let status_line = status_line.trim_end();
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadResponse(format!("bad status line '{status_line}'")));
    }
    let http11 = version != "HTTP/1.0";
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| HttpError::BadResponse(format!("bad status line '{status_line}'")))?;
    let reason = parts.next().unwrap_or("").to_string();

    let mut content_length: Option<usize> = None;
    let mut content_type: Option<String> = None;
    let mut etag: Option<String> = None;
    let mut chunked = false;
    let mut close = false;
    let mut keep_alive = false;
    loop {
        let Some(line) = read_line_capped(reader, &mut head_budget)? else {
            return Err(HttpError::BadResponse("connection closed inside headers".to_string()));
        };
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadResponse(format!("malformed header '{line}'")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length =
                    Some(value.parse().map_err(|_| {
                        HttpError::BadResponse(format!("bad Content-Length '{value}'"))
                    })?)
            }
            "content-type" => content_type = Some(value.to_string()),
            "etag" => etag = Some(value.to_string()),
            "transfer-encoding" if value.eq_ignore_ascii_case("chunked") => chunked = true,
            "connection" => {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        keep_alive = true;
                    }
                }
            }
            _ => {}
        }
    }

    // 1xx, 204 and 304 responses never carry a body, whatever the headers
    // claim (RFC 9112 §6.3).
    let bodiless = code < 200 || code == 204 || code == 304;
    let (body, delimited) = if bodiless {
        (Vec::new(), true)
    } else if chunked {
        (read_chunked(reader)?, true)
    } else if let Some(len) = content_length {
        // Content-Length is wire-controlled: grow the buffer only as
        // bytes actually arrive, so a lying header cannot pin memory.
        let body = openmeta_net::read_exact_capped(reader, len)?;
        (body, true)
    } else {
        // Connection: close framing — the connection is spent.
        let mut body = Vec::new();
        reader.read_to_end(&mut body)?;
        (body, false)
    };

    // HTTP/1.1 defaults to persistent connections; HTTP/1.0 only keeps
    // the connection when the server opts in explicitly.
    let reusable = delimited && !close && (http11 || keep_alive);
    Ok(RawResponse { status: code, reason, content_type, etag, body, reusable })
}

/// Interpret a framed response: 2xx becomes [`Fetch::Full`], 304 becomes
/// [`Fetch::NotModified`], anything else an [`HttpError::Status`].
pub(crate) fn interpret(raw: RawResponse) -> Result<Fetch, HttpError> {
    if raw.status == 304 {
        return Ok(Fetch::NotModified { etag: raw.etag });
    }
    if !(200..300).contains(&raw.status) {
        return Err(HttpError::Status { code: raw.status, reason: raw.reason });
    }
    Ok(Fetch::Full(Response {
        status: raw.status,
        content_type: raw.content_type,
        etag: raw.etag,
        body: raw.body,
    }))
}

/// Default connect timeout for the one-shot client and the pool.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// Default read/write timeout.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The deadlines of one client connection: `connect` to reach the
/// server, `io` for each read and write.
pub(crate) fn transport(connect: Duration, io: Duration) -> TransportConfig {
    TransportConfig {
        connect_timeout: connect,
        read_timeout: Some(io),
        write_timeout: Some(io),
        ..TransportConfig::default()
    }
}

fn one_shot(url: &Url, etag: Option<&str>) -> Result<Fetch, HttpError> {
    if url.scheme != "http" {
        return Err(HttpError::UnsupportedScheme(url.scheme.clone()));
    }
    let cfg = transport(CONNECT_TIMEOUT, IO_TIMEOUT);
    let stream = openmeta_net::connect_with_deadline((url.host.as_str(), url.port), &cfg)?;
    let mut writer = stream.try_clone()?;
    write_get_request(&mut writer, url, etag, false)?;
    let mut reader = BufReader::new(stream);
    interpret(read_response(&mut reader)?)
}

/// Fetch `url` with a one-shot GET request (`Connection: close`).
/// Non-2xx statuses become [`HttpError::Status`].
///
/// For repeated fetches against the same server, prefer
/// [`crate::pool::ConnectionPool`], which reuses connections.
pub fn http_get(url: &Url) -> Result<Response, HttpError> {
    match one_shot(url, None)? {
        Fetch::Full(r) => Ok(r),
        // A 304 without If-None-Match is a protocol violation.
        Fetch::NotModified { .. } => {
            Err(HttpError::BadResponse("unsolicited 304 Not Modified".to_string()))
        }
    }
}

/// Fetch `url` with a conditional GET: `If-None-Match: etag` is sent when
/// a validator is given, and a `304 Not Modified` answer becomes
/// [`Fetch::NotModified`] instead of an error.
pub fn http_get_conditional(url: &Url, etag: Option<&str>) -> Result<Fetch, HttpError> {
    one_shot(url, etag)
}

pub(crate) fn read_chunked<R: BufRead>(reader: &mut R) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let mut line_budget = MAX_HEAD;
        let Some(size_line) = read_line_capped(reader, &mut line_budget)? else {
            return Err(HttpError::BadResponse("EOF inside chunked body".to_string()));
        };
        let size_str = size_line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| HttpError::BadResponse(format!("bad chunk size '{size_str}'")))?;
        if size == 0 {
            // Trailer section ends with a blank line.
            let mut trailer_budget = MAX_HEAD;
            while let Some(t) = read_line_capped(reader, &mut trailer_budget)? {
                if t == "\r\n" || t == "\n" {
                    break;
                }
            }
            return Ok(body);
        }
        // The chunk size is wire-controlled, same as Content-Length:
        // grow only as the bytes actually arrive.
        let chunk = openmeta_net::read_exact_capped(reader, size)?;
        body.extend_from_slice(&chunk);
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::BadResponse("chunk not CRLF-terminated".to_string()));
        }
    }
}

/// Read one line, terminator included, charging its bytes to `budget`.
/// `Ok(None)` is EOF before the first byte.  A line that would overrun
/// the budget is `BadResponse`: response heads, chunk-size lines and
/// trailers are wire-controlled, so a server streaming a line with no
/// newline must not grow client memory without limit.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let n = Read::take(reader, *budget as u64).read_until(b'\n', &mut line)?;
    if n == *budget && !line.ends_with(b"\n") {
        return Err(HttpError::BadResponse(format!(
            "response line runs past the {MAX_HEAD}-byte head limit"
        )));
    }
    *budget -= n;
    if n == 0 {
        return Ok(None);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| HttpError::BadResponse("response line is not UTF-8".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::net::TcpListener;

    /// A one-shot server that replies with a fixed byte string.
    fn canned(reply: &'static [u8]) -> std::net::SocketAddr {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                // Read the request (best effort), then reply.
                let mut buf = [0u8; 1024];
                use std::io::Read as _;
                let _ = s.read(&mut buf);
                let _ = s.write_all(reply);
            }
        });
        addr
    }

    #[test]
    fn parses_content_length_response() {
        let addr =
            canned(b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 4\r\n\r\n<a/>");
        let url = Url::parse(&format!("http://{addr}/x")).unwrap();
        let r = http_get(&url).unwrap();
        assert_eq!(r.body, b"<a/>");
        assert_eq!(r.text().unwrap(), "<a/>");
    }

    #[test]
    fn parses_chunked_response() {
        let addr = canned(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
              3\r\n<a>\r\n4\r\n</a>\r\n0\r\n\r\n",
        );
        let url = Url::parse(&format!("http://{addr}/x")).unwrap();
        let r = http_get(&url).unwrap();
        assert_eq!(r.body, b"<a></a>");
    }

    #[test]
    fn parses_close_framed_response() {
        let addr = canned(b"HTTP/1.1 200 OK\r\n\r\nhello");
        let url = Url::parse(&format!("http://{addr}/x")).unwrap();
        assert_eq!(http_get(&url).unwrap().body, b"hello");
    }

    #[test]
    fn captures_etag_header() {
        let addr = canned(b"HTTP/1.1 200 OK\r\nETag: \"abc123\"\r\nContent-Length: 2\r\n\r\nok");
        let url = Url::parse(&format!("http://{addr}/x")).unwrap();
        assert_eq!(http_get(&url).unwrap().etag.as_deref(), Some("\"abc123\""));
    }

    #[test]
    fn conditional_get_returns_not_modified() {
        let addr = canned(b"HTTP/1.1 304 Not Modified\r\nETag: \"abc123\"\r\n\r\n");
        let url = Url::parse(&format!("http://{addr}/x")).unwrap();
        let fetch = http_get_conditional(&url, Some("\"abc123\"")).unwrap();
        assert_eq!(fetch, Fetch::NotModified { etag: Some("\"abc123\"".to_string()) });
    }

    #[test]
    fn error_statuses_surface() {
        let addr = canned(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n");
        let url = Url::parse(&format!("http://{addr}/x")).unwrap();
        assert_eq!(
            http_get(&url).unwrap_err(),
            HttpError::Status { code: 500, reason: "Internal Server Error".to_string() }
        );
    }

    #[test]
    fn garbage_status_line_rejected() {
        let addr = canned(b"SPLORT\r\n\r\n");
        let url = Url::parse(&format!("http://{addr}/x")).unwrap();
        assert!(matches!(http_get(&url), Err(HttpError::BadResponse(_))));
    }

    #[test]
    fn non_http_scheme_rejected() {
        let url = Url::parse("mem://doc").unwrap();
        assert!(matches!(http_get(&url), Err(HttpError::UnsupportedScheme(_))));
    }

    #[test]
    fn connection_refused_is_io_error() {
        // Port 1 on localhost is essentially never listening.
        let url = Url::parse("http://127.0.0.1:1/x").unwrap();
        assert!(matches!(http_get(&url), Err(HttpError::Io(_))));
    }

    #[test]
    fn framing_reports_reusability() {
        let mut r =
            std::io::Cursor::new(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok".to_vec());
        assert!(read_response(&mut r).unwrap().reusable);

        let mut r = std::io::Cursor::new(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok".to_vec(),
        );
        assert!(!read_response(&mut r).unwrap().reusable);

        // Read-to-EOF framing spends the connection.
        let mut r = std::io::Cursor::new(b"HTTP/1.1 200 OK\r\n\r\nok".to_vec());
        assert!(!read_response(&mut r).unwrap().reusable);

        // HTTP/1.0 keeps the connection only with an explicit opt-in.
        let mut r =
            std::io::Cursor::new(b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok".to_vec());
        assert!(!read_response(&mut r).unwrap().reusable);
        let mut r = std::io::Cursor::new(
            b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok".to_vec(),
        );
        assert!(read_response(&mut r).unwrap().reusable);
    }

    #[test]
    fn bodiless_statuses_ignore_content_length() {
        let mut r = std::io::Cursor::new(
            b"HTTP/1.1 304 Not Modified\r\nContent-Length: 999\r\n\r\n".to_vec(),
        );
        let raw = read_response(&mut r).unwrap();
        assert!(raw.body.is_empty());
        assert!(raw.reusable);
    }
}
