//! Minimal HTTP substrate for XMIT's remote metadata discovery.
//!
//! In the paper, "the XML documents containing the message formats were
//! hosted on an Apache HTTP server" and XMIT "load\[s\] the toolkit with
//! message definitions (contained in XML documents) from one or more
//! URLs".  This crate is that leg of the system, built from scratch on
//! `std::net`:
//!
//! * [`Url`] — parsing for `http://`, `file://` and `mem://` URLs;
//! * [`HttpServer`] — an event-loop static-content HTTP/1.1 server with
//!   keep-alive and `ETag`/`If-None-Match` revalidation;
//! * [`http_get`] — a one-shot GET client with `Content-Length` and
//!   chunked bodies;
//! * [`ConnectionPool`] — keep-alive connection reuse for repeated
//!   fetches against the same authority (the discovery fast path);
//! * [`DocumentSource`] — the uniform "fetch a document by URL" interface
//!   XMIT discovery consumes, with an in-memory `mem://` store so tests
//!   stay hermetic.

#![deny(unsafe_code)]

pub mod client;
pub mod error;
pub mod pool;
pub mod request;
pub mod server;
pub mod source;
pub mod url;

pub use client::{http_get, http_get_conditional, read_response, Fetch, RawResponse, Response};
pub use error::HttpError;
pub use pool::{ConnectionPool, IdleSet, PoolConfig, PoolStats};
pub use server::HttpServer;

// The transport-hardening knobs and counters servers and clients share,
// re-exported so consumers configure [`HttpServer`] without a direct
// `openmeta-net` dependency.
pub use openmeta_net::{ServerConfig, TransportConfig, TransportCounters};
pub use request::{Request, RequestParser};
pub use source::{DocumentSource, Fetched, StandardSource};
pub use url::Url;

/// FNV-1a 64-bit hash — the content fingerprint shared by the server's
/// `ETag` generation and the toolkit's content-addressed schema cache.
pub fn content_hash64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::content_hash64;

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        // FNV-1a 64 known-answer vectors.
        assert_eq!(content_hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(content_hash64(b"<a/>"), content_hash64(b"<b/>"));
        assert_eq!(content_hash64(b"<a/>"), content_hash64(b"<a/>"));
    }
}
