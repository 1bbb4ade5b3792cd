//! The uniform document-fetch interface XMIT discovery consumes.
//!
//! The indirection in metadata discovery (§3: "as long as the metadata is
//! present when binding occurs, it matters not how the metadata got
//! there") is expressed here as a trait: XMIT asks a [`DocumentSource`]
//! for the text behind a URL and never knows whether it came over HTTP,
//! from a file, or from an in-memory test fixture.
//!
//! [`DocumentSource::fetch_conditional`] is the revalidation leg of the
//! discovery fast path: callers hand back the validator from a previous
//! fetch and may be told [`Fetched::NotModified`] instead of receiving
//! the same bytes again.

use std::collections::HashMap;

use openmeta_obs::sync::{self, RwLock};

use crate::client::Fetch;
use crate::error::HttpError;
use crate::pool::{ConnectionPool, PoolStats};
use crate::url::Url;

/// Outcome of a conditional fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fetched {
    /// The cached copy identified by the caller's validator is current.
    NotModified,
    /// A (possibly changed) document, with its validator when available.
    New {
        /// Document text.
        text: String,
        /// Opaque validator (HTTP `ETag`) for the next conditional fetch.
        etag: Option<String>,
    },
}

/// Something that can resolve URLs to document text.
pub trait DocumentSource: Send + Sync {
    /// Fetch the document behind `url`.
    fn fetch(&self, url: &Url) -> Result<String, HttpError>;

    /// Fetch the document behind `url` unless the caller's validator
    /// (`etag`) still matches.  Sources without revalidation support fall
    /// back to an unconditional fetch.
    fn fetch_conditional(&self, url: &Url, etag: Option<&str>) -> Result<Fetched, HttpError> {
        let _ = etag;
        Ok(Fetched::New { text: self.fetch(url)?, etag: None })
    }
}

/// The standard source: `http://` via a keep-alive connection pool,
/// `file://` via the filesystem, `mem://` via an in-process store.
#[derive(Default)]
pub struct StandardSource {
    mem: RwLock<HashMap<String, String>>,
    pool: ConnectionPool,
}

impl StandardSource {
    /// An empty source.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a document under `mem://key`.
    pub fn put_mem(&self, key: &str, text: impl Into<String>) {
        sync::write(&self.mem).insert(format!("/{}", key.trim_start_matches('/')), text.into());
    }

    /// Connection-pool counters for the `http://` leg.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

impl DocumentSource for StandardSource {
    fn fetch(&self, url: &Url) -> Result<String, HttpError> {
        match self.fetch_conditional(url, None)? {
            Fetched::New { text, .. } => Ok(text),
            Fetched::NotModified => {
                Err(HttpError::BadResponse("unsolicited 304 Not Modified".to_string()))
            }
        }
    }

    fn fetch_conditional(&self, url: &Url, etag: Option<&str>) -> Result<Fetched, HttpError> {
        match url.scheme.as_str() {
            "http" => match self.pool.get_conditional(url, etag)? {
                Fetch::NotModified { .. } => Ok(Fetched::NotModified),
                Fetch::Full(resp) => {
                    let etag = resp.etag.clone();
                    Ok(Fetched::New { text: resp.text()?.to_string(), etag })
                }
            },
            "file" => std::fs::read_to_string(&url.path)
                .map(|text| Fetched::New { text, etag: None })
                .map_err(|e| {
                    if e.kind() == std::io::ErrorKind::NotFound {
                        HttpError::NotFound(url.to_string())
                    } else {
                        HttpError::Io(e.to_string())
                    }
                }),
            "mem" => sync::read(&self.mem)
                .get(&url.path)
                .cloned()
                .map(|text| Fetched::New { text, etag: None })
                .ok_or_else(|| HttpError::NotFound(url.to_string())),
            other => Err(HttpError::UnsupportedScheme(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HttpServer;

    #[test]
    fn mem_documents() {
        let src = StandardSource::new();
        src.put_mem("hydro", "<doc/>");
        let url = Url::parse("mem://hydro").unwrap();
        assert_eq!(src.fetch(&url).unwrap(), "<doc/>");
        let missing = Url::parse("mem://nope").unwrap();
        assert!(matches!(src.fetch(&missing), Err(HttpError::NotFound(_))));
    }

    #[test]
    fn file_documents() {
        let dir = std::env::temp_dir().join("openmeta-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.xsd");
        std::fs::write(&path, "<file-doc/>").unwrap();
        let src = StandardSource::new();
        let url = Url::parse(&format!("file://{}", path.display())).unwrap();
        assert_eq!(src.fetch(&url).unwrap(), "<file-doc/>");
        let missing = Url::parse(&format!("file://{}/absent", dir.display())).unwrap();
        assert!(matches!(src.fetch(&missing), Err(HttpError::NotFound(_))));
    }

    #[test]
    fn http_documents() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/d.xsd", "<remote/>");
        let src = StandardSource::new();
        let url = Url::parse(&server.url_for("/d.xsd")).unwrap();
        assert_eq!(src.fetch(&url).unwrap(), "<remote/>");
    }

    #[test]
    fn http_fetches_are_pooled() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/d.xsd", "<remote/>");
        let src = StandardSource::new();
        let url = Url::parse(&server.url_for("/d.xsd")).unwrap();
        for _ in 0..3 {
            src.fetch(&url).unwrap();
        }
        let stats = src.pool_stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.connects, 1);
    }

    #[test]
    fn http_conditional_fetch_revalidates() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/d.xsd", "<remote/>");
        let src = StandardSource::new();
        let url = Url::parse(&server.url_for("/d.xsd")).unwrap();
        let Fetched::New { etag, .. } = src.fetch_conditional(&url, None).unwrap() else {
            panic!("expected full fetch")
        };
        let etag = etag.expect("http responses carry ETags");
        assert_eq!(src.fetch_conditional(&url, Some(&etag)).unwrap(), Fetched::NotModified);
        assert_eq!(server.not_modified_count(), 1);
    }

    #[test]
    fn default_conditional_fetch_falls_back_to_full() {
        struct Fixed;
        impl DocumentSource for Fixed {
            fn fetch(&self, _url: &Url) -> Result<String, HttpError> {
                Ok("<fixed/>".to_string())
            }
        }
        let url = Url::parse("mem://x").unwrap();
        assert_eq!(
            Fixed.fetch_conditional(&url, Some("\"abc\"")).unwrap(),
            Fetched::New { text: "<fixed/>".to_string(), etag: None }
        );
    }
}
