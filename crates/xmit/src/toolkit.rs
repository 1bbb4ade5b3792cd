//! The toolkit facade: load documents, bind types, mint records.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use openmeta_obs::sync::{self, RwLock};
use openmeta_obs::{clock, Counter, MetricsRegistry};

use openmeta_ohttp::{content_hash64, DocumentSource, Fetched, StandardSource, Url};
use openmeta_pbio::server::FormatServerClient;
use openmeta_pbio::{FormatDescriptor, FormatId, FormatRegistry, MachineModel, RawRecord};
use openmeta_schema::model::EnumType;
use openmeta_schema::{parse_str, ComplexType, TypeRef};

use crate::error::XmitError;
use crate::mapping::map_type_with_enums;

/// The result of binding a complex type: the paper's "binding token …
/// used directly with the chosen BCM to perform marshaling and
/// unmarshaling".
#[derive(Debug, Clone)]
pub struct BindingToken {
    /// The complex type this token binds.
    pub type_name: String,
    /// The generated native metadata, registered with the BCM.
    pub format: Arc<FormatDescriptor>,
}

impl BindingToken {
    /// The compact format identifier carried in message headers.
    pub fn id(&self) -> FormatId {
        self.format.id()
    }

    /// A zeroed record of this format.
    pub fn new_record(&self) -> RawRecord {
        RawRecord::new(self.format.clone())
    }
}

/// How a cached discovery request was satisfied.
///
/// Each variant carries the names of the complex types the document
/// defines; only [`LoadOutcome::Loaded`] paid for a parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Cache miss: the document was fetched, parsed, and its definitions
    /// (re)applied.
    Loaded(Vec<String>),
    /// The server answered a conditional GET with `304 Not Modified`;
    /// the cached parse was re-applied without transferring the body.
    Revalidated(Vec<String>),
    /// A full body arrived but its content hash matched a cached parse
    /// (same URL or any other), so parsing was skipped.
    Unchanged(Vec<String>),
    /// The cached entry was inside the freshness TTL; no network traffic
    /// at all.
    Fresh(Vec<String>),
}

impl LoadOutcome {
    /// The type names the document defines, whichever way we got them.
    pub fn names(&self) -> &[String] {
        match self {
            LoadOutcome::Loaded(n)
            | LoadOutcome::Revalidated(n)
            | LoadOutcome::Unchanged(n)
            | LoadOutcome::Fresh(n) => n,
        }
    }

    /// Consume the outcome, keeping only the type names.
    pub fn into_names(self) -> Vec<String> {
        match self {
            LoadOutcome::Loaded(n)
            | LoadOutcome::Revalidated(n)
            | LoadOutcome::Unchanged(n)
            | LoadOutcome::Fresh(n) => n,
        }
    }

    /// Did this request skip the schema parse?
    pub fn was_cache_hit(&self) -> bool {
        !matches!(self, LoadOutcome::Loaded(_))
    }
}

/// Snapshot of the discovery cache's effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchemaCacheStats {
    /// Loads satisfied inside the TTL without touching the network.
    pub fresh_hits: u64,
    /// Conditional GETs answered `304 Not Modified`.
    pub revalidated: u64,
    /// Full bodies whose content hash matched a cached parse.
    pub content_hits: u64,
    /// Documents that had to be fetched and parsed.
    pub misses: u64,
}

impl SchemaCacheStats {
    /// Total cached-path loads (everything that skipped a parse).
    pub fn hits(&self) -> u64 {
        self.fresh_hits + self.revalidated + self.content_hits
    }
}

/// A parsed schema document, shared between the URL cache and the
/// content-hash index.
struct ParsedDoc {
    types: Vec<ComplexType>,
    enums: Vec<EnumType>,
    names: Vec<String>,
}

/// Per-URL cache entry: validator, content hash, and the parse itself.
struct SchemaCacheEntry {
    etag: Option<String>,
    hash: u64,
    doc: Arc<ParsedDoc>,
    fetched_at: Instant,
}

/// Global-registry-backed cache counters (`openmeta_schema_cache_*_total`):
/// this toolkit's exact numbers via [`Xmit::schema_cache_stats`],
/// process-wide sums via a `/metrics` scrape.
struct CacheCounters {
    fresh_hits: Arc<Counter>,
    revalidated: Arc<Counter>,
    content_hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl Default for CacheCounters {
    fn default() -> CacheCounters {
        let m = MetricsRegistry::global();
        CacheCounters {
            fresh_hits: m.counter("openmeta_schema_cache_fresh_hits_total"),
            revalidated: m.counter("openmeta_schema_cache_revalidated_total"),
            content_hits: m.counter("openmeta_schema_cache_content_hits_total"),
            misses: m.counter("openmeta_schema_cache_misses_total"),
        }
    }
}

/// Global-registry-backed binding-cache counters
/// (`openmeta_binding_cache_*_total`): lookups answered from the cache,
/// lookups that had to map and register, and cached bindings dropped
/// because a definition they were built from changed.
struct BindingCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidated: Arc<Counter>,
}

impl Default for BindingCounters {
    fn default() -> BindingCounters {
        let m = MetricsRegistry::global();
        BindingCounters {
            hits: m.counter("openmeta_binding_cache_hits_total"),
            misses: m.counter("openmeta_binding_cache_misses_total"),
            invalidated: m.counter("openmeta_binding_cache_invalidated_total"),
        }
    }
}

/// A cached binding and the names it was built from.
#[derive(Clone)]
struct Bound {
    format: Arc<FormatDescriptor>,
    /// Sorted, deduplicated: the type's own name, every name it
    /// references (enumerations included), and the names each composed
    /// type was built from.
    deps: Arc<[String]>,
}

/// Everything discovery and binding read or write.  It sits under one
/// lock so that a bind and an install are ordered: an install either
/// lands before a bind reads a definition, or drops the binding that
/// bind cached.
#[derive(Default)]
struct State {
    /// Loaded complex types, latest definition per name.
    types: HashMap<String, ComplexType>,
    /// Loaded enumerations, latest definition per name.
    enums: HashMap<String, EnumType>,
    /// URL → cached parse with its HTTP validator and content hash.
    schema_cache: HashMap<String, SchemaCacheEntry>,
    /// Content hash → cached parse, deduplicating identical documents
    /// served from different URLs.
    content_index: HashMap<u64, Arc<ParsedDoc>>,
    /// Successfully bound formats by type name, so repeat binds are a
    /// lookup instead of a re-map + re-register.  An entry is dropped
    /// when the definition of any name it was built from actually
    /// changes, so a composition re-binds when a dependency evolves and
    /// every other binding stays cached.
    bound: HashMap<String, Bound>,
    /// Freshness window within which cached entries skip the network
    /// entirely.  `None` (the default) always revalidates.
    cache_ttl: Option<Duration>,
}

impl State {
    /// Make `types` and `enums` the latest definitions of their names,
    /// then drop every cached binding built from a name whose definition
    /// actually changed, counting them in `invalidated`.
    fn install(&mut self, types: &[ComplexType], enums: &[EnumType], invalidated: &Counter) {
        let mut changed = Vec::new();
        for ct in types {
            if self.types.get(&ct.name) != Some(ct) {
                self.types.insert(ct.name.clone(), ct.clone());
                changed.push(ct.name.as_str());
            }
        }
        for en in enums {
            if self.enums.get(&en.name) != Some(en) {
                self.enums.insert(en.name.clone(), en.clone());
                changed.push(en.name.as_str());
            }
        }
        if changed.is_empty() {
            return;
        }
        let before = self.bound.len();
        self.bound.retain(|_, b| {
            !changed.iter().any(|&n| b.deps.binary_search_by(|d| d.as_str().cmp(n)).is_ok())
        });
        invalidated.add((before - self.bound.len()) as u64);
    }
}

/// The XMIT toolkit instance.
///
/// Holds loaded (but not yet bound) complex types, a PBIO format registry
/// for the selected machine model, and the document source used for
/// discovery.
pub struct Xmit {
    registry: Arc<FormatRegistry>,
    standard: Arc<StandardSource>,
    custom: Option<Arc<dyn DocumentSource>>,
    /// Discovery and binding state.  Never held across a fetch or a
    /// parse.
    state: RwLock<State>,
    cache_counters: CacheCounters,
    binding_counters: BindingCounters,
    /// Optional format server for resolving unknown format ids on decode.
    /// A lock of its own: publishing and resolving hold it across a
    /// network round trip.
    format_server: RwLock<Option<FormatServerClient>>,
}

impl Xmit {
    /// A toolkit generating metadata for `machine`, with the standard
    /// document source (`http://`, `file://`, `mem://`).
    pub fn new(machine: MachineModel) -> Xmit {
        Xmit {
            registry: Arc::new(FormatRegistry::new(machine)),
            standard: Arc::new(StandardSource::new()),
            custom: None,
            state: RwLock::new(State::default()),
            cache_counters: CacheCounters::default(),
            binding_counters: BindingCounters::default(),
            format_server: RwLock::new(None),
        }
    }

    /// A toolkit with a caller-provided document source.
    pub fn with_source(machine: MachineModel, source: Arc<dyn DocumentSource>) -> Xmit {
        Xmit { custom: Some(source), ..Xmit::new(machine) }
    }

    /// The BCM format registry (shared with receivers for decoding).
    pub fn registry(&self) -> &Arc<FormatRegistry> {
        &self.registry
    }

    /// The standard source, e.g. to publish `mem://` fixtures in tests.
    pub fn source(&self) -> &StandardSource {
        &self.standard
    }

    /// The source discovery fetches through: the caller's, if given.
    fn discovery_source(&self) -> &dyn DocumentSource {
        self.custom.as_deref().unwrap_or(&*self.standard)
    }

    /// Fetch a document's text through the toolkit's source without
    /// loading it (used by [`crate::watcher::FormatWatcher`] to detect
    /// changes).
    pub fn fetch_document(&self, url: &Url) -> Result<String, XmitError> {
        Ok(self.discovery_source().fetch(url)?)
    }

    /// Set the freshness window for the discovery cache.  Within `ttl` of
    /// the last successful fetch, [`Xmit::load_url`] answers from cache
    /// without any network traffic; `None` (the default) revalidates on
    /// every load.
    pub fn set_cache_ttl(&self, ttl: Option<Duration>) {
        sync::write(&self.state).cache_ttl = ttl;
    }

    /// Discovery-cache counters since construction (or the last reset).
    pub fn schema_cache_stats(&self) -> SchemaCacheStats {
        SchemaCacheStats {
            fresh_hits: self.cache_counters.fresh_hits.get(),
            revalidated: self.cache_counters.revalidated.get(),
            content_hits: self.cache_counters.content_hits.get(),
            misses: self.cache_counters.misses.get(),
        }
    }

    /// Zero the discovery-cache counters (the cache itself is kept).
    pub fn reset_schema_cache_stats(&self) {
        self.cache_counters.fresh_hits.reset();
        self.cache_counters.revalidated.reset();
        self.cache_counters.content_hits.reset();
        self.cache_counters.misses.reset();
    }

    /// "Load the toolkit with message definitions (contained in XML
    /// documents) from one or more URLs."  Returns the names of the
    /// complex types the document defined.
    pub fn load_url(&self, url: &str) -> Result<Vec<String>, XmitError> {
        Ok(self.load_url_cached(url)?.into_names())
    }

    /// Like [`Xmit::load_url`], but reports how the request was satisfied:
    /// full parse, `304` revalidation, content-hash dedupe, or TTL-fresh.
    pub fn load_url_cached(&self, url: &str) -> Result<LoadOutcome, XmitError> {
        self.load_url_inner(url, true)
    }

    /// Force revalidation of a previously loaded URL, ignoring the TTL.
    /// Used by [`crate::watcher::FormatWatcher`] so polling stays a
    /// conditional GET even when a freshness window is configured.
    pub fn revalidate(&self, url: &str) -> Result<LoadOutcome, XmitError> {
        self.load_url_inner(url, false)
    }

    fn load_url_inner(&self, url: &str, allow_fresh: bool) -> Result<LoadOutcome, XmitError> {
        let _span = openmeta_obs::span!("discovery.load");
        let parsed = Url::parse(url)?;

        // TTL-fresh: answer from cache with no network traffic at all.
        if allow_fresh {
            let fresh = {
                let st = sync::read(&self.state);
                let entry = st.cache_ttl.and_then(|ttl| {
                    st.schema_cache.get(url).filter(|e| e.fetched_at.elapsed() <= ttl)
                });
                entry.map(|e| e.doc.clone())
            };
            if let Some(doc) = fresh {
                self.install(&doc.types, &doc.enums);
                self.cache_counters.fresh_hits.inc();
                return Ok(LoadOutcome::Fresh(doc.names.clone()));
            }
        }

        let etag = sync::read(&self.state).schema_cache.get(url).and_then(|e| e.etag.clone());
        let fetched = {
            let _span = openmeta_obs::span!("discovery.fetch");
            self.discovery_source().fetch_conditional(&parsed, etag.as_deref())?
        };
        match fetched {
            Fetched::NotModified => {
                let doc = {
                    let mut st = sync::write(&self.state);
                    let entry = st.schema_cache.get_mut(url).ok_or_else(|| {
                        XmitError::Discovery(openmeta_ohttp::HttpError::BadResponse(
                            "304 Not Modified for a URL never cached".to_string(),
                        ))
                    })?;
                    entry.fetched_at = clock::now();
                    entry.doc.clone()
                };
                self.install(&doc.types, &doc.enums);
                self.cache_counters.revalidated.inc();
                Ok(LoadOutcome::Revalidated(doc.names.clone()))
            }
            Fetched::New { text, etag: new_etag } => {
                let hash = content_hash64(text.as_bytes());
                // Dedupe against this URL's previous body or any other
                // URL that served identical bytes.
                let cached = {
                    let st = sync::read(&self.state);
                    st.schema_cache
                        .get(url)
                        .filter(|e| e.hash == hash)
                        .map(|e| e.doc.clone())
                        .or_else(|| st.content_index.get(&hash).cloned())
                };
                if let Some(doc) = cached {
                    self.store(url, new_etag, hash, &doc);
                    self.cache_counters.content_hits.inc();
                    return Ok(LoadOutcome::Unchanged(doc.names.clone()));
                }
                let doc = Arc::new(Self::parse_doc(&text)?);
                self.store(url, new_etag, hash, &doc);
                self.cache_counters.misses.inc();
                Ok(LoadOutcome::Loaded(doc.names.clone()))
            }
        }
    }

    fn parse_doc(text: &str) -> Result<ParsedDoc, XmitError> {
        let _span = openmeta_obs::span!("discovery.parse");
        let doc = parse_str(text)?;
        let names = doc.types.iter().map(|ct| ct.name.clone()).collect();
        Ok(ParsedDoc { types: doc.types, enums: doc.enums, names })
    }

    /// (Re-)apply a parsed document's definitions.  Cache hits go through
    /// here too: the state holds the *latest* definition per name, and a
    /// cached load must win over whatever another document installed
    /// since.
    fn install(&self, types: &[ComplexType], enums: &[EnumType]) {
        sync::write(&self.state).install(types, enums, &self.binding_counters.invalidated);
    }

    /// Cache `doc` as `url`'s parse and under its content hash, and
    /// install its definitions, under one write lock.
    fn store(&self, url: &str, etag: Option<String>, hash: u64, doc: &Arc<ParsedDoc>) {
        let mut st = sync::write(&self.state);
        st.content_index.entry(hash).or_insert_with(|| doc.clone());
        let entry = SchemaCacheEntry { etag, hash, doc: doc.clone(), fetched_at: clock::now() };
        st.schema_cache.insert(url.to_string(), entry);
        st.install(&doc.types, &doc.enums, &self.binding_counters.invalidated);
    }

    /// Load definitions from already-fetched XML text.
    pub fn load_str(&self, text: &str) -> Result<Vec<String>, XmitError> {
        let doc = parse_str(text)?;
        self.install(&doc.types, &doc.enums);
        Ok(doc.types.into_iter().map(|ct| ct.name).collect())
    }

    /// Re-fetch a previously loaded URL, picking up centralized format
    /// changes.  Returns the (possibly changed) type names.
    pub fn refresh(&self, url: &str) -> Result<Vec<String>, XmitError> {
        Ok(self.revalidate(url)?.into_names())
    }

    /// Names of all loaded complex types, sorted.
    pub fn loaded_types(&self) -> Vec<String> {
        let mut v: Vec<String> = sync::read(&self.state).types.keys().cloned().collect();
        v.sort();
        v
    }

    /// Look at a loaded (unbound) definition.
    pub fn definition(&self, name: &str) -> Option<ComplexType> {
        sync::read(&self.state).types.get(name).cloned()
    }

    /// Look at a loaded enumeration definition.
    pub fn enumeration(&self, name: &str) -> Option<EnumType> {
        sync::read(&self.state).enums.get(name).cloned()
    }

    /// Wire value of an enumeration symbol (its declaration index).
    pub fn enum_index(&self, enum_name: &str, symbol: &str) -> Result<u64, XmitError> {
        let en = self
            .enumeration(enum_name)
            .ok_or_else(|| XmitError::UnknownType(enum_name.to_string()))?;
        en.index_of(symbol).map(|i| i as u64).ok_or_else(|| {
            XmitError::Binding(format!("'{symbol}' is not a value of enumeration '{enum_name}'"))
        })
    }

    /// Symbol behind a wire value of an enumeration.
    pub fn enum_symbol(&self, enum_name: &str, index: u64) -> Result<String, XmitError> {
        let en = self
            .enumeration(enum_name)
            .ok_or_else(|| XmitError::UnknownType(enum_name.to_string()))?;
        en.symbol(index as usize).map(str::to_string).ok_or_else(|| {
            XmitError::Binding(format!("enumeration '{enum_name}' has no value {index}"))
        })
    }

    /// Bind a loaded complex type: generate PBIO metadata (recursively
    /// binding composed types first) and register it.
    pub fn bind(&self, name: &str) -> Result<BindingToken, XmitError> {
        let _span = openmeta_obs::span!("binding.bind");
        let hit = sync::read(&self.state).bound.get(name).map(|b| b.format.clone());
        let format = match hit {
            Some(format) => {
                self.binding_counters.hits.inc();
                format
            }
            None => {
                let mut st = sync::write(&self.state);
                self.bind_locked(&mut st, name, &mut Vec::new())?.format
            }
        };
        Ok(BindingToken { type_name: name.to_string(), format })
    }

    /// Bind `name` over state the caller holds for writing, so the
    /// definitions it reads and the bindings it caches are one snapshot.
    fn bind_locked(
        &self,
        st: &mut State,
        name: &str,
        visiting: &mut Vec<String>,
    ) -> Result<Bound, XmitError> {
        if let Some(hit) = st.bound.get(name) {
            self.binding_counters.hits.inc();
            return Ok(hit.clone());
        }
        self.binding_counters.misses.inc();
        if visiting.iter().any(|v| v == name) {
            return Err(XmitError::Binding(format!(
                "circular composition: {} -> {name}",
                visiting.join(" -> ")
            )));
        }
        let ct =
            st.types.get(name).cloned().ok_or_else(|| XmitError::UnknownType(name.to_string()))?;
        visiting.push(name.to_string());
        // Bind composed types first so registry resolution succeeds;
        // enumeration references map to a scalar and need no binding.
        let mut deps = vec![name.to_string()];
        for e in &ct.elements {
            if let TypeRef::Named(n) = &e.type_ref {
                deps.push(n.clone());
                if st.enums.contains_key(n) {
                    continue;
                }
                deps.extend_from_slice(&self.bind_locked(st, n, visiting)?.deps);
            }
        }
        visiting.pop();
        deps.sort_unstable();
        deps.dedup();
        let spec =
            map_type_with_enums(&ct, &self.registry.machine(), &|n| st.enums.contains_key(n))?;
        let bound = Bound { format: self.registry.register(spec)?, deps: deps.into() };
        st.bound.insert(name.to_string(), bound.clone());
        Ok(bound)
    }

    /// Bind every loaded type; returns tokens sorted by type name.
    pub fn bind_all(&self) -> Result<Vec<BindingToken>, XmitError> {
        self.loaded_types().into_iter().map(|n| self.bind(&n)).collect()
    }

    /// One-call convenience: bind `name` and mint a record of it.
    pub fn new_record(&self, name: &str) -> Result<RawRecord, XmitError> {
        Ok(self.bind(name)?.new_record())
    }

    // -- format-server integration (the Figure 2 arrow: "format
    // identifiers … allow component programs to retrieve the metadata on
    // demand") ---------------------------------------------------------

    /// Attach the format server decode should resolve unknown ids from.
    pub fn attach_format_server(&self, addr: std::net::SocketAddr) {
        *sync::write(&self.format_server) = Some(FormatServerClient::connect(addr));
    }

    /// Publish a bound format's descriptor to the attached server so
    /// remote components can resolve it by id.
    pub fn publish_format(&self, token: &BindingToken) -> Result<FormatId, XmitError> {
        let guard = sync::read(&self.format_server);
        let client = guard
            .as_ref()
            .ok_or_else(|| XmitError::Binding("no format server attached".to_string()))?;
        Ok(client.register(&token.format)?)
    }

    /// Decode a wire buffer, fetching the sender's descriptor from the
    /// attached format server if this toolkit has never seen its id.
    pub fn decode_resolving(&self, wire: &[u8]) -> Result<RawRecord, XmitError> {
        let header = openmeta_pbio::marshal::parse_header(wire)?;
        if self.registry.lookup_id(header.format_id).is_none() {
            let guard = sync::read(&self.format_server);
            let client = guard.as_ref().ok_or(XmitError::Bcm(
                openmeta_pbio::PbioError::UnknownFormatId(header.format_id.0),
            ))?;
            client.resolve_into(header.format_id, &self.registry)?;
        }
        Ok(openmeta_pbio::decode(wire, &self.registry)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmeta_ohttp::HttpServer;
    use openmeta_pbio::{decode, encode};

    const XSD: &str = "http://www.w3.org/2001/XMLSchema";

    fn join_request_xml() -> String {
        format!(
            r#"<xsd:complexType name="JoinRequest" xmlns:xsd="{XSD}">
                 <xsd:element name="name" type="xsd:string" />
                 <xsd:element name="server" type="xsd:unsignedLong" />
                 <xsd:element name="ip_addr" type="xsd:unsignedLong" />
                 <xsd:element name="pid" type="xsd:unsignedLong" />
                 <xsd:element name="ds_addr" type="xsd:unsignedLong" />
               </xsd:complexType>"#
        )
    }

    #[test]
    fn load_bind_marshal_from_mem() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.source().put_mem("join", join_request_xml());
        let names = xmit.load_url("mem://join").unwrap();
        assert_eq!(names, vec!["JoinRequest"]);
        let token = xmit.bind("JoinRequest").unwrap();
        let mut rec = token.new_record();
        rec.set_string("name", "flow2d").unwrap();
        rec.set_u64("server", 7).unwrap();
        let wire = encode(&rec).unwrap();
        let back = decode(&wire, xmit.registry()).unwrap();
        assert_eq!(back.get_string("name").unwrap(), "flow2d");
        assert_eq!(back.get_u64("server").unwrap(), 7);
    }

    #[test]
    fn remote_discovery_over_http() {
        let server = HttpServer::start().unwrap();
        server.put_xml("/formats/join.xsd", join_request_xml());
        let xmit = Xmit::new(MachineModel::native());
        let names = xmit.load_url(&server.url_for("/formats/join.xsd")).unwrap();
        assert_eq!(names, vec!["JoinRequest"]);
        assert!(xmit.bind("JoinRequest").is_ok());
        assert_eq!(server.hit_count(), 1);
    }

    #[test]
    fn sparc32_join_request_is_20_bytes() {
        // The paper's Figure 6 reports JoinRequest as a 20-byte structure.
        let xmit = Xmit::new(MachineModel::SPARC32);
        xmit.load_str(&join_request_xml()).unwrap();
        let token = xmit.bind("JoinRequest").unwrap();
        assert_eq!(token.format.record_size, 20);
    }

    #[test]
    fn unknown_type_and_bad_urls_error() {
        let xmit = Xmit::new(MachineModel::native());
        assert!(matches!(xmit.bind("Nope"), Err(XmitError::UnknownType(_))));
        assert!(matches!(xmit.load_url("mem://absent"), Err(XmitError::Discovery(_))));
        assert!(matches!(xmit.load_url("not a url"), Err(XmitError::Discovery(_))));
        assert!(matches!(xmit.load_str("<a/>"), Err(XmitError::Schema(_))));
    }

    #[test]
    fn format_change_via_reload() {
        let server = HttpServer::start().unwrap();
        let v1 = format!(
            r#"<xsd:complexType name="Evt" xmlns:xsd="{XSD}">
                 <xsd:element name="a" type="xsd:int" /></xsd:complexType>"#
        );
        let v2 = format!(
            r#"<xsd:complexType name="Evt" xmlns:xsd="{XSD}">
                 <xsd:element name="a" type="xsd:int" />
                 <xsd:element name="b" type="xsd:double" /></xsd:complexType>"#
        );
        server.put_xml("/evt.xsd", v1);
        let xmit = Xmit::new(MachineModel::native());
        let url = server.url_for("/evt.xsd");
        xmit.load_url(&url).unwrap();
        let t1 = xmit.bind("Evt").unwrap();
        // The format evolves centrally; the component just refreshes.
        server.put_xml("/evt.xsd", v2);
        xmit.refresh(&url).unwrap();
        let t2 = xmit.bind("Evt").unwrap();
        assert_ne!(t1.id(), t2.id());
        assert_eq!(t2.format.fields.len(), 2);
        // Both versions stay addressable for in-flight messages.
        assert!(xmit.registry().lookup_id(t1.id()).is_some());
    }

    #[test]
    fn composition_binds_dependencies() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&format!(
            r#"<xsd:schema xmlns:xsd="{XSD}">
                 <xsd:complexType name="Msg">
                   <xsd:element name="hdr" type="Hdr" />
                   <xsd:element name="v" type="xsd:double" />
                 </xsd:complexType>
                 <xsd:complexType name="Hdr">
                   <xsd:element name="seq" type="xsd:int" />
                 </xsd:complexType>
               </xsd:schema>"#
        ))
        .unwrap();
        // Binding Msg first works even though Hdr appears later in the doc.
        let token = xmit.bind("Msg").unwrap();
        assert!(token.format.field_path("hdr.seq").is_some());
        assert_eq!(xmit.bind_all().unwrap().len(), 2);
    }

    #[test]
    fn circular_composition_rejected() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&format!(
            r#"<xsd:schema xmlns:xsd="{XSD}">
                 <xsd:complexType name="A"><xsd:element name="b" type="B" /></xsd:complexType>
                 <xsd:complexType name="B"><xsd:element name="a" type="A" /></xsd:complexType>
               </xsd:schema>"#
        ))
        .unwrap();
        assert!(matches!(xmit.bind("A"), Err(XmitError::Binding(_))));
    }

    #[test]
    fn missing_composed_type_reported() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&format!(
            r#"<xsd:complexType name="A" xmlns:xsd="{XSD}">
                 <xsd:element name="q" type="Mystery" /></xsd:complexType>"#
        ))
        .unwrap();
        assert!(matches!(xmit.bind("A"), Err(XmitError::UnknownType(_))));
    }

    #[test]
    fn dependency_change_invalidates_composed_binding() {
        let xmit = Xmit::new(MachineModel::native());
        let doc = |hdr_fields: &str| {
            format!(
                r#"<xsd:schema xmlns:xsd="{XSD}">
                     <xsd:complexType name="Msg">
                       <xsd:element name="hdr" type="Hdr" />
                     </xsd:complexType>
                     <xsd:complexType name="Hdr">
                       <xsd:element name="seq" type="xsd:int" />{hdr_fields}
                     </xsd:complexType>
                   </xsd:schema>"#
            )
        };
        xmit.load_str(&doc("")).unwrap();
        let t1 = xmit.bind("Msg").unwrap();
        // Msg's own definition is untouched, but its dependency grows; the
        // bound-token cache must not serve the stale composition.
        xmit.load_str(&doc(r#"<xsd:element name="flags" type="xsd:int" />"#)).unwrap();
        let t2 = xmit.bind("Msg").unwrap();
        assert_ne!(t1.id(), t2.id(), "changed dependency must re-bind the composition");
        assert!(t2.format.field_path("hdr.flags").is_some());
    }

    #[test]
    fn unrelated_change_keeps_other_bindings_cached() {
        let evt = |extra: &str| {
            format!(
                r#"<xsd:complexType name="Evt" xmlns:xsd="{XSD}">
                     <xsd:element name="a" type="xsd:int" />{extra}</xsd:complexType>"#
            )
        };
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&evt("")).unwrap();
        xmit.load_str(&format!(
            r#"<xsd:schema xmlns:xsd="{XSD}">
                 <xsd:complexType name="Msg"><xsd:element name="hdr" type="Hdr" /></xsd:complexType>
                 <xsd:complexType name="Hdr"><xsd:element name="seq" type="xsd:int" /></xsd:complexType>
               </xsd:schema>"#
        ))
        .unwrap();
        xmit.bind("Evt").unwrap();
        let msg = xmit.bind("Msg").unwrap();
        let hdr = xmit.bind("Hdr").unwrap();
        let registered = xmit.registry().len();
        let c = &xmit.binding_counters;
        let (hits, misses) = (c.hits.get(), c.misses.get());

        xmit.load_str(&evt(r#"<xsd:element name="b" type="xsd:double" />"#)).unwrap();
        assert_eq!(c.invalidated.get(), 1, "only Evt's own binding read Evt");
        assert!(Arc::ptr_eq(&xmit.bind("Msg").unwrap().format, &msg.format));
        assert!(Arc::ptr_eq(&xmit.bind("Hdr").unwrap().format, &hdr.format));
        assert_eq!((c.hits.get(), c.misses.get()), (hits + 2, misses), "all hits");
        assert_eq!(xmit.registry().len(), registered, "nothing registered for Msg/Hdr");
        assert_eq!(xmit.bind("Evt").unwrap().format.fields.len(), 2);
    }

    #[test]
    fn revalidated_leaf_rebinds_a_cross_document_chain() {
        let server = HttpServer::start().unwrap();
        let leaf = |extra: &str| {
            format!(
                r#"<xsd:complexType name="Leaf" xmlns:xsd="{XSD}">
                     <xsd:element name="x" type="xsd:int" />{extra}</xsd:complexType>"#
            )
        };
        server.put_xml("/a.xsd", leaf(""));
        server.put_xml(
            "/b.xsd",
            format!(
                r#"<xsd:schema xmlns:xsd="{XSD}">
                     <xsd:complexType name="Outer"><xsd:element name="mid" type="Mid" /></xsd:complexType>
                     <xsd:complexType name="Mid"><xsd:element name="leaf" type="Leaf" /></xsd:complexType>
                   </xsd:schema>"#
            ),
        );
        let xmit = Xmit::new(MachineModel::native());
        let a = server.url_for("/a.xsd");
        xmit.load_url(&a).unwrap();
        xmit.load_url(&server.url_for("/b.xsd")).unwrap();
        let t1 = xmit.bind("Outer").unwrap();

        server.put_xml("/a.xsd", leaf(r#"<xsd:element name="y" type="xsd:double" />"#));
        assert!(matches!(xmit.revalidate(&a).unwrap(), LoadOutcome::Loaded(_)));
        let t2 = xmit.bind("Outer").unwrap();
        assert_ne!(t1.id(), t2.id(), "a changed leaf must re-bind every level above it");
        assert!(t2.format.field_path("mid.leaf.y").is_some());
    }

    #[test]
    fn enumeration_change_rebinds_its_referrers() {
        let doc = |symbols: &str| {
            format!(
                r#"<xsd:schema xmlns:xsd="{XSD}">
                     <xsd:simpleType name="Kind"><xsd:restriction base="xsd:string">{symbols}</xsd:restriction></xsd:simpleType>
                     <xsd:complexType name="Update"><xsd:element name="kind" type="Kind" /></xsd:complexType>
                   </xsd:schema>"#
            )
        };
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&doc(r#"<xsd:enumeration value="open" />"#)).unwrap();
        xmit.load_str(&join_request_xml()).unwrap();
        xmit.bind("Update").unwrap();
        xmit.bind("JoinRequest").unwrap();
        let c = &xmit.binding_counters;
        let misses = c.misses.get();

        xmit.load_str(&doc(r#"<xsd:enumeration value="open" /><xsd:enumeration value="wall" />"#))
            .unwrap();
        assert_eq!(c.invalidated.get(), 1, "only Update references Kind");
        xmit.bind("JoinRequest").unwrap();
        assert_eq!(c.misses.get(), misses);
        xmit.bind("Update").unwrap();
        assert_eq!(c.misses.get(), misses + 1, "Update must re-bind");
        assert_eq!(xmit.enum_index("Kind", "wall").unwrap(), 1);
    }

    #[test]
    fn reference_turned_enumeration_rebinds_as_scalar() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&format!(
            r#"<xsd:schema xmlns:xsd="{XSD}">
                 <xsd:complexType name="Update"><xsd:element name="kind" type="Kind" /></xsd:complexType>
                 <xsd:complexType name="Kind"><xsd:element name="v" type="xsd:int" /></xsd:complexType>
               </xsd:schema>"#
        ))
        .unwrap();
        let t1 = xmit.bind("Update").unwrap();
        assert!(t1.format.field_path("kind.v").is_some());

        xmit.load_str(&format!(
            r#"<xsd:simpleType name="Kind" xmlns:xsd="{XSD}"><xsd:restriction base="xsd:string">
                 <xsd:enumeration value="open" /></xsd:restriction></xsd:simpleType>"#
        ))
        .unwrap();
        let t2 = xmit.bind("Update").unwrap();
        assert_ne!(t1.id(), t2.id());
        assert_eq!(t2.format.field("kind").unwrap().kind.describe(), "enumeration");
    }

    #[test]
    fn binding_is_idempotent() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&join_request_xml()).unwrap();
        let t1 = xmit.bind("JoinRequest").unwrap();
        let t2 = xmit.bind("JoinRequest").unwrap();
        assert!(Arc::ptr_eq(&t1.format, &t2.format));
    }
}
