//! A TCP format server: the out-of-band metadata plane.
//!
//! PBIO messages carry only a format id.  When a receiver encounters an id
//! it has never seen, it asks a format server for the descriptor — this is
//! the "retrieve the metadata on demand" arrow in the paper's Figure 2.
//! The protocol is a trivial length-framed request/response:
//!
//! ```text
//! frame    := len:u32be payload
//! request  := 0x01 descriptor-bytes          (register, reply: id)
//!           | 0x02 id:u64be                  (fetch, reply: descriptor)
//! response := 0x00 body | 0x01 (not found) | 0x02 message (error)
//! ```
//!
//! The protocol exists once, as the sans-io `FormatConn` handler;
//! `openmeta_net::Server` runs it on the readiness event loop and owns
//! the hardening: a connection cap instead of thread-per-connection
//! spawns, read/write deadlines on every socket, and a drain of
//! in-flight requests on shutdown.  The client holds one
//! persistent connection with retry-with-backoff connects and a single
//! transparent reconnect when the held connection has gone stale.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use openmeta_net::{
    connect_retrying, frame_header, read_frame_blocking, write_all_vectored, Dispatch,
    EventHandler, LengthFramer, Server, ServerConfig, ServerStats, TransportConfig,
    TransportCounters,
};
use openmeta_obs::sync::{self, Mutex};

use crate::codec::{decode_descriptor, encode_descriptor};
use crate::error::PbioError;
use crate::format::{FormatDescriptor, FormatId};
use crate::machine::MachineModel;
use crate::registry::FormatRegistry;

const OP_REGISTER: u8 = 1;
const OP_FETCH: u8 = 2;
const ST_OK: u8 = 0;
const ST_NOT_FOUND: u8 = 1;
const ST_ERROR: u8 = 2;

/// Maximum frame size accepted by either side (defensive bound).
const MAX_FRAME: usize = 16 << 20;

/// Write one frame in one gather-write (length prefix and payload in one
/// segment, so Nagle never parks the payload behind a delayed ACK).
pub(crate) fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> Result<(), PbioError> {
    let header = frame_header(payload.len(), None, MAX_FRAME)?;
    write_all_vectored(stream, &[&header, payload])?;
    Ok(())
}

/// Read one frame (client side).  Built on the sans-io [`LengthFramer`],
/// which bounds the length prefix and grows the payload buffer only as
/// bytes actually arrive.  A clean EOF before any byte means the peer
/// hung up — for a client mid-request that is an error.
pub(crate) fn read_frame(stream: &mut TcpStream) -> Result<Vec<u8>, PbioError> {
    let mut framer = LengthFramer::new(MAX_FRAME);
    match read_frame_blocking(stream, &mut framer) {
        Ok(Some((_, payload))) => Ok(payload),
        Ok(None) => Err(PbioError::Io("connection closed by format server".to_string())),
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            Err(PbioError::Server(e.to_string()))
        }
        Err(e) => Err(PbioError::from(e)),
    }
}

/// Build the wire payload of a fetch request (without the length
/// prefix).  Exposed for load generators that drive the server with raw
/// frames over nonblocking sockets.
pub fn fetch_request_payload(id: FormatId) -> Vec<u8> {
    let mut req = vec![OP_FETCH];
    req.extend_from_slice(&id.0.to_be_bytes());
    req
}

/// A running format server.  Dropping it shuts the server down
/// gracefully: in-flight requests finish, idle keep-alive connections
/// are closed, and the event loop is drained.
pub struct FormatServer {
    server: Server,
    stats: ServerStats,
}

impl FormatServer {
    /// Start a server on an ephemeral localhost port with default bounds.
    pub fn start() -> Result<FormatServer, PbioError> {
        FormatServer::start_with(ServerConfig::default())
    }

    /// Start a server with explicit connection and deadline bounds.
    pub fn start_with(cfg: ServerConfig) -> Result<FormatServer, PbioError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        // The store's machine model is irrelevant: it only warehouses
        // descriptors that carry their own models.
        let store = Arc::new(FormatRegistry::new(MachineModel::native()));
        let stats = ServerStats::new();
        let factory = Arc::new(move || {
            Box::new(FormatConn { store: store.clone(), framer: LengthFramer::new(MAX_FRAME) })
                as Box<dyn EventHandler>
        });
        let server = Server::start("format-server", listener, &cfg, stats.clone(), factory)?;
        Ok(FormatServer { server, stats })
    }

    /// Address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Transport counters: accepted/active/rejected/timed-out connections
    /// and frames in/out.
    pub fn transport_counters(&self) -> TransportCounters {
        self.stats.snapshot()
    }
}

/// One connection's protocol core: the sans-io [`LengthFramer`] plus
/// `handle_request`, run by the event loop.  Any read-deadline
/// expiry counts as a timeout, idle keep-alive expiry included (the
/// trait's default).
struct FormatConn {
    store: Arc<FormatRegistry>,
    framer: LengthFramer,
}

impl EventHandler for FormatConn {
    fn on_bytes(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> std::io::Result<Dispatch> {
        self.framer.push(bytes);
        let mut dispatch = Dispatch::default();
        while let Some((_, payload)) = self.framer.next_frame()? {
            let reply = {
                let _span = openmeta_obs::span!("server.request");
                handle_request(&payload, &self.store)
            };
            out.extend_from_slice(&frame_header(reply.len(), None, MAX_FRAME)?);
            out.extend_from_slice(&reply);
            dispatch.requests += 1;
        }
        Ok(dispatch)
    }
}

fn handle_request(req: &[u8], store: &FormatRegistry) -> Vec<u8> {
    let error = |msg: &str| {
        let mut v = vec![ST_ERROR];
        v.extend_from_slice(msg.as_bytes());
        v
    };
    match req.split_first() {
        Some((&OP_REGISTER, body)) => match decode_descriptor(body) {
            Ok(desc) => {
                let arc = store.register_descriptor(desc);
                let mut v = vec![ST_OK];
                v.extend_from_slice(&arc.id().0.to_be_bytes());
                v
            }
            Err(e) => error(&e.to_string()),
        },
        Some((&OP_FETCH, body)) => {
            let Ok(id_bytes) = <[u8; 8]>::try_from(body) else {
                return error("fetch body must be 8 bytes");
            };
            match store.lookup_id(FormatId(u64::from_be_bytes(id_bytes))) {
                Some(desc) => {
                    let mut v = vec![ST_OK];
                    v.extend_from_slice(&encode_descriptor(&desc));
                    v
                }
                None => vec![ST_NOT_FOUND],
            }
        }
        Some((op, _)) => error(&format!("unknown opcode {op}")),
        None => error("empty request"),
    }
}

/// Client handle for a [`FormatServer`].
///
/// Holds one persistent connection and reuses it across requests (the
/// server keeps connections alive for exactly this reason).  When the
/// held connection has gone stale — the server idle-closed it or
/// restarted — the next request transparently reconnects once and
/// retries; both operations are idempotent (register is content-addressed
/// and fetch is read-only), so the retry is safe.  Fresh connects run
/// under the configured retry-with-backoff schedule and every socket
/// carries connect/read/write deadlines.
pub struct FormatServerClient {
    addr: SocketAddr,
    config: TransportConfig,
    conn: Mutex<Option<TcpStream>>,
}

impl FormatServerClient {
    /// A client for the server at `addr` with default deadlines.
    pub fn connect(addr: SocketAddr) -> FormatServerClient {
        FormatServerClient::connect_with(addr, TransportConfig::default())
    }

    /// A client with explicit deadlines and retry schedule.
    pub fn connect_with(addr: SocketAddr, config: TransportConfig) -> FormatServerClient {
        FormatServerClient { addr, config, conn: Mutex::new(None) }
    }

    fn fresh_stream(&self) -> Result<TcpStream, PbioError> {
        connect_retrying(self.addr, &self.config)
            .map_err(|e| PbioError::Io(format!("connecting to format server: {e}")))
    }

    fn exchange(stream: &mut TcpStream, request: &[u8]) -> Result<Vec<u8>, PbioError> {
        write_frame(stream, request)?;
        read_frame(stream)
    }

    fn round_trip(&self, request: &[u8]) -> Result<Vec<u8>, PbioError> {
        let mut guard = sync::lock(&self.conn);
        if let Some(mut stream) = guard.take() {
            // On failure the connection was stale (idle-closed, server
            // restarted, or a deadline fired): reconnect once below and
            // retry the exchange.
            if let Ok(reply) = Self::exchange(&mut stream, request) {
                *guard = Some(stream);
                return Ok(reply);
            }
        }
        let mut stream = self.fresh_stream()?;
        let reply = Self::exchange(&mut stream, request)?;
        *guard = Some(stream);
        Ok(reply)
    }

    /// Publish a descriptor; returns its content-addressed id.
    pub fn register(&self, desc: &FormatDescriptor) -> Result<FormatId, PbioError> {
        let mut req = vec![OP_REGISTER];
        req.extend_from_slice(&encode_descriptor(desc));
        let reply = self.round_trip(&req)?;
        match reply.split_first() {
            Some((&ST_OK, body)) => {
                let bytes: [u8; 8] = body
                    .try_into()
                    .map_err(|_| PbioError::Server("short register reply".to_string()))?;
                Ok(FormatId(u64::from_be_bytes(bytes)))
            }
            Some((&ST_ERROR, msg)) => {
                Err(PbioError::Server(String::from_utf8_lossy(msg).into_owned()))
            }
            _ => Err(PbioError::Server("malformed register reply".to_string())),
        }
    }

    /// Fetch a descriptor by id; `Ok(None)` when the server has no such id.
    pub fn fetch(&self, id: FormatId) -> Result<Option<FormatDescriptor>, PbioError> {
        let mut req = vec![OP_FETCH];
        req.extend_from_slice(&id.0.to_be_bytes());
        let reply = self.round_trip(&req)?;
        match reply.split_first() {
            Some((&ST_OK, body)) => Ok(Some(decode_descriptor(body)?)),
            Some((&ST_NOT_FOUND, _)) => Ok(None),
            Some((&ST_ERROR, msg)) => {
                Err(PbioError::Server(String::from_utf8_lossy(msg).into_owned()))
            }
            _ => Err(PbioError::Server("malformed fetch reply".to_string())),
        }
    }

    /// Resolve an id into `registry`, fetching from the server on a miss.
    pub fn resolve_into(
        &self,
        id: FormatId,
        registry: &FormatRegistry,
    ) -> Result<Arc<FormatDescriptor>, PbioError> {
        if let Some(d) = registry.lookup_id(id) {
            return Ok(d);
        }
        let fetched = self.fetch(id)?.ok_or(PbioError::UnknownFormatId(id.0))?;
        Ok(registry.register_descriptor(fetched))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::IOField;
    use crate::format::FormatSpec;
    use openmeta_net::RetryPolicy;
    use std::time::Duration;

    fn descriptor(name: &str) -> FormatDescriptor {
        FormatDescriptor::resolve(
            &FormatSpec::new(
                name,
                vec![IOField::auto("x", "integer", 4), IOField::auto("s", "string", 0)],
            ),
            MachineModel::SPARC32,
            &|_| None,
        )
        .unwrap()
    }

    /// A client config whose failures resolve quickly in tests.
    fn fast_config() -> TransportConfig {
        TransportConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(50),
            },
        }
    }

    #[test]
    fn register_then_fetch() {
        let server = FormatServer::start().unwrap();
        let client = FormatServerClient::connect(server.addr());
        let desc = descriptor("Remote");
        let id = client.register(&desc).unwrap();
        assert_eq!(id, desc.id());
        let fetched = client.fetch(id).unwrap().unwrap();
        assert_eq!(fetched, desc);
        // The persistent client made both requests over one connection.
        let counters = server.transport_counters();
        assert_eq!(counters.accepted, 1);
        assert_eq!(counters.frames_in, 2);
        // frame_out lands after the reply is flushed; wait out the race
        // between this assert and the event loop's accounting.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while server.transport_counters().frames_out < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(server.transport_counters().frames_out, 2);
    }

    #[test]
    fn fetch_unknown_is_none() {
        let server = FormatServer::start().unwrap();
        let client = FormatServerClient::connect(server.addr());
        assert_eq!(client.fetch(FormatId(12345)).unwrap(), None);
    }

    #[test]
    fn resolve_into_populates_registry() {
        let server = FormatServer::start().unwrap();
        let client = FormatServerClient::connect(server.addr());
        let desc = descriptor("Lazy");
        let id = client.register(&desc).unwrap();
        let local = FormatRegistry::new(MachineModel::native());
        assert!(local.lookup_id(id).is_none());
        let resolved = client.resolve_into(id, &local).unwrap();
        assert_eq!(*resolved, desc);
        assert!(local.lookup_id(id).is_some());
        // Second resolve is a registry hit (no server involved).
        let again = client.resolve_into(id, &local).unwrap();
        assert!(Arc::ptr_eq(&resolved, &again));
    }

    #[test]
    fn concurrent_clients() {
        let server = FormatServer::start().unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..6 {
            handles.push(std::thread::spawn(move || {
                let client = FormatServerClient::connect(addr);
                let desc = descriptor(&format!("Fmt{t}"));
                let id = client.register(&desc).unwrap();
                assert_eq!(client.fetch(id).unwrap().unwrap(), desc);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn server_shuts_down_on_drop() {
        let addr = {
            let server = FormatServer::start().unwrap();
            server.addr()
        };
        // After drop, new connections are refused (or accepted-and-closed
        // by the OS backlog, in which case the request fails).
        let client = FormatServerClient::connect_with(addr, fast_config());
        assert!(client.fetch(FormatId(1)).is_err());
    }

    #[test]
    fn client_survives_idle_close_with_one_reconnect() {
        // The server idle-closes the held connection almost immediately;
        // the client's next request must transparently reconnect.
        let server = FormatServer::start_with(ServerConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServerConfig::default()
        })
        .unwrap();
        let client = FormatServerClient::connect_with(server.addr(), fast_config());
        let desc = descriptor("Sticky");
        let id = client.register(&desc).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(client.fetch(id).unwrap().unwrap(), desc);
        assert_eq!(server.transport_counters().accepted, 2, "one reconnect after idle close");
    }
}
