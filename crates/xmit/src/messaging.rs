//! Point-to-point messaging with self-announcing formats.
//!
//! A sender transmits a format's descriptor once, before the first record
//! of that format, so receivers can decode with no prior agreement — the
//! transport-level realization of "format identifiers are generated which
//! allow component programs to retrieve the metadata on demand".  Records
//! themselves carry only the id.
//!
//! ```text
//! frame := len:u32be kind:u8 payload
//!          kind 1: payload = format descriptor (pbio::codec)
//!          kind 2: payload = one encoded record (pbio::marshal)
//! ```

use std::collections::HashSet;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use openmeta_net::{
    connect_retrying, harden_stream, read_frame_blocking, write_all_vectored, FrameHeader,
    LengthFramer, TransportConfig,
};
use openmeta_pbio::codec::{decode_descriptor, encode_descriptor};
use openmeta_pbio::{
    decode, Encoder, FormatDescriptor, FormatId, FormatRegistry, PbioError, RawRecord,
};

use crate::error::XmitError;
use crate::negotiate::{
    reply_from_frame, Accept, Hello, NegotiateReply, NegotiationCache, FRAME_ACCEPT, FRAME_HELLO,
    FRAME_REJECT,
};

pub(crate) const FRAME_FORMAT: u8 = 1;
pub(crate) const FRAME_RECORD: u8 = 2;
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Frame header: `len:u32be kind:u8`, refused when the receiver's
/// framer would reject `payload` as over [`MAX_FRAME`].
fn frame_header(kind: u8, payload: &[u8]) -> Result<FrameHeader, XmitError> {
    Ok(openmeta_net::frame_header(payload.len(), Some(kind), MAX_FRAME).map_err(PbioError::from)?)
}

fn write_frame(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> Result<(), XmitError> {
    // One gather-write per frame: pushing the header and payload in
    // separate syscalls hands Nagle + delayed ACK a ~40 ms stall per
    // message on a keep-alive connection.  The vectored write keeps the
    // single-syscall property without coalescing into a scratch buffer,
    // so a burst of large records never pins a peak-sized allocation.
    let hdr = frame_header(kind, payload)?;
    write_all_vectored(stream, &[&hdr, payload]).map_err(PbioError::from)?;
    Ok(())
}

/// Classify an error from `read_frame_blocking`: an oversized length
/// prefix is bad wire data; anything else belongs to the socket.
fn frame_error(e: std::io::Error) -> XmitError {
    if e.kind() == std::io::ErrorKind::InvalidData {
        XmitError::Bcm(PbioError::BadWireData(e.to_string()))
    } else {
        XmitError::Bcm(PbioError::from(e))
    }
}

/// Sends records over a TCP stream, announcing formats on first use.
pub struct XmitSender {
    stream: TcpStream,
    announced: HashSet<FormatId>,
    /// Cached encode plans + pooled wire buffer: steady-state sends do
    /// no per-message descriptor walking and no allocation.  Frames go
    /// out as header+payload gather-writes, so no second copy of the
    /// encoded record is ever held.
    enc: Encoder,
}

impl XmitSender {
    /// Connect to a receiver with default deadlines and retry backoff.
    pub fn connect(addr: impl ToSocketAddrs + Copy) -> Result<XmitSender, XmitError> {
        XmitSender::connect_with(addr, &TransportConfig::default())
    }

    /// Connect with explicit connect/read/write deadlines and a
    /// retry-with-backoff schedule for the connect itself, so a receiver
    /// that is still starting up (or restarting) does not fail the sender.
    pub fn connect_with(
        addr: impl ToSocketAddrs + Copy,
        cfg: &TransportConfig,
    ) -> Result<XmitSender, XmitError> {
        let stream = connect_retrying(addr, cfg).map_err(PbioError::from)?;
        Ok(XmitSender::from_stream(stream))
    }

    /// Wrap an accepted stream.
    pub fn from_stream(stream: TcpStream) -> XmitSender {
        // Frames are written whole; Nagle would park small records behind
        // delayed ACKs.  Best effort: a stream that cannot take options
        // still transmits.
        let _ = stream.set_nodelay(true);
        XmitSender { stream, announced: HashSet::new(), enc: Encoder::new() }
    }

    /// Send one record.  The format descriptor precedes the first record
    /// of each format on this connection.
    pub fn send(&mut self, rec: &RawRecord) -> Result<(), XmitError> {
        let _span = openmeta_obs::span!("transport.send");
        let id = rec.format().id();
        if self.announced.insert(id) {
            // First record of this format: the descriptor frame and the
            // record frame leave in one gather-write, so the announcement
            // never rides a separate (Nagle-delayed) segment.
            let desc = encode_descriptor(rec.format());
            let desc_hdr = frame_header(FRAME_FORMAT, &desc)?;
            let wire = self.enc.encode(rec)?;
            let rec_hdr = frame_header(FRAME_RECORD, wire)?;
            write_all_vectored(&mut self.stream, &[&desc_hdr, &desc, &rec_hdr, wire])
                .map_err(PbioError::from)?;
        } else {
            let wire = self.enc.encode(rec)?;
            write_frame(&mut self.stream, FRAME_RECORD, wire)?;
        }
        self.stream.flush().map_err(PbioError::from)?;
        Ok(())
    }

    /// Marshal counters for this sender's encoder (allocations observed
    /// and bytes copied), for steady-state zero-allocation assertions.
    pub fn marshal_stats(&self) -> openmeta_pbio::MarshalStats {
        self.enc.marshal_stats()
    }

    /// Negotiate versions for `formats` before any record flows: one
    /// `HELLO` frame carries every descriptor, and the receiver's
    /// `ACCEPT` names the verdict and target version per format — or
    /// `REJECT` refuses the connection outright
    /// ([`XmitError::Negotiation`]), so incompatible versions fail at
    /// setup instead of mid-stream.
    ///
    /// Accepted formats are marked announced: the receiver registered
    /// their descriptors from the `HELLO`, so [`XmitSender::send`] never
    /// emits a separate FORMAT frame for them.
    pub fn negotiate(&mut self, formats: &[&Arc<FormatDescriptor>]) -> Result<Accept, XmitError> {
        let _span = openmeta_obs::span!("negotiate.handshake");
        let hello = Hello::from_formats(formats);
        write_frame(&mut self.stream, FRAME_HELLO, &hello.encode())?;
        self.stream.flush().map_err(PbioError::from)?;

        // The answer is one frame; read exactly that much.
        let mut framer = LengthFramer::with_kind_byte(MAX_FRAME);
        let mut payload = Vec::new();
        let closed = || XmitError::Negotiation("connection closed during handshake".to_string());
        let kind = match read_frame_blocking(&mut self.stream, &mut framer, &mut payload) {
            Ok(Some(kind)) => kind,
            Ok(None) => return Err(closed()),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(closed()),
            Err(e) => return Err(frame_error(e)),
        };
        match reply_from_frame(kind, &payload)? {
            NegotiateReply::Accepted(accept) => {
                for entry in &accept.entries {
                    self.announced.insert(entry.sender);
                }
                Ok(accept)
            }
            NegotiateReply::Rejected(reason) => Err(XmitError::Negotiation(reason)),
        }
    }
}

/// Receives records from a TCP stream, learning formats as they arrive
/// and converting to the local registry's machine model.
pub struct XmitReceiver {
    stream: TcpStream,
    registry: Arc<FormatRegistry>,
    framer: LengthFramer,
    /// The current frame's payload, reused across frames.
    frame: Vec<u8>,
    negotiation: Arc<NegotiationCache>,
}

impl XmitReceiver {
    /// Wrap an accepted stream; decoded records are converted to
    /// `registry`'s formats when it holds a same-named registration.
    /// Handshakes are answered from the process-wide
    /// [`NegotiationCache`].
    pub fn new(stream: TcpStream, registry: Arc<FormatRegistry>) -> XmitReceiver {
        XmitReceiver {
            stream,
            registry,
            framer: LengthFramer::with_kind_byte(MAX_FRAME),
            frame: Vec::new(),
            negotiation: NegotiationCache::global().clone(),
        }
    }

    /// Answer handshakes from `cache` instead of the process-wide one
    /// (isolated caches keep tests and benchmarks honest).
    pub fn set_negotiation_cache(&mut self, cache: Arc<NegotiationCache>) {
        self.negotiation = cache;
    }

    /// Wrap an accepted stream with `cfg`'s read/write deadlines applied,
    /// so a stalled sender surfaces as a timeout error from `recv` rather
    /// than blocking forever.
    pub fn new_with(
        stream: TcpStream,
        registry: Arc<FormatRegistry>,
        cfg: &TransportConfig,
    ) -> Result<XmitReceiver, XmitError> {
        harden_stream(&stream, cfg).map_err(PbioError::from)?;
        Ok(XmitReceiver::new(stream, registry))
    }

    /// The registry formats are resolved against.
    pub fn registry(&self) -> &Arc<FormatRegistry> {
        &self.registry
    }

    /// Read one frame's payload into `self.frame` and return its kind.
    /// The untrusted-length discipline of [`read_frame_blocking`] holds:
    /// the buffer only grows as bytes arrive, and an oversized length
    /// prefix is rejected as soon as the header is complete.
    fn read_frame(&mut self) -> Result<Option<u8>, XmitError> {
        read_frame_blocking(&mut self.stream, &mut self.framer, &mut self.frame)
            .map_err(frame_error)
    }

    /// Receive the next record; `Ok(None)` when the sender hung up
    /// cleanly.
    pub fn recv(&mut self) -> Result<Option<RawRecord>, XmitError> {
        loop {
            let Some(kind) = self.read_frame()? else { return Ok(None) };
            let payload = &self.frame;
            // Scoped to frame *processing*: the blocking wait for the
            // peer's next frame would otherwise dominate the histogram.
            let _span = openmeta_obs::span!("transport.recv");
            match kind {
                FRAME_FORMAT => {
                    let desc = decode_descriptor(payload)?;
                    self.registry.register_descriptor(desc);
                }
                FRAME_RECORD => return Ok(Some(decode(payload, &self.registry)?)),
                FRAME_HELLO => {
                    // A negotiating sender: classify its offers against
                    // our registry, answer ACCEPT (and keep receiving)
                    // or REJECT (and fail the connection here, before
                    // any record rides an incompatible version).
                    let _span = openmeta_obs::span!("negotiate.respond");
                    let hello = Hello::decode(payload)?;
                    match self.negotiation.respond(&hello, &self.registry) {
                        Ok(accept) => {
                            write_frame(&mut self.stream, FRAME_ACCEPT, &accept.encode())?;
                            self.stream.flush().map_err(PbioError::from)?;
                        }
                        Err(e) => {
                            let reason = match &e {
                                XmitError::Negotiation(r) => r.clone(),
                                other => other.to_string(),
                            };
                            write_frame(&mut self.stream, FRAME_REJECT, reason.as_bytes())?;
                            self.stream.flush().map_err(PbioError::from)?;
                            return Err(e);
                        }
                    }
                }
                other => {
                    return Err(XmitError::Bcm(PbioError::BadWireData(format!(
                        "unknown frame kind {other}"
                    ))))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolkit::Xmit;
    use openmeta_pbio::MachineModel;
    use std::io::Read;
    use std::net::TcpListener;

    const XSD: &str = "http://www.w3.org/2001/XMLSchema";

    fn simple_data_xml() -> String {
        format!(
            r#"<xsd:complexType name="SimpleData" xmlns:xsd="{XSD}">
                 <xsd:element name="timestep" type="xsd:integer" />
                 <xsd:element name="data" type="xsd:float" minOccurs="0"
                     maxOccurs="*" dimensionPlacement="before" dimensionName="size" />
               </xsd:complexType>"#
        )
    }

    #[test]
    fn records_flow_with_no_prior_agreement() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();

        let receiver_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // The receiver registry starts empty: all metadata arrives
            // through the connection.
            let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
            let mut rx = XmitReceiver::new(stream, registry);
            let mut seen = Vec::new();
            while let Some(rec) = rx.recv().unwrap() {
                seen.push((rec.get_i64("timestep").unwrap(), rec.get_f64_array("data").unwrap()));
            }
            seen
        });

        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&simple_data_xml()).unwrap();
        let token = xmit.bind("SimpleData").unwrap();
        let mut tx = XmitSender::connect(addr).unwrap();
        for t in 0..5 {
            let mut rec = token.new_record();
            rec.set_i64("timestep", t).unwrap();
            rec.set_f64_array("data", &[t as f64 * 0.5; 3]).unwrap();
            tx.send(&rec).unwrap();
        }
        drop(tx);

        let seen = receiver_thread.join().unwrap();
        assert_eq!(seen.len(), 5);
        assert_eq!(seen[4].0, 4);
        assert_eq!(seen[4].1, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn descriptor_sent_once_per_format() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let counter = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut formats = 0usize;
            let mut records = 0usize;
            loop {
                let mut len_buf = [0u8; 4];
                if stream.read_exact(&mut len_buf).is_err() {
                    break;
                }
                let len = u32::from_be_bytes(len_buf) as usize;
                let mut kind = [0u8; 1];
                stream.read_exact(&mut kind).unwrap();
                let mut payload = vec![0u8; len];
                stream.read_exact(&mut payload).unwrap();
                match kind[0] {
                    FRAME_FORMAT => formats += 1,
                    FRAME_RECORD => records += 1,
                    _ => unreachable!(),
                }
            }
            (formats, records)
        });

        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&simple_data_xml()).unwrap();
        let token = xmit.bind("SimpleData").unwrap();
        let mut tx = XmitSender::connect(addr).unwrap();
        for _ in 0..10 {
            tx.send(&token.new_record()).unwrap();
        }
        drop(tx);
        assert_eq!(counter.join().unwrap(), (1, 10));
    }

    #[test]
    fn steady_state_send_does_not_allocate() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let drain = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
            let mut rx = XmitReceiver::new(stream, registry);
            let mut n = 0usize;
            while rx.recv().unwrap().is_some() {
                n += 1;
            }
            n
        });

        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&simple_data_xml()).unwrap();
        let token = xmit.bind("SimpleData").unwrap();
        let mut rec = token.new_record();
        rec.set_i64("timestep", 1).unwrap();
        rec.set_f64_array("data", &[0.25; 64]).unwrap();

        let mut tx = XmitSender::connect(addr).unwrap();
        // Warm-up: the encode buffer grows to the working-set size.
        for _ in 0..4 {
            tx.send(&rec).unwrap();
        }
        let warm = tx.marshal_stats().allocs;
        for _ in 0..64 {
            tx.send(&rec).unwrap();
        }
        assert_eq!(
            tx.marshal_stats().allocs,
            warm,
            "steady-state sends must not grow the encode buffer"
        );
        drop(tx);
        assert_eq!(drain.join().unwrap(), 68);
    }

    #[test]
    fn receiver_rejects_garbage_frames_without_panicking() {
        use std::io::Write as _;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rx_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
            let mut rx = XmitReceiver::new(stream, registry);
            rx.recv()
        });
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        // A frame with an unknown kind byte.
        s.write_all(&4u32.to_be_bytes()).unwrap();
        s.write_all(&[9u8]).unwrap();
        s.write_all(b"junk").unwrap();
        drop(s);
        assert!(rx_thread.join().unwrap().is_err());
    }

    #[test]
    fn receiver_rejects_oversized_frames() {
        use std::io::Write as _;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rx_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
            let mut rx = XmitReceiver::new(stream, registry);
            rx.recv()
        });
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        drop(s);
        assert!(rx_thread.join().unwrap().is_err());
    }

    #[test]
    fn receiver_handles_truncated_stream() {
        use std::io::Write as _;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rx_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
            let mut rx = XmitReceiver::new(stream, registry);
            rx.recv()
        });
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        // Length promises 100 bytes; connection dies after 3.
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(&[FRAME_RECORD, 1, 2]).unwrap();
        drop(s);
        assert!(rx_thread.join().unwrap().is_err());
    }

    #[test]
    fn record_for_a_format_the_receiver_never_learned_errors() {
        // A RECORD frame arriving before its FORMAT frame (out-of-order
        // sender bug) must produce UnknownFormatId, not a panic.
        use std::io::Write as _;
        let xm = Xmit::new(MachineModel::native());
        xm.load_str(&simple_data_xml()).unwrap();
        let token = xm.bind("SimpleData").unwrap();
        let wire = crate::encode(&token.new_record()).unwrap();

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rx_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let registry = Arc::new(FormatRegistry::new(MachineModel::native()));
            let mut rx = XmitReceiver::new(stream, registry);
            rx.recv()
        });
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.write_all(&(wire.len() as u32).to_be_bytes()).unwrap();
        s.write_all(&[FRAME_RECORD]).unwrap();
        s.write_all(&wire).unwrap();
        drop(s);
        let err = rx_thread.join().unwrap().unwrap_err();
        assert!(matches!(err, crate::XmitError::Bcm(openmeta_pbio::PbioError::UnknownFormatId(_))));
    }

    #[test]
    fn negotiated_link_skips_format_frames_and_converts() {
        use crate::negotiate::PairVerdict;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rx_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Receiver holds a *grown* version of the format.
            let rx_xmit = Xmit::new(MachineModel::native());
            rx_xmit
                .load_str(&format!(
                    r#"<xsd:complexType name="SimpleData" xmlns:xsd="{XSD}">
                         <xsd:element name="timestep" type="xsd:integer" />
                         <xsd:element name="data" type="xsd:float" minOccurs="0"
                             maxOccurs="*" dimensionPlacement="before" dimensionName="size" />
                         <xsd:element name="tag" type="xsd:long" />
                       </xsd:complexType>"#
                ))
                .unwrap();
            rx_xmit.bind("SimpleData").unwrap();
            let mut rx = XmitReceiver::new(stream, rx_xmit.registry().clone());
            rx.set_negotiation_cache(Arc::new(NegotiationCache::new()));
            let mut seen = Vec::new();
            while let Some(rec) = rx.recv().unwrap() {
                seen.push(rec.get_i64("timestep").unwrap());
            }
            seen
        });

        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&simple_data_xml()).unwrap();
        let token = xmit.bind("SimpleData").unwrap();
        let mut tx = XmitSender::connect(addr).unwrap();
        let accept = tx.negotiate(&[&token.format]).unwrap();
        assert_eq!(accept.verdict_for(token.format.id()), Some(PairVerdict::Projectable));
        for t in 0..3 {
            let mut rec = token.new_record();
            rec.set_i64("timestep", t).unwrap();
            tx.send(&rec).unwrap();
        }
        drop(tx);
        assert_eq!(rx_thread.join().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn incompatible_negotiation_is_rejected_at_handshake() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rx_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Receiver retyped `timestep` to a string: incompatible.
            let rx_xmit = Xmit::new(MachineModel::native());
            rx_xmit
                .load_str(&format!(
                    r#"<xsd:complexType name="SimpleData" xmlns:xsd="{XSD}">
                         <xsd:element name="timestep" type="xsd:string" />
                       </xsd:complexType>"#
                ))
                .unwrap();
            rx_xmit.bind("SimpleData").unwrap();
            let mut rx = XmitReceiver::new(stream, rx_xmit.registry().clone());
            rx.set_negotiation_cache(Arc::new(NegotiationCache::new()));
            rx.recv()
        });

        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&simple_data_xml()).unwrap();
        let token = xmit.bind("SimpleData").unwrap();
        let mut tx = XmitSender::connect(addr).unwrap();
        let err = tx.negotiate(&[&token.format]).unwrap_err();
        assert!(matches!(err, XmitError::Negotiation(_)), "{err:?}");
        assert!(err.to_string().contains("incompatible versions"), "{err}");
        // The receiver failed the same way, before any record existed.
        assert!(matches!(rx_thread.join().unwrap(), Err(XmitError::Negotiation(_))));
    }

    /// A stand-in receiver: accepts one sender, reads its whole HELLO
    /// frame, writes `reply` (possibly a partial or lying frame) and
    /// hangs up.
    fn scripted_receiver(reply: Vec<u8>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        use std::io::Write as _;
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut header = [0u8; 5];
            stream.read_exact(&mut header).unwrap();
            assert_eq!(header[4], FRAME_HELLO);
            let mut payload =
                vec![0u8; u32::from_be_bytes(header[..4].try_into().unwrap()) as usize];
            stream.read_exact(&mut payload).unwrap();
            stream.write_all(&reply).unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn negotiate_reports_eof_and_oversized_replies() {
        let xmit = Xmit::new(MachineModel::native());
        xmit.load_str(&simple_data_xml()).unwrap();
        let token = xmit.bind("SimpleData").unwrap();
        let negotiate = |reply: Vec<u8>| {
            let (addr, peer) = scripted_receiver(reply);
            let mut tx = XmitSender::connect(addr).unwrap();
            let err = tx.negotiate(&[&token.format]).unwrap_err();
            peer.join().unwrap();
            err
        };

        // The receiver hangs up before replying.
        let err = negotiate(Vec::new());
        assert!(matches!(err, XmitError::Negotiation(_)), "{err:?}");

        // The receiver hangs up mid-ACCEPT.
        let mut half = 19u32.to_be_bytes().to_vec();
        half.extend_from_slice(&[FRAME_ACCEPT, 0, 1, 0xAA]);
        let err = negotiate(half);
        assert!(matches!(err, XmitError::Negotiation(_)), "{err:?}");

        // An ACCEPT header claiming more than the frame cap.
        let mut oversized = u32::MAX.to_be_bytes().to_vec();
        oversized.push(FRAME_ACCEPT);
        let err = negotiate(oversized);
        assert!(matches!(err, XmitError::Bcm(PbioError::BadWireData(_))), "{err:?}");
    }

    #[test]
    fn cross_model_link_converts_at_receiver() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let rx_thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Receiver is a little-endian LP64 machine with its own
            // registration of the format.
            let rx_xmit = Xmit::new(MachineModel::X86_64);
            rx_xmit.load_str(&simple_data_xml()).unwrap();
            rx_xmit.bind("SimpleData").unwrap();
            let mut rx = XmitReceiver::new(stream, rx_xmit.registry().clone());
            let rec = rx.recv().unwrap().unwrap();
            assert_eq!(rec.format().machine, MachineModel::X86_64);
            (rec.get_i64("timestep").unwrap(), rec.get_f64_array("data").unwrap())
        });

        // Sender pretends to be the paper's big-endian SPARC32.
        let tx_xmit = Xmit::new(MachineModel::SPARC32);
        tx_xmit.load_str(&simple_data_xml()).unwrap();
        let token = tx_xmit.bind("SimpleData").unwrap();
        let mut rec = token.new_record();
        rec.set_i64("timestep", 77).unwrap();
        rec.set_f64_array("data", &[1.5, -2.5]).unwrap();
        let mut tx = XmitSender::connect(addr).unwrap();
        tx.send(&rec).unwrap();
        drop(tx);

        let (ts, data) = rx_thread.join().unwrap();
        assert_eq!(ts, 77);
        assert_eq!(data, vec![1.5, -2.5]);
    }
}
