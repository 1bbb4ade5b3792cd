//! Channel wire protocol: XMIT framing plus a subscription handshake.
//!
//! Frames reuse XMIT's shape — `len:u32be kind:u8 payload` — and its
//! FORMAT/RECORD kinds, so a subscribed connection *is* an XMIT stream.
//! Three handshake kinds are added in front:
//!
//! ```text
//! kind 1 FORMAT     descriptor (pbio::codec), host → subscriber
//! kind 2 RECORD     one encoded record,       host → subscriber
//! kind 3 SUBSCRIBE  subscription request,     subscriber → host
//! kind 4 SUB_OK     payload = delivered format id (u64be)
//! kind 5 SUB_ERR    payload = utf-8 reason
//! ```
//!
//! A `SUBSCRIBE` payload addresses a channel by content id and may carry
//! a projection spec and/or a version offer:
//!
//! ```text
//! channel_id: u64be
//! has_projection: u8 (0|1)
//! if 1: narrow_doubles: u8 (0|1)
//!       keep_count: u16be, then keep_count × (len:u16be utf-8)
//!       suffix: len:u16be utf-8
//! has_version: u8 (0|1)              — absent entirely on old clients
//! if 1: id: u64be, desc_len: u32be, descriptor (pbio::codec)
//! ```
//!
//! The version offer is the subscriber's *own* descriptor for the
//! channel's format: the host negotiates the pair exactly like an XMIT
//! `HELLO` and delivers records converted to the subscriber's version —
//! or answers `SUB_ERR` when the versions are incompatible.
//!
//! The handshake is one frame each way.  Both ends read it with
//! `openmeta_net::read_frame_blocking` on the connection's kind-byte
//! `LengthFramer`, which stops exactly at the frame boundary, and
//! decode it with [`subscribe_from_frame`] (host) or
//! [`reply_from_frame`] (subscriber).

use openmeta_net::frame_header;
use openmeta_pbio::codec::{decode_descriptor, encode_descriptor};
use openmeta_pbio::{FormatDescriptor, FormatId, PbioError};
use xmit::Projection;

use crate::EchoError;

/// Frame kind: format descriptor, host → subscriber.
pub const FRAME_FORMAT: u8 = 1;
/// Frame kind: one encoded record, host → subscriber.
pub const FRAME_RECORD: u8 = 2;
/// Frame kind: subscription request, subscriber → host.
pub const FRAME_SUBSCRIBE: u8 = 3;
/// Frame kind: subscription accepted (payload = delivered format id).
pub const FRAME_SUB_OK: u8 = 4;
/// Frame kind: subscription refused (payload = utf-8 reason).
pub const FRAME_SUB_ERR: u8 = 5;

/// Upper bound on any frame, matching `xmit::messaging`.
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Build one contiguous frame (`len kind payload…`) into `out` from a
/// payload that already exists.  Contiguity is what lets one buffer be
/// shared, via `Arc`, across every subscriber of a group.
pub(crate) fn build_frame(out: &mut Vec<u8>, kind: u8, parts: &[&[u8]]) -> Result<(), EchoError> {
    write_frame_into(out, kind, |out| {
        for part in parts {
            out.extend_from_slice(part);
        }
        Ok(())
    })
}

/// Build one frame into `out` whose payload `write` appends in place:
/// the 5-byte header is reserved first and patched once the payload's
/// length is known, so the payload is written once and never copied.
pub(crate) fn write_frame_into(
    out: &mut Vec<u8>,
    kind: u8,
    write: impl FnOnce(&mut Vec<u8>) -> Result<(), EchoError>,
) -> Result<(), EchoError> {
    let start = out.len();
    out.extend_from_slice(&[0; 5]);
    write(out)?;
    let header =
        frame_header(out.len() - start - 5, Some(kind), MAX_FRAME).map_err(PbioError::from)?;
    out[start..start + 5].copy_from_slice(&header);
    Ok(())
}

/// Classify an error from `read_frame_blocking`: an oversized length
/// prefix is bad wire data; anything else belongs to the socket.
pub(crate) fn read_error(e: std::io::Error) -> EchoError {
    if e.kind() == std::io::ErrorKind::InvalidData {
        EchoError::Bcm(PbioError::BadWireData(e.to_string()))
    } else {
        EchoError::Io(e)
    }
}

/// What a subscriber asks of a channel.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscribeRequest {
    /// Content id of the channel's (full) format.
    pub channel: FormatId,
    /// `None` subscribes to full-fat records; `Some` requests a derived
    /// channel carrying only the projected fields.
    pub projection: Option<Projection>,
    /// `Some` offers the subscriber's own version of the channel format:
    /// the host converts each event to it (or refuses the seat when the
    /// versions are incompatible).  Mutually exclusive with
    /// `projection`.
    pub version: Option<FormatDescriptor>,
}

impl SubscribeRequest {
    /// Serialize into a `SUBSCRIBE` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.channel.0.to_be_bytes());
        match &self.projection {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.push(u8::from(p.narrow_doubles));
                out.extend_from_slice(&(p.keep.len().min(u16::MAX as usize) as u16).to_be_bytes());
                for name in &p.keep {
                    push_str(&mut out, name);
                }
                push_str(&mut out, &p.rename_suffix);
            }
        }
        match &self.version {
            None => out.push(0),
            Some(desc) => {
                out.push(1);
                out.extend_from_slice(&desc.id().0.to_be_bytes());
                let bytes = encode_descriptor(desc);
                out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Parse a `SUBSCRIBE` frame payload.
    pub fn decode(payload: &[u8]) -> Result<SubscribeRequest, EchoError> {
        let mut cur = Cursor { buf: payload, pos: 0 };
        let channel = FormatId(u64::from_be_bytes(cur.take::<8>()?));
        let projection = match cur.byte()? {
            0 => None,
            1 => {
                let narrow_doubles = cur.byte()? != 0;
                let n = u16::from_be_bytes(cur.take::<2>()?) as usize;
                let mut keep = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    keep.push(cur.string()?);
                }
                let rename_suffix = cur.string()?;
                Some(Projection { keep, narrow_doubles, rename_suffix })
            }
            other => {
                return Err(EchoError::Bcm(PbioError::BadWireData(format!(
                    "bad projection flag {other}"
                ))))
            }
        };
        // Old clients end the payload here; the version section is
        // optional on the wire so a pre-negotiation subscriber still
        // parses.
        let version = if cur.pos == payload.len() {
            None
        } else {
            match cur.byte()? {
                0 => None,
                1 => {
                    let id = FormatId(u64::from_be_bytes(cur.take::<8>()?));
                    let len = u32::from_be_bytes(cur.take::<4>()?) as usize;
                    let bytes = cur.slice(len)?;
                    let desc = decode_descriptor(bytes).map_err(EchoError::Bcm)?;
                    if desc.id() != id {
                        return Err(EchoError::Bcm(PbioError::BadWireData(format!(
                            "subscribe version id {} does not match descriptor content id {}",
                            id.0,
                            desc.id().0
                        ))));
                    }
                    Some(desc)
                }
                other => {
                    return Err(EchoError::Bcm(PbioError::BadWireData(format!(
                        "bad version flag {other}"
                    ))))
                }
            }
        };
        if cur.pos != payload.len() {
            return Err(EchoError::Bcm(PbioError::BadWireData(
                "trailing bytes after subscribe request".to_string(),
            )));
        }
        Ok(SubscribeRequest { channel, projection, version })
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = &s.as_bytes()[..s.len().min(u16::MAX as usize)];
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

/// Bounds-checked reader over an untrusted payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], EchoError> {
        let end = self.pos.checked_add(N).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            EchoError::Bcm(PbioError::BadWireData("truncated subscribe request".to_string()))
        })?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8, EchoError> {
        Ok(self.take::<1>()?[0])
    }

    fn slice(&mut self, len: usize) -> Result<&[u8], EchoError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            EchoError::Bcm(PbioError::BadWireData("truncated subscribe request".to_string()))
        })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn string(&mut self) -> Result<String, EchoError> {
        let len = u16::from_be_bytes(self.take::<2>()?) as usize;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            EchoError::Bcm(PbioError::BadWireData("truncated subscribe string".to_string()))
        })?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|e| EchoError::Bcm(PbioError::BadWireData(e.to_string())))?
            .to_string();
        self.pos = end;
        Ok(s)
    }
}

// ---------------------------------------------------- handshake frames

/// Decode the subscriber's first frame — the host's whole handshake
/// input.  Anything but a well-formed `SUBSCRIBE` refuses the seat (the
/// host answers `SUB_ERR` where the socket still permits, then drops).
pub fn subscribe_from_frame(kind: u8, payload: &[u8]) -> Result<SubscribeRequest, EchoError> {
    if kind != FRAME_SUBSCRIBE {
        return Err(EchoError::Rejected(format!("expected SUBSCRIBE frame, got kind {kind}")));
    }
    SubscribeRequest::decode(payload)
}

/// The host's answer to a subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeReply {
    /// `SUB_OK`: the content id of the format this seat will receive
    /// (the projected format's id on a derived channel).
    Accepted(FormatId),
    /// `SUB_ERR`: the host's reason for refusing.
    Rejected(String),
}

/// Decode the host's first frame: exactly one `SUB_OK`/`SUB_ERR`.
///
/// After `SUB_OK` the same connection carries ordinary FORMAT/RECORD
/// frames; the subscriber keeps reading them through the framer that
/// delivered this reply, so delivery bytes pipelined behind `SUB_OK`
/// stay buffered there.
pub fn reply_from_frame(kind: u8, payload: &[u8]) -> Result<HandshakeReply, EchoError> {
    match kind {
        FRAME_SUB_OK => {
            let id: [u8; 8] = payload.try_into().map_err(|_| {
                EchoError::Bcm(PbioError::BadWireData("malformed SUB_OK".to_string()))
            })?;
            Ok(HandshakeReply::Accepted(FormatId(u64::from_be_bytes(id))))
        }
        FRAME_SUB_ERR => {
            Ok(HandshakeReply::Rejected(String::from_utf8_lossy(payload).into_owned()))
        }
        kind => Err(EchoError::Bcm(PbioError::BadWireData(format!(
            "unexpected handshake frame kind {kind}"
        )))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmeta_net::LengthFramer;

    fn version_desc() -> FormatDescriptor {
        use openmeta_pbio::{FormatRegistry, FormatSpec, IOField, MachineModel};
        let reg = FormatRegistry::new(MachineModel::native());
        (*reg.register(FormatSpec::new("T", vec![IOField::auto("x", "integer", 4)])).unwrap())
            .clone()
    }

    #[test]
    fn subscribe_roundtrips_identity() {
        let req = SubscribeRequest {
            channel: FormatId(0xDEAD_BEEF_0123),
            projection: None,
            version: None,
        };
        assert_eq!(SubscribeRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn subscribe_roundtrips_projection() {
        let req = SubscribeRequest {
            channel: FormatId(7),
            projection: Some(Projection {
                keep: vec!["timestep".to_string(), "depth".to_string()],
                narrow_doubles: true,
                rename_suffix: "Handheld".to_string(),
            }),
            version: None,
        };
        assert_eq!(SubscribeRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn subscribe_roundtrips_version_offer() {
        let req = SubscribeRequest {
            channel: FormatId(7),
            projection: None,
            version: Some(version_desc()),
        };
        let back = SubscribeRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.version.unwrap().id(), version_desc().id());

        // A lying id is rejected (the descriptor's recomputed content id
        // is the ground truth).
        let mut wire = req.encode();
        wire[10] ^= 1; // inside the version id
        assert!(SubscribeRequest::decode(&wire).is_err());
    }

    #[test]
    fn old_client_payload_without_version_section_still_parses() {
        // An old client's payload ends right after the projection flag.
        let mut wire = 7u64.to_be_bytes().to_vec();
        wire.push(0);
        let req = SubscribeRequest::decode(&wire).unwrap();
        assert_eq!(req.channel, FormatId(7));
        assert_eq!(req.projection, None);
        assert_eq!(req.version, None);
    }

    #[test]
    fn truncated_and_trailing_payloads_rejected() {
        let good = SubscribeRequest {
            channel: FormatId(7),
            projection: Some(Projection::keeping(["x"])),
            version: Some(version_desc()),
        }
        .encode();
        // Every truncation fails except the old-client boundary right
        // before the version section (which parses as version: None).
        // Version section = flag(1) + id(8) + len(4) + descriptor.
        let boundary = good.len() - 13 - encode_descriptor(&version_desc()).len();
        for cut in 0..good.len() {
            let decoded = SubscribeRequest::decode(&good[..cut]);
            if cut == boundary {
                assert_eq!(decoded.unwrap().version, None);
            } else {
                assert!(decoded.is_err(), "cut at {cut}");
            }
        }
        let mut trailing = good;
        trailing.push(0);
        assert!(SubscribeRequest::decode(&trailing).is_err());
    }

    #[test]
    fn frame_layout_matches_xmit() {
        let mut frame = Vec::new();
        build_frame(&mut frame, FRAME_RECORD, &[b"abc", b"de"]).unwrap();
        assert_eq!(frame, [0, 0, 0, 5, FRAME_RECORD, b'a', b'b', b'c', b'd', b'e']);
    }

    fn subscribe_frame(req: &SubscribeRequest) -> Vec<u8> {
        let mut frame = Vec::new();
        build_frame(&mut frame, FRAME_SUBSCRIBE, &[&req.encode()]).unwrap();
        frame
    }

    #[test]
    fn subscribe_frame_decodes_byte_at_a_time() {
        let req = SubscribeRequest { channel: FormatId(11), projection: None, version: None };
        let mut framer = LengthFramer::with_kind_byte(MAX_FRAME);
        for b in &subscribe_frame(&req) {
            assert!(framer.next_frame().unwrap().is_none());
            assert!(framer.bytes_needed() > 0);
            framer.push(&[*b]);
        }
        let (kind, payload) = framer.next_frame().unwrap().expect("whole frame");
        assert_eq!(subscribe_from_frame(kind, &payload).unwrap(), req);
    }

    #[test]
    fn subscribe_rejects_wrong_kind_and_leaves_trailing_bytes_unread() {
        assert!(matches!(subscribe_from_frame(FRAME_RECORD, b"zz"), Err(EchoError::Rejected(_))));

        // Bytes behind SUBSCRIBE stay in the framer: the handshake reads
        // one frame and never looks further.
        let req = SubscribeRequest { channel: FormatId(1), projection: None, version: None };
        let mut wire = subscribe_frame(&req);
        wire.push(0xFF);
        let mut framer = LengthFramer::with_kind_byte(MAX_FRAME);
        framer.push(&wire);
        let (kind, payload) = framer.next_frame().unwrap().unwrap();
        assert_eq!(subscribe_from_frame(kind, &payload).unwrap(), req);
        assert_eq!(framer.buffered(), 1);
    }

    #[test]
    fn deeply_nested_version_offer_is_rejected() {
        // A version offer whose descriptor nests 5 000 levels deep.  Each
        // level carries the SPARC32 machine tag 0x00804041.
        let level = [
            0, 1, b'N', 0x00, 0x80, 0x40, 0x41, 0, 0, 0, 8, 8, 0, 1, 0, 1, b'f', 0, 0, 0, 0, 0, 0,
            0, 8, 8, 4,
        ];
        let mut desc = level.repeat(5_000);
        desc.extend_from_slice(&[0, 1, b'L', 0x00, 0x80, 0x40, 0x41, 0, 0, 0, 0, 1, 0, 0]);
        let mut payload = 7u64.to_be_bytes().to_vec();
        payload.extend_from_slice(&[0, 1]);
        payload.extend_from_slice(&0u64.to_be_bytes());
        payload.extend_from_slice(&(desc.len() as u32).to_be_bytes());
        payload.extend_from_slice(&desc);
        let err = subscribe_from_frame(FRAME_SUBSCRIBE, &payload).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn reply_frame_keeps_delivery_bytes_in_the_framer() {
        let mut wire = Vec::new();
        build_frame(&mut wire, FRAME_SUB_OK, &[&7u64.to_be_bytes()]).unwrap();
        build_frame(&mut wire, FRAME_FORMAT, &[b"descriptor-bytes"]).unwrap();
        let mut framer = LengthFramer::with_kind_byte(MAX_FRAME);
        framer.push(&wire);
        let (kind, payload) = framer.next_frame().unwrap().unwrap();
        assert_eq!(
            reply_from_frame(kind, &payload).unwrap(),
            HandshakeReply::Accepted(FormatId(7))
        );
        let (kind, payload) = framer.next_frame().unwrap().expect("delivery frame intact");
        assert_eq!(kind, FRAME_FORMAT);
        assert_eq!(payload, b"descriptor-bytes");
    }

    #[test]
    fn reply_surfaces_rejection_and_bad_kinds() {
        assert_eq!(
            reply_from_frame(FRAME_SUB_ERR, b"no such channel").unwrap(),
            HandshakeReply::Rejected("no such channel".to_string())
        );
        assert!(reply_from_frame(FRAME_RECORD, b"x").is_err());
        assert!(
            reply_from_frame(FRAME_SUB_OK, b"short").is_err(),
            "SUB_OK payload must be exactly 8 bytes"
        );
    }
}
