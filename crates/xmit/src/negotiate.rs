//! Version negotiation: a HELLO/ACCEPT/REJECT handshake at connection
//! setup.
//!
//! Receivers already "make right" against whatever arrives, but nothing
//! told a *sender* which version flows on the wire, and the first
//! cross-version message paid plan compilation inline.  This module
//! moves that exchange to connection setup:
//!
//! ```text
//! frame := len:u32be kind:u8 payload        (xmit::messaging framing)
//!          kind 6 HELLO   sender's format offers, sender → receiver
//!          kind 7 ACCEPT  per-offer verdicts,     receiver → sender
//!          kind 8 REJECT  utf-8 reason,           receiver → sender
//!
//! HELLO  := count:u16be, count × (id:u64be desc_len:u32be descriptor)
//! ACCEPT := count:u16be, count × (sender_id:u64be verdict:u8 receiver_id:u64be)
//! ```
//!
//! The sender offers each format's content id plus its full descriptor
//! (`pbio::codec`).  The receiver classifies every offer against its
//! own same-named binding ([`classify`], built on
//! [`evolution::diff_descriptors`](crate::evolution::diff_descriptors)),
//! compiles the cross-version convert plan **once per (sender-id,
//! receiver-id) pair** through the registry, which certifies it with
//! [`pbio::verify`](openmeta_pbio::verify) *before it ever runs* (in
//! every build), and answers ACCEPT with a [`PairVerdict`] per offer —
//! or REJECT if any offer is incompatible, so a doomed connection dies
//! at setup instead of mid-stream.
//!
//! Outcomes are cached in a [`NegotiationCache`] keyed by the id pair:
//! reconnects and sibling connections between the same two versions
//! cost one map lookup (counted in
//! `openmeta_negotiate_pair_cache_hits_total`), zero diffs and zero
//! plan compiles.  Each direction of the handshake is one frame, read
//! through `xmit::messaging`'s `LengthFramer`: the receiver decodes the
//! `HELLO` with [`Hello::decode`] wherever it arrives in its stream, and
//! the sender decodes the answer with [`reply_from_frame`].  The
//! analyzer's split-schedule checker explores that same framer and
//! those same decoders.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use openmeta_obs::sync::{self, RwLock};
use openmeta_obs::{Counter, MetricsRegistry};
use openmeta_pbio::codec::{decode_descriptor, encode_descriptor};
use openmeta_pbio::{FormatDescriptor, FormatId, FormatRegistry, PbioError};

use crate::error::XmitError;
use crate::evolution::{diff_descriptors, Compatibility, EvolutionReport, FieldChange};

/// Frame kind: sender's format offers (`HELLO`).
pub const FRAME_HELLO: u8 = 6;
/// Frame kind: receiver's per-offer verdicts (`ACCEPT`).
pub const FRAME_ACCEPT: u8 = 7;
/// Frame kind: receiver refuses the connection (`REJECT`, utf-8 reason).
pub const FRAME_REJECT: u8 = 8;

fn bad(msg: impl Into<String>) -> XmitError {
    XmitError::Bcm(PbioError::BadWireData(msg.into()))
}

/// One format a sender proposes to transmit: its content id plus the
/// full descriptor, so the receiver can register and diff it without a
/// round trip to a format server.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionOffer {
    /// Content id the sender will stamp on records.
    pub id: FormatId,
    /// The sender's resolved descriptor (its machine's layout).
    pub descriptor: FormatDescriptor,
}

/// A `HELLO` payload: every format the sender intends to use on this
/// connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The offered formats, in sender-preference order.
    pub offers: Vec<VersionOffer>,
}

impl Hello {
    /// Offer each of `formats`.
    pub fn from_formats(formats: &[&Arc<FormatDescriptor>]) -> Hello {
        Hello {
            offers: formats
                .iter()
                .map(|f| VersionOffer { id: f.id(), descriptor: (***f).clone() })
                .collect(),
        }
    }

    /// Serialize into a `HELLO` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&(self.offers.len().min(u16::MAX as usize) as u16).to_be_bytes());
        for offer in &self.offers {
            out.extend_from_slice(&offer.id.0.to_be_bytes());
            let desc = encode_descriptor(&offer.descriptor);
            out.extend_from_slice(&(desc.len() as u32).to_be_bytes());
            out.extend_from_slice(&desc);
        }
        out
    }

    /// Parse a `HELLO` frame payload.  The wire id of every offer must
    /// match the descriptor's recomputed content id: a sender that lies
    /// about identity would poison the receiver's pair cache.
    pub fn decode(payload: &[u8]) -> Result<Hello, XmitError> {
        let mut cur = Cursor { buf: payload, pos: 0 };
        let count = u16::from_be_bytes(cur.take::<2>()?) as usize;
        let mut offers = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let id = FormatId(u64::from_be_bytes(cur.take::<8>()?));
            let len = u32::from_be_bytes(cur.take::<4>()?) as usize;
            let bytes = cur.slice(len)?;
            let descriptor = decode_descriptor(bytes)?;
            if descriptor.id() != id {
                return Err(bad(format!(
                    "HELLO offer id {} does not match descriptor content id {} for '{}'",
                    id.0,
                    descriptor.id().0,
                    descriptor.name
                )));
            }
            offers.push(VersionOffer { id, descriptor });
        }
        if cur.pos != payload.len() {
            return Err(bad("trailing bytes after HELLO offers"));
        }
        Ok(Hello { offers })
    }
}

/// The receiver's verdict for one (sender version, receiver version)
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairVerdict {
    /// Same content id: records decode on the fast path, no conversion.
    Identical,
    /// Same field set, different widths or byte order — a certified
    /// convert plan runs per record; values may truncate where a width
    /// shrank.
    Widening,
    /// The field sets differ (grown/shrunk/reordered versions); the
    /// receiver sees its own projection of the sender's records.
    Projectable,
    /// A shared field changed category; the connection is refused at
    /// handshake.
    Incompatible,
}

impl PairVerdict {
    /// Wire encoding of the verdict.
    pub fn wire(self) -> u8 {
        match self {
            PairVerdict::Identical => 0,
            PairVerdict::Widening => 1,
            PairVerdict::Projectable => 2,
            PairVerdict::Incompatible => 3,
        }
    }

    /// Decode a wire verdict byte.
    pub fn from_wire(byte: u8) -> Option<PairVerdict> {
        match byte {
            0 => Some(PairVerdict::Identical),
            1 => Some(PairVerdict::Widening),
            2 => Some(PairVerdict::Projectable),
            3 => Some(PairVerdict::Incompatible),
            _ => None,
        }
    }

    /// Can records flow under this verdict?
    pub fn is_compatible(self) -> bool {
        !matches!(self, PairVerdict::Incompatible)
    }
}

/// One line of an `ACCEPT`: the agreed wire version for one offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptEntry {
    /// The offered (sender-side) content id — what records will carry.
    pub sender: FormatId,
    /// How the receiver will treat records of this format.
    pub verdict: PairVerdict,
    /// Content id of the receiver-side format records resolve to.
    pub receiver: FormatId,
}

/// An `ACCEPT` payload: one entry per offer, in offer order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Accept {
    /// Per-offer verdicts.
    pub entries: Vec<AcceptEntry>,
}

impl Accept {
    /// Serialize into an `ACCEPT` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 17 * self.entries.len());
        out.extend_from_slice(&(self.entries.len().min(u16::MAX as usize) as u16).to_be_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.sender.0.to_be_bytes());
            out.push(e.verdict.wire());
            out.extend_from_slice(&e.receiver.0.to_be_bytes());
        }
        out
    }

    /// Parse an `ACCEPT` frame payload.
    pub fn decode(payload: &[u8]) -> Result<Accept, XmitError> {
        let mut cur = Cursor { buf: payload, pos: 0 };
        let count = u16::from_be_bytes(cur.take::<2>()?) as usize;
        let mut entries = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let sender = FormatId(u64::from_be_bytes(cur.take::<8>()?));
            let verdict_byte = cur.take::<1>()?[0];
            let verdict = PairVerdict::from_wire(verdict_byte)
                .ok_or_else(|| bad(format!("unknown ACCEPT verdict byte {verdict_byte}")))?;
            let receiver = FormatId(u64::from_be_bytes(cur.take::<8>()?));
            entries.push(AcceptEntry { sender, verdict, receiver });
        }
        if cur.pos != payload.len() {
            return Err(bad("trailing bytes after ACCEPT entries"));
        }
        Ok(Accept { entries })
    }

    /// The verdict for an offered format, if it was answered.
    pub fn verdict_for(&self, sender: FormatId) -> Option<PairVerdict> {
        self.entries.iter().find(|e| e.sender == sender).map(|e| e.verdict)
    }
}

/// The receiver's answer, as seen by the sender.
#[derive(Debug, Clone, PartialEq)]
pub enum NegotiateReply {
    /// `ACCEPT`: every offer has a verdict; records may flow.
    Accepted(Accept),
    /// `REJECT`: the receiver's reason; the connection is unusable.
    Rejected(String),
}

/// Bounds-checked reader over an untrusted payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], XmitError> {
        let end = self
            .pos
            .checked_add(N)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated negotiation payload"))?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(out)
    }

    fn slice(&mut self, len: usize) -> Result<&'a [u8], XmitError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated negotiation payload"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
}

/// Decode the receiver's one-frame answer to a `HELLO`: `ACCEPT` or
/// `REJECT`.  The sender reads that frame with `read_frame_blocking`
/// and hands it here.
pub fn reply_from_frame(kind: u8, payload: &[u8]) -> Result<NegotiateReply, XmitError> {
    match kind {
        FRAME_ACCEPT => Accept::decode(payload).map(NegotiateReply::Accepted),
        FRAME_REJECT => Ok(NegotiateReply::Rejected(String::from_utf8_lossy(payload).into_owned())),
        kind => {
            Err(XmitError::Negotiation(format!("expected ACCEPT or REJECT frame, got kind {kind}")))
        }
    }
}

// ------------------------------------------------------ classification

/// Classify a (sender version, receiver version) pair.
///
/// Same content id is [`PairVerdict::Identical`] without a diff.
/// Otherwise [`diff_descriptors`] decides: a category change anywhere is
/// [`PairVerdict::Incompatible`]; width-only drift (including pure
/// byte-order differences) is [`PairVerdict::Widening`]; everything else
/// — grown, shrunk, reordered field sets — is
/// [`PairVerdict::Projectable`].
pub fn classify(
    sender: &FormatDescriptor,
    receiver: &FormatDescriptor,
) -> (PairVerdict, EvolutionReport) {
    if sender.id() == receiver.id() {
        return (
            PairVerdict::Identical,
            EvolutionReport { compatibility: Compatibility::Identical, changes: Vec::new() },
        );
    }
    let report = diff_descriptors(sender, receiver);
    let verdict = match report.compatibility {
        Compatibility::Breaking => PairVerdict::Incompatible,
        Compatibility::Lossy => PairVerdict::Widening,
        // Identical can't occur here (ids differ ⇒ descriptors differ);
        // Compatible covers field-set changes and layout-only drift.
        _ => PairVerdict::Projectable,
    };
    (verdict, report)
}

fn reject_reason(name: &str, report: &EvolutionReport) -> String {
    let retyped: Vec<String> = report
        .changes
        .iter()
        .filter_map(|c| match c {
            FieldChange::Retyped { name, old_kind, new_kind } => {
                Some(format!("{name}: {old_kind} -> {new_kind}"))
            }
            _ => None,
        })
        .collect();
    format!("incompatible versions of '{name}' ({})", retyped.join(", "))
}

// -------------------------------------------------------- pair cache

#[derive(Debug, Clone)]
struct CachedPair {
    verdict: PairVerdict,
    /// `Some` when the pair was refused: the reason is replayed on every
    /// reconnect without re-diffing.
    reject: Option<String>,
}

/// Point-in-time counters of a [`NegotiationCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NegotiationStats {
    /// Handshake offers answered straight from the pair cache.
    pub hits: u64,
    /// Offers that paid the diff (and, when converting, the plan compile
    /// + certification).
    pub misses: u64,
    /// Offers refused as incompatible (first encounters only; cached
    /// rejections count as hits).
    pub rejected: u64,
}

/// Memoized negotiation outcomes, keyed by (sender-id, receiver-id).
///
/// The cache makes steady-state negotiation free: the first contact
/// between two versions pays one descriptor diff, one convert-plan
/// compile and one `pbio::verify` certification; every later handshake
/// between the same pair — reconnects, sibling connections, other
/// channels — is a read-locked map probe.  Counters are registered in
/// the global metrics registry (`openmeta_negotiate_pair_cache_*`,
/// `openmeta_negotiate_rejected_total`).
pub struct NegotiationCache {
    pairs: RwLock<HashMap<(FormatId, FormatId), CachedPair>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    rejected: Arc<Counter>,
}

impl NegotiationCache {
    /// An empty cache with its own counter instances (the process-global
    /// metrics see every instance summed).
    pub fn new() -> NegotiationCache {
        let m = MetricsRegistry::global();
        NegotiationCache {
            pairs: RwLock::new(HashMap::new()),
            hits: m.counter("openmeta_negotiate_pair_cache_hits_total"),
            misses: m.counter("openmeta_negotiate_pair_cache_misses_total"),
            rejected: m.counter("openmeta_negotiate_rejected_total"),
        }
    }

    /// The process-wide cache, shared by every receiver that does not
    /// install its own: one fleet of connections amortizes together.
    pub fn global() -> &'static Arc<NegotiationCache> {
        static GLOBAL: OnceLock<Arc<NegotiationCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(NegotiationCache::new()))
    }

    /// This cache's counters (not the global sums).
    pub fn stats(&self) -> NegotiationStats {
        NegotiationStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            rejected: self.rejected.get(),
        }
    }

    /// Distinct (sender, receiver) pairs decided so far.
    pub fn len(&self) -> usize {
        sync::read(&self.pairs).len()
    }

    /// `true` when no pair has been decided yet.
    pub fn is_empty(&self) -> bool {
        sync::read(&self.pairs).is_empty()
    }

    /// Decide (or replay) the verdict for one pair.  On first contact
    /// this diffs the descriptors, and — when a conversion is needed —
    /// compiles the convert plan through `registry`'s cache, which
    /// certifies it with [`pbio::verify`](openmeta_pbio::verify) before
    /// caching it.  `Err(XmitError::Negotiation)` means the pair is
    /// refused: incompatible categories, or a plan that did not compile
    /// or failed certification.
    pub fn negotiate_pair(
        &self,
        registry: &FormatRegistry,
        sender: &Arc<FormatDescriptor>,
        receiver: &Arc<FormatDescriptor>,
    ) -> Result<PairVerdict, XmitError> {
        let key = (sender.id(), receiver.id());
        if let Some(cached) = sync::read(&self.pairs).get(&key) {
            self.hits.inc();
            return match &cached.reject {
                None => Ok(cached.verdict),
                Some(reason) => Err(XmitError::Negotiation(reason.clone())),
            };
        }
        self.misses.inc();
        let (verdict, report) = classify(sender, receiver);
        let reject = if verdict == PairVerdict::Incompatible {
            Some(reject_reason(&sender.name, &report))
        } else if verdict != PairVerdict::Identical {
            // The cross-version plan is compiled once per pair, here, and
            // certified by the registry before any record rides it.  The
            // registry caches it under the same (sender, receiver) key, so
            // the decode path's `convert_plan` lookup is a guaranteed
            // cache hit.
            registry.convert_plan(sender, receiver).err().map(|e| {
                format!("convert plan '{}' -> '{}' refused: {e}", sender.name, receiver.name)
            })
        } else {
            None
        };
        if reject.is_some() {
            self.rejected.inc();
        }
        let outcome = match &reject {
            None => Ok(verdict),
            Some(reason) => Err(XmitError::Negotiation(reason.clone())),
        };
        sync::write(&self.pairs).entry(key).or_insert(CachedPair { verdict, reject });
        outcome
    }

    /// Answer a `HELLO` against `registry`: register every offered
    /// descriptor (id-addressable only — the receiver's own bindings are
    /// never displaced), resolve each offer to the receiver's same-named
    /// binding (or adopt the sender's version verbatim when none
    /// exists), and decide every pair.  `Err(XmitError::Negotiation)`
    /// rejects the whole connection — one incompatible format must not
    /// half-work.
    pub fn respond(&self, hello: &Hello, registry: &FormatRegistry) -> Result<Accept, XmitError> {
        let mut entries = Vec::with_capacity(hello.offers.len());
        for offer in &hello.offers {
            let sender = registry.register_descriptor(offer.descriptor.clone());
            let receiver = registry.lookup_name(&sender.name).unwrap_or_else(|| sender.clone());
            let verdict = self.negotiate_pair(registry, &sender, &receiver)?;
            entries.push(AcceptEntry { sender: offer.id, verdict, receiver: receiver.id() });
        }
        Ok(Accept { entries })
    }
}

impl Default for NegotiationCache {
    fn default() -> NegotiationCache {
        NegotiationCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openmeta_pbio::{FormatSpec, IOField, MachineModel};

    fn desc(fields: Vec<IOField>) -> Arc<FormatDescriptor> {
        let reg = FormatRegistry::new(MachineModel::native());
        reg.register(FormatSpec::new("T", fields)).unwrap()
    }

    fn v1() -> Arc<FormatDescriptor> {
        desc(vec![IOField::auto("x", "integer", 4), IOField::auto("y", "float", 8)])
    }

    fn v2() -> Arc<FormatDescriptor> {
        desc(vec![
            IOField::auto("x", "integer", 4),
            IOField::auto("y", "float", 8),
            IOField::auto("z", "integer", 8),
        ])
    }

    fn retyped() -> Arc<FormatDescriptor> {
        desc(vec![IOField::auto("x", "string", 8), IOField::auto("y", "float", 8)])
    }

    #[test]
    fn hello_roundtrips() {
        let hello = Hello::from_formats(&[&v1(), &v2()]);
        let back = Hello::decode(&hello.encode()).unwrap();
        assert_eq!(back, hello);
        assert_eq!(back.offers[0].id, v1().id());
    }

    #[test]
    fn hello_rejects_lying_ids_truncation_and_trailing_bytes() {
        let mut wire = Hello::from_formats(&[&v1()]).encode();
        // Flip a bit in the offered id: the recomputed descriptor id no
        // longer matches.
        wire[5] ^= 1;
        assert!(Hello::decode(&wire).is_err());

        let good = Hello::from_formats(&[&v1()]).encode();
        for cut in 1..good.len() {
            assert!(Hello::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = good;
        trailing.push(0);
        assert!(Hello::decode(&trailing).is_err());
    }

    #[test]
    fn accept_roundtrips_and_rejects_bad_verdicts() {
        let accept = Accept {
            entries: vec![
                AcceptEntry {
                    sender: FormatId(7),
                    verdict: PairVerdict::Projectable,
                    receiver: FormatId(9),
                },
                AcceptEntry {
                    sender: FormatId(8),
                    verdict: PairVerdict::Identical,
                    receiver: FormatId(8),
                },
            ],
        };
        let back = Accept::decode(&accept.encode()).unwrap();
        assert_eq!(back, accept);
        assert_eq!(back.verdict_for(FormatId(7)), Some(PairVerdict::Projectable));
        assert_eq!(back.verdict_for(FormatId(99)), None);

        let mut wire = accept.encode();
        wire[10] = 9; // first entry's verdict byte
        assert!(Accept::decode(&wire).is_err());
    }

    #[test]
    fn classify_maps_report_verdicts() {
        let (verdict, _) = classify(&v1(), &v1());
        assert_eq!(verdict, PairVerdict::Identical);
        let (verdict, _) = classify(&v1(), &v2());
        assert_eq!(verdict, PairVerdict::Projectable);
        let (verdict, _) = classify(&v1(), &retyped());
        assert_eq!(verdict, PairVerdict::Incompatible);
        let widened = desc(vec![IOField::auto("x", "integer", 8), IOField::auto("y", "float", 8)]);
        let (verdict, _) = classify(&v1(), &widened);
        assert_eq!(verdict, PairVerdict::Widening);
    }

    #[test]
    fn hello_frame_splits_cleanly_and_keeps_delivery_bytes() {
        let hello = Hello::from_formats(&[&v1()]);
        let payload = hello.encode();
        let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
        frame.push(FRAME_HELLO);
        frame.extend_from_slice(&payload);
        // Delivery bytes pipelined behind the HELLO.
        frame.extend_from_slice(&[0, 0, 0, 1, 2, 0xAB]);

        let mut framer = openmeta_net::LengthFramer::with_kind_byte(1 << 20);
        let mut got = None;
        for b in frame {
            if got.is_none() {
                assert!(framer.bytes_needed() > 0);
            }
            framer.push(&[b]);
            if got.is_none() {
                got = framer.next_frame().unwrap();
            }
        }
        let (kind, payload) = got.expect("whole HELLO");
        assert_eq!(kind, FRAME_HELLO);
        assert_eq!(Hello::decode(&payload).unwrap(), hello);
        let (kind, payload) = framer.next_frame().unwrap().expect("delivery frame intact");
        assert_eq!((kind, payload.as_slice()), (2u8, &[0xAB][..]));
    }

    #[test]
    fn reply_surfaces_accept_reject_and_bad_kinds() {
        let accept = Accept {
            entries: vec![AcceptEntry {
                sender: FormatId(1),
                verdict: PairVerdict::Identical,
                receiver: FormatId(1),
            }],
        };
        assert_eq!(
            reply_from_frame(FRAME_ACCEPT, &accept.encode()).unwrap(),
            NegotiateReply::Accepted(accept)
        );
        assert_eq!(
            reply_from_frame(FRAME_REJECT, b"nope").unwrap(),
            NegotiateReply::Rejected("nope".to_string())
        );
        // A RECORD before the reply.
        assert!(matches!(reply_from_frame(2, &[0]), Err(XmitError::Negotiation(_))));
    }

    #[test]
    fn deeply_nested_offer_is_rejected() {
        // One offer whose descriptor nests 5 000 levels deep.  Each
        // level carries the SPARC32 machine tag 0x00804041.
        let level = [
            0, 1, b'N', 0x00, 0x80, 0x40, 0x41, 0, 0, 0, 8, 8, 0, 1, 0, 1, b'f', 0, 0, 0, 0, 0, 0,
            0, 8, 8, 4,
        ];
        let mut desc = level.repeat(5_000);
        desc.extend_from_slice(&[0, 1, b'L', 0x00, 0x80, 0x40, 0x41, 0, 0, 0, 0, 1, 0, 0]);
        let mut payload = 1u16.to_be_bytes().to_vec();
        payload.extend_from_slice(&0u64.to_be_bytes());
        payload.extend_from_slice(&(desc.len() as u32).to_be_bytes());
        payload.extend_from_slice(&desc);
        let err = Hello::decode(&payload).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    /// An offered descriptor whose machine tag claims `max_align = 0`
    /// is bad wire data.  It used to decode, then panic in the plan
    /// verifier's alignment clamp while the pair was negotiated.
    #[test]
    fn zero_max_align_offer_errors_instead_of_panicking() {
        let sparc = FormatRegistry::new(MachineModel::SPARC32);
        let sender = sparc
            .register(FormatSpec::new(
                "T",
                vec![IOField::auto("x", "integer", 4), IOField::auto("y", "float", 8)],
            ))
            .unwrap();
        let mut bytes = encode_descriptor(&sender);
        // The machine tag follows the name: u16 length + "T".
        let tag = u32::from_be_bytes(bytes[3..7].try_into().unwrap()) & !(0xff << 20);
        bytes[3..7].copy_from_slice(&tag.to_be_bytes());

        let cache = NegotiationCache::new();
        let reg = FormatRegistry::new(MachineModel::native());
        let receiver = reg.register_descriptor((*v2()).clone());
        let outcome = decode_descriptor(&bytes).map_err(XmitError::from).and_then(|offered| {
            let offered = reg.register_descriptor(offered);
            cache.negotiate_pair(&reg, &offered, &receiver)
        });
        assert!(matches!(outcome, Err(XmitError::Bcm(PbioError::BadWireData(_)))), "{outcome:?}");
    }

    #[test]
    fn pair_cache_amortizes_and_replays_rejections() {
        let cache = NegotiationCache::new();
        let reg = FormatRegistry::new(MachineModel::native());
        let sender = reg.register_descriptor((*v1()).clone());
        let receiver = reg.register_descriptor((*v2()).clone());

        assert_eq!(
            cache.negotiate_pair(&reg, &sender, &receiver).unwrap(),
            PairVerdict::Projectable
        );
        let first = cache.stats();
        assert_eq!((first.hits, first.misses), (0, 1));
        let plans_after_first = reg.plan_cache_stats();

        for _ in 0..5 {
            assert_eq!(
                cache.negotiate_pair(&reg, &sender, &receiver).unwrap(),
                PairVerdict::Projectable
            );
        }
        let warm = cache.stats();
        assert_eq!((warm.hits, warm.misses), (5, 1));
        assert_eq!(
            reg.plan_cache_stats().misses,
            plans_after_first.misses,
            "steady-state negotiation must not compile more plans"
        );

        let bad = reg.register_descriptor((*retyped()).clone());
        assert!(cache.negotiate_pair(&reg, &sender, &bad).is_err());
        assert_eq!(cache.stats().rejected, 1);
        // The rejection replays from cache.
        assert!(cache.negotiate_pair(&reg, &sender, &bad).is_err());
        let end = cache.stats();
        assert_eq!(end.rejected, 1, "cached rejections are not re-counted");
        assert_eq!(end.hits, 6);
    }

    #[test]
    fn respond_adopts_unknown_formats_and_rejects_incompatible_fleets() {
        let cache = NegotiationCache::new();
        let reg = FormatRegistry::new(MachineModel::native());
        // No local binding: the receiver adopts the sender's version.
        let hello = Hello::from_formats(&[&v1()]);
        let accept = cache.respond(&hello, &reg).unwrap();
        assert_eq!(accept.entries[0].verdict, PairVerdict::Identical);
        assert_eq!(accept.entries[0].receiver, v1().id());

        // A local binding of the same name: cross-version projection.
        let reg2 = FormatRegistry::new(MachineModel::native());
        reg2.register(FormatSpec::new(
            "T",
            vec![
                IOField::auto("x", "integer", 4),
                IOField::auto("y", "float", 8),
                IOField::auto("z", "integer", 8),
            ],
        ))
        .unwrap();
        let accept = cache.respond(&hello, &reg2).unwrap();
        assert_eq!(accept.entries[0].verdict, PairVerdict::Projectable);

        // One incompatible offer rejects the whole HELLO.
        let reg3 = FormatRegistry::new(MachineModel::native());
        reg3.register(FormatSpec::new(
            "T",
            vec![IOField::auto("x", "string", 8), IOField::auto("y", "float", 8)],
        ))
        .unwrap();
        let err = cache.respond(&hello, &reg3).unwrap_err();
        assert!(matches!(err, XmitError::Negotiation(_)), "{err:?}");
        assert!(err.to_string().contains("incompatible versions of 'T'"), "{err}");
    }
}
