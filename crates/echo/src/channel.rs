//! Channel hosting: registry, subscription handshake, and the
//! one-encode-per-group publish path.
//!
//! A [`ChannelHost`] owns a listening socket and a set of channels
//! keyed by their format's content id.  Each channel keeps its
//! subscribers partitioned into *groups* by normalized projection spec:
//! group 0 is the identity (full-fat records); every distinct
//! projection gets one group, built on first subscription.
//!
//! ## The derived-channel publish path
//!
//! Every byte of an event is written once per group, straight into the
//! frame that carries it:
//!
//! * `publish` reserves the 5-byte frame header in a pooled buffer,
//!   encodes the record **once** behind it
//!   ([`Encoder::encode_into`]) and patches the length.  That frame is
//!   both the identity group's delivery and the conversion source.
//! * Each projected group converts that wire image **wire-to-wire**
//!   into its own pooled frame ([`convert_wire_into`]): the group's
//!   certified convert plan writes the fixed image, the projected
//!   format's certified encode plan places the converted payloads and
//!   patches the pointer slots.  No projected record is built.  The
//!   bytes are those of decoding into the projected format and
//!   re-encoding; both plans are certified (via `pbio::verify`, in
//!   every build) before the group takes a subscriber.
//! * Frames are `Arc`-shared across a group's seats, so encodes per
//!   event equal the number of active groups, not the number of
//!   subscribers.  A subscriber reads each frame into one reused buffer
//!   and decodes from there ([`crate::ChannelSubscriber::recv`]).
//!
//! Plans are additionally forced at *subscribe* time
//! ([`FormatRegistry::convert_plan`]): a projection whose conversion
//! plan is rejected refuses the subscription with `SUB_ERR` instead of
//! shipping wrong bytes later.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use openmeta_net::{read_frame_blocking, LengthFramer};
use openmeta_obs::span;
use openmeta_pbio::codec::encode_descriptor;
use openmeta_pbio::{
    convert_wire_into, BufferPool, Encoder, FormatDescriptor, FormatId, FormatRegistry,
    MachineModel, RawRecord,
};
use openmeta_schema::{to_xml, ComplexType, SchemaDocument};
use xmit::{project_type, NegotiationCache, NegotiationStats, Projection, Xmit, XmitError};

use crate::fanout::{Frame, Instruments, Offer, Seat, SlowPolicy, Writers};
use crate::wire::{self, FRAME_FORMAT, FRAME_RECORD, FRAME_SUB_ERR, FRAME_SUB_OK};
use crate::EchoError;
use openmeta_obs::sync;

/// Host-wide channel configuration.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Frames a subscriber may have queued before [`SlowPolicy`] kicks
    /// in.
    pub queue_cap: usize,
    /// What the publisher does when a subscriber's queue is full.
    pub policy: SlowPolicy,
    /// Deadline for a subscriber to accept one whole frame, counted
    /// from the frame's first `write()`.
    pub write_timeout: Option<Duration>,
    /// Deadline for the subscription handshake.
    pub handshake_timeout: Duration,
    /// Machine model channel formats are bound against.
    pub machine: MachineModel,
}

impl Default for ChannelConfig {
    fn default() -> ChannelConfig {
        ChannelConfig {
            queue_cap: 1024,
            policy: SlowPolicy::Block,
            write_timeout: Some(Duration::from_secs(5)),
            handshake_timeout: Duration::from_secs(2),
            machine: MachineModel::native(),
        }
    }
}

/// Per-channel counters, read from the channel's own instrument
/// instances (process-global metrics see the same numbers summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    pub events: u64,
    pub encodes: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub disconnected: u64,
    pub timed_out: u64,
    pub subscribers: i64,
    pub queue_depth: i64,
}

/// Outcome of one `publish` across every group and seat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishReceipt {
    /// Wire encodes performed (1 for the full format + 1 per active
    /// projected group).
    pub encodes: usize,
    /// Seats the frame was enqueued to.
    pub delivered: usize,
    /// Seats that dropped the event (`SlowPolicy::DropNewest`).
    pub dropped: usize,
    /// Seats disconnected by this publish (`SlowPolicy::Disconnect`).
    pub disconnected: usize,
}

/// Subscribers sharing one (normalized) projection — and therefore one
/// encode per event.
struct Group {
    /// `""` for identity; otherwise the normalized projection spec.
    key: String,
    /// The format this group's subscribers receive.
    format: Arc<FormatDescriptor>,
    /// Prebuilt FORMAT announcement frame, seeded into every new seat.
    format_frame: Frame,
    /// `None` for the identity group (frames are the full encode).
    /// Otherwise the registry that knows the full descriptor (conversion
    /// source) and the group's format, and caches the certified plans
    /// of the wire-to-wire conversion between them.
    convert: Option<Arc<FormatRegistry>>,
    seats: sync::Mutex<Vec<Arc<Seat>>>,
}

struct ChannelInner {
    definition: ComplexType,
    format: Arc<FormatDescriptor>,
    machine: MachineModel,
    encoder: sync::Mutex<Encoder>,
    groups: sync::Mutex<Vec<Arc<Group>>>,
    obs: Arc<Instruments>,
    queue_cap: usize,
    policy: SlowPolicy,
}

struct HostInner {
    cfg: ChannelConfig,
    addr: SocketAddr,
    channels: sync::Mutex<HashMap<u64, Arc<ChannelInner>>>,
    writers: Writers,
    stop: AtomicBool,
    /// Pair-cache for versioned subscriptions: one decision per
    /// (subscriber version, channel version) across every channel this
    /// host runs, so a reconnecting fleet re-handshakes for free.
    negotiation: Arc<NegotiationCache>,
}

/// A running channel host: accepts subscribers and fans out events for
/// every channel created on it.
pub struct ChannelHost {
    inner: Arc<HostInner>,
    accept: Option<JoinHandle<()>>,
}

impl ChannelHost {
    /// Start on an ephemeral loopback port.
    pub fn start(cfg: ChannelConfig) -> std::io::Result<ChannelHost> {
        ChannelHost::start_on(("127.0.0.1", 0), cfg)
    }

    /// Start on an explicit address.
    pub fn start_on(addr: impl ToSocketAddrs, cfg: ChannelConfig) -> std::io::Result<ChannelHost> {
        let listener = TcpListener::bind(addr)?;
        let inner = Arc::new(HostInner {
            addr: listener.local_addr()?,
            writers: Writers::new(cfg.write_timeout),
            cfg,
            channels: sync::Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            negotiation: Arc::new(NegotiationCache::new()),
        });
        let acceptor = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("echo-accept".to_string())
            .spawn(move || accept_loop(&acceptor, listener))?;
        Ok(ChannelHost { inner, accept: Some(accept) })
    }

    /// The address subscribers connect to.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Counters of this host's version-negotiation pair cache.
    pub fn negotiation_stats(&self) -> NegotiationStats {
        self.inner.negotiation.stats()
    }

    /// Create (and register) a channel for `definition`.  The channel
    /// is addressed by the content id of the bound format — any party
    /// holding the same definition computes the same id.
    pub fn create_channel(&self, definition: &ComplexType) -> Result<Channel, EchoError> {
        let cfg = &self.inner.cfg;
        let xm = Xmit::new(cfg.machine);
        xm.load_str(&to_xml(&SchemaDocument { types: vec![definition.clone()], enums: vec![] }))?;
        let token = xm.bind(&definition.name)?;
        let format_frame = descriptor_frame(&token.format)?;
        let identity = Arc::new(Group {
            key: String::new(),
            format: Arc::clone(&token.format),
            format_frame,
            convert: None,
            seats: sync::Mutex::new(Vec::new()),
        });
        let inner = Arc::new(ChannelInner {
            definition: definition.clone(),
            format: Arc::clone(&token.format),
            machine: cfg.machine,
            encoder: sync::Mutex::new(Encoder::new()),
            groups: sync::Mutex::new(vec![identity]),
            obs: Instruments::new(),
            queue_cap: cfg.queue_cap,
            policy: cfg.policy,
        });
        let id = inner.format.id();
        sync::lock(&self.inner.channels).insert(id.0, Arc::clone(&inner));
        Ok(Channel { inner })
    }
}

impl Drop for ChannelHost {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        // Unblock accept() with a throwaway connection — bounded, so a
        // filtered loopback can never wedge the drop.
        let _ = TcpStream::connect_timeout(&self.inner.addr, Duration::from_secs(1));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let mut seats = Vec::new();
        for chan in sync::lock(&self.inner.channels).values() {
            for group in sync::lock(&chan.groups).iter() {
                seats.extend(sync::lock(&group.seats).iter().cloned());
            }
        }
        self.inner.writers.shutdown(&seats);
    }
}

/// A publishing handle for one channel.  Clone freely; publishes from
/// multiple threads serialize on the channel's encoder.
#[derive(Clone)]
pub struct Channel {
    inner: Arc<ChannelInner>,
}

impl Channel {
    /// Content id subscribers address this channel by.
    pub fn format_id(&self) -> FormatId {
        self.inner.format.id()
    }

    /// The channel's (full) format descriptor.
    pub fn format(&self) -> &Arc<FormatDescriptor> {
        &self.inner.format
    }

    /// An empty record of the channel's format.
    pub fn new_record(&self) -> RawRecord {
        RawRecord::new(Arc::clone(&self.inner.format))
    }

    /// Live subscriber count across every group.
    pub fn subscriber_count(&self) -> usize {
        self.inner.obs.subscribers.get().max(0) as usize
    }

    /// Distinct active projections (groups with at least one live
    /// subscriber; identity counts when subscribed to).
    pub fn active_groups(&self) -> usize {
        sync::lock(&self.inner.groups)
            .iter()
            .filter(|g| sync::lock(&g.seats).iter().any(|s| !s.is_dead()))
            .count()
    }

    /// This channel's counters.
    pub fn stats(&self) -> ChannelStats {
        let o = &self.inner.obs;
        ChannelStats {
            events: o.events.get(),
            encodes: o.encodes.get(),
            delivered: o.delivered.get(),
            dropped: o.dropped.get(),
            disconnected: o.disconnected.get(),
            timed_out: o.timed_out.get(),
            subscribers: o.subscribers.get(),
            queue_depth: o.queue_depth.get(),
        }
    }

    /// Publish one event: one full encode (identity payload and
    /// conversion source) and one wire-to-wire conversion per active
    /// derived group, each written straight into its pooled frame, then
    /// `Arc`-shared frames onto every seat's bounded queue.
    pub fn publish(&self, rec: &RawRecord) -> Result<PublishReceipt, EchoError> {
        let inner = &self.inner;
        if rec.format().id() != inner.format.id() {
            return Err(EchoError::Schema(format!(
                "record format '{}' ({:?}) does not match channel format '{}' ({:?})",
                rec.format().name,
                rec.format().id(),
                inner.format.name,
                inner.format.id(),
            )));
        }
        let _publish_span = span!("channel.publish");
        inner.obs.events.inc();

        // One full-format encode per event, straight into a pooled
        // shared frame.
        let full_frame = {
            let mut buf = BufferPool::global().get();
            let mut enc = sync::lock(&inner.encoder);
            wire::write_frame_into(&mut buf, FRAME_RECORD, |out| {
                enc.encode_into(rec, out)?;
                Ok(())
            })?;
            Arc::new(buf)
        };
        inner.obs.encodes.inc();
        let mut receipt = PublishReceipt { encodes: 1, ..PublishReceipt::default() };

        let groups: Vec<Arc<Group>> = sync::lock(&inner.groups).clone();
        {
            let _fanout_span = span!("channel.fanout");
            for group in &groups {
                let seats: Vec<Arc<Seat>> = sync::lock(&group.seats).clone();
                if group.convert.is_some() && seats.iter().all(|s| s.is_dead()) {
                    // No live subscriber wants this projection: skip
                    // its encode entirely.
                    continue;
                }
                let frame = match &group.convert {
                    None => Arc::clone(&full_frame),
                    Some(registry) => {
                        // Full wire → projected wire, once for the
                        // whole group.
                        let mut buf = BufferPool::global().get();
                        wire::write_frame_into(&mut buf, FRAME_RECORD, |out| {
                            convert_wire_into(&full_frame[5..], registry, &group.format, out)?;
                            Ok(())
                        })?;
                        inner.obs.encodes.inc();
                        receipt.encodes += 1;
                        Arc::new(buf)
                    }
                };
                for seat in &seats {
                    match seat.offer(Arc::clone(&frame), inner.queue_cap, inner.policy) {
                        Offer::Delivered => {
                            inner.obs.delivered.inc();
                            receipt.delivered += 1;
                        }
                        Offer::Dropped => {
                            inner.obs.dropped.inc();
                            receipt.dropped += 1;
                        }
                        Offer::Disconnected => {
                            inner.obs.disconnected.inc();
                            receipt.disconnected += 1;
                        }
                        Offer::Dead => {}
                    }
                }
                sync::lock(&group.seats).retain(|s| !s.is_dead());
            }
        }
        Ok(receipt)
    }
}

/// FORMAT announcement frame for a descriptor, pooled and shareable.
fn descriptor_frame(format: &Arc<FormatDescriptor>) -> Result<Frame, EchoError> {
    let desc = encode_descriptor(format);
    let mut buf = BufferPool::global().get();
    wire::build_frame(&mut buf, FRAME_FORMAT, &[&desc])?;
    Ok(Arc::new(buf))
}

/// Normalized group key: keep-set order must not split groups.
fn projection_key(p: &Projection) -> String {
    let mut keep: Vec<&str> = p.keep.iter().map(String::as_str).collect();
    keep.sort_unstable();
    format!("{}|narrow={}|suffix={}", keep.join(","), p.narrow_doubles, p.rename_suffix)
}

impl ChannelInner {
    /// Find or build the group for a projection spec.  Building binds
    /// the projected type, registers the full descriptor as conversion
    /// source, and forces the conversion plan and the projected format's
    /// encode plan through the gate that certifies the very plans
    /// `publish` runs, before any subscriber is accepted.
    fn group_for(&self, projection: &Option<Projection>) -> Result<Arc<Group>, EchoError> {
        let Some(p) = projection else {
            return sync::lock(&self.groups)
                .first()
                .cloned()
                .ok_or_else(|| EchoError::Schema("channel has no identity group".to_string()));
        };
        let key = projection_key(p);
        if let Some(found) = sync::lock(&self.groups).iter().find(|g| g.key == key) {
            return Ok(Arc::clone(found));
        }
        let projected_ct = project_type(&self.definition, p)?;
        let xm = Xmit::new(self.machine);
        xm.load_str(&to_xml(&SchemaDocument { types: vec![projected_ct.clone()], enums: vec![] }))?;
        let token = xm.bind(&projected_ct.name)?;
        xm.registry().register_descriptor((*self.format).clone());
        xm.registry().convert_plan(&self.format, &token.format)?;
        xm.registry().encode_plan(&token.format)?;
        let group = Arc::new(Group {
            key,
            format: Arc::clone(&token.format),
            format_frame: descriptor_frame(&token.format)?,
            convert: Some(Arc::clone(xm.registry())),
            seats: sync::Mutex::new(Vec::new()),
        });
        let mut groups = sync::lock(&self.groups);
        // A racing handshake may have built the same group meanwhile.
        if let Some(found) = groups.iter().find(|g| g.key == group.key) {
            return Ok(Arc::clone(found));
        }
        groups.push(Arc::clone(&group));
        Ok(group)
    }

    /// Find or build the group for a subscriber's *version offer*: the
    /// pair is negotiated exactly like an XMIT `HELLO` — classified,
    /// its convert plan compiled once and certified by `pbio::verify`
    /// before acceptance — and an incompatible offer refuses the
    /// subscription ([`EchoError::Rejected`] → `SUB_ERR`), not a
    /// mid-stream decode error.
    fn group_for_version(
        &self,
        offer: &FormatDescriptor,
        negotiation: &Arc<NegotiationCache>,
    ) -> Result<Arc<Group>, EchoError> {
        if offer.id() == self.format.id() {
            // The subscriber already speaks the channel's version.
            return sync::lock(&self.groups)
                .first()
                .cloned()
                .ok_or_else(|| EchoError::Schema("channel has no identity group".to_string()));
        }
        // Version keys cannot collide with projection keys (those always
        // contain '|') or the identity key ("").
        let key = format!("version={:016x}", offer.id().0);
        // The pair cache is consulted before the group lookup so a repeat
        // offer is a recorded hit and a repeat incompatible offer replays
        // its rejection from the same place it was first decided.
        let registry = Arc::new(FormatRegistry::new(self.machine));
        let src = registry.register_descriptor((*self.format).clone());
        let dst = registry.register_descriptor(offer.clone());
        negotiation.negotiate_pair(&registry, &src, &dst).map_err(|e| match e {
            XmitError::Negotiation(reason) => EchoError::Rejected(reason),
            other => other.into(),
        })?;
        // The offer's encode plan (the very one `publish` runs) places every
        // converted payload, so it passes the gate here or the seat is refused.
        registry.encode_plan(&dst).map_err(|e| EchoError::Rejected(e.to_string()))?;
        if let Some(found) = sync::lock(&self.groups).iter().find(|g| g.key == key) {
            return Ok(Arc::clone(found));
        }
        let group = Arc::new(Group {
            key,
            format: Arc::clone(&dst),
            format_frame: descriptor_frame(&dst)?,
            convert: Some(registry),
            seats: sync::Mutex::new(Vec::new()),
        });
        let mut groups = sync::lock(&self.groups);
        // A racing handshake may have built the same group meanwhile.
        if let Some(found) = groups.iter().find(|g| g.key == group.key) {
            return Ok(Arc::clone(found));
        }
        groups.push(Arc::clone(&group));
        Ok(group)
    }
}

// ------------------------------------------------------ accept side

/// Blocking accept; [`ChannelHost`]'s drop wakes it with a throwaway
/// connection after setting `stop`.
fn accept_loop(host: &Arc<HostInner>, listener: TcpListener) {
    for conn in listener.incoming() {
        if host.stop.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok(stream) => handshake(host, stream),
            // Out of descriptors or similar: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Run one subscription handshake; errors answer with `SUB_ERR` where
/// the socket still permits, then drop the connection.
fn handshake(host: &Arc<HostInner>, mut stream: TcpStream) {
    let deadline = Some(host.cfg.handshake_timeout);
    if stream.set_read_timeout(deadline).is_err()
        || stream.set_write_timeout(deadline).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    match subscribe(host, &mut stream) {
        Ok((group, obs)) => {
            let seat = Seat::new(stream, obs);
            // Announce the group's format ahead of any record frame.
            seat.offer(Arc::clone(&group.format_frame), usize::MAX, SlowPolicy::Block);
            // Register the seat before SUB_OK goes out: the moment the
            // subscriber's connect() returns, it is counted and sees
            // every subsequent publish.  Queued frames stay put until
            // the writer starts, so SUB_OK still leads on the wire.
            sync::lock(&group.seats).push(Arc::clone(&seat));
            let mut ok = Vec::with_capacity(5 + 8);
            if wire::build_frame(&mut ok, FRAME_SUB_OK, &[&group.format.id().0.to_be_bytes()])
                .is_err()
                || seat.write_direct(&ok).is_err()
                || host.writers.attach(Arc::clone(&seat)).is_err()
            {
                seat.kill();
            }
        }
        Err(e) => {
            let _ = reply(&mut stream, FRAME_SUB_ERR, e.to_string().as_bytes());
        }
    }
}

/// Read the one SUBSCRIBE frame and resolve it to a group.  The framer
/// reads exactly to the frame boundary, so the delivery stream is never
/// consumed by the handshake.
fn subscribe(
    host: &Arc<HostInner>,
    stream: &mut TcpStream,
) -> Result<(Arc<Group>, Arc<Instruments>), EchoError> {
    let mut framer = LengthFramer::with_kind_byte(wire::MAX_FRAME);
    let mut payload = Vec::new();
    let kind = read_frame_blocking(stream, &mut framer, &mut payload)
        .map_err(wire::read_error)?
        .ok_or(EchoError::Closed)?;
    let req = wire::subscribe_from_frame(kind, &payload)?;
    let channel = sync::lock(&host.channels).get(&req.channel.0).cloned().ok_or_else(|| {
        EchoError::Rejected(format!("no channel with format id {}", req.channel.0))
    })?;
    let group = match (&req.projection, &req.version) {
        (Some(_), Some(_)) => {
            return Err(EchoError::Rejected(
                "projection and version offer cannot be combined".to_string(),
            ))
        }
        (_, None) => channel.group_for(&req.projection)?,
        (None, Some(offer)) => channel.group_for_version(offer, &host.negotiation)?,
    };
    Ok((group, Arc::clone(&channel.obs)))
}

fn reply(stream: &mut TcpStream, kind: u8, payload: &[u8]) -> Result<(), EchoError> {
    let mut frame = Vec::with_capacity(5 + payload.len());
    wire::build_frame(&mut frame, kind, &[payload])?;
    stream.write_all(&frame)?;
    Ok(())
}
