//! The subscribing side: handshake, then a plain XMIT receive loop.
//!
//! A subscriber connects, sends one `SUBSCRIBE` frame naming the
//! channel's content id (optionally with a projection spec), and waits
//! for `SUB_OK`/`SUB_ERR`.  After acceptance the connection carries
//! ordinary XMIT FORMAT/RECORD frames: the host announces the group's
//! format (full or projected) before the first record, so the
//! subscriber's registry starts empty and learns everything from the
//! wire — no prior agreement, exactly like [`xmit::XmitReceiver`].

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

use openmeta_net::{connect_retrying, read_frame_blocking, LengthFramer, TransportConfig};
use openmeta_pbio::codec::decode_descriptor;
use openmeta_pbio::{
    decode, FormatDescriptor, FormatId, FormatRegistry, MachineModel, PbioError, RawRecord,
};
use xmit::Projection;

use crate::wire::{
    self, HandshakeReply, SubscribeRequest, FRAME_FORMAT, FRAME_RECORD, FRAME_SUBSCRIBE,
};
use crate::EchoError;

/// A subscription to one channel (possibly a derived view of it).
pub struct ChannelSubscriber {
    stream: TcpStream,
    registry: Arc<FormatRegistry>,
    framer: LengthFramer,
    delivered_format: FormatId,
}

impl ChannelSubscriber {
    /// Subscribe with default transport deadlines.  `projection`
    /// requests a derived channel: the *sender* projects each event
    /// before transmission.
    pub fn connect(
        addr: impl ToSocketAddrs + Copy,
        channel: FormatId,
        projection: Option<&Projection>,
    ) -> Result<ChannelSubscriber, EchoError> {
        ChannelSubscriber::connect_with(addr, channel, projection, &TransportConfig::default())
    }

    /// Subscribe offering the subscriber's *own version* of the channel
    /// format: the host negotiates the pair (content-id handshake) and
    /// delivers every event converted to `version`, or refuses the seat
    /// with `SUB_ERR` when the versions are incompatible.
    pub fn connect_versioned(
        addr: impl ToSocketAddrs + Copy,
        channel: FormatId,
        version: &Arc<FormatDescriptor>,
        cfg: &TransportConfig,
    ) -> Result<ChannelSubscriber, EchoError> {
        ChannelSubscriber::connect_request(
            addr,
            SubscribeRequest { channel, projection: None, version: Some((**version).clone()) },
            cfg,
        )
    }

    /// Subscribe with explicit transport deadlines and connect retry.
    pub fn connect_with(
        addr: impl ToSocketAddrs + Copy,
        channel: FormatId,
        projection: Option<&Projection>,
        cfg: &TransportConfig,
    ) -> Result<ChannelSubscriber, EchoError> {
        ChannelSubscriber::connect_request(
            addr,
            SubscribeRequest { channel, projection: projection.cloned(), version: None },
            cfg,
        )
    }

    fn connect_request(
        addr: impl ToSocketAddrs + Copy,
        request: SubscribeRequest,
        cfg: &TransportConfig,
    ) -> Result<ChannelSubscriber, EchoError> {
        let mut stream = connect_retrying(addr, cfg)?;
        let payload = request.encode();
        let mut frame = Vec::with_capacity(5 + payload.len());
        wire::build_frame(&mut frame, FRAME_SUBSCRIBE, &[&payload])?;
        stream.write_all(&frame)?;

        // The reply is one frame; the framer that reads it stays with
        // the subscription, so delivery frames pipelined behind SUB_OK
        // are kept for `recv`.
        let mut framer = LengthFramer::with_kind_byte(wire::MAX_FRAME);
        let (kind, payload) = read_frame_blocking(&mut stream, &mut framer)
            .map_err(wire::read_error)?
            .ok_or(EchoError::Closed)?;
        match wire::reply_from_frame(kind, &payload)? {
            HandshakeReply::Accepted(delivered_format) => Ok(ChannelSubscriber {
                stream,
                registry: Arc::new(FormatRegistry::new(MachineModel::native())),
                framer,
                delivered_format,
            }),
            HandshakeReply::Rejected(reason) => Err(EchoError::Rejected(reason)),
        }
    }

    /// Content id of the format this subscription delivers (the
    /// projected format's id on a derived channel).
    pub fn delivered_format(&self) -> FormatId {
        self.delivered_format
    }

    /// The registry formats are learned into.
    pub fn registry(&self) -> &Arc<FormatRegistry> {
        &self.registry
    }

    /// Receive the next event; `Ok(None)` when the host closed the
    /// channel cleanly.
    pub fn recv(&mut self) -> Result<Option<RawRecord>, EchoError> {
        loop {
            let frame = read_frame_blocking(&mut self.stream, &mut self.framer)
                .map_err(wire::read_error)?;
            let Some((kind, payload)) = frame else { return Ok(None) };
            let _span = openmeta_obs::span!("transport.recv");
            match kind {
                FRAME_FORMAT => {
                    self.registry.register_descriptor(decode_descriptor(&payload)?);
                }
                FRAME_RECORD => return Ok(Some(decode(&payload, &self.registry)?)),
                other => {
                    return Err(EchoError::Bcm(PbioError::BadWireData(format!(
                        "unknown frame kind {other}"
                    ))))
                }
            }
        }
    }
}
