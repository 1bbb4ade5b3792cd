//! **ECho-style event channels** over XMIT framing.
//!
//! The XMIT paper's companion middleware, ECho (Eisenhauer, Bustamante &
//! Schwan), multiplexes typed event streams through *channels*: a
//! publisher submits records once, and the middleware fans them out to
//! every subscriber.  Its signature feature is the **derived event
//! channel** — a subscriber submits a small transformation (here: a
//! field projection, [`xmit::Projection`]) that the *sender* applies
//! before transmission, so a handheld subscribing to three fields of a
//! forty-field format never receives the other thirty-seven.
//!
//! This crate builds that on the existing stack:
//!
//! * **Addressing** — channels are named by PBIO's content-addressed
//!   [`FormatId`]: any party that can compute a format's descriptor can
//!   address its channel, with no separate naming service (the paper's
//!   "format identifiers … allow component programs to retrieve the
//!   metadata on demand", turned into a rendezvous).
//! * **Framing** — the wire is XMIT's `len:u32be kind:u8 payload`
//!   framing, extended with `SUBSCRIBE`/`SUB_OK`/`SUB_ERR` handshake
//!   kinds ([`wire`]).  The handshake is one frame each way, read by
//!   the connection's framer and decoded by
//!   [`wire::subscribe_from_frame`] / [`wire::reply_from_frame`].  A
//!   [`ChannelSubscriber`] is an `XmitReceiver` with that handshake
//!   bolted on: after `SUB_OK` the same framer reads plain FORMAT/RECORD
//!   frames.
//! * **Shared derived encodes** — subscribers submitting the *same*
//!   projection join one *group*; each event is encoded **once per
//!   group**, not once per subscriber.  1000 subscribers across 3
//!   distinct projections cost 3 encodes per event.  Each encode is
//!   written straight into the frame that carries it: projected groups
//!   convert the full wire image wire-to-wire through plans certified by
//!   `pbio::verify` (the registry's plan cache verifies at insertion),
//!   and a rejected plan refuses the subscription rather than shipping
//!   wrong bytes.
//! * **Backpressure** — every subscriber owns a bounded frame queue;
//!   the per-channel [`SlowPolicy`] decides whether a slow subscriber
//!   blocks the publisher (default), drops the newest event, or is
//!   disconnected.  Every outcome is counted in `openmeta-obs`
//!   (`echo_*` counters, `echo_subscribers`/`echo_queue_depth` gauges,
//!   `channel.publish`/`channel.fanout` stage histograms).
//! * **Writer per seat** — each subscriber's queue drains through its
//!   own writer thread with blocking writes, so the kernel copies of
//!   large frames run in parallel.  A frame must be accepted whole
//!   within the write deadline of its first `write()`, so a trickling
//!   subscriber times out instead of holding its seat.
//!
//! # Quickstart
//!
//! ```
//! use openmeta_echo::{ChannelConfig, ChannelHost, ChannelSubscriber};
//! use openmeta_schema::parse_str;
//! use xmit::Projection;
//!
//! let doc = parse_str(r#"
//!   <xsd:complexType name="Reading"
//!       xmlns:xsd="http://www.w3.org/2001/XMLSchema">
//!     <xsd:element name="station" type="xsd:string" />
//!     <xsd:element name="value" type="xsd:double" />
//!   </xsd:complexType>"#).unwrap();
//! let host = ChannelHost::start(ChannelConfig::default()).unwrap();
//! let chan = host.create_channel(&doc.types[0]).unwrap();
//!
//! let mut sub = ChannelSubscriber::connect(
//!     host.addr(), chan.format_id(), Some(&Projection::keeping(["value"]))).unwrap();
//!
//! let mut rec = chan.new_record();
//! rec.set_string("station", "upstream").unwrap();
//! rec.set_f64("value", 4.25).unwrap();
//! chan.publish(&rec).unwrap();
//!
//! let got = sub.recv().unwrap().unwrap();
//! assert_eq!(got.get_f64("value").unwrap(), 4.25);
//! assert!(got.get_string("station").is_err(), "projected away");
//! ```

#![deny(unsafe_code)]

pub mod channel;
pub mod fanout;
pub mod subscriber;
pub mod wire;

use std::fmt;

pub use channel::{Channel, ChannelConfig, ChannelHost, ChannelStats, PublishReceipt};
pub use fanout::SlowPolicy;
pub use subscriber::ChannelSubscriber;
pub use wire::{HandshakeReply, SubscribeRequest};

// Re-exports so channel applications only need this crate.
pub use openmeta_pbio::{FormatId, RawRecord};
pub use xmit::Projection;

/// Errors from channel hosting, subscription, and publishing.
#[derive(Debug)]
pub enum EchoError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The underlying BCM rejected metadata, a record, or a plan.
    Bcm(openmeta_pbio::PbioError),
    /// Binding or projecting a schema definition failed.
    Schema(String),
    /// The host refused the subscription (unknown channel, bad
    /// projection, rejected conversion plan); carries the host's reason.
    Rejected(String),
    /// The peer hung up before the exchange completed.
    Closed,
}

impl fmt::Display for EchoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EchoError::Io(e) => write!(f, "channel I/O error: {e}"),
            EchoError::Bcm(e) => write!(f, "channel BCM error: {e}"),
            EchoError::Schema(s) => write!(f, "channel schema error: {s}"),
            EchoError::Rejected(s) => write!(f, "subscription rejected: {s}"),
            EchoError::Closed => write!(f, "peer closed the connection mid-exchange"),
        }
    }
}

impl std::error::Error for EchoError {}

impl From<std::io::Error> for EchoError {
    fn from(e: std::io::Error) -> EchoError {
        EchoError::Io(e)
    }
}

impl From<openmeta_pbio::PbioError> for EchoError {
    fn from(e: openmeta_pbio::PbioError) -> EchoError {
        EchoError::Bcm(e)
    }
}

impl From<xmit::XmitError> for EchoError {
    fn from(e: xmit::XmitError) -> EchoError {
        match e {
            xmit::XmitError::Bcm(inner) => EchoError::Bcm(inner),
            other => EchoError::Schema(other.to_string()),
        }
    }
}
