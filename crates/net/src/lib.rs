//! Shared transport hardening for the metadata and record planes.
//!
//! The paper's Figure 2 architecture splits communication into a metadata
//! plane (format servers, HTTP schema hosts) and a data plane (PBIO
//! record streams).  Both planes must stay correct when a peer misbehaves:
//! a stalled socket must not hang a client forever, a slow reader must
//! not wedge a sender, and connection handling must not grow without
//! bound.  This crate supplies the pieces the `pbio`, `ohttp` and
//! `xmit` transports share:
//!
//! * [`TransportConfig`] — client-side connect/read/write deadlines and a
//!   [`RetryPolicy`] for connect-with-backoff;
//! * [`Server`] — the one server front-end: a server supplies a listener
//!   and a sans-io [`EventHandler`] per connection ([`LengthFramer`]
//!   helps frame-based protocols), and `Server` owns the accept thread,
//!   the readiness event loop and the graceful drain on drop.  The loop's
//!   shards block in `poll(2)` ([`sys`], the workspace's one `unsafe`
//!   call) and check per-connection deadlines in one pass per wake;
//! * [`ServerConfig`] — max-connections bound, per-connection deadlines
//!   and the drain budget for servers;
//! * [`ServerStats`] / [`TransportCounters`] — per-server counters
//!   (accepted, active, rejected, timed out, frames in/out), read by
//!   tests and `openmeta loadgen`;
//! * [`read_exact_capped`] — frame-payload reads that grow the buffer as
//!   bytes actually arrive, so an untrusted length prefix cannot force a
//!   large up-front allocation;
//! * [`FaultProxy`] — a TCP proxy test fixture injecting stalls,
//!   mid-frame resets, truncation and partial writes.

#![deny(unsafe_code)]

pub mod config;
mod event_loop;
pub mod faults;
pub mod framing;
pub mod nio;
pub mod retry;
pub mod sansio;
mod server;
pub mod stats;
pub mod sys;

pub use config::{
    connect_retrying, connect_with_deadline, harden_stream, ServerConfig, TransportConfig,
};
pub use event_loop::{Dispatch, EventHandler, HandlerFactory};
pub use faults::{Fault, FaultProxy};
pub use framing::{is_timeout, read_exact_capped, write_all_vectored, READ_CHUNK};
pub use retry::RetryPolicy;
pub use sansio::{frame_header, read_frame_blocking, FrameHeader, LengthFramer};
pub use server::Server;
pub use stats::{ServerStats, TransportCounters};
