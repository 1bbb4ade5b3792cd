//! Shared transport hardening for the metadata and record planes.
//!
//! The paper's Figure 2 architecture splits communication into a metadata
//! plane (format servers, HTTP schema hosts) and a data plane (PBIO
//! record streams).  Both planes must stay correct when a peer misbehaves:
//! a stalled socket must not hang a client forever, a slow reader must
//! not wedge a sender, and connection handling must not spawn unbounded
//! threads.  This crate supplies the pieces the `pbio`, `ohttp` and
//! `xmit` transports share:
//!
//! * [`TransportConfig`] — client-side connect/read/write deadlines and a
//!   [`RetryPolicy`] for connect-with-backoff;
//! * [`Server`] — the one server front-end: a server supplies a listener
//!   and a sans-io [`EventHandler`] per connection ([`LengthFramer`]
//!   helps frame-based protocols), and `Server` owns the accept thread,
//!   the engine and the graceful drain on drop;
//! * [`ServerConfig`] — worker count, accept-queue cap, max-connections
//!   bound and per-connection deadlines for servers, plus the
//!   [`Backend`] engine: a bounded worker pool running a blocking driver
//!   over the handler, or a readiness poll loop sweeping nonblocking
//!   sockets with deadlines from a [`TimerWheel`];
//! * [`ServerStats`] / [`TransportCounters`] — per-server counters
//!   (accepted, active, rejected, timed out, frames in/out) surfaced
//!   through the bench `--json` reports;
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
pub(crate) mod sync;
pub mod timer;
mod workers;

pub use config::{
    connect_retrying, connect_with_deadline, harden_stream, Backend, ServerConfig, TransportConfig,
};
pub use event_loop::{Dispatch, EventHandler, HandlerFactory};
pub use faults::{Fault, FaultProxy};
pub use framing::{is_timeout, read_exact_capped, write_all_vectored, READ_CHUNK};
pub use retry::RetryPolicy;
pub use sansio::{read_frame_blocking, LengthFramer};
pub use server::Server;
pub use stats::{ServerStats, TransportCounters};
pub use timer::TimerWheel;
