//! Per-server transport counters, backed by the process-wide metrics
//! registry.
//!
//! Each server owns a [`ServerStats`] block whose instruments are
//! registered with [`MetricsRegistry::global`] under the
//! `openmeta_transport_*` names: a `/metrics` scrape (or a bench
//! snapshot) sums every live server's counters, while
//! [`ServerStats::snapshot`] keeps reading this instance's values exactly
//! — the pre-registry accessor contract (`transport_counters()`)
//! is unchanged.

use std::sync::Arc;

use openmeta_obs::{Counter, Gauge, MetricsRegistry};

/// Shared, cheaply clonable counter block; every accept loop, worker and
/// frame codec updates the same instance, and [`ServerStats::snapshot`]
/// reads it out for reports.
#[derive(Clone)]
pub struct ServerStats {
    inner: Arc<Counters>,
}

struct Counters {
    accepted: Arc<Counter>,
    active: Arc<Gauge>,
    rejected: Arc<Counter>,
    timed_out: Arc<Counter>,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

impl ServerStats {
    /// A fresh counter block, registered with the global metrics
    /// registry under the `openmeta_transport_*` series.
    pub fn new() -> ServerStats {
        let m = MetricsRegistry::global();
        ServerStats {
            inner: Arc::new(Counters {
                accepted: m.counter("openmeta_transport_accepted_total"),
                active: m.gauge("openmeta_transport_active_connections"),
                rejected: m.counter("openmeta_transport_rejected_total"),
                timed_out: m.counter("openmeta_transport_timed_out_total"),
                frames_in: m.counter("openmeta_transport_frames_in_total"),
                frames_out: m.counter("openmeta_transport_frames_out_total"),
            }),
        }
    }

    /// A connection was accepted (before admission control).
    pub fn accepted(&self) {
        self.inner.accepted.inc();
    }

    /// A connection was rejected by the accept-queue / max-connections
    /// bound (or dropped undrained at shutdown).
    pub fn rejected(&self) {
        self.inner.rejected.inc();
    }

    /// A connection hit a read or write deadline.
    pub fn timed_out(&self) {
        self.inner.timed_out.inc();
    }

    /// A request/frame was read from a connection.
    pub fn frame_in(&self) {
        self.inner.frames_in.inc();
    }

    /// A response/frame was written to a connection.
    pub fn frame_out(&self) {
        self.inner.frames_out.inc();
    }

    /// A worker started serving a connection.
    pub fn conn_started(&self) {
        self.inner.active.inc();
    }

    /// A worker finished serving a connection.
    pub fn conn_finished(&self) {
        self.inner.active.dec();
    }

    /// Connections currently being served.
    pub fn active_now(&self) -> u64 {
        self.inner.active.get().max(0) as u64
    }

    /// Read all counters at once.
    pub fn snapshot(&self) -> TransportCounters {
        TransportCounters {
            accepted: self.inner.accepted.get(),
            active: self.active_now(),
            rejected: self.inner.rejected.get(),
            timed_out: self.inner.timed_out.get(),
            frames_in: self.inner.frames_in.get(),
            frames_out: self.inner.frames_out.get(),
        }
    }
}

/// A point-in-time copy of a server's transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Connections accepted by the listener.
    pub accepted: u64,
    /// Connections being served when the snapshot was taken.
    pub active: u64,
    /// Connections rejected by the admission bounds.
    pub rejected: u64,
    /// Connections that hit a read/write deadline.
    pub timed_out: u64,
    /// Requests/frames read.
    pub frames_in: u64,
    /// Responses/frames written.
    pub frames_out: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = ServerStats::new();
        stats.accepted();
        stats.accepted();
        stats.conn_started();
        stats.frame_in();
        stats.frame_out();
        stats.rejected();
        stats.timed_out();
        let snap = stats.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.active, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.frames_in, 1);
        assert_eq!(snap.frames_out, 1);
        stats.conn_finished();
        assert_eq!(stats.snapshot().active, 0);
    }

    #[test]
    fn instances_feed_the_global_registry() {
        let stats = ServerStats::new();
        stats.accepted();
        stats.frame_in();
        let snap = MetricsRegistry::global().snapshot();
        // Other instances in this test process may have contributed; the
        // registry must hold at least this instance's increments.
        assert!(snap.counter_value("openmeta_transport_accepted_total").unwrap() >= 1);
        assert!(snap.counter_value("openmeta_transport_frames_in_total").unwrap() >= 1);
    }
}
