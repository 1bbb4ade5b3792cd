//! Stage spans: scoped guards that record wall-clock durations.
//!
//! A span measures one of the paper's pipeline stages — discovery,
//! binding, marshaling — or a transport leg, and records the elapsed
//! nanoseconds into the [`STAGE_HISTOGRAM`] family on drop:
//!
//! ```
//! # use openmeta_obs::span;
//! fn fetch_document() {
//!     let _span = span!("discovery.fetch");
//!     // ... work measured until `_span` drops ...
//! }
//! ```
//!
//! Span timing can be paused process-wide ([`TimingPause`]): the bench
//! harness does this inside Figure 8's marshal-scale timed loops, where
//! two `Instant::now()` calls per sub-microsecond encode would bias the
//! comparison between instrumented (PBIO) and uninstrumented (XML/CDR)
//! wire formats.  While paused, entering a span is one relaxed atomic
//! load and nothing is recorded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::clock;
use crate::metrics::Histogram;

/// Histogram family every [`span!`](crate::span!) records into, labeled by `stage`.
pub const STAGE_HISTOGRAM: &str = "openmeta_stage_duration_ns";

static TIMING_ENABLED: AtomicBool = AtomicBool::new(true);

/// Is span timing currently recording?
pub fn timing_enabled() -> bool {
    TIMING_ENABLED.load(Ordering::Relaxed)
}

/// Turn span timing on or off process-wide.  Prefer the RAII
/// [`TimingPause`] where the window has clear scope.
pub fn set_timing_enabled(enabled: bool) {
    TIMING_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Pauses span timing for its lifetime, restoring the previous state on
/// drop (nested pauses compose: the innermost drop restores "paused").
pub struct TimingPause {
    was_enabled: bool,
}

impl TimingPause {
    /// Pause span timing until the returned guard drops.
    #[allow(clippy::new_without_default)]
    pub fn new() -> TimingPause {
        TimingPause { was_enabled: TIMING_ENABLED.swap(false, Ordering::Relaxed) }
    }
}

impl Drop for TimingPause {
    fn drop(&mut self) {
        TIMING_ENABLED.store(self.was_enabled, Ordering::Relaxed);
    }
}

/// A live stage measurement; records into its histogram on drop.
pub struct Span {
    /// `None` when timing was paused at entry — drop records nothing.
    start: Option<(Arc<Histogram>, Instant)>,
}

impl Span {
    /// Start measuring into `hist` (usually via the [`span!`](crate::span!) macro).
    pub fn enter(hist: &Arc<Histogram>) -> Span {
        if timing_enabled() {
            Span { start: Some((hist.clone(), clock::now())) }
        } else {
            Span { start: None }
        }
    }

    /// A span that records nothing (for paths that conditionally measure).
    pub fn noop() -> Span {
        Span { start: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.start.take() {
            hist.record(clock::duration_ns(start.elapsed()));
        }
    }
}

/// Start a [`Span`] for a stage, e.g. `span!("discovery.fetch")`.
///
/// The stage histogram handle is registered with the global
/// [`crate::MetricsRegistry`] once per call site and cached in a static,
/// so steady-state entry takes no lock.  Stage names follow the paper's
/// decomposition: `discovery.*`, `binding.*`, `marshal.*`, `transport.*`.
#[macro_export]
macro_rules! span {
    ($stage:expr) => {{
        static SPAN_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        $crate::Span::enter(SPAN_HIST.get_or_init(|| {
            $crate::MetricsRegistry::global()
                .histogram_with($crate::STAGE_HISTOGRAM, &[("stage", $stage)])
        }))
    }};
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn span_records_once_on_drop() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with(STAGE_HISTOGRAM, &[("stage", "test.drop")]);
        {
            let _s = Span::enter(&h);
        }
        assert_eq!(h.count(), 1);
        drop(Span::noop());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn pause_suppresses_recording_and_restores() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("test_pause_ns");
        {
            let _pause = TimingPause::new();
            let _inner = TimingPause::new(); // nested
            drop(Span::enter(&h));
        }
        assert_eq!(h.count(), 0);
        assert!(timing_enabled(), "pause must restore the enabled state");
        drop(Span::enter(&h));
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn span_macro_registers_a_global_stage_series() {
        {
            let _s = crate::span!("test.macro_stage");
        }
        let snap = MetricsRegistry::global().snapshot();
        let h = snap
            .histogram_value(STAGE_HISTOGRAM, &[("stage", "test.macro_stage")])
            .expect("stage series registered");
        assert!(h.count >= 1);
    }
}
