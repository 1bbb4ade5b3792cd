//! Process-wide observability for the XMIT/PBIO stack.
//!
//! The paper's whole evaluation is a timing story — registration cost
//! (Figures 3/6), marshal parity (Figure 7), encode-time comparisons
//! (Figure 8) — and Tamayo et al. showed that the way to make binding-cost
//! claims auditable is per-stage measurement: parse vs. bind vs. marshal.
//! This crate makes that decomposition first class:
//!
//! * [`MetricsRegistry`] — a registry of named [`Counter`]s, [`Gauge`]s
//!   and fixed-bucket log2 [`Histogram`]s.  Instruments are plain atomics
//!   (no locks on the increment path); the registry mutex is touched only
//!   at registration and snapshot time.  Instances keep their own handles
//!   (so per-server / per-cache accessors stay exact) and the registry
//!   sums across live instances when a [`Snapshot`] is taken.
//! * [`span!`] — a guard that records a stage's wall-clock duration into
//!   the `openmeta_stage_duration_ns{stage="..."}` histogram family on
//!   drop.  Stage names follow the paper's decomposition: `discovery.*`,
//!   `binding.*`, `marshal.*`, `transport.*`.
//! * Exporters — [`Snapshot::to_json`] (stable schema, served from
//!   `/metrics.json`) and [`Snapshot::to_prometheus`] (text exposition,
//!   served from `/metrics` on the `ohttp` server).
//! * [`clock`] — the sanctioned `Instant::now()` entry point; `cargo
//!   xtask analyze` rejects direct `Instant::now()` timing in library
//!   code outside this crate so all new timing flows through here.
//!
//! Metric names follow `openmeta_<area>_<metric>[_total]`; see DESIGN.md
//! §"Observability" for the full inventory.
//!
//! Like `openmeta-net`, the synchronization underneath is swappable: under
//! `RUSTFLAGS="--cfg loom"` the registry's mutex and the instruments run
//! against the vendored loom shim (`cargo xtask loom`).

#![deny(unsafe_code)]

pub mod clock;
mod export;
pub mod marshal;
mod metrics;
mod span;
pub mod sync;

pub use marshal::{
    marshal_counters, MarshalCounters, MARSHAL_ALLOC_TOTAL, MARSHAL_BYTES_COPIED_TOTAL,
    MARSHAL_POOL_MISS_TOTAL, MARSHAL_POOL_REUSE_TOTAL,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, SeriesKey, Snapshot,
    HISTOGRAM_BUCKETS,
};
pub use span::{set_timing_enabled, timing_enabled, Span, TimingPause, STAGE_HISTOGRAM};
