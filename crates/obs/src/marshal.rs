//! Process-wide marshal-path counters.
//!
//! The zero-copy marshal work (pooled encode buffers, borrowed
//! `RecordView` decode) is a claim about *absence*: steady-state encode
//! should allocate nothing and the same-layout decode should copy
//! nothing.  These counters make the claim observable — the buffer pool
//! and the plan executors in `openmeta-pbio` record every heap
//! allocation they cause and every payload byte they copy, so a
//! `/metrics` scrape (or the fig7 allocs/op column) can show the hot
//! path flatlining.
//!
//! Counters are process-global and monotonic; benchmarks that need
//! deterministic per-loop deltas use the per-instance statistics on
//! `Encoder`/`BufferPool` instead and treat these as the exported sum.

use std::sync::Arc;
use std::sync::OnceLock;

use crate::metrics::{Counter, MetricsRegistry};

/// Heap allocations performed by the marshal path (pool misses, encode
/// buffer growth, owned-decode materialization).
pub const MARSHAL_ALLOC_TOTAL: &str = "openmeta_marshal_alloc_total";

/// Payload bytes copied by the marshal path (encode fixed+var copies,
/// owned-decode extraction, cross-layout conversion).
pub const MARSHAL_BYTES_COPIED_TOTAL: &str = "openmeta_marshal_bytes_copied_total";

/// Encode buffers served from the pool's free shelves (no allocation).
pub const MARSHAL_POOL_REUSE_TOTAL: &str = "openmeta_marshal_pool_reuse_total";

/// Encode buffer requests the pool could not serve from a shelf.
pub const MARSHAL_POOL_MISS_TOTAL: &str = "openmeta_marshal_pool_miss_total";

/// Cached handles to the global marshal counters.
pub struct MarshalCounters {
    /// `openmeta_marshal_alloc_total`.
    pub alloc_total: Arc<Counter>,
    /// `openmeta_marshal_bytes_copied_total`.
    pub bytes_copied_total: Arc<Counter>,
    /// `openmeta_marshal_pool_reuse_total`.
    pub pool_reuse_total: Arc<Counter>,
    /// `openmeta_marshal_pool_miss_total`.
    pub pool_miss_total: Arc<Counter>,
}

/// The global marshal counters, registered once with
/// [`MetricsRegistry::global`] and cached so steady-state increments
/// take no registry lock.
pub fn marshal_counters() -> &'static MarshalCounters {
    static COUNTERS: OnceLock<MarshalCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = MetricsRegistry::global();
        MarshalCounters {
            alloc_total: reg.counter(MARSHAL_ALLOC_TOTAL),
            bytes_copied_total: reg.counter(MARSHAL_BYTES_COPIED_TOTAL),
            pool_reuse_total: reg.counter(MARSHAL_POOL_REUSE_TOTAL),
            pool_miss_total: reg.counter(MARSHAL_POOL_MISS_TOTAL),
        }
    })
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_accumulate() {
        let c = marshal_counters();
        let before = c.alloc_total.get();
        c.alloc_total.inc();
        c.bytes_copied_total.add(128);
        assert!(c.alloc_total.get() > before);
        let snap = MetricsRegistry::global().snapshot();
        assert!(snap.counter_value(MARSHAL_ALLOC_TOTAL).is_some());
        assert!(snap.counter_value(MARSHAL_BYTES_COPIED_TOTAL).is_some());
    }
}
