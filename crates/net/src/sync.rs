//! Re-export of the workspace's shared lock helpers.
//!
//! The real module lives in [`openmeta_obs::sync`] (the workspace base
//! crate) so every crate keys its locking on one set of acquisition
//! entry points — which is what the lock-order analyzer in
//! `openmeta-analyzer` builds its may-hold-while-acquiring graph from.
//! See that module for the loom swap point and poison-recovery policy.

pub(crate) use openmeta_obs::sync::{get_mut, lock, Mutex};
