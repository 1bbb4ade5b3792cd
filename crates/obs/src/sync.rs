//! The workspace's one way to take a blocking lock: `sync::lock`,
//! `sync::read`, `sync::write`, `sync::wait`, `sync::wait_timeout`.
//! One set of entry points lets the lock-order analyzer (`openmeta
//! protolint`) see every acquisition; `cargo xtask analyze` rejects a
//! bare `.lock()`, `.read()` or `.write()` anywhere else in library
//! code.  It lives in `openmeta-obs`, the crate everything depends on.
//!
//! Under `RUSTFLAGS="--cfg loom"`, `Mutex` and `Condvar` resolve to
//! loom's model-checked versions (`cargo xtask loom`).  `RwLock` is
//! std's under both cfgs: no loom model uses a reader-writer lock.
//!
//! The helpers also centralize poison recovery: a holder that panics
//! only ever does so between two consistent single-step states in every
//! call site audited so far, so continuing past a poisoned lock is
//! sound — and the libraries stay free of `unwrap()`.

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard};
pub use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use std::sync::PoisonError;
use std::time::Duration;

/// Acquire `m`, recovering the guard if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Share `l` for reading, recovering the guard if a writer panicked.
pub fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Take `l` for writing, recovering the guard if a previous holder panicked.
pub fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access through `&mut`, recovering from poisoning.
pub fn get_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv`, recovering the guard if a notifier panicked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Wait with a timeout, recovering the guard if a notifier panicked.
/// Returns the guard and whether the wait timed out.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    let (guard, result) = cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
    (guard, result.timed_out())
}
