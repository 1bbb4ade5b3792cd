//! POSIX `poll(2)`: the one foreign call in the workspace.
//!
//! The event loop blocks a shard until one of its sockets (or its
//! waker) is ready, or the next deadline is due.  `std` offers no
//! readiness wait, so this module binds `poll` directly: one
//! `#[repr(C)]` struct, one `extern "C"` symbol from the C library std
//! already links, and a safe wrapper over a slice.  `poll` keeps no
//! kernel state between calls, so there is nothing to register or
//! unregister, and its ABI is the same on Linux and macOS.  This is the
//! only file `cargo xtask analyze` lets contain `unsafe`.

#![allow(unsafe_code)]

use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Data may be read without blocking.
pub const POLLIN: i16 = 0x001;
/// Data may be written without blocking.
pub const POLLOUT: i16 = 0x004;

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

/// One descriptor's interest and readiness (`struct pollfd`).  A
/// negative `fd` is skipped by the kernel and reports nothing, which is
/// how a free slot stays in the array.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events` (`POLLIN` / `POLLOUT`); a negative `fd`
    /// is an empty entry.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// Change what this entry waits for.
    pub fn set_events(&mut self, events: i16) {
        self.events = events;
    }

    /// Readiness the last [`poll`] reported: any of the requested
    /// events, or error / hang-up, which are always reported.  Zero
    /// means not ready.
    pub fn revents(&self) -> i16 {
        self.revents
    }
}

extern "C" {
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely).  Returns how many entries have nonzero
/// [`PollFd::revents`]; a signal interrupting the wait returns 0.  The
/// timeout rounds up to whole milliseconds so a caller never wakes
/// before its deadline and spins.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = match timeout {
        None => -1,
        Some(t) => t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int,
    };
    // SAFETY: the pointer and length describe `fds`, a live, exclusively
    // borrowed slice of `repr(C)` pollfd records; the kernel writes only
    // their `revents` fields and keeps no reference past the call.
    let n = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_only_after_a_write() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN), PollFd::new(-1, POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(10))).unwrap(), 0);
        tx.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
        assert_eq!(fds[1].revents(), 0, "negative fds are skipped");
        fds[0].set_events(POLLOUT);
        assert_eq!(poll(&mut fds, None).unwrap(), 1, "an open socket is writable");
    }
}
