//! Fan-out delivery: bounded per-subscriber queues, slow-subscriber
//! policy, and the writer-per-seat engine.
//!
//! Every subscriber owns a *seat*: its socket plus a bounded queue of
//! `Arc`-shared frames.  Publishing enqueues the group's one encoded
//! frame onto every seat (no per-subscriber copies), and each seat's
//! writer thread drains its queue onto the wire with blocking writes.
//! Frames here are 0.1–1.5 MiB, so the kernel copy dominates delivery;
//! a writer per seat runs those copies in parallel, where one readiness
//! thread would serialise them.
//!
//! A frame must be fully accepted within the write deadline of its
//! first `write()`: before each `write()` the socket's `SO_SNDTIMEO` is
//! set to what remains of that budget.  A subscriber that trickles one
//! segment at a time therefore still expires, where a fresh timeout per
//! partial write would let it hold its seat forever.  An expiry counts
//! as `timed_out` and kills the seat.
//!
//! When a seat's queue is full, the channel's [`SlowPolicy`] decides
//! what the publisher does; every outcome lands in an `openmeta-obs`
//! counter so slow subscribers are visible, not silent.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use openmeta_net::is_timeout;
use openmeta_obs::{clock, Counter, Gauge, MetricsRegistry};
use openmeta_pbio::PooledBuf;

use openmeta_obs::sync;

/// One encoded frame, shared across every seat of a group.  The buffer
/// comes from `pbio`'s [`BufferPool`](openmeta_pbio::BufferPool); when
/// the last seat finishes with it, it returns to the pool.
pub(crate) type Frame = Arc<PooledBuf>;

/// What a publisher does when a subscriber's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlowPolicy {
    /// Block the publisher until the subscriber drains (lossless; the
    /// slowest subscriber paces the channel).
    #[default]
    Block,
    /// Drop the newest event for that subscriber and keep publishing
    /// (counted in `openmeta_echo_dropped_total`).
    DropNewest,
    /// Disconnect the slow subscriber and keep publishing (counted in
    /// `openmeta_echo_disconnected_total`).
    Disconnect,
}

impl SlowPolicy {
    /// Parse a CLI-style policy name.
    pub fn parse(s: &str) -> Option<SlowPolicy> {
        match s {
            "block" => Some(SlowPolicy::Block),
            "drop" => Some(SlowPolicy::DropNewest),
            "disconnect" => Some(SlowPolicy::Disconnect),
            _ => None,
        }
    }
}

/// Per-channel instrument handles.  Each channel registers its own
/// instances; the registry sums live instances per series, and local
/// `get()`s keep per-channel accounting exact.
#[derive(Debug)]
pub(crate) struct Instruments {
    pub events: Arc<Counter>,
    pub encodes: Arc<Counter>,
    pub delivered: Arc<Counter>,
    pub dropped: Arc<Counter>,
    pub disconnected: Arc<Counter>,
    pub timed_out: Arc<Counter>,
    pub subscribers: Arc<Gauge>,
    pub queue_depth: Arc<Gauge>,
}

impl Instruments {
    pub(crate) fn new() -> Arc<Instruments> {
        let m = MetricsRegistry::global();
        Arc::new(Instruments {
            events: m.counter("openmeta_echo_events_total"),
            encodes: m.counter("openmeta_echo_encodes_total"),
            delivered: m.counter("openmeta_echo_delivered_total"),
            dropped: m.counter("openmeta_echo_dropped_total"),
            disconnected: m.counter("openmeta_echo_disconnected_total"),
            timed_out: m.counter("openmeta_echo_timed_out_total"),
            subscribers: m.gauge("openmeta_echo_subscribers"),
            queue_depth: m.gauge("openmeta_echo_queue_depth"),
        })
    }
}

/// Outcome of offering a frame to one seat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    Delivered,
    Dropped,
    Disconnected,
    /// The seat was already gone; nothing counted.
    Dead,
}

/// One connected subscriber: socket + bounded frame queue.
pub(crate) struct Seat {
    stream: sync::Mutex<TcpStream>,
    frames: sync::Mutex<VecDeque<Frame>>,
    cv: sync::Condvar,
    /// Force-closed (write error, deadline, policy): stop immediately.
    dead: AtomicBool,
    /// Clean shutdown: drain the queue, then exit.
    closing: AtomicBool,
    obs: Arc<Instruments>,
}

impl Seat {
    pub(crate) fn new(stream: TcpStream, obs: Arc<Instruments>) -> Arc<Seat> {
        obs.subscribers.inc();
        Arc::new(Seat {
            stream: sync::Mutex::new(stream),
            frames: sync::Mutex::new(VecDeque::new()),
            cv: sync::Condvar::new(),
            dead: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            obs,
        })
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Blocking write straight to the seat's stream, bypassing the
    /// queue.  Only the handshake uses this — to put `SUB_OK` on the
    /// wire ahead of any queued frame, before the writer starts and
    /// while the stream still carries the handshake write deadline.
    pub(crate) fn write_direct(&self, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write as _;
        sync::lock(&self.stream).write_all(bytes)
    }

    /// Force-close the seat exactly once: callers count the *reason*
    /// (`disconnected`, `timed_out`) themselves.  Must not be called
    /// with the queue lock held.
    pub(crate) fn kill(&self) {
        if self.dead.swap(true, Ordering::AcqRel) {
            return;
        }
        self.obs.subscribers.dec();
        let mut frames = sync::lock(&self.frames);
        self.obs.queue_depth.add(-(frames.len() as i64));
        frames.clear();
        drop(frames);
        self.cv.notify_all();
        let _ = sync::lock(&self.stream).shutdown(Shutdown::Both);
    }

    /// Begin clean shutdown: the writer drains what is queued, then
    /// half-closes so the subscriber sees EOF.
    pub(crate) fn close(&self) {
        self.closing.store(true, Ordering::Release);
        self.cv.notify_all();
    }

    /// Enqueue one frame under the channel's policy.
    pub(crate) fn offer(&self, frame: Frame, cap: usize, policy: SlowPolicy) -> Offer {
        if self.is_dead() {
            return Offer::Dead;
        }
        let mut frames = sync::lock(&self.frames);
        loop {
            if self.is_dead() {
                return Offer::Dead;
            }
            if frames.len() < cap {
                frames.push_back(frame);
                self.obs.queue_depth.inc();
                drop(frames);
                self.cv.notify_all();
                return Offer::Delivered;
            }
            match policy {
                SlowPolicy::Block => {
                    frames = sync::wait_timeout(&self.cv, frames, Duration::from_millis(50)).0;
                }
                SlowPolicy::DropNewest => return Offer::Dropped,
                SlowPolicy::Disconnect => {
                    drop(frames);
                    self.kill();
                    return Offer::Disconnected;
                }
            }
        }
    }

    /// Wait for the next frame.  `None` ends the writer — force-closed,
    /// or cleanly drained at shutdown.
    fn pop_blocking(&self) -> Option<Frame> {
        let mut frames = sync::lock(&self.frames);
        loop {
            if self.is_dead() {
                return None;
            }
            if let Some(f) = frames.pop_front() {
                self.obs.queue_depth.dec();
                drop(frames);
                self.cv.notify_all();
                return Some(f);
            }
            if self.closing.load(Ordering::Acquire) {
                return None;
            }
            frames = sync::wait_timeout(&self.cv, frames, Duration::from_millis(100)).0;
        }
    }
}

// ------------------------------------------------------------ writers

/// The delivery engine behind a [`ChannelHost`](crate::ChannelHost):
/// one writer thread per seat.
pub(crate) struct Writers {
    handles: sync::Mutex<Vec<JoinHandle<()>>>,
    write_timeout: Option<Duration>,
}

impl Writers {
    pub(crate) fn new(write_timeout: Option<Duration>) -> Writers {
        Writers { handles: sync::Mutex::new(Vec::new()), write_timeout }
    }

    /// Start a freshly subscribed seat's writer.  The writer owns a
    /// clone of the seat's socket, so writes take no lock and a
    /// [`Seat::kill`] from the publisher ends a blocked write at once.
    pub(crate) fn attach(&self, seat: Arc<Seat>) -> io::Result<()> {
        let stream = sync::lock(&seat.stream).try_clone()?;
        let budget = self.write_timeout;
        let handle = std::thread::Builder::new()
            .name("echo-writer".to_string())
            .spawn(move || write_loop(&seat, stream, budget))?;
        sync::lock(&self.handles).push(handle);
        Ok(())
    }

    /// Drain cleanly and stop: seats flush what is queued, subscribers
    /// see EOF, writer threads are joined.
    pub(crate) fn shutdown(&self, seats: &[Arc<Seat>]) {
        for seat in seats {
            seat.close();
        }
        let handles: Vec<_> = sync::lock(&self.handles).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Drain one seat with blocking writes.  A write-deadline expiry counts
/// as `timed_out`; any failure force-closes.
fn write_loop(seat: &Seat, mut stream: TcpStream, budget: Option<Duration>) {
    while let Some(frame) = seat.pop_blocking() {
        if let Err(e) = write_frame(&mut stream, &frame, budget) {
            if is_timeout(&e) {
                seat.obs.timed_out.inc();
            }
            seat.obs.disconnected.inc();
            seat.kill();
            return;
        }
    }
    if !seat.is_dead() {
        // Clean drain: half-close so the subscriber's recv sees EOF.
        let _ = stream.shutdown(Shutdown::Write);
    }
}

/// Write one whole frame within `budget` of its first `write()`.  The
/// first `write()` runs under `SO_SNDTIMEO` set to the whole budget and
/// each later one under the budget's remainder, so partial progress
/// never extends the deadline.
fn write_frame(stream: &mut TcpStream, frame: &[u8], budget: Option<Duration>) -> io::Result<()> {
    stream.set_write_timeout(budget)?;
    let deadline = budget.map(|b| clock::now() + b);
    let mut pos = 0;
    while pos < frame.len() {
        if pos > 0 {
            if let Some(deadline) = deadline {
                let left = deadline.saturating_duration_since(clock::now());
                if left.is_zero() {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "frame write deadline"));
                }
                stream.set_write_timeout(Some(left))?;
            }
        }
        match stream.write(&frame[pos..]) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket accepted 0 bytes"))
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
