//! Hashed timer wheel for per-connection deadlines.
//!
//! The event loop tracks one deadline token per connection (the nearer
//! of its read and write deadlines).  A sorted structure would pay
//! `O(log n)` per keep-alive refresh at 10k+ connections; the wheel
//! pays `O(1)` amortized: deadlines hash into coarse slots and the loop
//! drains only the slots the clock has swept past.
//!
//! Deadlines move constantly (every byte of progress refreshes them),
//! so the wheel is *lazy*: entries are never cancelled or moved.  When
//! a slot fires, the stored deadline is checked — entries whose time
//! has not actually come are re-inserted at their new slot, and the
//! caller re-checks the connection's live deadline before acting on a
//! delivered token (a token may be stale if the connection refreshed or
//! closed after scheduling).  Slot granularity bounds how late a
//! deadline can fire; staleness means it never fires early twice.

use std::time::{Duration, Instant};

#[derive(Debug)]
struct Entry {
    token: u64,
    deadline: Instant,
}

/// A fixed-slot hashed timer wheel.  Single-threaded by design: each
/// event-loop shard owns one.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    slot_len: Duration,
    epoch: Instant,
    /// Last tick index processed by [`TimerWheel::expired`].
    processed: u64,
}

impl TimerWheel {
    /// A wheel of `slots` buckets, each `slot_len` wide.  The horizon is
    /// `slots * slot_len`; farther deadlines park in the farthest slot
    /// and lazily re-insert when it fires.
    pub fn new(slot_len: Duration, slots: usize, now: Instant) -> TimerWheel {
        assert!(slots >= 2 && !slot_len.is_zero());
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            slot_len,
            epoch: now,
            processed: 0,
        }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        let elapsed = t.saturating_duration_since(self.epoch);
        (elapsed.as_nanos() / self.slot_len.as_nanos().max(1)) as u64
    }

    /// The instant tick `tick` begins.
    fn start_of(&self, tick: u64) -> Instant {
        self.epoch + Duration::from_nanos((self.slot_len.as_nanos() as u64).saturating_mul(tick))
    }

    /// Schedule `token` to be delivered once `deadline` passes.
    pub fn schedule(&mut self, token: u64, deadline: Instant) {
        // Never place an entry at or behind the processed cursor: it
        // would wait a full wheel revolution.  Already-due deadlines go
        // in the next slot to fire.
        let tick = self.tick_of(deadline).max(self.processed + 1);
        let horizon = self.processed + self.slots.len() as u64 - 1;
        let slot = (tick.min(horizon) as usize) % self.slots.len();
        self.slots[slot].push(Entry { token, deadline });
    }

    /// Advance the wheel to `now`, appending every token whose stored
    /// deadline has passed to `out`.  Not-yet-due entries in swept slots
    /// are re-inserted (the lazy step for beyond-horizon deadlines).
    pub fn expired(&mut self, now: Instant, out: &mut Vec<u64>) {
        let current = self.tick_of(now);
        if current <= self.processed {
            return;
        }
        // A long stall can sweep past every slot; one revolution visits
        // them all, so cap the walk at the slot count.
        let steps = (current - self.processed).min(self.slots.len() as u64);
        let mut requeue: Vec<Entry> = Vec::new();
        for i in 1..=steps {
            let slot = ((self.processed + i) as usize) % self.slots.len();
            for entry in self.slots[slot].drain(..) {
                if entry.deadline <= now {
                    out.push(entry.token);
                } else {
                    requeue.push(entry);
                }
            }
        }
        self.processed = current;
        for entry in requeue {
            self.schedule(entry.token, entry.deadline);
        }
    }

    /// The earliest instant at which [`TimerWheel::expired`] delivers a
    /// parked entry (stale ones included), or `None` when the wheel is
    /// empty: how long an event loop may block before it must advance
    /// the wheel.  Only the first occupied slot is inspected — every
    /// later slot holds later ticks.  The answer stays inside that
    /// slot's window: a slot holding only beyond-horizon entries (whose
    /// real deadlines lie far later) wakes the loop at the slot's end,
    /// when [`TimerWheel::expired`] re-inserts them.
    pub fn next_fire(&self) -> Option<Instant> {
        let len = self.slots.len();
        let cursor = (self.processed % len as u64) as usize;
        (1..len).find_map(|i| {
            let slot = if cursor + i < len { cursor + i } else { cursor + i - len };
            let earliest = self.slots[slot].iter().map(|e| e.deadline).min()?;
            let tick = self.processed + i as u64;
            Some(earliest.clamp(self.start_of(tick), self.start_of(tick + 1)))
        })
    }

    /// Entries currently parked in the wheel (stale ones included).
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.len()).sum()
    }

    /// `true` when no entries are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn delivers_after_deadline_not_before() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(ms(10), 32, t0);
        wheel.schedule(1, t0 + ms(35));
        let mut out = Vec::new();
        wheel.expired(t0 + ms(20), &mut out);
        assert!(out.is_empty(), "fired {out:?} before deadline");
        wheel.expired(t0 + ms(50), &mut out);
        assert_eq!(out, vec![1]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn next_fire_is_the_earliest_delivery() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(ms(10), 8, t0);
        assert_eq!(wheel.next_fire(), None);
        wheel.schedule(1, t0 + ms(37));
        wheel.schedule(2, t0 + ms(33));
        wheel.schedule(3, t0 + ms(500)); // beyond the horizon
        assert_eq!(wheel.next_fire(), Some(t0 + ms(33)));
        let mut out = Vec::new();
        wheel.expired(t0 + ms(33), &mut out);
        assert_eq!(out, vec![2], "due exactly at next_fire");
        out.clear();
        wheel.expired(t0 + ms(40), &mut out);
        assert_eq!(out, vec![1]);
        // The beyond-horizon entry wakes the loop once per horizon (at
        // the end of the slot it is parked in) until it is due.
        out.clear();
        let mut wakes = 0;
        while let Some(at) = wheel.next_fire() {
            assert!(at <= t0 + ms(510), "woke at {:?}", at - t0);
            wheel.expired(at, &mut out);
            wakes += 1;
            if at < t0 + ms(500) {
                assert!(out.is_empty(), "fired at {:?}", at - t0);
            }
        }
        assert_eq!(out, vec![3]);
        assert!(wakes > 1, "re-insertions must wake the loop");
    }

    #[test]
    fn parked_far_deadline_does_not_hide_a_nearer_one() {
        let t0 = Instant::now();
        // Horizon is 8 * 10ms: a 500ms deadline parks in tick 7.
        let mut wheel = TimerWheel::new(ms(10), 8, t0);
        wheel.schedule(1, t0 + ms(500));
        let mut out = Vec::new();
        wheel.expired(t0 + ms(30), &mut out);
        assert!(out.is_empty());
        // Tick 9 lands in ring slot 1, which comes after slot 7 when
        // scanning from the cursor at slot 3.
        wheel.schedule(2, t0 + ms(95));
        let first = wheel.next_fire().expect("entries parked");
        assert!(first <= t0 + ms(95), "next_fire {:?} is past the 95ms deadline", first - t0);
        // Following next_fire delivers 2 on time and 1 only when due.
        let mut now = first;
        loop {
            wheel.expired(now, &mut out);
            if !out.is_empty() {
                break;
            }
            now = wheel.next_fire().expect("2 still parked");
            assert!(now <= t0 + ms(95), "woke at {:?} before delivering 2", now - t0);
        }
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn beyond_horizon_deadline_lazily_reinserts() {
        let t0 = Instant::now();
        // Horizon is 8 * 10ms = 80ms; schedule at 250ms.
        let mut wheel = TimerWheel::new(ms(10), 8, t0);
        wheel.schedule(7, t0 + ms(250));
        let mut out = Vec::new();
        for step in 1..=24 {
            wheel.expired(t0 + ms(step * 10), &mut out);
            assert!(out.is_empty(), "fired at {}ms", step * 10);
        }
        wheel.expired(t0 + ms(260), &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn long_stall_sweeps_every_slot_once() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(ms(10), 16, t0);
        for token in 0..16u64 {
            wheel.schedule(token, t0 + ms(5 * (token + 1)));
        }
        let mut out = Vec::new();
        // Jump far past the whole horizon in one call.
        wheel.expired(t0 + ms(100_000), &mut out);
        out.sort_unstable();
        assert_eq!(out, (0..16u64).collect::<Vec<_>>());
        assert!(wheel.is_empty());
    }

    #[test]
    fn already_due_deadline_fires_on_next_sweep() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(ms(10), 8, t0);
        let mut out = Vec::new();
        wheel.expired(t0 + ms(500), &mut out); // advance the cursor far in
        wheel.schedule(3, t0 + ms(100)); // already in the past
        wheel.expired(t0 + ms(520), &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn refreshed_connection_redelivers_at_new_slot() {
        // The lazy-cancel contract: the caller re-schedules on refresh
        // and ignores stale tokens, so both entries deliver but only the
        // live one matters.  The wheel just has to deliver both.
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(ms(10), 32, t0);
        wheel.schedule(9, t0 + ms(30));
        wheel.schedule(9, t0 + ms(90)); // refresh: same token, later deadline
        let mut out = Vec::new();
        wheel.expired(t0 + ms(40), &mut out);
        assert_eq!(out, vec![9], "stale entry should still deliver");
        out.clear();
        wheel.expired(t0 + ms(100), &mut out);
        assert_eq!(out, vec![9]);
    }
}
