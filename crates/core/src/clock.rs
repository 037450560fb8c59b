//! # Injectable clocks
//!
//! The serving runtime (`unit-server`) runs UNIT admission and
//! modulation against *some* timeline; which one is a constructor
//! argument, not a compile-time fact. A [`Clock`] yields the current
//! instant as a [`SimTime`] (µs ticks since the clock's epoch), so the
//! same server code runs:
//!
//! * under a [`VirtualClock`] in tests and replay — advanced explicitly,
//!   fully deterministic, bit-comparable against the simulation engine;
//! * under `unit-server`'s `WallClock` in production — anchored to a
//!   process-start `Instant`.
//!
//! `WallClock` deliberately does **not** live in this crate: `unit-core`
//! is wall-clock-free by invariant (`clippy.toml` bans `Instant::now`),
//! and keeping the only wall-clock read in `crates/server` is what makes
//! that boundary checkable.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone source of "now" on some timeline.
///
/// Implementations must be monotone (successive `now` calls never go
/// backwards) and cheap — the server reads the clock on every request.
/// `Send + Sync` is part of the trait bound because one clock is shared
/// by every worker thread.
pub trait Clock: Send + Sync {
    /// The current instant, as ticks since this clock's epoch.
    fn now(&self) -> SimTime;
}

/// A manually-advanced clock: `now` is whatever the test (or the replay
/// driver) last set it to. Advancing is monotone by construction —
/// [`VirtualClock::advance_to`] is a `fetch_max`, so racing advancers
/// can never move time backwards.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: AtomicU64,
}

impl VirtualClock {
    /// A clock at `t = 0`.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock {
            ticks: AtomicU64::new(0),
        }
    }

    /// A clock starting at the given instant.
    #[must_use]
    pub fn starting_at(t: SimTime) -> Self {
        VirtualClock {
            ticks: AtomicU64::new(t.0),
        }
    }

    /// Move the clock forward to `t`. A no-op when `t` is in the past —
    /// time never goes backwards, so concurrent advancers compose.
    pub fn advance_to(&self, t: SimTime) {
        self.ticks.fetch_max(t.0, Ordering::SeqCst);
    }

    /// Move the clock forward by `d` from its current reading.
    pub fn advance(&self, d: SimDuration) {
        // fetch_update retries under contention, so two concurrent
        // `advance(d)` calls add 2d total rather than racing to the same
        // target.
        let _ = self
            .ticks
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                Some(t.saturating_add(d.0))
            });
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime(self.ticks.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_monotone() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime(0));
        c.advance_to(SimTime(50));
        assert_eq!(c.now(), SimTime(50));
        c.advance_to(SimTime(10)); // past: ignored
        assert_eq!(c.now(), SimTime(50));
        c.advance(SimDuration(25));
        assert_eq!(c.now(), SimTime(75));
    }

    #[test]
    fn starting_at_sets_epoch() {
        let c = VirtualClock::starting_at(SimTime(1_000_000));
        assert_eq!(c.now(), SimTime(1_000_000));
    }

    #[test]
    fn shared_across_threads() {
        let c = std::sync::Arc::new(VirtualClock::new());
        let c2 = std::sync::Arc::clone(&c);
        let h = std::thread::spawn(move || c2.advance_to(SimTime(99)));
        h.join().unwrap();
        assert_eq!(c.now(), SimTime(99));
    }
}
