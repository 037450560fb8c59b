//! # `WallClock` — the production timeline
//!
//! The one place in the workspace that reads the machine clock
//! (`clippy.toml` bans `Instant::now`; [`WallClock::new`] holds the one
//! reasoned `#[expect]` for it). A
//! [`WallClock`] anchors a process-start [`Instant`] and reports elapsed
//! wall time as [`SimTime`] µs ticks, so the serving runtime consumes
//! wall and virtual time through the same [`Clock`] trait and every
//! admission deadline, modulation period, and outcome stamp is a tick
//! count on *some* timeline — which one is a constructor argument.

use std::time::Instant;
use unit_core::clock::Clock;
use unit_core::time::SimTime;

/// Wall time as µs ticks since the clock's construction.
///
/// Monotone by construction: [`Instant`] is monotonic, and the epoch is
/// fixed at construction. Cheap enough for the per-request hot path (one
/// `Instant::now` and a subtraction).
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose tick 0 is "now".
    #[must_use]
    #[expect(
        clippy::disallowed_methods,
        reason = "the serving runtime's one wall-clock read; everything else takes time through Clock"
    )]
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime(self.epoch.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_starts_near_zero() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // Two immediate reads land well within a second of the epoch.
        assert!(a < SimTime::from_secs(1));
    }

    #[test]
    fn wall_clock_advances() {
        let c = WallClock::new();
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now() > a);
    }
}
