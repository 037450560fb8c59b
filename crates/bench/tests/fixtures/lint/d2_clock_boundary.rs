//! D2 clock-boundary fixture: a non-server crate holding a `WallClock`.
use unit_server::WallClock;

pub fn leak_a_wall_clock() -> WallClock {
    WallClock::new()
}
