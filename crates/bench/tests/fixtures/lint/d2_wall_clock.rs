//! D2 fixture: wall clocks and the machine's core count in simulation code.
use std::time::{Duration, SystemTime};

pub fn elapsed() -> Duration {
    let start = std::time::Instant::now();
    start.elapsed()
}

pub fn stamp() -> SystemTime {
    SystemTime::now()
}

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
