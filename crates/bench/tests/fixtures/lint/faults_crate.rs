//! Faults-crate fixture: one deliberate violation per determinism rule.
use std::collections::HashMap;

pub fn windows() -> HashMap<u64, u64> {
    HashMap::new()
}

pub fn now_seed() -> u64 {
    std::time::Instant::now().elapsed().as_secs()
}

pub fn pick(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

pub fn boundary(frac: f64) -> bool {
    frac == 0.25
}

pub fn window_at(starts: &[u64], i: usize) -> u64 {
    starts[i]
}
