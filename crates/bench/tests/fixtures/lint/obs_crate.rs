//! Obs-crate fixture: one deliberate violation per determinism rule.
use std::collections::HashMap;

pub fn counts_by_kind() -> HashMap<u64, u64> {
    HashMap::new()
}

pub fn stamp() -> u64 {
    std::time::Instant::now().elapsed().as_secs()
}

pub fn first_time(v: &[u64]) -> u64 {
    *v.first().unwrap()
}

pub fn at_full(usm: f64) -> bool {
    usm == 1.0
}

pub fn bucket(counts: &[u64], i: usize) -> u64 {
    counts[i]
}
