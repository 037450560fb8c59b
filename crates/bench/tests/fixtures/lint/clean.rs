//! Fixture: the idioms the lint gate steers toward pass it untouched.
use std::collections::BTreeMap;

pub fn first(xs: &[u64]) -> Option<u64> {
    xs.first().copied()
}

pub fn previous(xs: &[u64], i: usize) -> Option<u64> {
    i.checked_sub(1).and_then(|j| xs.get(j)).copied()
}

pub fn same(a: f64, b: f64) -> bool {
    a.total_cmp(&b).is_eq()
}

pub fn tally(keys: &[u32]) -> BTreeMap<u32, usize> {
    let mut counts = BTreeMap::new();
    for &k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}

#[expect(clippy::indexing_slicing, reason = "fixture: i < xs.len() is checked")]
pub fn at(xs: &[u64], i: usize) -> u64 {
    if i < xs.len() {
        xs[i]
    } else {
        0
    }
}
