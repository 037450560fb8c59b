//! D1 fixture: hash containers in a deterministic crate.
use std::collections::HashMap;
use std::collections::HashSet;

pub struct State {
    pub by_txn: HashMap<u64, u32>,
    pub seen: HashSet<u32>,
}
