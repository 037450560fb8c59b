//! An order-statistic treap over admitted-query deadlines: the engine's
//! work index, behind every `query_work_at_or_before` probe.
//!
//! Deadlines are only discovered as queries are fed, so there is no
//! precomputed coordinate space to build a Fenwick tree over. A plain
//! `BTreeMap<SimTime, u64>` would answer prefix-sum probes by scanning
//! every entry at or below the probe point, which turns quadratic exactly
//! on dense scaled-up traces. This treap keeps one node per distinct
//! deadline with a subtree work sum, so `add`, `sub`, and
//! [`WorkTreap::at_or_before`] are all O(log A) expected in the
//! admitted-deadline count.
//!
//! Node priorities are a pure (splitmix-style) hash of the deadline, so
//! the tree shape is a deterministic function of the key *set* — no RNG
//! state, and rebuilding the same set in any order yields the same tree.
//! Shape only ever affects speed: probe answers are exact integer tick
//! sums either way.

use unit_core::time::SimTime;

/// Sentinel child index: no node.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: SimTime,
    prio: u64,
    /// Remaining work (ticks) at exactly `key`.
    work: u64,
    /// Sum of `work` over this node's subtree.
    subtree: u64,
    left: u32,
    right: u32,
}

/// The node slab, addressed by `u32` node handle.
#[derive(Debug, Default)]
struct Nodes {
    slots: Vec<Node>,
}

impl Nodes {
    #[expect(
        clippy::indexing_slicing,
        reason = "every handle comes from `alloc` (a pushed or recycled slot) and the slab never shrinks; NIL is checked before any access"
    )]
    fn at(&self, t: u32) -> &Node {
        &self.slots[t as usize]
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "same bound as `at`: live handles index a slab that never shrinks"
    )]
    fn at_mut(&mut self, t: u32) -> &mut Node {
        &mut self.slots[t as usize]
    }

    /// Append `node` in a fresh slot, returning its handle.
    fn push(&mut self, node: Node) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "4B distinct live deadlines is beyond any trace scale"
        )]
        let t = u32::try_from(self.slots.len()).expect("treap exceeds u32 slots");
        self.slots.push(node);
        t
    }
}

/// Treap keyed by deadline, augmented with subtree work sums. Slots are
/// slab-allocated and recycled, so steady-state operation performs no
/// allocation once the tree has reached its peak size.
#[derive(Debug, Default)]
pub struct WorkTreap {
    nodes: Nodes,
    free: Vec<u32>,
    root: u32,
}

/// Deterministic node priority: a splitmix64 finalizer over the key, so
/// equal key sets always build equal trees.
fn prio_of(key: SimTime) -> u64 {
    let mut z = key.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl WorkTreap {
    /// An empty index.
    pub fn new() -> Self {
        WorkTreap {
            nodes: Nodes::default(),
            free: Vec::new(),
            root: NIL,
        }
    }

    /// Total remaining work over every deadline, in ticks. O(1).
    pub fn total(&self) -> u64 {
        self.subtree(self.root)
    }

    /// Remaining work with deadline `<= key`, in ticks. O(log A) expected.
    pub fn at_or_before(&self, key: SimTime) -> u64 {
        let mut acc = 0u64;
        let mut t = self.root;
        while t != NIL {
            let n = self.nodes.at(t);
            if n.key <= key {
                acc += n.work + self.subtree(n.left);
                t = n.right;
            } else {
                t = n.left;
            }
        }
        acc
    }

    /// Add `ticks` of work at `key`. O(log A) expected.
    pub fn add(&mut self, key: SimTime, ticks: u64) {
        if ticks == 0 {
            return;
        }
        self.root = self.insert(self.root, key, ticks);
    }

    /// Remove `ticks` of work at `key`; the node is freed when its work
    /// reaches zero.
    ///
    /// # Panics
    /// Panics when `key` holds less than `ticks` of work — add/sub are
    /// paired by the engine's admitted-index maintenance, so an underflow
    /// is an engine bug. O(log A) expected.
    pub fn sub(&mut self, key: SimTime, ticks: u64) {
        if ticks == 0 {
            return;
        }
        self.root = self.remove(self.root, key, ticks);
    }

    /// Every `(deadline, work)` entry in key order — the validation
    /// cross-check's view of the tree. O(A).
    pub fn entries(&self) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        // Iterative in-order walk; depth is O(log A) expected.
        let mut stack: Vec<u32> = Vec::new();
        let mut t = self.root;
        loop {
            while t != NIL {
                stack.push(t);
                t = self.nodes.at(t).left;
            }
            let Some(top) = stack.pop() else { break };
            let n = self.nodes.at(top);
            out.push((n.key, n.work));
            t = n.right;
        }
        out
    }

    fn subtree(&self, t: u32) -> u64 {
        if t == NIL {
            0
        } else {
            self.nodes.at(t).subtree
        }
    }

    fn pull(&mut self, t: u32) {
        let (l, r) = {
            let n = self.nodes.at(t);
            (n.left, n.right)
        };
        let sum = self.nodes.at(t).work + self.subtree(l) + self.subtree(r);
        self.nodes.at_mut(t).subtree = sum;
    }

    fn alloc(&mut self, key: SimTime, ticks: u64) -> u32 {
        let node = Node {
            key,
            prio: prio_of(key),
            work: ticks,
            subtree: ticks,
            left: NIL,
            right: NIL,
        };
        match self.free.pop() {
            Some(slot) => {
                *self.nodes.at_mut(slot) = node;
                slot
            }
            None => self.nodes.push(node),
        }
    }

    /// Rotate the left child above `t`; both pulled. Returns the new root.
    fn rotate_right(&mut self, t: u32) -> u32 {
        let l = self.nodes.at(t).left;
        self.nodes.at_mut(t).left = self.nodes.at(l).right;
        self.nodes.at_mut(l).right = t;
        self.pull(t);
        self.pull(l);
        l
    }

    /// Rotate the right child above `t`; both pulled. Returns the new root.
    fn rotate_left(&mut self, t: u32) -> u32 {
        let r = self.nodes.at(t).right;
        self.nodes.at_mut(t).right = self.nodes.at(r).left;
        self.nodes.at_mut(r).left = t;
        self.pull(t);
        self.pull(r);
        r
    }

    /// Insert `ticks` at `key` under `t` (min-heap on priority), returning
    /// the subtree's new root.
    fn insert(&mut self, t: u32, key: SimTime, ticks: u64) -> u32 {
        if t == NIL {
            return self.alloc(key, ticks);
        }
        let node_key = self.nodes.at(t).key;
        if key == node_key {
            self.nodes.at_mut(t).work += ticks;
            self.pull(t);
            t
        } else if key < node_key {
            let child = self.insert(self.nodes.at(t).left, key, ticks);
            self.nodes.at_mut(t).left = child;
            if self.nodes.at(child).prio < self.nodes.at(t).prio {
                self.rotate_right(t)
            } else {
                self.pull(t);
                t
            }
        } else {
            let child = self.insert(self.nodes.at(t).right, key, ticks);
            self.nodes.at_mut(t).right = child;
            if self.nodes.at(child).prio < self.nodes.at(t).prio {
                self.rotate_left(t)
            } else {
                self.pull(t);
                t
            }
        }
    }

    /// Subtract `ticks` at `key` under `t`, deleting the node at zero,
    /// returning the subtree's new root.
    fn remove(&mut self, t: u32, key: SimTime, ticks: u64) -> u32 {
        // add/sub are paired: a missing key is an engine bug.
        assert!(t != NIL, "deadline has no admitted work");
        let node_key = self.nodes.at(t).key;
        if key == node_key {
            let work = self.nodes.at(t).work;
            #[expect(clippy::expect_used, reason = "never removes more work than was added")]
            let left = work.checked_sub(ticks).expect("work index underflow");
            if left == 0 {
                let (l, r) = {
                    let n = self.nodes.at(t);
                    (n.left, n.right)
                };
                self.free.push(t);
                return self.merge(l, r);
            }
            self.nodes.at_mut(t).work = left;
            self.pull(t);
            t
        } else if key < node_key {
            let child = self.remove(self.nodes.at(t).left, key, ticks);
            self.nodes.at_mut(t).left = child;
            self.pull(t);
            t
        } else {
            let child = self.remove(self.nodes.at(t).right, key, ticks);
            self.nodes.at_mut(t).right = child;
            self.pull(t);
            t
        }
    }

    /// Merge two subtrees where every key in `l` precedes every key in `r`.
    fn merge(&mut self, l: u32, r: u32) -> u32 {
        if l == NIL {
            return r;
        }
        if r == NIL {
            return l;
        }
        if self.nodes.at(l).prio < self.nodes.at(r).prio {
            let m = self.merge(self.nodes.at(l).right, r);
            self.nodes.at_mut(l).right = m;
            self.pull(l);
            l
        } else {
            let m = self.merge(l, self.nodes.at(r).left);
            self.nodes.at_mut(r).left = m;
            self.pull(r);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn t(v: u64) -> SimTime {
        SimTime(v)
    }

    /// Reference model: the BTreeMap index the treap replaced.
    #[derive(Default)]
    struct Model {
        map: BTreeMap<SimTime, u64>,
    }

    impl Model {
        fn add(&mut self, key: SimTime, ticks: u64) {
            if ticks > 0 {
                *self.map.entry(key).or_insert(0) += ticks;
            }
        }
        fn sub(&mut self, key: SimTime, ticks: u64) {
            if ticks == 0 {
                return;
            }
            let slot = self.map.get_mut(&key).expect("model has work");
            *slot -= ticks;
            if *slot == 0 {
                self.map.remove(&key);
            }
        }
        fn total(&self) -> u64 {
            self.map.values().sum()
        }
        fn at_or_before(&self, key: SimTime) -> u64 {
            self.map.range(..=key).map(|(_, &w)| w).sum()
        }
    }

    #[test]
    fn empty_answers_zero() {
        let w = WorkTreap::new();
        assert_eq!(w.total(), 0);
        assert_eq!(w.at_or_before(t(u64::MAX)), 0);
        assert!(w.entries().is_empty());
    }

    #[test]
    fn single_key_accumulates_and_drains() {
        let mut w = WorkTreap::new();
        w.add(t(50), 7);
        w.add(t(50), 3);
        assert_eq!(w.total(), 10);
        assert_eq!(w.at_or_before(t(49)), 0);
        assert_eq!(w.at_or_before(t(50)), 10);
        w.sub(t(50), 10);
        assert_eq!(w.total(), 0);
        assert!(w.entries().is_empty());
    }

    #[test]
    fn zero_tick_operations_are_noops() {
        let mut w = WorkTreap::new();
        w.add(t(5), 0);
        w.sub(t(5), 0); // would panic on a missing key were it not a no-op
        assert_eq!(w.total(), 0);
    }

    #[test]
    #[should_panic(expected = "work index underflow")]
    fn oversubtraction_panics() {
        let mut w = WorkTreap::new();
        w.add(t(5), 2);
        w.sub(t(5), 3);
    }

    #[test]
    fn prefix_sums_split_correctly() {
        let mut w = WorkTreap::new();
        for (k, v) in [(10u64, 1u64), (20, 2), (30, 4), (40, 8)] {
            w.add(t(k), v);
        }
        assert_eq!(w.at_or_before(t(9)), 0);
        assert_eq!(w.at_or_before(t(10)), 1);
        assert_eq!(w.at_or_before(t(25)), 3);
        assert_eq!(w.at_or_before(t(30)), 7);
        assert_eq!(w.at_or_before(t(1000)), 15);
    }

    #[test]
    fn shape_is_insertion_order_invariant() {
        // Same key set fed in opposite orders must produce identical
        // entries AND identical slab layouts are not required — but the
        // deterministic priorities make probe paths equal; pin the
        // observable contract (entries + every prefix).
        let keys: Vec<u64> = (0..200).map(|i| (i * 37) % 1000).collect();
        let mut a = WorkTreap::new();
        let mut b = WorkTreap::new();
        for &k in &keys {
            a.add(t(k), k + 1);
        }
        for &k in keys.iter().rev() {
            b.add(t(k), k + 1);
        }
        assert_eq!(a.entries(), b.entries());
        for probe in 0..1000 {
            assert_eq!(a.at_or_before(t(probe)), b.at_or_before(t(probe)));
        }
    }

    #[test]
    fn differential_against_btreemap_model() {
        // Deterministic LCG exercise: interleaved adds, paired subs, and
        // prefix probes over a churning key population, with slot reuse.
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut step = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut w = WorkTreap::new();
        let mut m = Model::default();
        let mut live: Vec<(SimTime, u64)> = Vec::new();
        for round in 0..20_000u64 {
            match step() % 3 {
                0 | 1 => {
                    // Cluster keys so duplicates and adjacent probes occur.
                    let key = t(step() % 512);
                    let ticks = step() % 9; // zero included
                    w.add(key, ticks);
                    m.add(key, ticks);
                    if ticks > 0 {
                        live.push((key, ticks));
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let i = (step() as usize) % live.len();
                        let (key, ticks) = live.swap_remove(i);
                        w.sub(key, ticks);
                        m.sub(key, ticks);
                    }
                }
            }
            if round % 64 == 0 {
                let probe = t(step() % 600);
                assert_eq!(
                    w.at_or_before(probe),
                    m.at_or_before(probe),
                    "round {round}"
                );
                assert_eq!(w.total(), m.total(), "round {round}");
            }
        }
        // Drain completely: the slab must recycle down to an empty tree.
        for (key, ticks) in live {
            w.sub(key, ticks);
            m.sub(key, ticks);
        }
        assert_eq!(w.total(), m.total());
        assert_eq!(
            w.entries(),
            m.map.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        );
    }
}
