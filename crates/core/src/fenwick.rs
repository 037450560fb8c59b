//! Fenwick (binary indexed) trees: O(log N) prefix sums over a mutable
//! array of values.
//!
//! Two consumers share this machinery:
//!
//! * [`crate::lottery`] — proportional-share victim selection needs `f64`
//!   weight sums and inverse-prefix-sum descent (`O(log N_d)` per draw,
//!   §3.4.1);
//! * the simulator's admission index — `work_ahead_of(deadline)` probes
//!   need `u64` (microsecond) sums of remaining query work keyed by
//!   deadline coordinate, so each probe is `O(log N_rq)` instead of a
//!   linear walk over the admitted set.

/// A value that can live in a [`Fenwick`] tree: copyable, with an additive
/// identity and exact (or IEEE) addition/subtraction.
pub trait FenwickValue: Copy + PartialOrd {
    /// Additive identity.
    const ZERO: Self;
    /// `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// `self - rhs`. For unsigned values the caller must guarantee
    /// `rhs <= self` along every tree path (i.e. only subtract what was
    /// previously added at the same index).
    fn sub(self, rhs: Self) -> Self;
}

impl FenwickValue for f64 {
    const ZERO: Self = 0.0;
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
}

impl FenwickValue for u64 {
    const ZERO: Self = 0;
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
}

/// A Fenwick tree over `len` slots, all starting at `T::ZERO`.
#[derive(Debug, Clone)]
pub struct Fenwick<T> {
    /// 1-indexed array of partial sums.
    tree: Vec<T>,
    len: usize,
}

impl<T: FenwickValue> Fenwick<T> {
    /// A tree over `len` zero-valued slots.
    pub fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![T::ZERO; len + 1],
            len,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree covers no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add `delta` to slot `index` in O(log N).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "the loop condition is the bounds check"
    )]
    pub fn add(&mut self, index: usize, delta: T) {
        assert!(
            index < self.len,
            "index {index} out of range 0..{}",
            self.len
        );
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Subtract `delta` from slot `index` in O(log N). For unsigned values
    /// only subtract amounts previously added at the same index.
    ///
    /// # Panics
    /// Panics if `index` is out of range (and, for unsigned values, on
    /// underflow in debug builds).
    #[expect(
        clippy::indexing_slicing,
        reason = "the loop condition is the bounds check"
    )]
    pub fn sub(&mut self, index: usize, delta: T) {
        assert!(
            index < self.len,
            "index {index} out of range 0..{}",
            self.len
        );
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].sub(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of slots `0..count` in O(log N). `count` is clamped to `len`.
    #[expect(
        clippy::indexing_slicing,
        reason = "i <= len < tree.len() by the clamp"
    )]
    pub fn prefix_sum(&self, count: usize) -> T {
        let mut sum = T::ZERO;
        let mut i = count.min(self.len);
        while i > 0 {
            sum = sum.add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of all slots.
    pub fn total(&self) -> T {
        self.prefix_sum(self.len)
    }

    /// Largest-prefix descent: the number of leading slots whose cumulative
    /// sum stays strictly below `target`. For sampling, this is the index
    /// of the first slot whose cumulative sum reaches `target` (callers
    /// clamp against zero-weight tails; see [`crate::lottery`]).
    #[expect(clippy::indexing_slicing, reason = "next <= n and tree.len() == n + 1")]
    pub fn descend(&self, mut target: T) -> usize {
        let n = self.len;
        if n == 0 {
            return 0;
        }
        let mut pos = 0usize;
        // Highest power of two <= n.
        let mut jump = 1usize << (usize::BITS - 1 - n.leading_zeros());
        while jump > 0 {
            let next = pos + jump;
            if next <= n && self.tree[next] < target {
                target = target.sub(self.tree[next]);
                pos = next;
            }
            jump >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_prefix_sums_track_adds_and_subs() {
        let mut f = Fenwick::<u64>::new(10);
        assert_eq!(f.total(), 0);
        f.add(3, 5);
        f.add(7, 2);
        f.add(3, 1);
        assert_eq!(f.prefix_sum(3), 0);
        assert_eq!(f.prefix_sum(4), 6);
        assert_eq!(f.prefix_sum(8), 8);
        assert_eq!(f.total(), 8);
        f.sub(3, 6);
        assert_eq!(f.total(), 2);
        assert_eq!(f.prefix_sum(4), 0);
    }

    #[test]
    fn f64_descend_finds_first_covering_slot() {
        let mut f = Fenwick::<f64>::new(4);
        for (i, w) in [1.0, 0.0, 3.0, 6.0].into_iter().enumerate() {
            f.add(i, w);
        }
        // Cumulative: [1, 1, 4, 10].
        assert_eq!(f.descend(0.5), 0);
        assert_eq!(f.descend(1.5), 2);
        // A target equal to a cumulative sum stays at that slot.
        assert_eq!(f.descend(4.0), 2);
        assert_eq!(f.descend(9.9), 3);
    }

    #[test]
    fn empty_tree_is_harmless() {
        let f = Fenwick::<u64>::new(0);
        assert!(f.is_empty());
        assert_eq!(f.total(), 0);
        assert_eq!(f.prefix_sum(5), 0);
        assert_eq!(f.descend(1), 0);
    }

    #[test]
    fn prefix_counts_clamp_to_len() {
        let mut f = Fenwick::<u64>::new(3);
        f.add(0, 1);
        f.add(2, 4);
        assert_eq!(f.prefix_sum(100), 5);
        assert_eq!(f.len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_add_panics() {
        let mut f = Fenwick::<u64>::new(2);
        f.add(2, 1);
    }
}
