//! Lottery scheduling: proportional-share random selection.
//!
//! §3.4.1 chooses the update-degradation victim by lottery scheduling
//! (Waldspurger & Weihl): each data item holds a number of tickets and the
//! victim is drawn with probability proportional to its ticket count.
//!
//! Weights are `f64` because UNIT's ticket values are continuous (Eq. 6–8).
//! Callers must supply non-negative weights; UNIT shifts or clamps its raw
//! tickets before loading them (§3.4.1).
//!
//! Two structures serve two access patterns. [`WeightedSampler`] keeps its
//! weights in the shared [`Fenwick`] tree — `O(log N)` point updates and
//! `O(log N)` inverse-prefix-sum draws, the paper's `O(log N_d)` — for a
//! caller whose weights change between draws (the workload generator's
//! item choice). A degrade signal instead draws thousands of times over one
//! fixed weight vector, and only the draws landing on an item below its
//! modulation cap matter: [`VictimIndex`] lays those items on a wheel of
//! their own, so a draw on the capped mass costs one comparison and any
//! other draw resolves exactly in O(1) expected.

use crate::fenwick::Fenwick;
use rand::Rng;

/// A Fenwick-tree-backed weighted sampler over indices `0..len`.
///
/// ```
/// use unit_core::lottery::WeightedSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut sampler = WeightedSampler::from_weights(&[0.0, 3.0, 1.0]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let draw = sampler.sample(&mut rng).unwrap();
/// assert!(draw == 1 || draw == 2, "index 0 has no tickets");
/// sampler.set(1, 0.0); // O(log N) point update
/// assert_eq!(sampler.sample(&mut rng), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct WeightedSampler {
    /// Fenwick tree of partial weight sums.
    tree: Fenwick<f64>,
    /// Current weight per index (kept for `weight()` and validation).
    weights: Vec<f64>,
}

impl WeightedSampler {
    /// A sampler over `len` indices, all with weight zero.
    pub fn new(len: usize) -> Self {
        WeightedSampler {
            tree: Fenwick::new(len),
            weights: vec![0.0; len],
        }
    }

    /// Build a sampler from a slice of non-negative weights in O(N).
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite.
    pub fn from_weights(weights: &[f64]) -> Self {
        let mut s = WeightedSampler::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            s.set(i, w);
        }
        crate::validate_check!("sampler-prefix", s.check_consistency());
        s
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when the sampler covers no indices.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Current weight of `index`; an index past the end holds no weight.
    pub fn weight(&self, index: usize) -> f64 {
        self.weights.get(index).copied().unwrap_or(0.0)
    }

    /// Sum of all weights.
    pub fn total(&self) -> f64 {
        self.tree.total()
    }

    /// Set the weight of `index` to `w` in O(log N).
    ///
    /// # Panics
    /// Panics if `w` is negative or non-finite, or `index` out of range.
    pub fn set(&mut self, index: usize, w: f64) {
        assert!(
            w >= 0.0 && w.is_finite(),
            "lottery weights must be finite and non-negative, got {w}"
        );
        #[expect(
            clippy::indexing_slicing,
            reason = "out-of-range `index` is this method's documented panic"
        )]
        let slot = &mut self.weights[index];
        let delta = w - *slot;
        *slot = w;
        self.tree.add(index, delta);
    }

    /// Draw one index with probability proportional to its weight, or `None`
    /// when the total weight is (numerically) zero.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        let total = self.total();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let target = rng.gen::<f64>() * total;
        Some(self.find(target))
    }

    /// Cross-check the Fenwick tree against the stored weight vector: every
    /// prefix sum recomputed the naive O(N) way must match the tree within
    /// float tolerance. The shadow of the O(log N) fast path; always
    /// compiled, invoked behind the `validate` feature at the end of
    /// [`WeightedSampler::from_weights`] (see [`crate::validate`]).
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut cum = 0.0_f64;
        for (i, &w) in self.weights.iter().enumerate() {
            if w < 0.0 || !w.is_finite() {
                return Err(format!(
                    "weight {i} is {w}, must be finite and non-negative"
                ));
            }
            cum += w;
            let tree_cum = self.tree.prefix_sum(i + 1);
            let tol = 1e-9 * cum.abs().max(1.0);
            if (tree_cum - cum).abs() > tol {
                return Err(format!("fenwick prefix {i}: tree {tree_cum}, naive {cum}"));
            }
        }
        Ok(())
    }

    /// Find the first index whose cumulative weight exceeds `target` via the
    /// tree's largest-prefix descent. `target` must be in `[0, total)`.
    fn find(&self, target: f64) -> usize {
        let n = self.len();
        // Descent result = count of full prefixes below target; clamp against
        // accumulated float error landing on a zero-weight tail index.
        let start = self.tree.descend(target).min(n - 1);
        // Weights are set to the 0.0 literal, never computed: exact match is
        // the sentinel.
        let weighted = |w: &f64| *w != 0.0;
        // The nearest weighted index at or left of the descent; failing that
        // (an all-zero prefix), the first weighted index to its right.
        self.weights
            .iter()
            .take(start + 1)
            .rposition(weighted)
            .or_else(|| self.weights.iter().position(weighted))
            .unwrap_or(n - 1)
    }
}

/// Guide buckets per span: a hot draw steps past about one span end.
const BUCKETS_PER_SPAN: usize = 2;

/// One degrade signal's lottery wheel: a draw-to-victim map over fixed
/// weights where only the draws landing on *uncapped* items matter.
///
/// The uncapped positive weights are laid first, as linear cumulative spans
/// in index order with ends `e_1 < … < e_k = H`; the capped items' mass `C`
/// sits after them, so the wheel's total is `T = H + C`. A target
/// `u · T` (`u` the lottery's uniform draw) is a no-op when it is `≥ H`,
/// one comparison; otherwise it lands on the first span whose end exceeds
/// it. Each uncapped item is hit with probability `w_i / T` and a draw is
/// a no-op with probability `C / T`, the proportional lottery of §3.4.1.
///
/// A guide table finds the span: `[0, H)` is cut into `2k` equal buckets
/// by one monotone map, and a bucket's entry counts the span ends whose
/// bucket lies below it. Every such end lies below every target in the
/// bucket, so stepping forward from the entry to the first end above the
/// target is exact by construction, and O(1) expected. Build is O(N + k).
///
/// ```
/// use unit_core::lottery::VictimIndex;
///
/// let weights = vec![2.0, 0.0, 1.0, 5.0];
/// let mut index = VictimIndex::default();
/// // Item 3 is capped: its mass sits after the uncapped spans.
/// let total = index.build(|w| w.extend_from_slice(&weights), |i| i == 3);
/// assert_eq!(total, 8.0);
/// assert_eq!(index.uncapped(), 2);
/// assert_eq!(index.resolve(1.0), Some(0));
/// assert_eq!(index.resolve(2.5), Some(2));
/// assert_eq!(index.resolve(3.0), None); // past H = 3: capped mass
/// ```
#[derive(Debug, Clone, Default)]
pub struct VictimIndex {
    /// The weights of the current build, written in place by its caller.
    weights: Vec<f64>,
    /// The uncapped spans' ends, strictly increasing; the last is `hot`.
    ends: Vec<f64>,
    /// The item of each span.
    items: Vec<u32>,
    /// Per bucket, the number of span ends in earlier buckets: the first
    /// span a target in the bucket can land on.
    guide: Vec<u32>,
    /// `H`, the uncapped spans' mass.
    hot: f64,
    /// Buckets per unit of weight, `guide.len() / H`.
    scale: f64,
    last_bucket: usize,
}

impl VictimIndex {
    /// Lay the wheel for the weights `fill` writes into the (cleared)
    /// weight buffer; `capped(i)` says whether a draw on item `i` is a
    /// no-op. Returns the total `T = H + C`; when it is not positive and
    /// finite there is nothing to draw. Zero, negative and NaN weights
    /// carry no mass, and an uncapped weight too small to move the running
    /// end carries no span. O(N + k); every buffer is reused across builds.
    pub fn build(
        &mut self,
        fill: impl FnOnce(&mut Vec<f64>),
        capped: impl Fn(usize) -> bool,
    ) -> f64 {
        self.weights.clear();
        fill(&mut self.weights);
        self.ends.clear();
        self.items.clear();
        self.guide.clear();
        let (mut hot, mut cold) = (0.0_f64, 0.0_f64);
        for (item, &w) in self.weights.iter().enumerate() {
            if w > 0.0 && capped(item) {
                cold += w;
            } else if w > 0.0 && hot + w > hot {
                hot += w;
                self.ends.push(hot);
                self.items.push(item as u32);
            }
        }
        self.hot = hot;
        let buckets = BUCKETS_PER_SPAN * self.ends.len();
        self.scale = buckets as f64 / hot;
        self.last_bucket = buckets.saturating_sub(1);
        let mut span = 0;
        for b in 0..buckets {
            while self.ends.get(span).is_some_and(|&e| self.bucket(e) < b) {
                span += 1;
            }
            self.guide.push(span as u32);
        }
        crate::validate_check!("lottery-wheel", self.check_spans());
        hot + cold
    }

    /// Spans on the wheel: the positive-weight items uncapped at build
    /// time (less any whose weight the running end absorbed).
    pub fn uncapped(&self) -> usize {
        self.ends.len()
    }

    /// The item a target `u · T` lands on, or `None` for a no-op: a target
    /// at or past `H`, on the capped mass. O(1) expected.
    #[expect(
        clippy::indexing_slicing,
        reason = "a target below H, the last span end, stops the walk on a span"
    )]
    #[inline]
    pub fn resolve(&self, target: f64) -> Option<usize> {
        if target < self.hot {
            let mut span = self.guide[self.bucket(target)] as usize;
            while self.ends[span] <= target {
                span += 1;
            }
            crate::validate_check!("lottery-wheel", self.check_landing(target, span));
            Some(self.items[span] as usize)
        } else {
            None
        }
    }

    /// The guide bucket of `x ∈ [0, H]`: monotone in `x`, the last bucket
    /// for `H` itself.
    #[inline]
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.last_bucket)
    }

    /// The wheel's shape: span ends strictly increasing from above zero,
    /// the last one `H`. O(k). Always compiled, invoked behind the
    /// `validate` feature (see [`crate::validate`]).
    pub fn check_spans(&self) -> Result<(), String> {
        let mut start = 0.0;
        for (s, &end) in self.ends.iter().enumerate() {
            if end <= start {
                return Err(format!("span {s} ends at {end:e}, not past {start:e}"));
            }
            start = end;
        }
        if start.to_bits() == self.hot.to_bits() {
            Ok(())
        } else {
            Err(format!("last span end {start:e} is not H = {:e}", self.hot))
        }
    }

    /// `span` contains `target`: it starts at or below it and ends above
    /// it. O(1). Always compiled, invoked behind the `validate` feature.
    pub fn check_landing(&self, target: f64, span: usize) -> Result<(), String> {
        let start = span
            .checked_sub(1)
            .and_then(|s| self.ends.get(s))
            .map_or(0.0, |&e| e);
        match self.ends.get(span) {
            Some(&end) if start <= target && target < end => Ok(()),
            end => Err(format!(
                "target {target:e} resolved to span {span} ({start:e}, {end:?})"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_and_zero_weight_samplers_yield_none() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = WeightedSampler::new(0);
        assert!(s.is_empty());
        assert_eq!(s.sample(&mut rng), None);
        let s = WeightedSampler::new(5);
        assert_eq!(s.total(), 0.0);
        assert_eq!(s.sample(&mut rng), None);
    }

    #[test]
    fn single_positive_weight_always_wins() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = WeightedSampler::new(8);
        s.set(5, 3.25);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), Some(5));
        }
    }

    #[test]
    fn totals_track_set_operations() {
        let mut s = WeightedSampler::from_weights(&[1.0, 2.0, 3.0]);
        assert!((s.total() - 6.0).abs() < 1e-12);
        s.set(1, 0.0);
        assert!((s.total() - 4.0).abs() < 1e-12);
        assert_eq!(s.weight(1), 0.0);
        s.set(1, 5.0);
        assert!((s.total() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_frequency_is_proportional_to_weight() {
        let weights = [1.0, 0.0, 3.0, 6.0];
        let s = WeightedSampler::from_weights(&weights);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0u32; 4];
        let draws = 100_000;
        for _ in 0..draws {
            counts[s.sample(&mut rng).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight index must never be drawn");
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f64 / draws as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "index {i}: observed {observed:.4}, expected {expected:.4}"
            );
        }
    }

    #[test]
    fn non_power_of_two_sizes_sample_every_index() {
        // Exercise the descent logic on sizes that are not powers of two.
        for n in [1usize, 3, 5, 7, 100, 1000, 1024, 1025] {
            let weights: Vec<f64> = (0..n).map(|i| (i % 7 + 1) as f64).collect();
            let s = WeightedSampler::from_weights(&weights);
            let mut rng = StdRng::seed_from_u64(n as u64);
            for _ in 0..200 {
                let idx = s.sample(&mut rng).unwrap();
                assert!(idx < n);
                assert!(s.weight(idx) > 0.0);
            }
        }
    }

    #[test]
    fn consistency_check_accepts_a_healthy_sampler() {
        let mut s = WeightedSampler::from_weights(&[0.0, 3.0, 1.0, 2.5]);
        s.set(2, 0.0);
        s.set(0, 4.0);
        assert_eq!(s.check_consistency(), Ok(()));
    }

    #[test]
    fn consistency_check_catches_a_corrupted_tree() {
        let mut s = WeightedSampler::from_weights(&[1.0, 2.0, 3.0]);
        // Skew the Fenwick tree without going through `set`, as a bug in the
        // incremental path would.
        s.tree.add(1, 0.5);
        let err = s.check_consistency().unwrap_err();
        assert!(err.contains("fenwick prefix 1"), "{err}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_are_rejected() {
        let mut s = WeightedSampler::new(3);
        s.set(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn nan_weights_are_rejected() {
        let mut s = WeightedSampler::new(3);
        s.set(0, f64::NAN);
    }
}
