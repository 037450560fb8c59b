//! Lottery scheduling: O(log N) proportional-share random selection.
//!
//! §3.4.1 chooses the update-degradation victim by lottery scheduling
//! (Waldspurger & Weihl): each data item holds a number of tickets and the
//! victim is drawn with probability proportional to its ticket count. The
//! paper quotes `O(log N_d)` per draw; we realize that bound with the
//! shared [`Fenwick`] tree over non-negative weights — `O(log N)` point
//! updates and `O(log N)` inverse-prefix-sum sampling.
//!
//! Weights are `f64` because UNIT's ticket values are continuous (Eq. 6–8).
//! Callers must supply non-negative weights; UNIT shifts its raw tickets by
//! `−T_min` before loading them (§3.4.1).
//!
//! A degrade signal draws thousands of times over one fixed weight vector,
//! and only the draws landing on an item below its modulation cap matter.
//! [`VictimIndex`] answers those draws in O(1) without the descent and
//! hands the rare draw near a span boundary to [`WeightedSampler::locate`],
//! so every victim is the one the descent would pick.

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
        // lint: allow(D6) — out-of-range `index` is this method's documented panic
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

    /// Map a raw `target ∈ [0, total)` to the index [`Self::sample`] would
    /// return for that draw value. Exposed so callers that pre-classify
    /// draws (e.g. against cumulative-weight spans) can resolve only the
    /// draws that matter while consuming the RNG stream themselves.
    pub fn locate(&self, target: f64) -> usize {
        self.find(target)
    }

    /// Cross-check the Fenwick tree against the stored weight vector: every
    /// prefix sum recomputed the naive O(N) way must match the tree within
    /// float tolerance. The shadow of the O(log N) fast path; always
    /// compiled, invoked behind the `validate` feature (see
    /// [`crate::validate`]).
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
        // lint: allow(D4) — weights are set to the 0.0 literal, never computed; exact match is the sentinel
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

/// Relative width of the safety margin around span boundaries: many orders
/// of magnitude above the float drift between the linear cumulative sums
/// and the Fenwick descent's node sums (≈ N·ε), so a draw farther than this
/// from every boundary resolves to the same item both ways.
const MARGIN: f64 = 1e-6;

/// Buckets per positive-weight item (rounded up to a power of two).
const BUCKETS_PER_ITEM: usize = 4;

/// Bucket word tags (top two bits). A cold bucket holds only draws on
/// items capped at build time; an item bucket lies inside one uncapped
/// item's span, farther than the margin from both ends; a step bucket
/// holds span boundaries and names the first span to step from.
const TAG: u32 = 3 << 30;
const ITEM: u32 = 1 << 30;
const STEP: u32 = 2 << 30;
/// Bucket word payload: an item index or a span position.
const PAYLOAD: u32 = !TAG;

/// How [`VictimIndex::resolve`] settled its draws. Diagnostics only: the
/// counts never influence a decision and are not checkpointed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VictimCounters {
    /// Draws that landed in a hot bucket (near an uncapped item's span).
    pub hot: u64,
    /// Hot draws that fell back to the exact Fenwick descent.
    pub fallbacks: u64,
}

/// One lottery's draw-to-victim map for a batch of draws over fixed
/// weights, where only the draws landing on *uncapped* items matter.
///
/// Positive weights split `[0, total)` into one contiguous span per item,
/// in index order. [`Self::build`] lays `next_pow2(4 × #positive)` equal
/// buckets over that range. A bucket is *hot* when it touches an uncapped
/// item's span widened by a `total × 1e-6` margin; a draw in a cold bucket
/// certainly lands on a capped item. A hot bucket that lies inside one
/// span, clear of the margin at both ends, names its item outright; any
/// other hot bucket names the first span ending in it, and a draw there
/// steps to the span containing it — the victim when it sits farther than
/// the margin from both ends. Only draws within the margin of a boundary
/// (≈ 1e-6·N of them) take the exact [`WeightedSampler::locate`] descent,
/// on a sampler built the first time one is needed. Build is O(N +
/// buckets); a draw is O(1) expected.
///
/// ```
/// use unit_core::lottery::{VictimIndex, WeightedSampler};
///
/// let weights = vec![2.0, 0.0, 1.0, 5.0];
/// let mut index = VictimIndex::default();
/// // Item 3 is capped: draws on it are no-ops the index can skip.
/// let total = index.build(weights.clone(), |i| i == 3);
/// assert_eq!(total, WeightedSampler::from_weights(&weights).total());
/// assert_eq!(index.uncapped(), 2);
/// assert_eq!(index.resolve(1.0), Some(0));
/// assert_eq!(index.resolve(2.5), Some(2));
/// assert_eq!(index.resolve(6.0), None); // inside item 3's span
/// ```
#[derive(Debug, Clone, Default)]
pub struct VictimIndex {
    /// The weights of the current build, kept for the exact fallback.
    weights: Vec<f64>,
    /// One span per positive-weight item, in index order.
    spans: Vec<Span>,
    /// One tagged word per bucket (see [`TAG`]).
    buckets: Vec<u32>,
    /// Sum of the weights, bit-identical to the sampler's `total()`.
    total: f64,
    margin: f64,
    /// Buckets per unit of weight.
    scale: f64,
    last_bucket: usize,
    uncapped: usize,
    /// The exact sampler, built on first use after each build.
    sampler: Option<WeightedSampler>,
    counters: VictimCounters,
}

/// A positive-weight item's slice of `[0, total)`; it starts where the
/// previous span ends.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Linear cumulative weight through this item.
    end: f64,
    item: usize,
}

impl VictimIndex {
    /// Index `weights` for a batch of draws; `capped(i)` says whether item
    /// `i`'s draws are no-ops. Returns the total weight, bit-identical to
    /// [`WeightedSampler::from_weights`]`(&weights).total()`; when it is
    /// not positive and finite there is nothing to draw and nothing is
    /// indexed. Zero, negative and NaN weights carry no span. O(N +
    /// buckets); the buffers are reused across builds.
    pub fn build(&mut self, weights: Vec<f64>, capped: impl Fn(usize) -> bool) -> f64 {
        self.total = crate::fenwick::Fenwick::total_of(&weights);
        self.margin = self.total * MARGIN;
        self.sampler = None;
        self.spans.clear();
        self.buckets.clear();
        self.uncapped = 0;
        if self.total > 0.0 && self.total.is_finite() {
            self.index(&weights, capped);
        }
        self.weights = weights;
        self.total
    }

    /// Lay the spans and the buckets over `[0, total)` in one pass.
    fn index(&mut self, weights: &[f64], capped: impl Fn(usize) -> bool) {
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        // Payloads are 30 bits; a larger table gets one step bucket, which
        // stays exact (a linear step per draw) however slow.
        let buckets = if weights.len() <= PAYLOAD as usize {
            (BUCKETS_PER_ITEM * positive).next_power_of_two()
        } else {
            1
        };
        self.scale = buckets as f64 / self.total;
        self.last_bucket = buckets - 1;
        self.buckets.resize(buckets, 0);
        // Buckets from `unassigned` on have not yet seen a span end, so
        // their payload is not yet their first span.
        let mut unassigned = 0;
        let mut start = 0.0;
        for (item, &w) in weights.iter().enumerate() {
            if w <= 0.0 || w.is_nan() {
                continue;
            }
            let end = start + w;
            let last = self.bucket(end);
            let p = self.spans.len() as u32 & PAYLOAD;
            for word in self.buckets.get_mut(unassigned..=last).unwrap_or_default() {
                *word = (*word & TAG) | p;
            }
            unassigned = unassigned.max(last + 1);
            self.spans.push(Span { end, item });
            if !capped(item) {
                self.uncapped += 1;
                let (lo, hi) = (
                    self.bucket(start - self.margin),
                    self.bucket(end + self.margin),
                );
                // Strictly between these, every point of a bucket clears
                // the margin at both ends of this span.
                let (inner_lo, inner_hi) = (
                    self.bucket(start + self.margin),
                    self.bucket(end - self.margin),
                );
                let words = self.buckets.get_mut(lo..=hi).unwrap_or_default();
                for (b, word) in (lo..).zip(words) {
                    *word = if inner_lo < b && b < inner_hi {
                        ITEM | (item as u32 & PAYLOAD)
                    } else {
                        *word | STEP
                    };
                }
            }
            start = end;
        }
        // Past the last span's end only float drift can land a draw; step
        // buckets there name no span, so such a draw takes the exact path.
        let past_end = self.spans.len() as u32 & PAYLOAD;
        for word in self.buckets.get_mut(unassigned..).unwrap_or_default() {
            *word = (*word & TAG) | past_end;
        }
    }

    /// The bucket holding weight coordinate `x`: monotone in `x`, so a
    /// range `[a, b]` lies within buckets `bucket(a)..=bucket(b)`.
    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.last_bucket)
    }

    /// Positive-weight items that were not capped at build time.
    pub fn uncapped(&self) -> usize {
        self.uncapped
    }

    /// Running resolution counts across every build.
    pub(crate) fn counters(&self) -> VictimCounters {
        self.counters
    }

    /// The item a draw `target ∈ [0, total)` lands on, or `None` when it
    /// certainly lands on an item that was capped at build time. A returned
    /// item is exactly [`WeightedSampler::locate`]`(target)`.
    pub fn resolve(&mut self, target: f64) -> Option<usize> {
        let word = self
            .buckets
            .get(self.bucket(target))
            .copied()
            .unwrap_or(STEP);
        let payload = (word & PAYLOAD) as usize;
        let found = match word & TAG {
            0 => return None,
            ITEM => Some(payload),
            _ => self.containing(payload, target),
        };
        self.counters.hot += 1;
        found.or_else(|| {
            self.counters.fallbacks += 1;
            Some(self.locate(target))
        })
    }

    /// The item whose span holds `target` farther than the margin from
    /// both of its ends, if there is one, stepping from span `p`: the first
    /// span ending in `target`'s bucket or later, so the containing span
    /// is at or after it.
    fn containing(&self, mut p: usize, target: f64) -> Option<usize> {
        let mut start = match p.checked_sub(1) {
            Some(prev) => self.spans.get(prev)?.end,
            None => 0.0,
        };
        loop {
            let span = self.spans.get(p)?;
            if span.end > target {
                let clear = target - start > self.margin && span.end - target > self.margin;
                return clear.then_some(span.item);
            }
            start = span.end;
            p += 1;
        }
    }

    /// The exact [`WeightedSampler::locate`] over the current build's
    /// weights; builds the sampler on first use. O(log N) after an
    /// O(N log N) first call per build.
    pub(crate) fn locate(&mut self, target: f64) -> usize {
        self.sampler().locate(target)
    }

    fn sampler(&mut self) -> &WeightedSampler {
        let weights = &self.weights;
        self.sampler
            .get_or_insert_with(|| WeightedSampler::from_weights(weights))
    }

    /// Build the exact sampler now and cross-check it: its tree against the
    /// naive prefix sums ([`WeightedSampler::check_consistency`]) and its
    /// total against this index's, bit for bit. Always compiled, invoked
    /// behind the `validate` feature (see [`crate::validate`]).
    pub fn check_sampler(&mut self) -> Result<(), String> {
        let total = self.total;
        let sampler = self.sampler();
        sampler.check_consistency()?;
        if sampler.total().to_bits() == total.to_bits() {
            Ok(())
        } else {
            Err(format!(
                "index total {total:e} differs from the sampler's {:e}",
                sampler.total()
            ))
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
