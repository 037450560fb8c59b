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
use rand::{Rng, RngCore};

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

/// Margin around every span boundary, per item and unit of total weight.
/// The linear cumulative sums and the Fenwick descent's node sums drift
/// apart by at most ≈ 2N·ε·total (N additions each way, ε = 2^-53); the
/// margin `N · 2^-40 · total` is 2^12 times that bound at every table size,
/// so a draw farther than it from every boundary resolves to the same item
/// both ways.
const MARGIN_PER_ITEM: f64 = 1.0 / (1u64 << 40) as f64;

/// Buckets per positive-weight item (rounded up to a power of two).
const BUCKETS_PER_ITEM: usize = 4;

/// Bits of a draw: `rand`'s `Standard` `f64` is `(next_u64() >> 11)·2^-53`,
/// so a draw is a 53-bit integer and its target that times `2^-53·total`.
const DRAW_BITS: u32 = 53;

/// Hot bucket word tags (top two bits). An item bucket lies inside one
/// uncapped item's span, farther than the margin from both ends; a step
/// bucket names an uncapped span whose widened range reaches it, the span
/// to step from.
const TAG: u32 = 3 << 30;
const ITEM: u32 = 1 << 30;
const STEP: u32 = 2 << 30;
/// Bucket word payload: an item index or a span position.
const PAYLOAD: u32 = !TAG;

/// Draws one [`VictimIndex::draw_block`] call classifies: one bit of its
/// hot mask each.
pub const BLOCK: usize = 64;

/// How [`VictimIndex`] settled its hot draws. Diagnostics only: the counts
/// never influence a decision and are not checkpointed.
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
/// in index order. [`Self::build`] splits the 53-bit draws into
/// `next_pow2(4 × #positive)` equal buckets by their top bits, so a draw's
/// bucket costs one shift. A bucket is *hot* when it touches an uncapped
/// item's span widened by the margin (`N · 2^-40 · total`); a draw in a
/// cold bucket certainly lands on a capped item. A hot bucket that lies
/// inside one span, clear of the margin at both ends, names its item
/// outright; any other hot bucket names an uncapped span whose widened
/// range reaches it, and a draw there steps back or forward to the span
/// containing it — the victim when it sits farther than the margin from
/// both ends. Only draws within the margin of a boundary take the exact
/// [`WeightedSampler::locate`] descent, on a sampler built the first time
/// one is needed. Build is O(N + hot buckets), with no branch
/// on a weight; [`Self::draw_block`] classifies [`BLOCK`] draws at a time
/// with no branch at all, and a hot draw is O(1) expected.
///
/// The build maps a weight coordinate to a bucket through the draw it
/// would take, `x · 2^53 / total`; that differs from the draw by a few
/// units where the margin is `N · 2^13` of them, so a draw on an uncapped
/// span always lands in a bucket its widened span marked hot.
///
/// ```
/// use unit_core::lottery::{VictimIndex, WeightedSampler};
///
/// let weights = vec![2.0, 0.0, 1.0, 5.0];
/// let mut index = VictimIndex::default();
/// // Item 3 is capped: draws on it are no-ops the index can skip.
/// let total = index.build(|w| w.extend_from_slice(&weights), |i| i == 3);
/// assert_eq!(total, WeightedSampler::from_weights(&weights).total());
/// assert_eq!(index.uncapped(), 2);
/// assert_eq!(index.resolve(1.0), Some(0));
/// assert_eq!(index.resolve(2.5), Some(2));
/// assert_eq!(index.resolve(6.0), None); // inside item 3's span
/// ```
#[derive(Debug, Clone, Default)]
pub struct VictimIndex {
    /// The weights of the current build, written in place by its caller.
    weights: Vec<f64>,
    /// One span per positive-weight item, in index order.
    spans: Vec<Span>,
    /// The positions in `spans` of the items uncapped at build time.
    uncapped_spans: Vec<u32>,
    /// One tagged word per hot bucket (see [`TAG`]); a cold bucket's word
    /// is stale.
    buckets: Vec<u32>,
    /// One bit per bucket, set when it is hot: all a cold draw reads.
    hot: Vec<u64>,
    /// Sum of the weights, bit-identical to the sampler's `total()`.
    total: f64,
    margin: f64,
    /// Draw units per unit of weight: `2^53 / total`.
    units: f64,
    /// A draw's bucket is the draw shifted right by this.
    shift: u32,
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
    /// Index the weights `fill` writes into the (cleared) weight buffer for
    /// a batch of draws; `capped(i)` says whether item `i`'s draws are
    /// no-ops. Returns the total weight, bit-identical to
    /// [`WeightedSampler::from_weights`]`(&weights).total()`; when it is
    /// not positive and finite there is nothing to draw and nothing is
    /// indexed. Zero, negative and NaN weights carry no span. O(N +
    /// buckets); every buffer is reused across builds.
    pub fn build(
        &mut self,
        fill: impl FnOnce(&mut Vec<f64>),
        capped: impl Fn(usize) -> bool,
    ) -> f64 {
        self.weights.clear();
        fill(&mut self.weights);
        self.total = Fenwick::total_of(&self.weights);
        self.margin = self.total * self.weights.len() as f64 * MARGIN_PER_ITEM;
        self.sampler = None;
        self.spans.clear();
        self.uncapped_spans.clear();
        self.hot.clear();
        self.uncapped = 0;
        if self.total > 0.0 && self.total.is_finite() {
            self.index(capped);
        }
        self.total
    }

    /// Lay the spans over `[0, total)`, then the hot buckets around the
    /// uncapped ones. The span pass has no branch on a weight or a cap, and
    /// only hot buckets get a word: a cold one is never read past its bit.
    fn index(&mut self, capped: impl Fn(usize) -> bool) {
        let n = self.weights.len();
        self.spans.resize(n, Span { end: 0.0, item: 0 });
        self.uncapped_spans.resize(n, 0);
        let (mut count, mut uncapped, mut end) = (0, 0, 0.0);
        for (item, &w) in self.weights.iter().enumerate() {
            // Zero, negative and NaN weights carry no span: their slot is
            // overwritten by the next positive one, and adding 0.0 leaves
            // the (non-negative) running sum's bits alone.
            let positive = w > 0.0;
            end += if positive { w } else { 0.0 };
            if let Some(span) = self.spans.get_mut(count) {
                *span = Span { end, item };
            }
            if let Some(slot) = self.uncapped_spans.get_mut(uncapped) {
                *slot = count as u32;
            }
            uncapped += usize::from(positive && !capped(item));
            count += usize::from(positive);
        }
        self.spans.truncate(count);
        self.uncapped_spans.truncate(uncapped);
        self.uncapped = uncapped;
        self.units = (1u64 << DRAW_BITS) as f64 / self.total;
        // Payloads are 30 bits, and a total too small to scale to draw
        // units has no bucket geometry; either gets one step bucket, which
        // stays exact (a linear step per draw) however slow.
        let buckets = if n <= PAYLOAD as usize && self.units.is_finite() {
            (BUCKETS_PER_ITEM * count).next_power_of_two()
        } else {
            1
        };
        self.shift = DRAW_BITS.saturating_sub(buckets.trailing_zeros());
        self.last_bucket = buckets - 1;
        self.buckets.resize(buckets, 0);
        self.hot.resize(buckets.div_ceil(64), 0);
        let (units, shift, last, margin) = (self.units, self.shift, self.last_bucket, self.margin);
        let bucket = |x: f64| bucket_of(unit_of(x, units), shift, last);
        for &p in &self.uncapped_spans {
            let start = (p as usize)
                .checked_sub(1)
                .and_then(|prev| self.spans.get(prev))
                .map_or(0.0, |s| s.end);
            let Some(&Span { end, item }) = self.spans.get(p as usize) else {
                continue;
            };
            let (lo, hi) = (bucket(start - margin), bucket(end + margin));
            // Strictly between these, every point of a bucket clears the
            // margin at both ends of this span. No later span's widened
            // range reaches into this interior, nor this span's into an
            // earlier one's.
            let (inner_lo, inner_hi) = (bucket(start + margin), bucket(end - margin));
            let words = self.buckets.get_mut(lo..=hi).unwrap_or_default();
            for (b, word) in (lo..).zip(words) {
                *word = if inner_lo < b && b < inner_hi {
                    ITEM | (item as u32 & PAYLOAD)
                } else {
                    STEP | (p & PAYLOAD)
                };
            }
            for (w, bits) in self
                .hot
                .iter_mut()
                .enumerate()
                .take(hi / 64 + 1)
                .skip(lo / 64)
            {
                let from = lo.saturating_sub(w * 64).min(63);
                let to = (hi - w * 64).min(63);
                *bits |= (u64::MAX >> (63 - to)) & (u64::MAX << from);
            }
        }
    }

    /// The draw a weight coordinate `x` would take (see [`unit_of`]).
    fn unit(&self, x: f64) -> u64 {
        unit_of(x, self.units)
    }

    /// The bucket of draw `unit` (see [`bucket_of`]).
    fn bucket(&self, unit: u64) -> usize {
        bucket_of(unit, self.shift, self.last_bucket)
    }

    /// Positive-weight items that were not capped at build time.
    pub fn uncapped(&self) -> usize {
        self.uncapped
    }

    /// Running resolution counts across every build.
    pub(crate) fn counters(&self) -> VictimCounters {
        self.counters
    }

    /// Fill `draws` (at most [`BLOCK`] of them) with the next 53-bit draws
    /// `next_u64() >> 11`, in stream order, and return their hot mask: bit
    /// `k` is set when `draws[k]` lands in a hot bucket. A clear bit is a
    /// draw that certainly lands on an item capped at build time. Consumes
    /// exactly what `rng.gen::<f64>()` would per draw; no branch depends
    /// on a draw.
    pub fn draw_block<R: RngCore + ?Sized>(&self, rng: &mut R, draws: &mut [u64]) -> u64 {
        debug_assert!(draws.len() <= BLOCK, "a block is at most {BLOCK} draws");
        let mut hot = 0;
        for (k, draw) in draws.iter_mut().enumerate() {
            *draw = rng.next_u64() >> (64 - DRAW_BITS);
            hot |= u64::from(self.is_hot(self.bucket(*draw))) << k;
        }
        hot
    }

    /// The lottery target of a draw from [`Self::draw_block`]: bit for bit
    /// `rng.gen::<f64>() × total` for the same generator output.
    pub(crate) fn target(&self, draw: u64) -> f64 {
        draw as f64 * (1.0 / (1u64 << DRAW_BITS) as f64) * self.total
    }

    /// The item a draw `target ∈ [0, total)` lands on, or `None` when it
    /// certainly lands on an item that was capped at build time. A returned
    /// item is exactly [`WeightedSampler::locate`]`(target)`.
    pub fn resolve(&mut self, target: f64) -> Option<usize> {
        let b = self.bucket(self.unit(target));
        self.is_hot(b).then(|| self.settle(b, target))
    }

    /// The item a draw from [`Self::draw_block`] lands on, exactly
    /// [`WeightedSampler::locate`]`(`[`Self::target`]`(draw))`; O(1)
    /// expected for a hot draw, which is what the counters assume it is.
    pub(crate) fn resolve_draw(&mut self, draw: u64) -> usize {
        self.settle(self.bucket(draw), self.target(draw))
    }

    fn is_hot(&self, b: usize) -> bool {
        self.hot
            .get(b / 64)
            .is_some_and(|bits| bits >> (b % 64) & 1 == 1)
    }

    /// Settle `target`, which lies in bucket `b`: the item a hot bucket
    /// names, the containing span stepped to from the one it names, or
    /// the exact descent.
    fn settle(&mut self, b: usize, target: f64) -> usize {
        let word = self.buckets.get(b).copied().filter(|_| self.is_hot(b));
        let found = word.and_then(|word| {
            let payload = (word & PAYLOAD) as usize;
            match word & TAG {
                ITEM => Some(payload),
                _ => self.containing(payload, target),
            }
        });
        self.counters.hot += 1;
        found.unwrap_or_else(|| {
            self.counters.fallbacks += 1;
            self.locate(target)
        })
    }

    /// The item whose span holds `target` farther than the margin from
    /// both of its ends, if there is one, stepping from span `p` (one whose
    /// widened range reaches `target`'s bucket) back or forward to the span
    /// containing it.
    fn containing(&self, mut p: usize, target: f64) -> Option<usize> {
        let start_of = |p: usize| match p.checked_sub(1) {
            Some(prev) => self.spans.get(prev).map(|s| s.end),
            None => Some(0.0),
        };
        let mut start = start_of(p)?;
        while target < start {
            p = p.checked_sub(1)?;
            start = start_of(p)?;
        }
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

/// The draw a weight coordinate `x` would take, `x · units` (units =
/// `2^53 / total`), saturating at 0 and `u64::MAX`: within a few units of
/// the draws whose target is `x`, and monotone in `x`.
fn unit_of(x: f64, units: f64) -> u64 {
    // Through `i64`, the cheaper saturating conversion: the products here
    // stay far below 2^63.
    ((x * units) as i64).max(0) as u64
}

/// The bucket of draw `unit`: its top bits, capped at `last_bucket` for
/// the coordinates past `total` a widened span reaches. Monotone.
fn bucket_of(unit: u64, shift: u32, last_bucket: usize) -> usize {
    ((unit >> shift) as usize).min(last_bucket)
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
    fn block_draws_are_the_standard_f64_draws() {
        let weights: Vec<f64> = (0..100).map(|i| (i % 7) as f64 * 0.3).collect();
        let mut index = VictimIndex::default();
        let total = index.build(|w| w.extend_from_slice(&weights), |i| i % 3 == 0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut scalar = rng.clone();
        let mut draws = [0; BLOCK];
        let hot = index.draw_block(&mut rng, &mut draws);
        for (k, &draw) in draws.iter().enumerate() {
            let target = scalar.gen::<f64>() * total;
            assert_eq!(index.target(draw).to_bits(), target.to_bits());
            let resolved = index.resolve(target);
            assert_eq!(hot >> k & 1 == 1, resolved.is_some(), "draw {k}");
        }
        assert_eq!(rng, scalar, "a block consumes one f64 per draw");
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
