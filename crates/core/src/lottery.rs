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
