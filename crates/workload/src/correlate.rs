//! Synthesis of update distributions with a target correlation to the query
//! distribution (§4.1: "positive correlation and negative correlation (to
//! the query distribution with a coefficient of 0.8)").
//!
//! Given per-item query weights `w`, we build update weights as a convex
//! mixture of a *signal* component and independent noise:
//!
//! * positive: signal = `w` itself,
//! * negative: signal = the *affine flip* `max(w) − w`, whose Pearson
//!   correlation with `w` is exactly −1. (Merely permuting the weight
//!   multiset cannot reach strong anti-correlation for heavy-tailed `w`:
//!   the negative covariance of any rearrangement is bounded by the small
//!   lower weights.) The flip also reproduces the paper's Fig. 3(c) shape —
//!   "two prominent groups": cold-queried items all receive roughly
//!   `max(w)` (hot updated), hot-queried items receive little (cold
//!   updated).
//!
//! The mixing coefficient is found by bisection until the Pearson
//! correlation of the result against `w` hits the target within tolerance —
//! so every generated trace records an *achieved* coefficient near ±0.8
//! rather than assuming one.

use crate::dist::pearson;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spatial shape of an update trace relative to the query distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum UpdateDistribution {
    /// Equal expected update volume per item.
    Uniform,
    /// Correlated with the query distribution (ρ ≈ +0.8).
    PositiveCorrelation,
    /// Anti-correlated with the query distribution (ρ ≈ −0.8).
    NegativeCorrelation,
}

impl UpdateDistribution {
    /// Trace-name fragment used by Table 1 ("unif", "pos", "neg").
    pub fn short_name(self) -> &'static str {
        match self {
            UpdateDistribution::Uniform => "unif",
            UpdateDistribution::PositiveCorrelation => "pos",
            UpdateDistribution::NegativeCorrelation => "neg",
        }
    }
}

/// Result of weight synthesis: normalized weights plus the achieved
/// correlation against the reference.
#[derive(Debug, Clone)]
pub struct CorrelatedWeights {
    /// Normalized (sums to 1) per-item weights.
    pub weights: Vec<f64>,
    /// Pearson correlation against the reference distribution.
    pub achieved_rho: f64,
}

/// Build normalized update weights for `distribution` against the reference
/// query weights, targeting `|rho| = target_rho` for the correlated shapes.
///
/// # Panics
/// Panics if `reference` is empty or `target_rho` is outside `(0, 1)`.
pub fn correlated_weights(
    reference: &[f64],
    distribution: UpdateDistribution,
    target_rho: f64,
    seed: u64,
) -> CorrelatedWeights {
    assert!(!reference.is_empty(), "reference distribution is empty");
    assert!(
        target_rho > 0.0 && target_rho < 1.0,
        "target rho must be in (0,1), got {target_rho}"
    );
    let n = reference.len();
    let mut rng = StdRng::seed_from_u64(seed);

    match distribution {
        UpdateDistribution::Uniform => {
            let weights = vec![1.0 / n as f64; n];
            let achieved_rho = pearson(&weights, reference);
            CorrelatedWeights {
                weights,
                achieved_rho,
            }
        }
        UpdateDistribution::PositiveCorrelation => {
            mix_to_target(reference.to_vec(), reference, target_rho, &mut rng)
        }
        UpdateDistribution::NegativeCorrelation => {
            let signal = affine_flip(reference);
            mix_to_target(signal, reference, -target_rho, &mut rng)
        }
    }
}

/// The affine flip `max(w) − w`: non-negative, and its Pearson correlation
/// with `w` is exactly −1 (it is a decreasing affine function of `w`).
fn affine_flip(reference: &[f64]) -> Vec<f64> {
    let max = reference.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    reference.iter().map(|&w| max - w).collect()
}

/// Bisect the mixing coefficient `alpha` in
/// `u = alpha * signal + (1 - alpha) * noise` until `pearson(u, reference)`
/// hits `target` (which may be negative) within tolerance.
fn mix_to_target(
    signal: Vec<f64>,
    reference: &[f64],
    target: f64,
    rng: &mut StdRng,
) -> CorrelatedWeights {
    let n = reference.len();
    let noise: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();

    let signal = normalize(signal);
    let noise = normalize(noise);
    let blend = |alpha: f64| -> Vec<f64> {
        normalize(
            signal
                .iter()
                .zip(&noise)
                .map(|(&s, &z)| alpha * s + (1.0 - alpha) * z)
                .collect(),
        )
    };

    let mut lo = 0.0;
    let mut hi = 1.0;
    let mut best = blend(1.0);
    let mut best_rho = pearson(&best, reference);
    // With alpha=1 the correlation is the extreme the signal can reach; if
    // even that undershoots the target magnitude, keep the extreme.
    if best_rho.abs() >= target.abs() {
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let cand = blend(mid);
            let rho = pearson(&cand, reference);
            if (rho - target).abs() < (best_rho - target).abs() {
                best = cand.clone();
                best_rho = rho;
            }
            if rho.abs() < target.abs() {
                lo = mid;
            } else {
                hi = mid;
            }
            if (best_rho - target).abs() < 1e-3 {
                break;
            }
        }
    }
    CorrelatedWeights {
        weights: best,
        achieved_rho: best_rho,
    }
}

fn normalize(mut v: Vec<f64>) -> Vec<f64> {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in &mut v {
            *x /= sum;
        }
    }
    v
}

/// Convert normalized weights into integer per-item counts summing exactly
/// to `total` (largest-remainder apportionment).
pub fn apportion_counts(weights: &[f64], total: u64) -> Vec<u64> {
    let mut counts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact = w * total as f64;
        let floor = exact.floor() as u64;
        counts.push(floor);
        assigned += floor;
        remainders.push((i, exact - floor as f64));
    }
    // Distribute the leftover to the largest remainders (ties by index for
    // determinism).
    remainders.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    let leftover = total.saturating_sub(assigned) as usize;
    for &(i, _) in remainders.iter().take(leftover) {
        if let Some(count) = counts.get_mut(i) {
            *count += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::zipf_weights;

    fn reference() -> Vec<f64> {
        // A shuffled Zipf-like reference resembling real query skew.
        let mut w = zipf_weights(256, 0.9);
        // Deterministic shuffle-ish rearrangement.
        w.rotate_left(97);
        w
    }

    #[test]
    fn uniform_weights_are_flat() {
        let r = reference();
        let c = correlated_weights(&r, UpdateDistribution::Uniform, 0.8, 1);
        assert!(c.weights.iter().all(|&x| (x - 1.0 / 256.0).abs() < 1e-12));
        assert!(c.achieved_rho.abs() < 1e-6);
    }

    #[test]
    fn positive_correlation_hits_target() {
        let r = reference();
        let c = correlated_weights(&r, UpdateDistribution::PositiveCorrelation, 0.8, 2);
        assert!(
            (c.achieved_rho - 0.8).abs() < 0.02,
            "achieved {}",
            c.achieved_rho
        );
        let sum: f64 = c.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn negative_correlation_hits_target() {
        let r = reference();
        let c = correlated_weights(&r, UpdateDistribution::NegativeCorrelation, 0.8, 3);
        assert!(
            (c.achieved_rho + 0.8).abs() < 0.05,
            "achieved {}",
            c.achieved_rho
        );
        assert!(c.weights.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn affine_flip_is_perfectly_anticorrelated() {
        let r = reference();
        let flip = affine_flip(&r);
        assert!((pearson(&r, &flip) + 1.0).abs() < 1e-9);
        assert!(flip.iter().all(|&x| x >= 0.0));
        // The hottest reference item receives zero flipped weight.
        let hot = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(flip[hot], 0.0);
    }

    #[test]
    fn apportionment_is_exact_and_proportional() {
        let weights = normalize(vec![0.5, 0.25, 0.125, 0.125]);
        let counts = apportion_counts(&weights, 1000);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert_eq!(counts, vec![500, 250, 125, 125]);

        // Awkward fractions still sum exactly.
        let weights = normalize(vec![1.0, 1.0, 1.0]);
        let counts = apportion_counts(&weights, 1000);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        assert!(counts.iter().all(|&c| c == 333 || c == 334));
    }

    #[test]
    fn apportionment_handles_zero_weights() {
        let counts = apportion_counts(&[0.0, 1.0, 0.0], 10);
        assert_eq!(counts, vec![0, 10, 0]);
    }

    #[test]
    fn short_names_match_table1() {
        assert_eq!(UpdateDistribution::Uniform.short_name(), "unif");
        assert_eq!(UpdateDistribution::PositiveCorrelation.short_name(), "pos");
        assert_eq!(UpdateDistribution::NegativeCorrelation.short_name(), "neg");
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let r = reference();
        let a = correlated_weights(&r, UpdateDistribution::PositiveCorrelation, 0.8, 42);
        let b = correlated_weights(&r, UpdateDistribution::PositiveCorrelation, 0.8, 42);
        assert_eq!(a.weights, b.weights);
        let c = correlated_weights(&r, UpdateDistribution::PositiveCorrelation, 0.8, 43);
        assert_ne!(a.weights, c.weights);
    }
}
