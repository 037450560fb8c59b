//! Order statistics the runner reports: percentiles, medians, the quartile
//! spread used to judge steadiness, and the 5 %-crossing interpolation.

/// The `p`-th percentile (`0.0..=100.0`) of `sorted`, linearly interpolated
/// between the two nearest ranks. `sorted` must be ascending and non-empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Percentile of an unsorted sample (sorts a copy).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the benchmark's acceptance rule is written in.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i * (n + 1) // 4 clamped to 1..=n-1; delta = i*(n+1) - j*4
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The offered rate at which the failure ratio crosses `limit`, linearly
/// interpolated between the two ladder steps that bracket it. `ladder` is
/// `(rate, fail_ratio)` in ascending rate order. If no step fails the top
/// rate is returned; if the first step already fails, 0.
pub fn crossing_rate(ladder: &[(f64, f64)], limit: f64) -> f64 {
    let Some(&(first_rate, first_fail)) = ladder.first() else {
        return 0.0;
    };
    if first_fail > limit {
        return 0.0;
    }
    let mut below = (first_rate, first_fail);
    for &(rate, fail) in &ladder[1..] {
        if fail > limit {
            let (r0, f0) = below;
            return r0 + (rate - r0) * (limit - f0) / (fail - f0);
        }
        below = (rate, fail);
    }
    below.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 50.0), 30.0);
        assert_eq!(percentile_sorted(&v, 100.0), 50.0);
        assert_eq!(percentile_sorted(&v, 25.0), 20.0);
        assert!((percentile_sorted(&v, 90.0) - 46.0).abs() < 1e-12);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles_exclusive(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((relative_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_interpolates_between_the_bracketing_steps() {
        let ladder = [
            (10_000.0, 0.00),
            (16_000.0, 0.01),
            (20_000.0, 0.03),
            (24_000.0, 0.11),
        ];
        // 0.05 sits a quarter of the way from 0.03 to 0.11.
        assert!((crossing_rate(&ladder, 0.05) - 21_000.0).abs() < 1e-9);
        // Nothing fails: the top step.
        assert_eq!(crossing_rate(&ladder[..3], 0.05), 20_000.0);
        // The first step already fails: 0.
        assert_eq!(
            crossing_rate(&[(10_000.0, 0.2), (20_000.0, 0.9)], 0.05),
            0.0
        );
        assert_eq!(crossing_rate(&[], 0.05), 0.0);
    }
}
