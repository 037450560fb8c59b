//! Descriptive statistics for workloads: the numbers that let you check a
//! synthesized trace against the properties the paper's experiments rely on
//! (skew, burstiness, load), and that `tracegen` prints.

use serde::{Deserialize, Serialize};
use unit_core::time::SimDuration;
use unit_core::types::Trace;

/// Summary statistics of a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of data items.
    pub n_items: usize,
    /// Number of queries.
    pub n_queries: usize,
    /// Number of update streams.
    pub n_update_streams: usize,
    /// Offered query-class utilization.
    pub query_utilization: f64,
    /// Offered update-class utilization.
    pub update_utilization: f64,
    /// Gini coefficient of the per-item query-access distribution
    /// (0 = uniform, →1 = all accesses on one item).
    pub access_gini: f64,
    /// Share of accesses landing on the top 10% of items.
    pub top_decile_access_share: f64,
    /// Coefficient of variation of query interarrival times (1 ≈ Poisson,
    /// ≫1 = bursty).
    pub interarrival_cv: f64,
    /// Mean query execution time, seconds.
    pub mean_exec_secs: f64,
    /// Mean relative deadline, seconds.
    pub mean_deadline_secs: f64,
    /// Mean ratio of deadline to execution time (scheduling slack).
    pub mean_slack_factor: f64,
    /// Mean update execution time, seconds (0 without streams).
    pub mean_update_exec_secs: f64,
}

/// Gini coefficient of a non-negative distribution (0 for uniform or empty).
pub fn gini(values: &[u64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    // G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n, with 1-based i.
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Coefficient of variation (σ/μ) of a sample; 0 for fewer than two points.
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

impl TraceStats {
    /// Compute the statistics of `trace` over `horizon`.
    pub fn of(trace: &Trace, horizon: SimDuration) -> TraceStats {
        let access = trace.query_access_histogram();
        let total_access: u64 = access.iter().sum();
        let mut sorted = access.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = sorted.iter().take((sorted.len() / 10).max(1)).sum();

        let interarrivals: Vec<f64> = trace
            .queries
            .iter()
            .zip(trace.queries.iter().skip(1))
            .map(|(a, b)| b.arrival.saturating_since(a.arrival).as_secs_f64())
            .collect();

        let execs: Vec<f64> = trace
            .queries
            .iter()
            .map(|q| q.exec_time.as_secs_f64())
            .collect();
        let deadlines: Vec<f64> = trace
            .queries
            .iter()
            .map(|q| q.relative_deadline.as_secs_f64())
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let slack: Vec<f64> = trace
            .queries
            .iter()
            .map(|q| q.relative_deadline.as_secs_f64() / q.exec_time.as_secs_f64().max(1e-9))
            .collect();
        let update_execs: Vec<f64> = trace
            .updates
            .iter()
            .map(|u| u.exec_time.as_secs_f64())
            .collect();

        TraceStats {
            n_items: trace.n_items,
            n_queries: trace.queries.len(),
            n_update_streams: trace.updates.len(),
            query_utilization: trace.offered_query_utilization(horizon),
            update_utilization: trace.offered_update_utilization(horizon),
            access_gini: gini(&access),
            top_decile_access_share: if total_access == 0 {
                0.0
            } else {
                top_decile as f64 / total_access as f64
            },
            interarrival_cv: coefficient_of_variation(&interarrivals),
            mean_exec_secs: mean(&execs),
            mean_deadline_secs: mean(&deadlines),
            mean_slack_factor: mean(&slack),
            mean_update_exec_secs: mean(&update_execs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::{generate_queries, QueryTraceConfig};

    #[test]
    fn gini_of_uniform_is_near_zero_and_of_concentrated_near_one() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
        let uniform = [10u64; 100];
        assert!(gini(&uniform).abs() < 1e-9);
        let mut concentrated = [0u64; 100];
        concentrated[0] = 1000;
        assert!(gini(&concentrated) > 0.98);
        // Monotone: more skew, more Gini.
        let mild = [5u64, 5, 5, 5, 20];
        let wild = [1u64, 1, 1, 1, 36];
        assert!(gini(&wild) > gini(&mild));
    }

    #[test]
    fn cv_detects_burstiness() {
        // Regular arrivals: CV 0.
        let regular = [5.0f64; 50];
        assert!(coefficient_of_variation(&regular) < 1e-9);
        // Bursty: long gaps + clusters.
        let mut bursty = vec![0.01f64; 48];
        bursty.push(100.0);
        bursty.push(100.0);
        assert!(coefficient_of_variation(&bursty) > 2.0);
        assert_eq!(coefficient_of_variation(&[1.0]), 0.0);
    }

    #[test]
    fn stats_of_a_hand_built_trace() {
        let trace = TraceBuilder::new(4)
            .query(0.0, &[0], 2.0, 10.0)
            .query(10.0, &[0], 2.0, 20.0)
            .query(20.0, &[1], 2.0, 30.0)
            .update_stream(2, 50.0, 5.0)
            .build()
            .unwrap();
        let s = TraceStats::of(&trace, SimDuration::from_secs(100));
        assert_eq!(s.n_queries, 3);
        assert_eq!(s.n_update_streams, 1);
        assert!((s.mean_exec_secs - 2.0).abs() < 1e-9);
        assert!((s.mean_deadline_secs - 20.0).abs() < 1e-9);
        assert!((s.mean_slack_factor - 10.0).abs() < 1e-9);
        assert!((s.query_utilization - 0.06).abs() < 1e-9);
        assert!((s.mean_update_exec_secs - 5.0).abs() < 1e-9);
        // Regular spacing: no burstiness.
        assert!(s.interarrival_cv < 1e-9);
    }

    #[test]
    fn generated_traces_show_the_calibrated_properties() {
        let cfg = QueryTraceConfig {
            n_items: 256,
            n_queries: 4_000,
            horizon: unit_core::time::SimDuration::from_secs(140_000),
            ..QueryTraceConfig::default()
        };
        let t = generate_queries(&cfg);
        let trace = Trace {
            n_items: cfg.n_items,
            queries: t.queries,
            updates: vec![],
        };
        let s = TraceStats::of(&trace, cfg.horizon);
        // Zipf(1.5) skew: heavy concentration.
        assert!(s.access_gini > 0.6, "gini {}", s.access_gini);
        assert!(
            s.top_decile_access_share > 0.5,
            "top decile {}",
            s.top_decile_access_share
        );
        // Flash crowds make arrivals (mildly, at this scale) super-Poisson.
        assert!(s.interarrival_cv >= 1.0, "cv {}", s.interarrival_cv);
        // ~1s executions with generous deadlines.
        assert!(
            (s.mean_exec_secs - 1.0).abs() < 0.15,
            "{}",
            s.mean_exec_secs
        );
        assert!(s.mean_slack_factor > 10.0);
    }
}
