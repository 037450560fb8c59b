//! Synthetic cello99a-like user-query trace (§4.1).
//!
//! The paper derives queries from HP's `cello99a` disk trace: 110,035 reads
//! over 3,848,104 s, mapped onto 1024 data items, with deadlines drawn
//! between the average response time and 10× the maximal response time and a
//! 90% freshness requirement everywhere. The raw trace is proprietary, so
//! this generator reproduces its load-bearing properties instead
//! (substitution documented in DESIGN.md):
//!
//! * **skewed spatial popularity** — Zipf(1.5) weights assigned to items
//!   through a seeded permutation (the paper's Fig. 3(a) histogram is
//!   strongly skewed but not sorted by id; the >95% update shedding of
//!   Fig. 3(c) requires the cold majority of items to carry negligible
//!   query traffic, which pins the exponent well above 1);
//! * **bursty arrivals** — a Poisson base process plus flash-crowd episodes
//!   (the paper motivates admission control with flash crowds);
//! * **calibrated CPU demand** — log-normal service times with a configured
//!   mean, so the query class offers a known utilization against which the
//!   paper's 15%/75%/150% update volumes are meaningful;
//! * the paper's exact **deadline recipe** and **freshness requirement**.

use crate::stream::stream_queries;
use serde::{Deserialize, Serialize};
use unit_core::time::SimDuration;
use unit_core::types::QuerySpec;

/// Configuration of the query-trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryTraceConfig {
    /// Database size `S` (paper: 1024).
    pub n_items: usize,
    /// Trace horizon.
    pub horizon: SimDuration,
    /// Number of user queries to generate.
    pub n_queries: usize,
    /// Zipf exponent of the item-popularity skew.
    pub zipf_exponent: f64,
    /// Mean query execution time, seconds (log-normal).
    pub mean_exec_secs: f64,
    /// Sigma of the underlying normal for execution times.
    pub exec_sigma: f64,
    /// Hard clamp on execution times, seconds.
    pub exec_clamp_secs: (f64, f64),
    /// Maximum read-set size (1 + capped geometric extras).
    pub max_items_per_query: usize,
    /// Continue-probability of the geometric read-set extension.
    pub multi_item_p: f64,
    /// Number of flash-crowd episodes.
    pub burst_count: usize,
    /// Duration of each flash-crowd episode.
    pub burst_duration: SimDuration,
    /// Fraction of all queries arriving inside flash crowds.
    pub burst_query_fraction: f64,
    /// Freshness requirement `qf` for every query (paper: 0.9).
    pub freshness_req: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryTraceConfig {
    /// The paper's exact scale: 1024 items, 110,035 queries over
    /// 3,848,104 s (the cello99a footprint). Query service times are ≈1 s
    /// (≈3% utilization — queries are cheap), while updates cost ≈96 s each
    /// (`UpdateTraceConfig` default): that is the only reading under which
    /// Table 1's "30,000 updates = 75% cpu utilization" holds over this
    /// horizon, and it is what makes the evaluation interesting — one
    /// background update blocks the CPU for roughly a whole query deadline.
    fn default() -> Self {
        QueryTraceConfig {
            n_items: 1024,
            horizon: SimDuration::from_secs(3_848_104),
            n_queries: 110_035,
            zipf_exponent: 1.5,
            mean_exec_secs: 1.0,
            exec_sigma: 0.5,
            exec_clamp_secs: (0.1, 10.0),
            max_items_per_query: 4,
            multi_item_p: 0.35,
            burst_count: 20,
            burst_duration: SimDuration::from_secs(1_000),
            burst_query_fraction: 0.10,
            freshness_req: 0.9,
            seed: 0xce110,
        }
    }
}

impl QueryTraceConfig {
    /// A scaled-down config for tests: `scale` divides query count and
    /// horizon (keeping the offered utilization constant).
    pub fn scaled_down(mut self, scale: u64) -> Self {
        assert!(scale >= 1);
        self.n_queries /= scale as usize;
        self.horizon = self.horizon / scale;
        self.burst_count = (self.burst_count as u64 / scale).max(1) as usize;
        self
    }

    /// A scaled-up config for throughput benchmarking: `scale` multiplies
    /// the query count at a *fixed* horizon, so offered load rises with
    /// `scale` (the complement of [`QueryTraceConfig::scaled_down`], which
    /// shrinks both and keeps load constant). Pair with
    /// [`crate::stream::stream_queries`] — at scale 1000 the materialized
    /// trace would hold ~110M heap-allocated read sets. The stream still
    /// holds 8 B per query of execution times (the deadline bounds need
    /// the whole population first; replaying them would cost ≈ 22 % more
    /// generation time) plus 8 B per flash-crowd arrival; the Poisson
    /// arrivals are replayed, not stored.
    pub fn scaled_up(mut self, scale: u64) -> Self {
        assert!(scale >= 1);
        self.n_queries = self.n_queries.saturating_mul(scale as usize);
        self
    }

    /// Offered query-class utilization of the configured trace.
    pub fn offered_utilization(&self) -> f64 {
        self.n_queries as f64 * self.mean_exec_secs / self.horizon.as_secs_f64()
    }
}

/// A generated query trace plus the popularity profile behind it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryTrace {
    /// The queries, sorted by arrival time.
    pub queries: Vec<QuerySpec>,
    /// Normalized per-item access weights the generator drew from (used as
    /// the reference distribution for correlated update traces).
    pub item_weights: Vec<f64>,
    /// The configuration that produced the trace.
    pub config: QueryTraceConfig,
}

/// Generate a query trace: [`stream_queries`] collected into a `Vec`
/// (allocated once — the stream is an `ExactSizeIterator`).
///
/// # Panics
/// Panics on degenerate configurations (zero items/queries/horizon).
pub fn generate_queries(cfg: &QueryTraceConfig) -> QueryTrace {
    let stream = stream_queries(cfg);
    let item_weights = stream.item_weights().to_vec();
    QueryTrace {
        queries: stream.collect(),
        item_weights,
        config: *cfg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::time::SimTime;

    fn small_cfg() -> QueryTraceConfig {
        QueryTraceConfig {
            n_items: 64,
            horizon: SimDuration::from_secs(2_000),
            n_queries: 600,
            seed: 7,
            ..QueryTraceConfig::default()
        }
    }

    #[test]
    fn generates_requested_count_sorted_by_arrival() {
        let t = generate_queries(&small_cfg());
        assert_eq!(t.queries.len(), 600);
        assert!(t.queries.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(t
            .queries
            .iter()
            .all(|q| q.arrival.0 <= SimTime::from_secs(2_000).0));
    }

    #[test]
    fn queries_validate_against_the_database() {
        let cfg = small_cfg();
        let t = generate_queries(&cfg);
        for q in &t.queries {
            q.validate(cfg.n_items)
                .expect("generated query must be valid");
            assert_eq!(q.freshness_req, cfg.freshness_req);
            assert!(q.items.len() <= cfg.max_items_per_query);
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let t = generate_queries(&small_cfg());
        let mut hist = vec![0u64; 64];
        for q in &t.queries {
            for d in &q.items {
                hist[d.index()] += 1;
            }
        }
        let mut sorted = hist.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = sorted.iter().sum();
        let top10: u64 = sorted.iter().take(6).sum();
        // Zipf(0.9) over 64 items: the top ~10% of items should carry far
        // more than 10% of accesses.
        assert!(
            top10 as f64 / total as f64 > 0.25,
            "top-6 share {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn item_weights_are_normalized_and_match_skew() {
        let t = generate_queries(&small_cfg());
        let sum: f64 = t.item_weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // The empirical histogram should correlate strongly with the weights.
        let mut hist = vec![0.0f64; 64];
        for q in &t.queries {
            for d in &q.items {
                hist[d.index()] += 1.0;
            }
        }
        let rho = crate::dist::pearson(&t.item_weights, &hist);
        assert!(rho > 0.8, "weights/histogram correlation {rho}");
    }

    #[test]
    fn deadlines_follow_the_paper_recipe() {
        let t = generate_queries(&small_cfg());
        let execs: Vec<f64> = t
            .queries
            .iter()
            .map(|q| q.exec_time.as_secs_f64())
            .collect();
        let avg = execs.iter().sum::<f64>() / execs.len() as f64;
        let max = execs.iter().copied().fold(0.0_f64, f64::max);
        for q in &t.queries {
            let d = q.relative_deadline.as_secs_f64();
            assert!(d >= avg - 1e-9, "deadline {d} below average exec {avg}");
            assert!(
                d <= 10.0 * max + 1e-9,
                "deadline {d} above 10x max exec {max}"
            );
        }
    }

    #[test]
    fn bursts_concentrate_arrivals() {
        let cfg = QueryTraceConfig {
            burst_query_fraction: 0.5,
            burst_count: 2,
            // Keep each flash crowd comparable to the bucket width below:
            // with the default 1000 s windows half the horizon is "burst"
            // and no bucket stands out, regardless of the RNG stream.
            burst_duration: SimDuration::from_secs(100),
            ..small_cfg()
        };
        let t = generate_queries(&cfg);
        // Count arrivals per 100s bucket; the busiest buckets should hold a
        // disproportionate share.
        let mut buckets = [0u64; 20];
        for q in &t.queries {
            let b = (q.arrival.as_secs_f64() / 100.0) as usize;
            buckets[b.min(19)] += 1;
        }
        let total: u64 = buckets.iter().sum();
        let max_bucket = *buckets.iter().max().unwrap();
        assert!(
            max_bucket as f64 / total as f64 > 0.10,
            "no flash crowd visible: max bucket share {}",
            max_bucket as f64 / total as f64
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_queries(&small_cfg());
        let b = generate_queries(&small_cfg());
        assert_eq!(a.queries, b.queries);
        let mut cfg = small_cfg();
        cfg.seed += 1;
        let c = generate_queries(&cfg);
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    fn offered_utilization_matches_calibration() {
        // Paper scale: ~110k queries x ~1s over 3.85M s ≈ 2.9% of the CPU —
        // queries are cheap; the update volumes carry the load.
        let cfg = QueryTraceConfig::default();
        assert!((cfg.offered_utilization() - 0.0286).abs() < 0.002);
        let t = generate_queries(&QueryTraceConfig {
            n_queries: 2_000,
            horizon: SimDuration::from_secs(8_000),
            ..QueryTraceConfig::default()
        });
        let work: f64 = t.queries.iter().map(|q| q.exec_time.as_secs_f64()).sum();
        let util = work / 8_000.0;
        assert!((util - 0.25).abs() < 0.05, "offered utilization {util}");
    }

    #[test]
    fn burst_free_configs_generate_pure_poisson_arrivals() {
        let cfg = QueryTraceConfig {
            burst_query_fraction: 0.0,
            burst_count: 0,
            ..small_cfg()
        };
        let t = generate_queries(&cfg);
        assert_eq!(t.queries.len(), cfg.n_queries);
        // Interarrival CV of a Poisson process is ~1.
        let gaps: Vec<f64> = t
            .queries
            .windows(2)
            .map(|w| w[1].arrival.saturating_since(w[0].arrival).as_secs_f64())
            .collect();
        let cv = crate::dist::pearson(&gaps, &gaps); // self-correlation sanity
        assert!((cv - 1.0).abs() < 1e-9);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let sd =
            (gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64).sqrt();
        assert!(
            (sd / mean - 1.0).abs() < 0.2,
            "CV {} not Poisson-like",
            sd / mean
        );
    }

    #[test]
    fn scaled_down_configs_shrink_consistently() {
        let cfg = QueryTraceConfig::default().scaled_down(10);
        assert_eq!(cfg.n_queries, 11_003);
        assert_eq!(
            cfg.horizon,
            SimDuration(SimDuration::from_secs(3_848_104).0 / 10)
        );
        let t = generate_queries(&cfg);
        assert_eq!(t.queries.len(), 11_003);
    }
}
