//! The one trace generator behind every `serve-*` workload.
//!
//! Everything is drawn from a SplitMix64 stream seeded by the caller, so the
//! same seed gives a byte-identical [`Trace`]. The program under test never
//! sees the seed, only the generated trace.
//!
//! Shape (fixed across the three workloads so their numbers compare):
//! 1024 items; read sets of 1–3 distinct items drawn Zipf(1.0) over the item
//! id (item 0 is the hottest); `freshness_req` 0.9; Poisson arrivals; 256
//! periodic update streams on items 0..255 (the hot end, so staleness is
//! visible to queries) with a random phase inside the first period.

use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, QueryId, QuerySpec, Trace, UpdateSpec, UpdateStreamId};

pub const N_ITEMS: usize = 1024;
pub const N_UPDATE_STREAMS: u32 = 256;
/// Accounting cost of one update application. The live server does not spin
/// for updates; the policy only uses this to estimate update-class load
/// (256 streams / 20 ms × 5 µs ≈ 6 % of one core).
pub const UPDATE_EXEC_US: u64 = 5;

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough for
/// workload synthesis.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// How long the Poisson arrival process at `rate_per_s` runs.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Until exactly `n` queries (flat-out runs ignore the instants and keep
    /// only the order, so the count is what matters).
    Count { n: usize, rate_per_s: f64 },
    /// For `span` of (virtual = wall) time; the count is Poisson.
    Span { span: SimDuration, rate_per_s: f64 },
}

/// Everything that distinguishes one `serve-*` workload from another.
#[derive(Debug, Clone)]
pub struct ServeShape {
    pub arrivals: Arrivals,
    /// Service demand per query, uniform in `lo..=hi` µs.
    pub exec_us: (u64, u64),
    /// Relative deadline of every query.
    pub deadline: SimDuration,
    /// Period of each of the 256 update streams.
    pub update_period: SimDuration,
}

/// A generated trace plus what the runner needs to interpret it.
#[derive(Debug, Clone)]
pub struct GeneratedTrace {
    pub trace: Trace,
    /// End of the arrival schedule (bounds the update streams).
    pub horizon: SimDuration,
}

/// Cumulative Zipf(1.0) distribution over item ids.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += 1.0 / rank as f64;
        cdf.push(acc);
    }
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

fn draw_item(cdf: &[f64], rng: &mut SplitMix64) -> DataId {
    let u = rng.next_f64();
    let idx = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1);
    DataId(idx as u32)
}

/// Generate the trace of `shape` from `seed`.
pub fn generate(shape: &ServeShape, seed: u64) -> GeneratedTrace {
    let mut rng = SplitMix64::new(seed);
    let cdf = zipf_cdf(N_ITEMS);

    let (rate_per_s, span_us, count) = match shape.arrivals {
        Arrivals::Count { n, rate_per_s } => (rate_per_s, f64::INFINITY, n),
        Arrivals::Span { span, rate_per_s } => (rate_per_s, span.0 as f64, usize::MAX),
    };
    let mean_gap_us = 1_000_000.0 / rate_per_s;
    let mut queries = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential gap; 1 - u is in (0, 1], so ln is finite.
        let next = t - mean_gap_us * (1.0 - rng.next_f64()).ln();
        if next >= span_us || queries.len() >= count {
            break;
        }
        t = next;
        let n_read = rng.range_inclusive(1, 3) as usize;
        let mut items: Vec<DataId> = Vec::with_capacity(n_read);
        while items.len() < n_read {
            let item = draw_item(&cdf, &mut rng);
            if !items.contains(&item) {
                items.push(item);
            }
        }
        queries.push(QuerySpec {
            id: QueryId(queries.len() as u64),
            arrival: SimTime(t as u64),
            items,
            exec_time: SimDuration(rng.range_inclusive(shape.exec_us.0, shape.exec_us.1)),
            relative_deadline: shape.deadline,
            freshness_req: 0.9,
            pref_class: 0,
        });
    }
    let end_us = if span_us.is_finite() { span_us } else { t };

    let updates = (0..N_UPDATE_STREAMS)
        .map(|i| UpdateSpec {
            id: UpdateStreamId(i),
            item: DataId(i),
            period: shape.update_period,
            exec_time: SimDuration(UPDATE_EXEC_US),
            first_arrival: SimTime(rng.next_u64() % shape.update_period.0),
        })
        .collect();

    GeneratedTrace {
        trace: Trace {
            n_items: N_ITEMS,
            queries,
            updates,
        },
        horizon: SimDuration(end_us as u64 + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paced() -> ServeShape {
        ServeShape {
            arrivals: Arrivals::Span {
                span: SimDuration(100_000),
                rate_per_s: 10_000.0,
            },
            exec_us: (20, 60),
            deadline: SimDuration(2_000),
            update_period: SimDuration(20_000),
        }
    }

    #[test]
    fn same_seed_gives_a_byte_identical_trace() {
        let a = generate(&paced(), 42);
        let b = generate(&paced(), 42);
        assert_eq!(
            serde_json::to_string(&a.trace).unwrap(),
            serde_json::to_string(&b.trace).unwrap()
        );
        assert_eq!(a.horizon, b.horizon);
        let c = generate(&paced(), 43);
        assert_ne!(a.trace, c.trace, "another seed must give another trace");
    }

    #[test]
    fn traces_are_valid_and_follow_the_shape() {
        let g = generate(&paced(), 7);
        g.trace.validate().expect("generated trace validates");
        assert_eq!(g.trace.updates.len(), N_UPDATE_STREAMS as usize);
        // 10 000 q/s for 100 ms: ~1000 arrivals, all inside the span.
        let n = g.trace.queries.len();
        assert!((850..1150).contains(&n), "{n}");
        assert_eq!(g.horizon, SimDuration(100_001));
        for q in &g.trace.queries {
            assert!(q.arrival.0 < 100_000);
            assert!((1..=3).contains(&q.items.len()));
            assert!((20..=60).contains(&q.exec_time.0));
        }
        // Zipf(1.0): item 0 carries ~13 % of single draws over 1024 items.
        let hot = g
            .trace
            .queries
            .iter()
            .filter(|q| q.items.contains(&DataId(0)))
            .count();
        assert!(hot * 20 > g.trace.queries.len(), "item 0 is hot: {hot}");
    }

    #[test]
    fn count_arrivals_are_exact() {
        let shape = ServeShape {
            arrivals: Arrivals::Count {
                n: 1234,
                rate_per_s: 500_000.0,
            },
            ..paced()
        };
        let g = generate(&shape, 1);
        assert_eq!(g.trace.queries.len(), 1234);
        assert_eq!(g.horizon.0, g.trace.queries[1233].arrival.0 + 1);
    }
}
