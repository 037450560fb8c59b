//! The stream's lazy arrival merge against the store-and-sort generator it
//! replaced.
//!
//! `QueryStream` keeps the base Poisson process as the runs between its
//! wraps of the horizon, replays each run from an RNG snapshot and merges
//! the runs with the sorted flash-crowd arrivals. The oracle below draws
//! the same process eagerly, stores every arrival and sorts them all; the
//! two must yield the same `SimTime` sequence on every configuration.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use unit_core::time::{SimDuration, SimTime};
use unit_workload::dist::exponential;
use unit_workload::{stream_queries, QueryTraceConfig};

/// The sorted arrivals of `cfg`, drawn, stored and sorted, plus the number
/// of base Poisson runs (one per start or wrap of the horizon).
fn oracle(cfg: &QueryTraceConfig) -> (Vec<SimTime>, usize) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.n_items).collect::<Vec<usize>>().shuffle(&mut rng); // popularity permutation
    let (horizon, burst_len) = (cfg.horizon.as_secs_f64(), cfg.burst_duration.as_secs_f64());
    let share = (cfg.n_queries as f64 * cfg.burst_query_fraction).round() as usize;
    let n_burst = if cfg.burst_count == 0 { 0 } else { share };
    let n_base = cfg.n_queries - n_burst;
    let (rate, mut t, mut runs) = (n_base as f64 / horizon, 0.0, 0);
    let mut arrivals: Vec<f64> = Vec::with_capacity(cfg.n_queries);
    while arrivals.len() < n_base {
        t += exponential(&mut rng, rate);
        let wrapped = t >= horizon;
        t -= if wrapped { horizon } else { 0.0 }; // exact: x - 0.0 == x
        runs += usize::from(wrapped || arrivals.is_empty());
        arrivals.push(t);
    }
    if n_burst > 0 {
        let windows: Vec<f64> = (0..cfg.burst_count)
            .map(|_| rng.gen_range(0.0..(horizon - burst_len).max(1.0)))
            .collect();
        for &w in windows.iter().cycle().take(n_burst) {
            arrivals.push(w + rng.gen_range(0.0..burst_len));
        }
    }
    arrivals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    (
        arrivals.into_iter().map(SimTime::from_secs_f64).collect(),
        runs,
    )
}

fn streamed_arrivals(cfg: &QueryTraceConfig) -> Vec<SimTime> {
    stream_queries(cfg).map(|q| q.arrival).collect()
}

#[test]
fn merged_runs_equal_the_sorted_arrivals() {
    // Tally of configurations by base-run count: [0, 1, 2, >= 3].
    let mut by_runs = [0usize; 4];
    let mut configs = 0u64;
    for n_queries in 1..64usize {
        for fraction in [0.0, 0.1, 0.5, 1.0] {
            for burst_count in [0, 1, 3] {
                for horizon_s in [5, 40] {
                    let cfg = QueryTraceConfig {
                        n_items: 8,
                        horizon: SimDuration::from_secs(horizon_s),
                        n_queries,
                        burst_count,
                        burst_duration: SimDuration::from_secs(2),
                        burst_query_fraction: fraction,
                        seed: 1 + configs,
                        ..QueryTraceConfig::default()
                    };
                    let (want, runs) = oracle(&cfg);
                    assert_eq!(streamed_arrivals(&cfg), want, "{cfg:?}");
                    by_runs[runs.min(3)] += 1;
                    configs += 1;
                }
            }
        }
    }
    assert!(configs >= 300);
    eprintln!("{configs} configurations by base runs [0, 1, 2, >=3]: {by_runs:?}");
    let [none, one, two, more] = by_runs;
    assert!(none > 0, "no all-burst configuration: {by_runs:?}");
    assert!(one > 0, "no single-run configuration: {by_runs:?}");
    assert!(
        two + more > 0,
        "no configuration wraps the horizon: {by_runs:?}"
    );
    assert!(more > 0, "no configuration wraps twice: {by_runs:?}");
}
