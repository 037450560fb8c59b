//! Streaming trace generation: yield queries one at a time.
//!
//! A full `Vec<QuerySpec>` is fine at the paper's 110k queries, but a
//! scale-1000 run is ~110M queries and each spec carries a heap-allocated
//! read set. This module is the one query generator, and it is lazy:
//!
//! * [`QueryStream`] — an iterator over the specs of a
//!   [`QueryTraceConfig`] ([`crate::cello::generate_queries`] is this
//!   stream collected; `tests/stream_identity.rs` pins the draw sequence
//!   with golden hashes). Read sets and deadlines are drawn lazily from the
//!   continuing RNG stream, and so is most of the arrival process: the base
//!   Poisson process is kept as a handful of RNG snapshots (one per wrap of
//!   the horizon, usually one or two) and replayed draw by draw, merged
//!   with the sorted flash-crowd arrivals
//!   (`tests/stream_arrivals.rs` checks the merge against the old
//!   store-and-sort code).
//!
//! What still grows with the trace is 8 bytes per query of execution times
//! plus 8 bytes per flash-crowd arrival (`burst_query_fraction` of the
//! queries, 0.8 B/query at the default 10 %). The paper's deadline recipe
//! needs the whole execution-time population for its `[avg, 10×max]`
//! bounds before the first query is yielded; replaying those draws too
//! would save one more 8 B/query but made paper-scale generation ≈ 22 %
//! slower (31 → 38 ms median on a 2-core x86), which every materialised
//! trace would pay.
//!
//! The stream composes with the engine's chunked feed: the simulator's peak
//! footprint becomes O(live transactions), not O(trace length) — the
//! engine keeps only a window of transactions from the oldest live one on,
//! so its memory and its snapshots track live work (unit-sim's
//! `snapshot_size_tracks_live_work_not_trace_length`).

use crate::cello::QueryTraceConfig;
use crate::dist::{capped_geometric, exponential, log_normal_with_mean, zipf_weights};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use unit_core::lottery::WeightedSampler;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, QueryId, QuerySpec};

/// Lazily generates the query trace of a [`QueryTraceConfig`].
///
/// Construction runs the generator's *population-level* phases (popularity
/// permutation, arrival process, execution-time draws, deadline bounds);
/// each [`Iterator::next`] call then performs only that query's per-spec
/// draws and takes the next arrival from a merge of the replayed Poisson
/// process with the sorted flash-crowd arrivals.
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: StdRng,
    sampler: WeightedSampler,
    item_weights: Vec<f64>,
    arrivals: Arrivals,
    exec_times: Vec<f64>,
    deadline_lo: f64,
    deadline_hi: f64,
    multi_item_p: f64,
    max_items_per_query: usize,
    freshness_req: f64,
    next: usize,
}

/// Start streaming the queries of `cfg`.
///
/// # Panics
/// Panics on degenerate configurations (zero items/queries/horizon).
pub fn stream_queries(cfg: &QueryTraceConfig) -> QueryStream {
    assert!(cfg.n_items > 0, "need at least one data item");
    assert!(cfg.n_queries > 0, "need at least one query");
    assert!(!cfg.horizon.is_zero(), "horizon must be positive");
    assert!(cfg.max_items_per_query >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- spatial popularity: permuted Zipf --------------------------------
    let ranked = zipf_weights(cfg.n_items, cfg.zipf_exponent);
    let mut perm: Vec<usize> = (0..cfg.n_items).collect();
    perm.shuffle(&mut rng);
    let mut weights = vec![0.0; cfg.n_items];
    for (&item, &w) in perm.iter().zip(&ranked) {
        if let Some(slot) = weights.get_mut(item) {
            *slot = w;
        }
    }
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let sampler = WeightedSampler::from_weights(&weights);

    // --- temporal profile: Poisson base + flash crowds --------------------
    let arrivals = Arrivals::plan(cfg, &mut rng);

    // --- per-query execution times ----------------------------------------
    let mut exec_times = Vec::with_capacity(cfg.n_queries);
    let (clamp_lo, clamp_hi) = cfg.exec_clamp_secs;
    for _ in 0..cfg.n_queries {
        let e = log_normal_with_mean(&mut rng, cfg.mean_exec_secs, cfg.exec_sigma)
            .clamp(clamp_lo, clamp_hi);
        exec_times.push(e);
    }
    // Deadline recipe from the paper: uniform between the average response
    // time and 10x the maximal response time (we use the generated execution
    // times as the response-time base).
    let avg_exec = exec_times.iter().sum::<f64>() / exec_times.len() as f64;
    let max_exec = exec_times.iter().copied().fold(0.0_f64, f64::max);
    let deadline_lo = avg_exec;
    let deadline_hi = (10.0 * max_exec).max(deadline_lo + 1.0);

    QueryStream {
        rng,
        sampler,
        item_weights: weights,
        arrivals,
        exec_times,
        deadline_lo,
        deadline_hi,
        multi_item_p: cfg.multi_item_p,
        max_items_per_query: cfg.max_items_per_query,
        freshness_req: cfg.freshness_req,
        next: 0,
    }
}

impl QueryStream {
    /// Normalized per-item access weights the stream draws read sets from —
    /// the same profile [`crate::cello::QueryTrace::item_weights`] reports.
    pub fn item_weights(&self) -> &[f64] {
        &self.item_weights
    }

    /// Queries not yet yielded.
    pub fn remaining(&self) -> usize {
        self.exec_times.len() - self.next
    }
}

/// One stretch of the base Poisson process between two wraps of the
/// horizon: ascending, and replayed from the RNG state after its first draw.
#[derive(Debug, Clone)]
struct PoissonRun {
    rng: StdRng,
    /// The run's smallest arrival not yet yielded, in seconds.
    head: f64,
    /// Arrivals of the run after `head`.
    left: usize,
}

/// The sorted arrival instants of a trace, generated lazily.
///
/// `burst_query_fraction` of the queries land uniformly inside randomly
/// placed flash-crowd windows; the rest follow a Poisson process over the
/// whole horizon that wraps around at the horizon, which keeps exactly
/// their count while preserving exponential gaps locally. The flash crowds
/// are stored sorted; the Poisson process is kept as the runs between its
/// wraps and replayed draw by draw. Yielding the smallest head among them
/// gives the sorted sequence of all arrivals — only values are yielded, so
/// ties are interchangeable.
#[derive(Debug, Clone)]
struct Arrivals {
    /// Unfinished Poisson runs, in no particular order.
    runs: Vec<PoissonRun>,
    /// Rate of the Poisson process, per second.
    rate: f64,
    /// Flash-crowd arrivals in seconds, ascending.
    bursts: Vec<f64>,
    next_burst: usize,
}

impl Arrivals {
    /// Draw the arrival process of `cfg` from `rng`: the Poisson draws
    /// first, then the flash-crowd windows and the points inside them.
    fn plan(cfg: &QueryTraceConfig, rng: &mut StdRng) -> Self {
        let horizon = cfg.horizon.as_secs_f64();
        let burst_len = cfg.burst_duration.as_secs_f64();

        let n_burst = if cfg.burst_count == 0 {
            0
        } else {
            (cfg.n_queries as f64 * cfg.burst_query_fraction).round() as usize
        };
        let n_base = cfg.n_queries - n_burst;

        let rate = n_base as f64 / horizon;
        let mut runs: Vec<PoissonRun> = Vec::new();
        let mut t = 0.0;
        for _ in 0..n_base {
            t += exponential(rng, rate);
            let wrapped = t >= horizon;
            if wrapped {
                t -= horizon;
            }
            match runs.last_mut() {
                Some(run) if !wrapped => run.left += 1,
                _ => runs.push(PoissonRun {
                    rng: rng.clone(),
                    head: t,
                    left: 0,
                }),
            }
        }

        let mut bursts = Vec::with_capacity(n_burst);
        if n_burst > 0 {
            let mut windows = Vec::with_capacity(cfg.burst_count);
            for _ in 0..cfg.burst_count {
                windows.push(rng.gen_range(0.0..(horizon - burst_len).max(1.0)));
            }
            for &w in windows.iter().cycle().take(n_burst) {
                bursts.push(w + rng.gen_range(0.0..burst_len));
            }
        }
        bursts.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));

        Arrivals {
            runs,
            rate,
            bursts,
            next_burst: 0,
        }
    }
}

impl Iterator for Arrivals {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        let burst = self.bursts.get(self.next_burst).copied();
        let base = self
            .runs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.head.total_cmp(&b.head))
            .map(|(i, run)| (i, run.head));
        let secs = match (base, burst) {
            (Some((i, head)), burst) if burst.map_or(true, |b| head <= b) => {
                if let Some(run) = self.runs.get_mut(i) {
                    if run.left == 0 {
                        self.runs.swap_remove(i);
                    } else {
                        // The next draw of the same run: no wrap inside it.
                        run.head += exponential(&mut run.rng, self.rate);
                        run.left -= 1;
                    }
                }
                head
            }
            (_, burst) => {
                let b = burst?;
                self.next_burst += 1;
                b
            }
        };
        Some(SimTime::from_secs_f64(secs))
    }
}

impl Iterator for QueryStream {
    type Item = QuerySpec;

    fn next(&mut self) -> Option<QuerySpec> {
        let i = self.next;
        let &exec = self.exec_times.get(i)?;
        let arrival = self.arrivals.next()?;
        self.next += 1;
        let n_extra = capped_geometric(
            &mut self.rng,
            self.multi_item_p,
            self.max_items_per_query - 1,
        );
        let mut items = Vec::with_capacity(1 + n_extra);
        while items.len() < 1 + n_extra {
            #[expect(
                clippy::expect_used,
                reason = "zipf_weights() returns >= 1 strictly positive weights"
            )]
            let d = DataId(
                self.sampler
                    .sample(&mut self.rng)
                    .expect("non-empty weights") as u32,
            );
            if !items.contains(&d) {
                items.push(d);
            }
        }
        let deadline = self.rng.gen_range(self.deadline_lo..self.deadline_hi);
        Some(QuerySpec {
            id: QueryId(i as u64),
            arrival,
            items,
            exec_time: SimDuration::from_secs_f64(exec),
            relative_deadline: SimDuration::from_secs_f64(deadline),
            freshness_req: self.freshness_req,
            pref_class: 0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for QueryStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cello::generate_queries;

    fn small_cfg() -> QueryTraceConfig {
        QueryTraceConfig {
            n_items: 64,
            horizon: SimDuration::from_secs(2_000),
            n_queries: 400,
            seed: 11,
            ..QueryTraceConfig::default()
        }
    }

    #[test]
    fn stream_matches_materialized_generation() {
        let cfg = small_cfg();
        let eager = generate_queries(&cfg);
        let stream = stream_queries(&cfg);
        assert_eq!(stream.item_weights(), eager.item_weights.as_slice());
        let lazy: Vec<QuerySpec> = stream.collect();
        assert_eq!(lazy, eager.queries);
    }

    #[test]
    fn stream_reports_exact_size() {
        let cfg = small_cfg();
        let mut s = stream_queries(&cfg);
        assert_eq!(s.len(), 400);
        assert_eq!(s.remaining(), 400);
        s.next();
        assert_eq!(s.remaining(), 399);
        assert_eq!(s.size_hint(), (399, Some(399)));
    }

    #[test]
    fn stream_holds_under_ten_bytes_per_query() {
        use std::mem::size_of;
        let cfg = QueryTraceConfig::default().scaled_up(16);
        let s = stream_queries(&cfg);
        let per_query = s.exec_times.capacity() + s.arrivals.bursts.capacity();
        // The sampler holds its weights and a Fenwick tree over them.
        let per_item = s.item_weights.capacity() + 2 * (s.sampler.len() + 1);
        let bytes = (per_query + per_item) * size_of::<f64>()
            + s.arrivals.runs.capacity() * size_of::<PoissonRun>();
        let per = bytes as f64 / cfg.n_queries as f64;
        assert!(
            per <= 10.0,
            "{per:.2} B/query over {} queries",
            cfg.n_queries
        );
    }
}
