//! Streaming trace ingestion: generate or parse queries one at a time.
//!
//! A full `Vec<QuerySpec>` is fine at the paper's 110k queries, but a
//! scale-1000 run is ~110M queries and each spec carries a heap-allocated
//! read set. This module is the one query generator, and it is lazy:
//!
//! * [`QueryStream`] — an iterator over the specs of a
//!   [`QueryTraceConfig`] ([`crate::cello::generate_queries`] is this
//!   stream collected; `tests/stream_identity.rs` pins the draw sequence
//!   with golden hashes). Only the arrival instants and execution times
//!   are precomputed (16 bytes per query — the paper's deadline recipe
//!   needs the whole execution-time population for its `[avg, 10×max]`
//!   bounds); read sets, deadlines and preference classes are drawn
//!   lazily from the continuing RNG stream.
//! * [`write_queries_jsonl`] / [`read_queries_jsonl`] — line-delimited JSON
//!   persistence that never holds more than one spec in memory on either
//!   side, for feeding externally recorded traces into
//!   `unit_sim::SimRun::run_streamed`.
//!
//! Both halves compose with the engine's chunked feed: the simulator's peak
//! footprint becomes O(live transactions), not O(trace length) — the
//! engine keeps only a window of transactions from the oldest live one on,
//! so its memory and its checkpoints track live work
//! (`crates/sim/tests/recovery_differential.rs`,
//! `checkpoint_size_tracks_live_work_not_trace_length`). What still grows
//! with the trace is the stream's own 16 bytes per query above.

use crate::cello::{generate_arrivals, QueryTraceConfig};
use crate::dist::{capped_geometric, log_normal_with_mean, zipf_weights};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, Write};
use unit_core::lottery::WeightedSampler;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, QueryId, QuerySpec};

/// Lazily generates the query trace of a [`QueryTraceConfig`].
///
/// Construction runs the generator's *population-level* phases (popularity
/// permutation, arrival process, execution-time draws, deadline bounds);
/// each [`Iterator::next`] call then performs only that query's per-spec
/// draws.
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: StdRng,
    sampler: WeightedSampler,
    item_weights: Vec<f64>,
    arrivals: Vec<SimTime>,
    exec_times: Vec<f64>,
    deadline_lo: f64,
    deadline_hi: f64,
    multi_item_p: f64,
    max_items_per_query: usize,
    freshness_req: f64,
    pref_class_count: u32,
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
    let arrivals = generate_arrivals(cfg, &mut rng);

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
        pref_class_count: cfg.pref_class_count,
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
        self.arrivals.len() - self.next
    }
}

impl Iterator for QueryStream {
    type Item = QuerySpec;

    fn next(&mut self) -> Option<QuerySpec> {
        let i = self.next;
        let (Some(&arrival), Some(&exec)) = (self.arrivals.get(i), self.exec_times.get(i)) else {
            return None;
        };
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
        let pref_class = if self.pref_class_count > 1 {
            self.rng.gen_range(0..self.pref_class_count)
        } else {
            0
        };
        Some(QuerySpec {
            id: QueryId(i as u64),
            arrival,
            items,
            exec_time: SimDuration::from_secs_f64(exec),
            relative_deadline: SimDuration::from_secs_f64(deadline),
            freshness_req: self.freshness_req,
            pref_class,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for QueryStream {}

/// Failure while reading a JSONL query trace.
#[derive(Debug)]
pub enum JsonlError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A line was not a valid `QuerySpec` (1-based line number attached).
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// The deserialization failure.
        source: serde_json::Error,
    },
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonlError::Io(e) => write!(f, "jsonl read failed: {e}"),
            JsonlError::Parse { line, source } => {
                write!(f, "jsonl line {line}: invalid QuerySpec: {source}")
            }
        }
    }
}

impl std::error::Error for JsonlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JsonlError::Io(e) => Some(e),
            JsonlError::Parse { source, .. } => Some(source),
        }
    }
}

/// Serialize queries as line-delimited JSON, one [`QuerySpec`] per line,
/// holding only one spec at a time. Pairs with [`read_queries_jsonl`].
pub fn write_queries_jsonl<W: Write>(
    mut out: W,
    queries: impl IntoIterator<Item = QuerySpec>,
) -> std::io::Result<()> {
    for q in queries {
        let line = serde_json::to_string(&q).map_err(std::io::Error::other)?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()
}

/// Parse a line-delimited JSON query trace lazily: each call to the
/// returned iterator reads and decodes exactly one line. Blank lines are
/// skipped so hand-edited files round-trip.
pub fn read_queries_jsonl<R: BufRead>(
    reader: R,
) -> impl Iterator<Item = Result<QuerySpec, JsonlError>> {
    reader
        .lines()
        .enumerate()
        .filter_map(|(idx, line)| match line {
            Err(e) => Some(Err(JsonlError::Io(e))),
            Ok(l) if l.trim().is_empty() => None,
            Ok(l) => Some(
                serde_json::from_str(&l).map_err(|source| JsonlError::Parse {
                    line: idx + 1,
                    source,
                }),
            ),
        })
}

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
    fn jsonl_round_trips() {
        let cfg = small_cfg();
        let eager = generate_queries(&cfg).queries;
        let mut buf = Vec::new();
        write_queries_jsonl(&mut buf, eager.iter().cloned()).expect("write");
        let back: Vec<QuerySpec> = read_queries_jsonl(buf.as_slice())
            .collect::<Result<_, _>>()
            .expect("parse");
        assert_eq!(back, eager);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_reports_bad_ones() {
        let cfg = small_cfg();
        let q = generate_queries(&cfg).queries[0].clone();
        let mut buf = Vec::new();
        write_queries_jsonl(&mut buf, [q.clone()]).expect("write");
        buf.extend_from_slice(b"\n\nnot json\n");
        let parsed: Vec<Result<QuerySpec, JsonlError>> =
            read_queries_jsonl(buf.as_slice()).collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].as_ref().expect("first record ok"), &q);
        match &parsed[1] {
            Err(JsonlError::Parse { line, .. }) => assert_eq!(*line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
