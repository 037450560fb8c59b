//! A cluster run holds each query once: its shard engines stream their
//! queries by reference from the caller's trace instead of from per-shard
//! copies, and the merged log takes the shard engines' outcome records
//! instead of copying them.
//!
//! The workspace forbids `unsafe`, so this binary cannot install a
//! counting global allocator; the peak is read from the kernel instead.
//! Each measurement runs in a fresh child process of this test binary
//! (one `#[ignore]`d probe test per measurement, run with `--exact
//! --ignored`), which prints its peak resident set (`VmHWM`): the caller's
//! scale-8 trace alone, then the same trace plus a plain 4-shard run. The
//! difference is what the run adds on top of the trace. Both probes run
//! on one thread, so the allocation sequence — and the peak — repeats run
//! to run.

use std::process::Command;
use unit_cluster::ClusterConfig;
use unit_core::config::UnitConfig;
use unit_sim::SimConfig;
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 8;
const N_SHARDS: usize = 4;

/// Peak bytes a plain 4-shard run may add per query of its trace (median
/// of [`PAIRS`] probe pairs). Measured on a 2-core x86-64 Linux box:
/// medians of 129–135 B/query (engine state plus the 40 B/query merged
/// log); 256–259 B/query when every shard engine ran on its own copy of
/// its queries and the merged log copied the shard records.
const ADDED_BYTES_PER_QUERY: u64 = 200;

/// Probe pairs measured; the median decides.
const PAIRS: usize = 5;

/// The golden fig3 med-unif workload at scale 8 (same bundle as
/// `differential.rs`).
fn bundle() -> TraceBundle {
    let qcfg = QueryTraceConfig::default().scaled_down(SCALE);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / SCALE).max(1));
    TraceBundle::generate(&qcfg, &ucfg)
}

/// Peak resident set of this process so far, in kB (`VmHWM`).
fn peak_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap()
}

#[test]
#[ignore = "a probe: run in a child process by a_cluster_run_holds_each_query_once"]
fn probe_trace_only() {
    let b = bundle();
    println!("queries={}", b.trace.queries.len());
    println!("peak_kb={}", peak_kb());
}

#[test]
#[ignore = "a probe: run in a child process by a_cluster_run_holds_each_query_once"]
fn probe_trace_and_run() {
    let b = bundle();
    let report = ClusterConfig::new(N_SHARDS)
        .with_workers(1)
        .build()
        .run_unit(&b.trace, SimConfig::new(b.horizon), &UnitConfig::default())
        .unwrap();
    assert_eq!(
        report.cluster().log.len(),
        b.trace.queries.len(),
        "every query is decided once"
    );
    println!("queries={}", b.trace.queries.len());
    println!("peak_kb={}", peak_kb());
}

/// Run one probe in a child process and return its `(queries, peak_kb)`.
fn probe(name: &str) -> (u64, u64) {
    let out = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            name,
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "probe {name} failed:\n{stdout}");
    let field = |key: &str| -> u64 {
        stdout
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("probe {name} printed no {key}:\n{stdout}"))
    };
    (field("queries="), field("peak_kb="))
}

#[test]
fn a_cluster_run_holds_each_query_once() {
    if !cfg!(target_os = "linux") {
        return; // VmHWM is Linux's
    }
    // A process's peak moves by a few hundred kB from run to run (where
    // the heap and the mappings land): take the median of five pairs.
    let mut added: Vec<u64> = (0..PAIRS)
        .map(|_| {
            let (queries, trace_kb) = probe("probe_trace_only");
            let (run_queries, run_kb) = probe("probe_trace_and_run");
            assert_eq!(queries, run_queries);
            run_kb.saturating_sub(trace_kb) * 1024 / queries
        })
        .collect();
    added.sort_unstable();
    let per_query = added[PAIRS / 2];
    println!("{N_SHARDS}-shard run adds {added:?} B/query, median {per_query}");
    assert!(
        per_query <= ADDED_BYTES_PER_QUERY,
        "a {N_SHARDS}-shard run added {per_query} B/query on top of its trace \
         (bound {ADDED_BYTES_PER_QUERY}): is a shard holding a copy of its queries?"
    );
}

#[test]
fn shard_records_move_into_the_merged_log() {
    let b = bundle();
    let report = ClusterConfig::new(N_SHARDS)
        .build()
        .run_unit(&b.trace, SimConfig::new(b.horizon), &UnitConfig::default())
        .unwrap()
        .into_plain()
        .unwrap();
    for (s, r) in report.shard_reports.iter().enumerate() {
        assert!(
            r.outcome_records.is_empty(),
            "shard {s} kept {} outcome records the merge should have moved",
            r.outcome_records.len()
        );
    }
    let decided: u64 = report.shard_reports.iter().map(|r| r.counts.total()).sum();
    assert_eq!(report.log.len() as u64, decided);
    assert_eq!(report.log.len(), b.trace.queries.len());
    assert_eq!(report.log.capacity(), report.log.len());
}
