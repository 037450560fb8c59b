//! Differential suite for the shard executor's worker count.
//!
//! Shards run on a claim loop: each worker takes the next unstarted shard
//! and runs it start to finish. `ClusterConfig::workers` is documented as
//! a pure wall-clock knob — shards share no mutable state and results are
//! keyed by shard id — so every worker count must reproduce the default
//! (auto) run bit for bit, plain and with a fault plan installed. This
//! suite pins that on the golden fig3-style workload for every routing
//! policy at 1 and 4 shards.

use unit_cluster::{
    BackoffConfig, ClusterConfig, ClusterReport, FailoverPolicy, FaultClusterReport, RoutingPolicy,
};
use unit_core::config::UnitConfig;
use unit_core::time::SimDuration;
use unit_core::usm::UsmWeights;
use unit_faults::{FaultConfig, FaultMode, FaultPlan};
use unit_sim::{report_digest, SimConfig};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 8;
const SEED: u64 = 0x5EED_0002;

fn golden_bundle() -> TraceBundle {
    let qcfg = QueryTraceConfig::default().scaled_down(SCALE);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / SCALE).max(1));
    TraceBundle::generate(&qcfg, &ucfg)
}

fn sim_config(horizon: SimDuration) -> SimConfig {
    SimConfig::new(horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10))
}

fn unit_cfg() -> UnitConfig {
    UnitConfig::with_weights(UsmWeights::low_high_cfm())
}

fn run_plain(bundle: &TraceBundle, cluster: ClusterConfig) -> ClusterReport {
    cluster
        .build()
        .run_unit(&bundle.trace, sim_config(bundle.horizon), &unit_cfg())
        .expect("valid cluster config")
        .into_plain()
        .expect("fault-free run")
}

fn run_faulty(
    bundle: &TraceBundle,
    cluster: ClusterConfig,
    plan: &FaultPlan,
) -> FaultClusterReport {
    cluster
        .build()
        .with_faults(plan, FailoverPolicy::Backoff(BackoffConfig::default()))
        .run_unit(&bundle.trace, sim_config(bundle.horizon), &unit_cfg())
        .expect("valid cluster config")
        .into_faulty()
        .expect("faults installed")
}

fn assert_reports_identical(a: &ClusterReport, b: &ClusterReport, what: &str) {
    assert_eq!(a.assignment, b.assignment, "{what}: assignment diverged");
    assert_eq!(a.counts, b.counts, "{what}: outcome tally diverged");
    assert_eq!(a.log, b.log, "{what}: merged log diverged");
    for (s, (ra, rb)) in a.shard_reports.iter().zip(&b.shard_reports).enumerate() {
        assert_eq!(
            report_digest(ra),
            report_digest(rb),
            "{what}: shard {s} digest diverged"
        );
    }
}

#[test]
fn worker_counts_are_bit_identical_to_default_run() {
    let bundle = golden_bundle();
    for n_shards in [1usize, 4] {
        for routing in RoutingPolicy::ALL {
            let base = ClusterConfig::new(n_shards)
                .with_routing(routing)
                .with_seed(SEED);
            let default = run_plain(&bundle, base);
            for workers in [1usize, 2, 0] {
                let what = format!("{}/{n_shards} shards/{workers} workers", routing.name());
                let report = run_plain(&bundle, base.with_workers(workers));
                assert_reports_identical(&default, &report, &what);
            }
        }
    }
}

#[test]
fn worker_counts_with_faults_match_default_run() {
    let bundle = golden_bundle();
    let fault_cfg = FaultConfig::quiet(bundle.horizon, bundle.trace.n_items).with_crashes(
        0.2,
        SimDuration::from_secs(2_000),
        FaultMode::Pause,
    );
    for n_shards in [1usize, 4] {
        let plan = FaultPlan::generate(0xFA_17, n_shards, &fault_cfg);
        for routing in RoutingPolicy::ALL {
            let base = ClusterConfig::new(n_shards)
                .with_routing(routing)
                .with_seed(SEED);
            let default = run_faulty(&bundle, base, &plan);
            for workers in [1usize, 2, 0] {
                let what = format!(
                    "faulty/{}/{n_shards} shards/{workers} workers",
                    routing.name()
                );
                let report = run_faulty(&bundle, base.with_workers(workers), &plan);
                assert_eq!(default.decisions, report.decisions, "{what}");
                assert_eq!(default.counts, report.counts, "{what}");
                assert_reports_identical(&default.cluster, &report.cluster, &what);
            }
        }
    }
}

#[test]
fn filtered_updates_conserve_queries_but_change_digests() {
    let bundle = golden_bundle();
    let base = ClusterConfig::new(8).with_seed(SEED);
    let plain = run_plain(&bundle, base);
    let filtered = run_plain(&bundle, base.with_filtered_updates());
    // Same queries, same routing, every query still decided exactly once.
    assert_eq!(plain.assignment, filtered.assignment);
    assert_eq!(
        plain.counts.total(),
        filtered.counts.total(),
        "filtering must never drop queries"
    );
    unit_cluster::check_cluster_identity(&filtered).unwrap();
    // And the documented caveat holds: dropping unread streams changes at
    // least one shard's digest (less CPU contention on that shard).
    let diverged = plain
        .shard_reports
        .iter()
        .zip(&filtered.shard_reports)
        .any(|(a, b)| report_digest(a) != report_digest(b));
    assert!(
        diverged,
        "expected demand filtering to drop streams (and digests to move) at 8 shards"
    );
}
