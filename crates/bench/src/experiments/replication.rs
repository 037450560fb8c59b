//! Replication: the fig3 workload (UNIT policy, med-unif bundle) on a
//! 4-shard cluster swept over replication factor × propagation lag ×
//! routing policy, reporting cluster USM against the replication-free run
//! (`d_usm`), follower-routed queries and propagated versions.
//!
//! The factor-1 rows are asserted on every run: whatever the lag schedule
//! says, one replica per item *is* the partition-only cluster, so their USM
//! must equal the plain run's to the bit — the contract
//! `crates/cluster/tests/replication_differential.rs` pins at digest level,
//! re-checked here on the bench workload. The plain anchors are the 4-shard
//! rows of the `cluster` table.
//!
//! The interesting curves are the others: more replicas widen the
//! dispatcher's candidate pools (more load spreading), while longer
//! propagation lag shrinks the set of followers whose `Qu` bound clears
//! each query's freshness requirement — so USM responds to the *ratio* of
//! lag to the workload's tolerable staleness, which is exactly the
//! trade-off the UNIT paper's freshness machinery quantifies.

use super::cluster::Workload;
use unit_bench::cli::Shared;
use unit_bench::render::{f, fs, Table};
use unit_bench::row;
use unit_cluster::{ClusterConfig, PropagationLag, ReplicationConfig, RoutingPolicy};
use unit_core::time::SimDuration;

const N_SHARDS: usize = 4;

/// The lag schedules swept per factor: zero, a fixed delay, and a
/// windowed jittered schedule whose worst case is four times the base.
fn lag_points() -> [(&'static str, PropagationLag); 3] {
    [
        ("zero", PropagationLag::none()),
        (
            "fixed-60s",
            PropagationLag::fixed(SimDuration::from_secs(60)),
        ),
        (
            "jitter-60s+180s",
            PropagationLag::jittered(SimDuration::from_secs(60), SimDuration::from_secs(180), 8),
        ),
    ]
}

pub(crate) fn run(args: &Shared) -> Table {
    let w = Workload::new(args.scale);
    let mut rows = Vec::new();
    for routing in RoutingPolicy::ALL {
        let base = ClusterConfig::new(N_SHARDS).with_routing(routing);
        // The replication-free anchor every factor-1 row must reproduce.
        let plain_usm = w.plain(base.build()).average_usm();
        for factor in 1..=3 {
            for (lag_name, lag) in lag_points() {
                let replication = ReplicationConfig::new(factor).with_lag(lag);
                let report = w.plain(base.with_replication(replication).build());
                let usm = report.average_usm();
                let rep = report.replication.as_ref().expect("replication report");
                if factor == 1 {
                    assert_eq!(
                        usm.to_bits(),
                        plain_usm.to_bits(),
                        "factor-1 diverged from the plain cluster at {}/{lag_name}",
                        routing.name()
                    );
                    assert!(rep.propagation.is_empty());
                    assert!(rep.routes.is_empty());
                }
                rows.push(row![
                    routing.name(),
                    factor,
                    lag_name,
                    f(usm, 4),
                    fs(usm - plain_usm, 4),
                    rep.routes.len(),
                    rep.propagation.len(),
                ]);
            }
        }
    }
    Table {
        stem: "replication",
        title: format!(
            "Replication: fig3 med-unif, UNIT on {N_SHARDS} shards, factor x propagation lag x routing, scale 1/{}",
            args.scale
        ),
        header: row![
            "routing",
            "factor",
            "lag",
            "usm",
            "d_usm",
            "follower_queries",
            "propagated"
        ],
        rows,
        notes: "check: every factor-1 row equals the replication-free cluster (d_usm +0.0000) bit for bit,\n\
                with no follower-routed query and no propagated version.\n"
            .to_string(),
    }
}
