//! Golden fixed-seed regression test for the cluster dispatcher.
//!
//! Every cluster run — plain, faulty, replicated, or both — goes through
//! one routing walk, one update-stream slicer and one shard builder (each
//! shard streams its routed queries from the one trace), so the differential
//! suites that compare those configurations against each other share the
//! walk on both sides. This suite is the independent reference for what the
//! walk *decides* on a multi-shard cluster: the golden fig3-style workload
//! at scale=8 over 4 shards × 3 routing policies × {plain, a live fault
//! plan under `Backoff`, factor 2 with a fixed lag, faults + factor 2}.
//! Each cell folds into one u64: the per-shard `report_digest`s, the
//! assignment, every [`RouteDecision`], the combined counts, and the
//! replication routes, promotions and propagation log.
//!
//! The constants were captured from the tree *before* the dispatchers were
//! merged into one walk — when each routing policy had its own assigner
//! and each configuration its own loop — so a pass means the shared walk
//! reproduces every one of them bit for bit.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --release -p unit-cluster --test golden_cluster -- --nocapture
//! ```

use unit_cluster::{
    BackoffConfig, ClusterConfig, ClusterRunReport, FailoverPolicy, PropagationLag,
    ReplicationConfig, RouteDecision, RoutingPolicy,
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
const SEED: u64 = 0x5EED_0013;
const N_SHARDS: usize = 4;

const CELLS: [&str; 4] = ["plain", "faults", "factor2", "faults+factor2"];

/// Golden digests (routing, cell, digest).
const GOLDEN: [(&str, &str, u64); 12] = [
    ("round-robin", "plain", 0xf33f7eff6c2ee32b),
    ("round-robin", "faults", 0xd50eb20e5848a8a2),
    ("round-robin", "factor2", 0x3f2c41cdc5304a98),
    ("round-robin", "faults+factor2", 0xba3040b493aed4e3),
    ("least-load", "plain", 0x465613045f145d62),
    ("least-load", "faults", 0xd2b98bf69f640ba4),
    ("least-load", "factor2", 0xcbdfa6ed0b7fe20f),
    ("least-load", "faults+factor2", 0xd4c2b1e45aa487b1),
    ("freshness-aware", "plain", 0xae6a612171690c7a),
    ("freshness-aware", "faults", 0x5b7043c952cce03e),
    ("freshness-aware", "factor2", 0x8599eda1d9c0e371),
    ("freshness-aware", "faults+factor2", 0x8f09a676f22354dd),
];

/// The golden workload at scale=8 (same bundle as `differential.rs`).
fn golden_bundle() -> TraceBundle {
    let qcfg = QueryTraceConfig::default().scaled_down(SCALE);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / SCALE).max(1));
    TraceBundle::generate(&qcfg, &ucfg)
}

/// A plan that exercises every branch of the fault-aware walk: long pause
/// windows on shards 0, 2 and 3 (overlaps force backoff steps, dispatcher
/// rejections and — under replication — promotions) and degraded-read
/// windows on shard 1 (the second-tier pool).
fn live_plan(bundle: &TraceBundle) -> FaultPlan {
    let cfg = FaultConfig::quiet(bundle.horizon, bundle.trace.n_items).with_crashes(
        0.35,
        SimDuration::from_secs(120),
        FaultMode::Pause,
    );
    let mut plan = FaultPlan::generate(0xFA_13, N_SHARDS, &cfg);
    for w in &mut plan.shards[1].crashes {
        w.mode = FaultMode::DegradedReads;
    }
    plan
}

fn replication() -> ReplicationConfig {
    ReplicationConfig::new(2).with_lag(PropagationLag::fixed(SimDuration::from_secs(60)))
}

fn run_cell(
    bundle: &TraceBundle,
    plan: &FaultPlan,
    routing: RoutingPolicy,
    cell: &str,
) -> ClusterRunReport {
    let sim = SimConfig::new(bundle.horizon)
        .with_weights(UsmWeights::low_high_cfm())
        .with_tick_period(SimDuration::from_secs(10));
    let mut cluster = ClusterConfig::new(N_SHARDS)
        .with_routing(routing)
        .with_seed(SEED);
    if cell.contains("factor2") {
        cluster = cluster.with_replication(replication());
    }
    let mut run = cluster.build();
    if cell.contains("faults") {
        run = run.with_faults(plan, FailoverPolicy::Backoff(BackoffConfig::default()));
    }
    run.run_unit(
        &bundle.trace,
        sim,
        &UnitConfig::with_weights(UsmWeights::low_high_cfm()),
    )
    .expect("valid cluster config")
}

/// FNV-1a over u64 words.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fold_report(report: &ClusterRunReport) -> u64 {
    let mut h = Fold::new();
    let cluster = report.cluster();
    for shard in &cluster.shard_reports {
        h.u64(report_digest(shard));
    }
    h.u64(cluster.assignment.len() as u64);
    for &s in &cluster.assignment {
        h.u64(s as u64);
    }
    let counts = match report {
        ClusterRunReport::Plain(r) => {
            h.u64(0);
            r.counts
        }
        ClusterRunReport::Faulty(r) => {
            h.u64(1 + r.decisions.len() as u64);
            for d in &r.decisions {
                match *d {
                    RouteDecision::Routed { shard, at, retries } => {
                        h.u64(1);
                        h.u64(shard as u64);
                        h.u64(at.0);
                        h.u64(u64::from(retries));
                    }
                    RouteDecision::Rejected { at, retries } => {
                        h.u64(2);
                        h.u64(at.0);
                        h.u64(u64::from(retries));
                    }
                }
            }
            r.counts
        }
    };
    for c in [
        counts.success,
        counts.rejected,
        counts.deadline_miss,
        counts.data_stale,
    ] {
        h.u64(c);
    }
    match &cluster.replication {
        None => h.u64(0),
        Some(rep) => {
            h.u64(rep.factor as u64);
            h.u64(rep.routes.len() as u64);
            for r in &rep.routes {
                h.u64(r.time.0);
                h.u64(r.query.0);
                h.u64(r.shard as u64);
                h.u64(u64::from(r.follower_items));
                h.u64(r.claimed_transit);
            }
            h.u64(rep.promotions.len() as u64);
            for p in &rep.promotions {
                h.u64(p.time.0);
                h.u64(u64::from(p.item.0));
                h.u64(p.from as u64);
                h.u64(p.to as u64);
            }
            h.u64(rep.propagation.len() as u64);
            for p in &rep.propagation {
                h.u64(p.time.0);
                h.u64(u64::from(p.item.0));
                h.u64(p.leader as u64);
                h.u64(p.follower as u64);
                h.u64(p.version);
                h.u64(p.emitted.0);
            }
        }
    }
    h.0
}

#[test]
fn cluster_runs_match_golden_digests() {
    let print_mode = std::env::var_os("GOLDEN_PRINT").is_some();
    let bundle = golden_bundle();
    let plan = live_plan(&bundle);
    let mut failures = Vec::new();
    for routing in RoutingPolicy::ALL {
        for cell in CELLS {
            let report = run_cell(&bundle, &plan, routing, cell);
            let digest = fold_report(&report);
            // The cells must keep reaching the branches they are here for,
            // or a pass would pin less than it claims.
            if let ClusterRunReport::Faulty(r) = &report {
                assert!(r.total_retries() > 0, "{cell}: no backoff step taken");
                assert!(r.dispatcher_rejections() > 0, "{cell}: nothing rejected");
            }
            if let Some(rep) = &report.cluster().replication {
                assert!(!rep.routes.is_empty(), "{cell}: no follower read");
                assert!(!rep.propagation.is_empty(), "{cell}: nothing propagated");
                assert_eq!(
                    rep.promotions.is_empty(),
                    !cell.contains("faults"),
                    "{cell}: promotions happen exactly under a fault plan"
                );
            }
            if print_mode {
                println!("    (\"{}\", \"{cell}\", 0x{digest:016x}),", routing.name());
                continue;
            }
            let expected = GOLDEN
                .iter()
                .find(|(r, c, _)| *r == routing.name() && *c == cell)
                .unwrap_or_else(|| panic!("no golden entry for {}/{cell}", routing.name()));
            if digest != expected.2 {
                failures.push(format!(
                    "{}/{cell}: digest 0x{digest:016x} (want 0x{:016x}), usm {:+.6}",
                    routing.name(),
                    expected.2,
                    report.cluster().average_usm(),
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "cluster run diverged from the golden capture:\n{}",
        failures.join("\n")
    );
}
