//! Cluster-level recovery differential (DESIGN.md §7): shards that crash
//! with lose-state semantics — dropping all volatile state, restoring the
//! last control-boundary checkpoint, and replaying the lost window — must
//! leave the merged cluster report bit-identical to the fault-free run.
//!
//! A [`FaultMode::CrashLoseState`] window never reads as unhealthy (the
//! recovery is instantaneous in virtual time), so the dispatcher routes
//! exactly as the plain assigner does and the only moving part is each
//! crashed shard's checkpoint/restore/replay cycle. That makes the plain
//! run a valid reference: health-Up fault transitions are digest-neutral.
//! The claim is pinned across worker counts {0, 1}, and the per-shard obs
//! streams are checked for the checkpoint → restore → replay event arc.

use unit_cluster::{
    check_health_consistency, BackoffConfig, ClusterConfig, ClusterReport, FailoverPolicy,
    FaultClusterReport, RouteDecision,
};
use unit_core::config::UnitConfig;
use unit_core::time::{SimDuration, SimTime};
use unit_core::usm::UsmWeights;
use unit_faults::{CrashWindow, FaultMode, FaultPlan, FaultSchedule};
use unit_obs::{ObsEvent, Observer, RingRecorder};
use unit_sim::{report_digest, SimConfig};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SCALE: u64 = 8;
const SEED: u64 = 0x5EED_0003;
const N_SHARDS: usize = 4;

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

fn crash_window(at: SimTime) -> CrashWindow {
    CrashWindow {
        start: at,
        end: SimTime(at.0 + SimDuration::from_secs(1).0),
        mode: FaultMode::CrashLoseState,
    }
}

/// Shards 0 and 2 crash (twice and once); shards 1 and 3 stay quiet.
/// Instants sit off the 10s control-tick grid so every replay window
/// spans real work.
fn crash_plan(horizon: SimDuration) -> FaultPlan {
    let mut plan = FaultPlan::quiet(N_SHARDS);
    plan.shards[0] = FaultSchedule {
        crashes: vec![
            crash_window(SimTime(horizon.0 * 2 / 5 + 1)),
            crash_window(SimTime(horizon.0 * 7 / 10 + 3)),
        ],
        ..FaultSchedule::default()
    };
    plan.shards[2] = FaultSchedule {
        crashes: vec![crash_window(SimTime(horizon.0 / 2 + 7))],
        ..FaultSchedule::default()
    };
    plan
}

/// Expected recoveries per shard under [`crash_plan`].
const EXPECTED_RECOVERIES: [u64; N_SHARDS] = [2, 0, 1, 0];

fn base_cluster() -> ClusterConfig {
    ClusterConfig::new(N_SHARDS).with_seed(SEED)
}

fn run_plain(bundle: &TraceBundle, cluster: ClusterConfig) -> ClusterReport {
    cluster
        .build()
        .run_unit(&bundle.trace, sim_config(bundle.horizon), &unit_cfg())
        .expect("valid cluster config")
        .into_plain()
        .expect("fault-free run")
}

fn run_crashed(
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
        .expect("fault plan installed")
}

fn assert_recovery_invisible(plain: &ClusterReport, crashed: &FaultClusterReport, what: &str) {
    let c = &crashed.cluster;
    assert_eq!(
        plain.assignment, c.assignment,
        "{what}: assignment diverged"
    );
    assert_eq!(plain.counts, c.counts, "{what}: outcome tally diverged");
    assert_eq!(plain.log, c.log, "{what}: merged log diverged");
    assert_eq!(
        plain.counts, crashed.counts,
        "{what}: dispatcher folded in rejections for healthy shards"
    );
    for (s, (rp, rc)) in plain.shard_reports.iter().zip(&c.shard_reports).enumerate() {
        assert_eq!(
            report_digest(rp),
            report_digest(rc),
            "{what}: shard {s} diverged from its uncrashed twin"
        );
        assert_eq!(
            rc.faults.recoveries, EXPECTED_RECOVERIES[s],
            "{what}: shard {s} recovery count"
        );
    }
    // Crashes are invisible to the dispatcher too: every query routes at
    // its arrival with zero retries, exactly like the plain assigner.
    for (q, d) in plain.assignment.iter().zip(&crashed.decisions) {
        match *d {
            RouteDecision::Routed { shard, retries, .. } => {
                assert_eq!(shard, *q, "{what}: routing diverged");
                assert_eq!(retries, 0, "{what}: a healthy shard cost retries");
            }
            RouteDecision::Rejected { .. } => {
                panic!("{what}: dispatcher rejected a query with every shard up")
            }
        }
    }
}

#[test]
fn cluster_recovery_is_invisible_across_workers() {
    let bundle = golden_bundle();
    let plan = crash_plan(bundle.horizon);
    plan.validate_against_horizon(SimTime(bundle.horizon.0))
        .expect("every crash must be reachable");
    let plain = run_plain(&bundle, base_cluster());

    for workers in [0usize, 1] {
        let crashed = run_crashed(&bundle, base_cluster().with_workers(workers), &plan);
        assert_recovery_invisible(&plain, &crashed, &format!("workers={workers}"));
        check_health_consistency(
            &crashed,
            &plan,
            &FailoverPolicy::Backoff(BackoffConfig::default()),
        )
        .expect("health consistency");
    }
}

#[test]
fn crashed_shards_emit_the_checkpoint_event_arc() {
    let bundle = golden_bundle();
    let plan = crash_plan(bundle.horizon);
    let mut rec = RingRecorder::unbounded();
    let crashed = base_cluster()
        .with_workers(1)
        .build()
        .with_faults(&plan, FailoverPolicy::Backoff(BackoffConfig::default()))
        .with_observer(&mut rec)
        .run_unit(&bundle.trace, sim_config(bundle.horizon), &unit_cfg())
        .expect("valid cluster config")
        .into_faulty()
        .expect("fault plan installed");
    for (s, r) in crashed.cluster.shard_reports.iter().enumerate() {
        assert_eq!(r.faults.recoveries, EXPECTED_RECOVERIES[s]);
    }

    // Unwrap the per-shard lanes of the merged stream.
    let mut taken = vec![Vec::new(); N_SHARDS];
    let mut restores = vec![Vec::new(); N_SHARDS];
    let mut replays = [0usize; N_SHARDS];
    for ev in rec.events() {
        if let ObsEvent::Shard { shard, event, .. } = ev {
            let s = *shard as usize;
            match **event {
                ObsEvent::CheckpointTaken { time, bytes } => {
                    assert!(bytes > 0, "a checkpoint is never empty");
                    taken[s].push(time);
                }
                ObsEvent::RestoreBegin { time, checkpoint } => {
                    restores[s].push((time, checkpoint));
                }
                ObsEvent::ReplayComplete { .. } => replays[s] += 1,
                _ => {}
            }
        }
    }
    for (s, sched) in plan.shards.iter().enumerate() {
        let crashes: Vec<SimTime> = sched.crashes.iter().map(|w| w.start).collect();
        assert_eq!(
            restores[s].iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            crashes,
            "shard {s}: one restore per crash instant"
        );
        assert_eq!(replays[s], crashes.len(), "shard {s}: every replay closes");
        if crashes.is_empty() {
            assert!(taken[s].is_empty(), "quiet shard {s} must not checkpoint");
        } else {
            for &(crash, ckpt) in &restores[s] {
                assert!(ckpt <= crash, "shard {s}: restores rewind");
                assert!(
                    taken[s].contains(&ckpt),
                    "shard {s}: restored from a taken checkpoint"
                );
            }
        }
    }
}

/// The replayed observer stream for a crashed cluster stays coherent: the
/// merge is ordered by `(time, lane, seq)` even though a crashed shard's
/// local stream rewinds at each restore.
#[test]
fn crashed_cluster_replay_stream_is_time_ordered_per_merge_key() {
    struct OrderCheck {
        last: Option<SimTime>,
        rewinds: u64,
    }
    impl Observer for OrderCheck {
        fn on_event(&mut self, event: &ObsEvent) {
            let t = event.time();
            if let Some(last) = self.last {
                if t < last {
                    self.rewinds += 1;
                }
            }
            self.last = Some(t);
        }
    }
    let bundle = golden_bundle();
    let plan = crash_plan(bundle.horizon);
    let mut check = OrderCheck {
        last: None,
        rewinds: 0,
    };
    base_cluster()
        .build()
        .with_faults(&plan, FailoverPolicy::Backoff(BackoffConfig::default()))
        .with_observer(&mut check)
        .run_unit(&bundle.trace, sim_config(bundle.horizon), &unit_cfg())
        .expect("valid cluster config");
    assert_eq!(
        check.rewinds, 0,
        "merged stream must be globally time-sorted despite shard rewinds"
    );
}
