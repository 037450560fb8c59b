//! Cluster scaling: the fig3 workload (UNIT policy, med-unif bundle) on a
//! sharded cluster at 1/2/4/8 shards under every routing policy.
//!
//! Each cell runs twice: with plain slicing (every shard replays all update
//! streams of the items it owns — the slicing the differential suites pin)
//! and with demand-filtered slicing (`ClusterConfig::with_filtered_updates`:
//! a shard keeps only the streams of items its own queries read). Filtering
//! is lossy, so `usm_filtered` legitimately differs from `usm`. Every column
//! is a deterministic count; how fast cluster runs go is the reference
//! benchmark's `cluster-mix` workload.
//!
//! Two claims are asserted on every run:
//!
//! * the 1-shard rows equal the plain single-server engine's USM on the same
//!   bundle (policy seeded `split_seed(DEFAULT_SEED, 0)`), bit for bit — the
//!   digest-level check lives in `crates/cluster/tests/differential.rs`;
//! * sharding divides the work: under every routing, the slowest shard's
//!   `events_processed` with filtered updates is lower at 8 shards than at 1.

use std::fmt::Write as _;
use unit_bench::cli::Shared;
use unit_bench::default_workload_plan;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_cluster::{ClusterConfig, ClusterReport, ClusterRun, ClusterRunReport, RoutingPolicy};
use unit_core::config::{UnitConfig, DEFAULT_SEED};
use unit_core::split_seed;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_obs::RingRecorder;
use unit_sim::{run_simulation, SimConfig};
use unit_workload::{TraceBundle, UpdateDistribution, UpdateVolume};

const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// The workload of the cluster tables (`cluster`, `faults`, `replication`):
/// fig3's med-unif bundle priced under the low-C_fs/high-C_fm weights, with
/// UNIT on every shard.
pub(crate) struct Workload {
    pub(crate) bundle: TraceBundle,
    sim: SimConfig,
    unit: UnitConfig,
}

impl Workload {
    pub(crate) fn new(scale: u64) -> Workload {
        let plan = default_workload_plan(scale);
        let weights = UsmWeights::low_high_cfm();
        Workload {
            bundle: plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform),
            sim: plan.sim_config(weights),
            unit: plan.unit_config(weights),
        }
    }

    /// Execute `run` over the bundle, UNIT on every shard.
    pub(crate) fn run(&self, run: ClusterRun<'_>) -> ClusterRunReport {
        run.run_unit(&self.bundle.trace, self.sim, &self.unit)
            .expect("valid cluster config")
    }

    /// Execute a fault-free `run`.
    pub(crate) fn plain(&self, run: ClusterRun<'_>) -> ClusterReport {
        self.run(run).into_plain().expect("fault-free run")
    }
}

fn slowest_shard_events(report: &ClusterReport) -> u64 {
    report
        .shard_reports
        .iter()
        .map(|r| r.events_processed)
        .max()
        .unwrap_or(0)
}

pub(crate) fn run(args: &Shared) -> Table {
    let w = Workload::new(args.scale);
    let streams = w.bundle.trace.updates.len();
    let single = run_simulation(
        &w.bundle.trace,
        UnitPolicy::new(w.unit.clone().with_seed(split_seed(DEFAULT_SEED, 0))),
        w.sim,
    )
    .average_usm();

    let mut rows = Vec::new();
    let mut notes = String::new();
    for routing in RoutingPolicy::ALL {
        let mut slowest = Vec::new();
        for n_shards in SHARDS {
            let base = ClusterConfig::new(n_shards).with_routing(routing);
            // The 4-shard least-load cell doubles as the --trace-out subject
            // (observation is digest-neutral, so the observed report serves
            // the table too).
            let record =
                args.trace_out.is_some() && routing == RoutingPolicy::LeastLoad && n_shards == 4;
            let mut rec = RingRecorder::unbounded();
            let mut run = base.build();
            if record {
                run = run.with_observer(&mut rec);
            }
            let plain = w.plain(run);
            if record {
                args.write_trace("4 shards, least-load", &rec.into_events());
            }
            let filtered = w.plain(base.with_filtered_updates().build());
            let usm = plain.average_usm();
            if n_shards == 1 {
                assert_eq!(
                    usm.to_bits(),
                    single.to_bits(),
                    "{}: 1-shard USM {usm} diverged from the single-server engine's {single}",
                    routing.name()
                );
            }
            let events: u64 = plain.shard_reports.iter().map(|r| r.events_processed).sum();
            let kept: usize = filtered.update_streams_per_shard.iter().sum();
            let slow = slowest_shard_events(&filtered);
            slowest.push(slow);
            rows.push(row![
                routing.name(),
                n_shards,
                f(usm, 4),
                f(filtered.average_usm(), 4),
                events,
                slow,
                kept,
                streams - kept,
            ]);
        }
        let (one, eight) = (slowest[0], slowest[SHARDS.len() - 1]);
        assert!(
            eight < one,
            "{}: the slowest of 8 shards processed {eight} events, 1 shard {one}",
            routing.name()
        );
        let _ = writeln!(
            notes,
            "{:<16} slowest shard (filtered): {one} events at 1 shard -> {eight} at 8",
            routing.name()
        );
    }
    let _ = writeln!(
        notes,
        "check: every 1-shard row equals the single-server engine's USM ({}), bit for bit;\n\
         the slowest shard processes fewer events at 8 shards than at 1 under every routing.",
        f(single, 4)
    );
    Table {
        stem: "cluster",
        title: format!(
            "Cluster scaling: fig3 med-unif, UNIT per shard, 1/2/4/8 shards x 3 routings, scale 1/{} ({} queries)",
            args.scale,
            w.bundle.trace.queries.len()
        ),
        header: row![
            "routing",
            "shards",
            "usm",
            "usm_filtered",
            "events",
            "max_shard_events_filtered",
            "streams_kept",
            "streams_dropped"
        ],
        rows,
        notes,
    }
}
