//! `cluster-mix`: one paper-scale med-unif trace through a 4-shard cluster
//! four ways — plain whole-run, epoch-parallel with filtered updates, under a
//! fault plan with failover and one lose-state crash, and with replication.
//! Dispatcher, epoch stepping, merge, failover, checkpoint/restore and
//! replication do the work; the single engine only matters through the
//! slowest shard.

use crate::metrics::{set_policy_layers, EndToEnd, RunOutput};
use crate::paper::{self, MED_UNIF};
use crate::probe::TimedPolicy;
use crate::stats::{median, percentile};
use crate::trace::TraceSink;
use crate::{measure_for, RunArgs};
use std::time::Instant;
use unit_cluster::{
    assign, check_cluster_identity, check_health_consistency, check_replication_consistency,
    BackoffConfig, ClusterConfig, ClusterRunReport, FailoverPolicy, PropagationLag, ReplicaSets,
    ReplicationConfig, RoutingPolicy,
};
use unit_core::policy::Policy;
use unit_core::split_seed;
use unit_core::time::{SimDuration, SimTime};
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::OutcomeCounts;
use unit_faults::{CrashWindow, FaultConfig, FaultMode, FaultPlan};
use unit_workload::{ItemPartition, TraceBundle};

const N_SHARDS: usize = 4;
const WORKERS: usize = 2;
const ROUTING: RoutingPolicy = RoutingPolicy::FreshnessAware;
const CRASH_RATE: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Plain,
    EpochFiltered,
    Faulty,
    Replicated,
}

const CELLS: [Cell; 4] = [
    Cell::Plain,
    Cell::EpochFiltered,
    Cell::Faulty,
    Cell::Replicated,
];

fn failover() -> FailoverPolicy {
    FailoverPolicy::Backoff(BackoffConfig::default())
}

fn replication() -> ReplicationConfig {
    ReplicationConfig::new(2).with_lag(PropagationLag::fixed(SimDuration::from_secs(60)))
}

/// Crash rate 0.1 with degraded reads on every shard, plus one lose-state
/// crash (checkpoint restore and replay) on shard 0, placed at the first
/// candidate instant that keeps the schedule valid.
fn fault_plan(bundle: &TraceBundle, seed: u64) -> FaultPlan {
    let cfg = FaultConfig::quiet(bundle.horizon, bundle.trace.n_items).with_crashes(
        CRASH_RATE,
        SimDuration::from_secs(600),
        FaultMode::DegradedReads,
    );
    let mut plan = FaultPlan::generate(split_seed(seed, 0xFA), N_SHARDS, &cfg);
    let h = bundle.horizon.0;
    for k in 0..64u64 {
        // Off the 10 s tick grid, so the replay window spans real work.
        let at = SimTime(h / 2 + k * (h / 128) + 7);
        let mut candidate = plan.clone();
        candidate.shards[0].crashes.push(CrashWindow {
            start: at,
            end: SimTime(at.0 + SimDuration::from_secs(1).0),
            mode: FaultMode::CrashLoseState,
        });
        candidate.shards[0].crashes.sort_by_key(|w| w.start);
        if candidate.validate().is_ok() {
            plan = candidate;
            break;
        }
    }
    plan
}

struct CellRun {
    cell: Cell,
    wall_s: f64,
    report: ClusterRunReport,
}

impl CellRun {
    /// The cell's outcome tally, dispatcher rejections included.
    fn counts(&self) -> OutcomeCounts {
        match &self.report {
            ClusterRunReport::Plain(r) => r.counts,
            ClusterRunReport::Faulty(r) => r.counts,
        }
    }

    fn usm(&self) -> f64 {
        self.counts().average_usm(&paper::WEIGHTS)
    }

    fn events(&self) -> u64 {
        self.report
            .cluster()
            .shard_reports
            .iter()
            .map(|r| r.events_processed)
            .sum()
    }
}

/// One round: generate the trace and the fault plan (the set-up), then run
/// the four cells.
struct Round {
    setup_s: f64,
    cells: Vec<CellRun>,
    bundle: TraceBundle,
    plan: FaultPlan,
}

impl Round {
    fn wall_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }

    fn queries(&self) -> u64 {
        (self.bundle.trace.queries.len() * self.cells.len()) as u64
    }
}

fn run_cell<P: Policy + Send>(
    cell: Cell,
    bundle: &TraceBundle,
    plan: &FaultPlan,
    seed: u64,
    wrap: &(impl Fn(UnitPolicy) -> P + Sync),
) -> CellRun {
    let base = ClusterConfig::new(N_SHARDS)
        .with_routing(ROUTING)
        .with_seed(split_seed(seed, 0xC1))
        .with_workers(WORKERS);
    let config = match cell {
        Cell::Plain | Cell::Faulty => base,
        Cell::EpochFiltered => base
            .with_epoch(SimDuration(bundle.horizon.0 / 64))
            .with_filtered_updates(),
        Cell::Replicated => base.with_replication(replication()),
    };
    let mut run = config.build();
    if cell == Cell::Faulty {
        run = run.with_faults(plan, failover());
    }
    let unit = paper::unit_config(seed);
    let started = Instant::now();
    let report = run
        .run(&bundle.trace, paper::sim_config(bundle.horizon), |_, s| {
            wrap(UnitPolicy::new(unit.clone().with_seed(s)))
        })
        .expect("the cluster configurations of cluster-mix are valid");
    CellRun {
        cell,
        wall_s: started.elapsed().as_secs_f64(),
        report,
    }
}

fn run_round<P: Policy + Send>(
    seed: u64,
    wrap: &(impl Fn(UnitPolicy) -> P + Sync),
    out: &mut RunOutput,
) -> Round {
    let setup = Instant::now();
    let bundle = paper::bundle(MED_UNIF, seed);
    let plan = fault_plan(&bundle, seed);
    let setup_s = setup.elapsed().as_secs_f64();
    let cells: Vec<CellRun> = CELLS
        .iter()
        .map(|&c| run_cell(c, &bundle, &plan, seed, wrap))
        .collect();
    let n = bundle.trace.queries.len() as u64;
    for c in &cells {
        let resolved = c.counts().total();
        out.attempted += n;
        out.failed += n.abs_diff(resolved);
        out.check(resolved == n, || {
            format!("{:?}: {resolved} outcomes for {n} queries", c.cell)
        });
    }
    Round {
        setup_s,
        cells,
        bundle,
        plan,
    }
}

/// The cluster's own invariants, on one round's reports.
fn check_round(round: &Round, seed: u64, out: &mut RunOutput) {
    for c in &round.cells {
        if let Err(e) = check_cluster_identity(c.report.cluster()) {
            out.violations
                .push(format!("{:?}: cluster identity: {e}", c.cell));
        }
        if let ClusterRunReport::Faulty(r) = &c.report {
            if let Err(e) = check_health_consistency(r, &round.plan, &failover()) {
                out.violations.push(format!("health consistency: {e}"));
            }
            let lose_state: usize = round
                .plan
                .shards
                .iter()
                .flat_map(|s| &s.crashes)
                .filter(|w| w.mode == FaultMode::CrashLoseState)
                .count();
            out.check(lose_state == 1, || {
                format!("the fault plan holds {lose_state} lose-state windows, not 1")
            });
        }
        if c.cell == Cell::Replicated {
            let horizon = round.bundle.horizon;
            let sets = ReplicaSets::new(
                &round.bundle.trace,
                N_SHARDS,
                &replication(),
                split_seed(seed, 0xC1),
                horizon,
            );
            match &c.report.cluster().replication {
                // Sample the in-transit bound 256 times over the horizon; the
                // recount of the propagation log is exact either way.
                Some(rep) => {
                    let step = SimDuration(horizon.0 / 256);
                    if let Err(e) = check_replication_consistency(&sets, rep, step, horizon) {
                        out.violations.push(format!("replication consistency: {e}"));
                    }
                }
                None => out
                    .violations
                    .push("the replicated cell carries no replication report".to_string()),
            }
        }
    }
}

/// What is kept of a round once it has been checked.
struct RoundStats {
    setup_s: f64,
    cell_walls_s: Vec<f64>,
    /// Average USM of each cell, as bits: rounds over one seed must agree.
    usm_bits: Vec<u64>,
    queries: u64,
}

impl RoundStats {
    fn of(round: &Round) -> RoundStats {
        RoundStats {
            setup_s: round.setup_s,
            cell_walls_s: round.cells.iter().map(|c| c.wall_s).collect(),
            usm_bits: round.cells.iter().map(|c| c.usm().to_bits()).collect(),
            queries: round.queries(),
        }
    }

    fn wall_s(&self) -> f64 {
        self.cell_walls_s.iter().sum()
    }
}

fn set_end_to_end(out: &mut RunOutput, rounds: &[RoundStats]) {
    let per_round =
        |f: &dyn Fn(&RoundStats) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let cells_us: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.cell_walls_s.iter().map(|w| w * 1e6))
        .collect();
    let first = &rounds[0].usm_bits;
    EndToEnd {
        setup_s: per_round(&|r| r.setup_s),
        ops_per_s: per_round(&|r| r.queries as f64 / r.wall_s()),
        usm_per_query: first.iter().map(|&b| f64::from_bits(b)).sum::<f64>() / first.len() as f64,
        latency_p50_us: percentile(&cells_us, 50.0),
        latency_p90_us: percentile(&cells_us, 90.0),
    }
    .set(out);
}

/// `cluster-mix`.
pub fn mix(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    if !args.trace {
        let rounds = measure_for(args.seconds, RoundStats::wall_s, |_| {
            let round = run_round(args.seed, &|p| p, &mut out);
            check_round(&round, args.seed, &mut out);
            RoundStats::of(&round)
        });
        for (i, r) in rounds.iter().enumerate().skip(1) {
            out.check(r.usm_bits == rounds[0].usm_bits, || {
                format!("round {i} scored differently from round 0 on the same trace")
            });
        }
        set_end_to_end(&mut out, &rounds);
        return out;
    }

    let quiet = run_round(args.seed, &|p| p, &mut out);
    check_round(&quiet, args.seed, &mut out);
    let cell = |c: Cell| {
        quiet
            .cells
            .iter()
            .find(|r| r.cell == c)
            .expect("every cell ran")
    };
    let events: u64 = quiet.cells.iter().map(CellRun::events).sum();
    let usm = quiet.cells.iter().map(CellRun::usm).sum::<f64>() / quiet.cells.len() as f64;
    out.metrics
        .set("events_per_s", events as f64 / quiet.wall_s());
    out.metrics.set("sim.events", events as f64);
    out.metrics.set("wall_s", quiet.wall_s());
    out.metrics.set("usm_per_query", usm);
    out.metrics.set("workload.generate_s", quiet.setup_s);

    let plain = cell(Cell::Plain);
    let walls = &plain.report.cluster().shard_walls;
    out.metrics.set(
        "cluster.critical_path_s",
        plain.report.cluster().critical_path_secs().unwrap_or(0.0),
    );
    out.metrics.set(
        "cluster.parallel_efficiency",
        walls.iter().sum::<f64>() / (WORKERS as f64 * plain.wall_s),
    );
    let started = Instant::now();
    let assignment = assign(&quiet.bundle.trace, &ItemPartition::new(N_SHARDS), ROUTING);
    out.metrics.set(
        "cluster.assign_ns_per_query",
        started.elapsed().as_nanos() as f64 / (assignment.len() as f64).max(1.0),
    );
    if let ClusterRunReport::Faulty(r) = &cell(Cell::Faulty).report {
        out.metrics
            .set("cluster.failover.retries", r.total_retries() as f64);
        let restores: u64 = r
            .cluster
            .shard_reports
            .iter()
            .map(|s| s.faults.recoveries)
            .sum();
        out.metrics
            .set("cluster.recovery.restores", restores as f64);
    }
    if let Some(rep) = &cell(Cell::Replicated).report.cluster().replication {
        out.metrics.set(
            "cluster.replication.follower_reads",
            rep.routes.len() as f64,
        );
        out.metrics.set(
            "cluster.replication.propagated",
            rep.propagation.len() as f64,
        );
    }

    // The same round with every policy hook timed.
    let sink = TraceSink::new(false);
    let timed = run_round(
        args.seed,
        &|p| TimedPolicy::new(p, sink.clone(), false),
        &mut out,
    );
    set_policy_layers(&mut out, &sink.summary());
    for (q, t) in quiet.cells.iter().zip(&timed.cells) {
        out.check(q.usm().to_bits() == t.usm().to_bits(), || {
            format!(
                "{:?}: the timed run scored differently from the quiet run",
                q.cell
            )
        });
    }
    crate::write_trace(&sink, "cluster-mix", &mut out);
    out
}
