//! Shared experiment plumbing: workload plans, policy construction, and
//! parallel run execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use unit_baselines::{ImuPolicy, OduPolicy, QmfPolicy};
use unit_core::config::UnitConfig;
use unit_core::policy::Policy;
use unit_core::time::SimDuration;
use unit_core::types::Trace;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_obs::Observer;
use unit_sim::{SimConfig, SimReport, SimRun};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

/// The four policies of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Immediate Update.
    Imu,
    /// On-Demand Update.
    Odu,
    /// Kang et al.'s QMF.
    Qmf,
    /// The paper's contribution.
    Unit,
}

impl PolicyKind {
    /// All four, in the paper's plotting order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Imu,
        PolicyKind::Odu,
        PolicyKind::Qmf,
        PolicyKind::Unit,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Imu => "IMU",
            PolicyKind::Odu => "ODU",
            PolicyKind::Qmf => "QMF",
            PolicyKind::Unit => "UNIT",
        }
    }

    /// Whether the policy's *outcomes* depend on the USM weights. Only UNIT
    /// reacts to weights; the baselines can be run once and repriced
    /// (§4.5: "IMU, ODU and QMF are insensitive to weight variations").
    pub fn weight_sensitive(self) -> bool {
        matches!(self, PolicyKind::Unit)
    }
}

/// A scaled experiment plan: workload sizing shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentPlan {
    /// Query-trace configuration.
    pub query_cfg: QueryTraceConfig,
    /// Divisor applied to the Table 1 update totals.
    pub scale: u64,
    /// Control-tick period for the simulator.
    pub tick_period: SimDuration,
}

/// The paper-scale workload plan divided by `scale` (1 = full scale:
/// 110,035 queries over 3,848,104 s, Table 1 update totals).
pub fn default_workload_plan(scale: u64) -> ExperimentPlan {
    assert!(scale >= 1, "scale must be >= 1");
    ExperimentPlan {
        query_cfg: QueryTraceConfig::default().scaled_down(scale),
        scale,
        tick_period: SimDuration::from_secs(10),
    }
}

impl ExperimentPlan {
    /// The update-trace configuration for one Table 1 cell at this plan's
    /// scale. Exposed so streaming callers can regenerate the update streams
    /// (which need only the popularity profile) without materializing a
    /// whole [`TraceBundle`].
    pub fn update_config(
        &self,
        volume: UpdateVolume,
        dist: UpdateDistribution,
    ) -> UpdateTraceConfig {
        let total = volume.total_updates() / self.scale;
        UpdateTraceConfig::table1(volume, dist).with_total(total.max(1))
    }

    /// Generate the workload bundle for one Table 1 cell.
    pub fn bundle(&self, volume: UpdateVolume, dist: UpdateDistribution) -> TraceBundle {
        TraceBundle::generate(&self.query_cfg, &self.update_config(volume, dist))
    }

    /// Simulator configuration for this plan.
    pub fn sim_config(&self, weights: UsmWeights) -> SimConfig {
        SimConfig::new(self.query_cfg.horizon)
            .with_weights(weights)
            .with_tick_period(self.tick_period)
    }

    /// The UNIT configuration used by the harness: paper constants with the
    /// default 50 s grace period. The query arrival *rate* is
    /// scale-invariant (queries and horizon shrink together), so the
    /// controller sees comparable window populations at every scale.
    pub fn unit_config(&self, weights: UsmWeights) -> UnitConfig {
        UnitConfig::with_weights(weights)
    }
}

/// One labelled run result.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The trace the run executed ("med-unif", ...).
    pub trace_name: String,
    /// Which policy ran.
    pub policy: PolicyKind,
    /// Full simulator report.
    pub report: SimReport,
}

/// Run one policy over one bundle under `cfg`, optionally with an observer
/// installed (the `--trace-out` path). UNIT is configured from
/// `cfg.weights`. Observation is digest-neutral by construction (the obs
/// differential suite pins this), so experiments can record without
/// re-running quiet.
pub fn run_policy_with(
    plan: &ExperimentPlan,
    bundle: &TraceBundle,
    policy: PolicyKind,
    cfg: SimConfig,
    observer: Option<&mut dyn Observer>,
) -> RunOutcome {
    fn simulate<P: Policy>(
        trace: &Trace,
        policy: P,
        cfg: SimConfig,
        observer: Option<&mut dyn Observer>,
    ) -> SimReport {
        let run = SimRun::trace(trace, policy, cfg);
        match observer {
            Some(o) => run.with_observer(o).run(),
            None => run.run(),
        }
    }
    let trace = &bundle.trace;
    let report = match policy {
        PolicyKind::Imu => simulate(trace, ImuPolicy::new(), cfg, observer),
        PolicyKind::Odu => simulate(trace, OduPolicy::new(), cfg, observer),
        PolicyKind::Qmf => simulate(trace, QmfPolicy::default(), cfg, observer),
        PolicyKind::Unit => {
            let unit = UnitPolicy::new(plan.unit_config(cfg.weights));
            simulate(trace, unit, cfg, observer)
        }
    };
    RunOutcome {
        trace_name: bundle.name.clone(),
        policy,
        report,
    }
}

/// [`run_policy_with`] under the plan's own config for `weights`, quiet.
pub fn run_policy(
    plan: &ExperimentPlan,
    bundle: &TraceBundle,
    policy: PolicyKind,
    weights: UsmWeights,
) -> RunOutcome {
    run_policy_with(plan, bundle, policy, plan.sim_config(weights), None)
}

/// Size a worker pool: `min(jobs, parallelism)`, but always at least one
/// thread. `parallelism` is the raw host value — callers pass `0` (or `1`)
/// when `available_parallelism()` errored, and the floor absorbs it. Pure so
/// the clamping is testable without observing live thread counts: a 2-job
/// matrix gets at most 2 workers no matter how wide the host is.
pub fn worker_pool_size(parallelism: usize, jobs: usize) -> usize {
    parallelism.min(jobs).max(1)
}

/// Run a matrix of (bundle × policy) pairs in parallel on a bounded worker
/// pool (runs are independent and deterministic; results keep matrix order).
///
/// The pool holds [`worker_pool_size`] = `min(n_cells,
/// available_parallelism)` OS threads pulling cells from a shared counter —
/// large sweeps do not spawn one thread per cell and oversubscribe the
/// host, and small matrices do not spawn idle workers.
pub fn run_matrix(
    plan: &ExperimentPlan,
    bundles: &[TraceBundle],
    policies: &[PolicyKind],
    weights: UsmWeights,
) -> Vec<RunOutcome> {
    let cells: Vec<(&TraceBundle, PolicyKind)> = bundles
        .iter()
        .flat_map(|b| policies.iter().map(move |&p| (b, p)))
        .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "sizes the worker pool only: each cell's outcome is independent of it"
    )]
    let n_workers = worker_pool_size(
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cells.len(),
    );
    let results: Vec<Mutex<Option<RunOutcome>>> =
        (0..cells.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(bundle, policy)) = cells.get(idx) else {
                    return;
                };
                let outcome = run_policy(plan, bundle, policy, weights);
                *results[idx].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell must have run")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> ExperimentPlan {
        default_workload_plan(40) // 2750 queries over ~96,000 s
    }

    #[test]
    fn plan_scales_consistently() {
        let p = tiny_plan();
        assert_eq!(p.query_cfg.n_queries, 2_750);
        assert_eq!(
            p.query_cfg.horizon.0,
            SimDuration::from_secs(3_848_104).0 / 40
        );
        let b = p.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
        assert_eq!(b.name, "med-unif");
        // 30_000 / 40 = 750 updates x ~96s over ~96,000 s ≈ 75% utilization.
        assert!(
            (b.update_utilization - 0.75).abs() < 0.15,
            "{}",
            b.update_utilization
        );
    }

    #[test]
    fn all_four_policies_complete_a_run() {
        let p = tiny_plan();
        let b = p.bundle(UpdateVolume::Low, UpdateDistribution::Uniform);
        for kind in PolicyKind::ALL {
            let out = run_policy(&p, &b, kind, UsmWeights::naive());
            assert_eq!(out.report.counts.total() as usize, b.trace.queries.len());
            assert_eq!(out.report.policy, kind.name());
        }
    }

    #[test]
    fn matrix_preserves_ordering() {
        let p = tiny_plan();
        let bundles = vec![
            p.bundle(UpdateVolume::Low, UpdateDistribution::Uniform),
            p.bundle(UpdateVolume::Low, UpdateDistribution::PositiveCorrelation),
        ];
        let policies = [PolicyKind::Imu, PolicyKind::Unit];
        let out = run_matrix(&p, &bundles, &policies, UsmWeights::naive());
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].trace_name, "low-unif");
        assert_eq!(out[0].policy, PolicyKind::Imu);
        assert_eq!(out[1].policy, PolicyKind::Unit);
        assert_eq!(out[2].trace_name, "low-pos");
    }

    #[test]
    fn pool_never_exceeds_the_job_count() {
        // Regression: a 2-job matrix must never get more than 2 workers,
        // regardless of how many cores the host reports.
        for parallelism in [1, 2, 3, 4, 8, 64, 512] {
            assert!(worker_pool_size(parallelism, 2) <= 2, "p={parallelism}");
        }
        assert_eq!(worker_pool_size(8, 2), 2);
        assert_eq!(worker_pool_size(2, 8), 2);
    }

    #[test]
    fn pool_always_has_at_least_one_worker() {
        // available_parallelism() errors surface as parallelism 0/1; an
        // empty matrix must still not produce a zero-size pool.
        assert_eq!(worker_pool_size(0, 5), 1);
        assert_eq!(worker_pool_size(4, 0), 1);
        assert_eq!(worker_pool_size(0, 0), 1);
        assert_eq!(worker_pool_size(1, 1), 1);
    }

    #[test]
    fn run_matrix_handles_a_two_job_matrix() {
        // End-to-end: the clamped pool still runs every cell exactly once
        // and keeps matrix order.
        let p = tiny_plan();
        let bundles = vec![p.bundle(UpdateVolume::Low, UpdateDistribution::Uniform)];
        let policies = [PolicyKind::Imu, PolicyKind::Odu];
        let out = run_matrix(&p, &bundles, &policies, UsmWeights::naive());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].policy, PolicyKind::Imu);
        assert_eq!(out[1].policy, PolicyKind::Odu);
    }

    #[test]
    fn weight_sensitivity_flags() {
        assert!(PolicyKind::Unit.weight_sensitive());
        assert!(!PolicyKind::Imu.weight_sensitive());
        assert!(!PolicyKind::Odu.weight_sensitive());
        assert!(!PolicyKind::Qmf.weight_sensitive());
    }
}
