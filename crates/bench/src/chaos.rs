//! Seeded chaos harness: random fault plans, invariant oracles, and a
//! greedy plan shrinker.
//!
//! The harness generates valid-by-construction [`FaultPlan`]s from a seed,
//! runs each against the golden med-unif workload on a fault-aware
//! cluster, and checks a set of *oracles* — cross-cutting invariants that
//! must hold for every plan, not just the hand-picked ones in the
//! differential suites:
//!
//! * **conservation** — every query is accounted for exactly once, and
//!   lose-state recoveries tally one-for-one with the plan's crash
//!   windows;
//! * **health-consistency** — no shard outcome lands strictly inside a
//!   pause window, retry budgets are respected
//!   ([`check_health_consistency`]);
//! * **worker-determinism** — the worker count is a pure wall-clock
//!   knob: one worker and two workers produce bit-identical reports;
//! * **recovery-identity** — stripping every
//!   [`FaultMode::CrashLoseState`] window changes no behavioural field:
//!   crash recovery is invisible in virtual time (`end_time`,
//!   `events_processed`, and the fault tallies — tape bookkeeping, not
//!   behaviour — are legitimately excluded; see the comparison helper's
//!   doc comment for why).
//!
//! A failing plan is *shrunk* before it is reported: whole shards are
//! emptied, then individual fault components dropped, then the surviving
//! windows bisected — greedily, to a local fixpoint, re-checking the
//! failed oracle at every step. The minimal reproducer is emitted as a
//! JSON [`ChaosFixture`] so it can be committed as a regression test
//! (see `tests/chaos_fixtures.rs`).
//!
//! `--fixture-broken` mode plants a deliberately false oracle
//! ([`Oracle::PlantedNoRecoveries`]) to prove end-to-end that the harness
//! can find a violation and shrink it to a single fault component.

use serde::{Deserialize, Serialize};
use unit_cluster::{
    check_health_consistency, BackoffConfig, ClusterConfig, FailoverPolicy, FaultClusterReport,
};
use unit_core::config::UnitConfig;
use unit_core::seed::split_seed;
use unit_core::time::{SimDuration, SimTime};
use unit_core::usm::UsmWeights;
use unit_faults::{FaultConfig, FaultMode, FaultPlan, FaultSchedule};
use unit_sim::{report_digest, SimConfig};
use unit_workload::{TraceBundle, UpdateDistribution, UpdateVolume};

/// Counter-mode SplitMix64 draws, the same stateless construction the
/// fault-schedule generator uses: draw `k` is `split_seed(seed, k)`.
struct Draws {
    seed: u64,
    n: u64,
}

impl Draws {
    fn new(seed: u64) -> Draws {
        Draws { seed, n: 0 }
    }

    fn next(&mut self) -> u64 {
        let v = split_seed(self.seed, self.n);
        self.n += 1;
        v
    }

    /// A draw in `[0, n)`; 0 when `n == 0`.
    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }

    /// A draw in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The fixed cluster-side failover policy every chaos run uses.
pub fn chaos_failover() -> FailoverPolicy {
    FailoverPolicy::Backoff(BackoffConfig::default())
}

/// The workload every chaos plan runs against: the golden fig3 med-unif
/// bundle (UNIT policy per shard) at a configurable scale, plus the
/// cluster shape. Built once per sweep; plans vary, the workload doesn't.
pub struct ChaosWorkload {
    bundle: TraceBundle,
    sim: SimConfig,
    unit: UnitConfig,
    n_shards: usize,
    seed: u64,
}

impl ChaosWorkload {
    /// Build the workload at `1/scale` of paper size with `n_shards`
    /// shards; `seed` seeds the per-shard policies (not the fault plans).
    pub fn new(scale: u64, n_shards: usize, seed: u64) -> ChaosWorkload {
        let plan = crate::default_workload_plan(scale);
        let weights = UsmWeights::low_high_cfm();
        ChaosWorkload {
            bundle: plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform),
            sim: plan.sim_config(weights),
            unit: plan.unit_config(weights),
            n_shards,
            seed,
        }
    }

    /// The workload horizon fault plans must fit inside.
    pub fn horizon(&self) -> SimDuration {
        self.bundle.horizon
    }

    /// Number of database items (stream faults target these).
    pub fn n_items(&self) -> usize {
        self.bundle.trace.n_items
    }

    /// Number of queries in the trace.
    pub fn n_queries(&self) -> usize {
        self.bundle.trace.queries.len()
    }

    /// Cluster width.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Execute one fault-aware cluster run of `plan` with `workers`
    /// executor threads (0 = auto, one per shard capped at the host's
    /// parallelism; 1 = on the calling thread).
    pub fn run(&self, plan: &FaultPlan, workers: usize) -> FaultClusterReport {
        ClusterConfig::new(self.n_shards)
            .with_seed(self.seed)
            .with_workers(workers)
            .build()
            .with_faults(plan, chaos_failover())
            .run_unit(&self.bundle.trace, self.sim, &self.unit)
            .expect("chaos plans are valid by construction")
            .into_faulty()
            .expect("fault plan installed")
    }
}

/// Generate a random, valid-by-construction fault plan. Each shard
/// independently draws a profile from `split_seed(seed, shard)`: a mode
/// (pause, degraded reads, or lose-state crash — biased toward
/// lose-state, the chaos focus), a crash rate, and optional stream
/// faults and load bursts. Roughly a quarter of shards stay quiet.
pub fn generate_plan(
    seed: u64,
    horizon: SimDuration,
    n_items: usize,
    n_shards: usize,
) -> FaultPlan {
    let shards = (0..n_shards)
        .map(|s| {
            let shard_seed = split_seed(seed, s as u64);
            let mut d = Draws::new(shard_seed);
            if d.f64() < 0.25 {
                return FaultSchedule::empty();
            }
            let mode = match d.below(4) {
                0 => FaultMode::Pause,
                1 => FaultMode::DegradedReads,
                _ => FaultMode::CrashLoseState,
            };
            let crash_rate = 0.02 + d.f64() * 0.2;
            let mean_window = SimDuration::from_secs(60 + d.below(600));
            let stream_faults = d.below(4) as usize;
            let stream_len = SimDuration::from_secs(30 + d.below(300));
            let stream_delay = if d.f64() < 0.5 {
                SimDuration::ZERO // drop faults
            } else {
                SimDuration::from_secs(1 + d.below(60))
            };
            let bursts = d.below(3) as usize;
            let burst_loads = 1 + d.below(8) as u32;
            let burst_exec = SimDuration::from_secs(1 + d.below(10));
            let cfg = FaultConfig::quiet(horizon, n_items)
                .with_crashes(crash_rate, mean_window, mode)
                .with_stream_faults(stream_faults, stream_len, stream_delay)
                .with_bursts(bursts, burst_loads, burst_exec);
            FaultSchedule::generate(shard_seed, &cfg)
        })
        .collect();
    FaultPlan { shards }
}

/// Component tally of a plan: `(crash windows, of which lose-state,
/// stream faults, bursts)`.
pub fn plan_components(plan: &FaultPlan) -> (usize, usize, usize, usize) {
    let mut crashes = 0;
    let mut lose_state = 0;
    let mut streams = 0;
    let mut bursts = 0;
    for s in &plan.shards {
        crashes += s.crashes.len();
        lose_state += s
            .crashes
            .iter()
            .filter(|w| w.mode == FaultMode::CrashLoseState)
            .count();
        streams += s.stream_faults.len();
        bursts += s.bursts.len();
    }
    (crashes, lose_state, streams, bursts)
}

/// Expected lose-state recoveries per shard: one per crash window.
fn expected_recoveries(schedule: &FaultSchedule) -> u64 {
    schedule
        .crashes
        .iter()
        .filter(|w| w.mode == FaultMode::CrashLoseState)
        .count() as u64
}

/// A copy of `plan` with every lose-state crash window removed — the
/// reference side of the recovery-identity oracle. Dropping windows
/// preserves validity (order and disjointness are unaffected).
pub fn strip_lose_state(plan: &FaultPlan) -> FaultPlan {
    let shards = plan
        .shards
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s.crashes.retain(|w| w.mode != FaultMode::CrashLoseState);
            s
        })
        .collect();
    FaultPlan { shards }
}

fn assert_identical(
    a: &FaultClusterReport,
    b: &FaultClusterReport,
    what: &str,
) -> Result<(), String> {
    if a.cluster.assignment != b.cluster.assignment {
        return Err(format!("{what}: assignment diverged"));
    }
    if a.counts != b.counts {
        return Err(format!(
            "{what}: outcome tally diverged ({:?} vs {:?})",
            a.counts, b.counts
        ));
    }
    if !a.merged_log().eq(b.merged_log()) {
        return Err(format!("{what}: merged outcome log diverged"));
    }
    if a.decisions != b.decisions {
        return Err(format!("{what}: routing decisions diverged"));
    }
    for (s, (ra, rb)) in a
        .cluster
        .shard_reports
        .iter()
        .zip(&b.cluster.shard_reports)
        .enumerate()
    {
        if report_digest(ra) != report_digest(rb) {
            return Err(format!("{what}: shard {s} digest diverged"));
        }
    }
    Ok(())
}

/// Per-shard behavioural equality: every report field except the ones
/// that legitimately depend on the *event tape* rather than on observable
/// behaviour. A lose-state crash schedules a wakeup the stripped plan
/// lacks; if that wakeup lands past the run's last real event it becomes
/// the new `end_time` without changing a single outcome — the chaos
/// harness found exactly this boundary case. Excluded: `end_time` (tape
/// bookkeeping), `events_processed` (already digest-excluded), `faults`
/// (recoveries differ by definition). Everything else — outcomes,
/// histograms, signals, CPU accounting, the full per-query outcome log
/// (`merged_log`, which carries every shard's records) — must match
/// bit for bit.
fn behaviourally_identical(
    a: &FaultClusterReport,
    b: &FaultClusterReport,
    what: &str,
) -> Result<(), String> {
    if a.cluster.assignment != b.cluster.assignment {
        return Err(format!("{what}: assignment diverged"));
    }
    if a.counts != b.counts {
        return Err(format!("{what}: outcome tally diverged"));
    }
    if !a.merged_log().eq(b.merged_log()) {
        return Err(format!("{what}: merged outcome log diverged"));
    }
    if a.decisions != b.decisions {
        return Err(format!("{what}: routing decisions diverged"));
    }
    for (s, (ra, rb)) in a
        .cluster
        .shard_reports
        .iter()
        .zip(&b.cluster.shard_reports)
        .enumerate()
    {
        macro_rules! check {
            ($f:ident) => {
                if ra.$f != rb.$f {
                    return Err(format!("{what}: shard {s} diverged in {}", stringify!($f)));
                }
            };
        }
        check!(policy);
        check!(weights);
        check!(counts);
        check!(query_accesses);
        check!(versions_arrived);
        check!(updates_applied);
        check!(hp_aborts);
        check!(query_restarts);
        check!(preemptions);
        check!(demand_refreshes);
        check!(cpu_busy);
        check!(horizon);
        check!(n_cpus);
        check!(signals);
        check!(mean_dispatch_freshness);
        check!(timeline);
        // Deliberately NOT checked: `end_time`, `events_processed`,
        // `faults` — the tape-bookkeeping trio described above — and
        // `outcome_records`, which the cluster merge moved into the
        // combined `log` compared above.
    }
    Ok(())
}

/// An invariant the harness checks against every generated plan. Each
/// oracle is self-contained — it performs the cluster runs it needs — so
/// the shrinker can re-evaluate a single failed oracle on candidate
/// plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Oracle {
    /// Every query is accounted for exactly once; lose-state recoveries
    /// tally one-for-one with the plan's crash windows.
    Conservation,
    /// [`check_health_consistency`]: outcomes respect pause windows and
    /// retry budgets.
    HealthConsistency,
    /// The worker count must not change the report.
    WorkerDeterminism,
    /// Lose-state crashes must be invisible: the plan and its
    /// [`strip_lose_state`] twin produce behaviourally identical reports
    /// (every field except the tape-bookkeeping trio `end_time`,
    /// `events_processed`, and `faults`).
    RecoveryIdentity,
    /// **Deliberately false** (`--fixture-broken`): claims no shard ever
    /// recovers. Fails on any plan whose lose-state windows fire —
    /// proving the harness finds violations and shrinks them.
    PlantedNoRecoveries,
}

impl Oracle {
    /// The real invariants, checked in every sweep.
    pub const REAL: [Oracle; 4] = [
        Oracle::Conservation,
        Oracle::HealthConsistency,
        Oracle::WorkerDeterminism,
        Oracle::RecoveryIdentity,
    ];

    /// Stable lowercase name (used in fixtures and reports).
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Conservation => "conservation",
            Oracle::HealthConsistency => "health-consistency",
            Oracle::WorkerDeterminism => "worker-determinism",
            Oracle::RecoveryIdentity => "recovery-identity",
            Oracle::PlantedNoRecoveries => "planted-no-recoveries",
        }
    }

    /// Look an oracle up by its [`Oracle::name`].
    pub fn from_name(name: &str) -> Option<Oracle> {
        [
            Oracle::Conservation,
            Oracle::HealthConsistency,
            Oracle::WorkerDeterminism,
            Oracle::RecoveryIdentity,
            Oracle::PlantedNoRecoveries,
        ]
        .into_iter()
        .find(|o| o.name() == name)
    }

    /// Check the oracle against `plan` on `w`. `Err` carries a
    /// human-readable description of the violation.
    pub fn check(self, w: &ChaosWorkload, plan: &FaultPlan) -> Result<(), String> {
        match self {
            Oracle::Conservation => {
                let r = w.run(plan, 0);
                let total = r.counts.total() as usize;
                if total != w.n_queries() {
                    return Err(format!(
                        "conservation: {} outcomes for {} queries",
                        total,
                        w.n_queries()
                    ));
                }
                let logged = r.merged_log().count();
                if logged != total {
                    return Err(format!(
                        "conservation: merged log has {logged} entries for {total} outcomes"
                    ));
                }
                for (s, (report, sched)) in
                    r.cluster.shard_reports.iter().zip(&plan.shards).enumerate()
                {
                    let want = expected_recoveries(sched);
                    if report.faults.recoveries != want {
                        return Err(format!(
                            "conservation: shard {s} recovered {} times for {} lose-state windows",
                            report.faults.recoveries, want
                        ));
                    }
                }
                Ok(())
            }
            Oracle::HealthConsistency => {
                let r = w.run(plan, 0);
                check_health_consistency(&r, plan, &chaos_failover())
                    .map_err(|e| format!("health-consistency: {e}"))
            }
            Oracle::WorkerDeterminism => {
                let one = w.run(plan, 1);
                let two = w.run(plan, 2);
                assert_identical(&one, &two, "worker-determinism: 1 worker vs 2 workers")
            }
            Oracle::RecoveryIdentity => {
                let stripped = strip_lose_state(plan);
                if stripped == *plan {
                    return Ok(()); // vacuous: nothing to strip
                }
                let crashed = w.run(plan, 0);
                let reference = w.run(&stripped, 0);
                behaviourally_identical(
                    &crashed,
                    &reference,
                    "recovery-identity: plan vs lose-state-stripped plan",
                )
            }
            Oracle::PlantedNoRecoveries => {
                let r = w.run(plan, 0);
                let recoveries: u64 = r
                    .cluster
                    .shard_reports
                    .iter()
                    .map(|s| s.faults.recoveries)
                    .sum();
                if recoveries != 0 {
                    return Err(format!(
                        "planted-no-recoveries: {recoveries} recoveries (the planted \
                         claim is wrong by design)"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Result of shrinking a failing plan: the minimal plan the greedy passes
/// converge to, the violation message it still produces, and the number
/// of oracle evaluations spent.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimal failing plan.
    pub plan: FaultPlan,
    /// The oracle's violation message on the minimal plan.
    pub message: String,
    /// Oracle evaluations performed while shrinking.
    pub oracle_runs: u64,
}

/// Upper bound on oracle evaluations per shrink, so a pathological plan
/// cannot wedge the sweep.
const SHRINK_RUN_BUDGET: u64 = 400;

/// Greedily shrink a plan that fails `oracle`, to a local fixpoint:
/// first try emptying whole shards, then dropping individual crash
/// windows / stream faults / bursts, then bisecting the surviving window
/// lengths. Every kept step still fails the oracle, so the result is a
/// genuine minimal reproducer, not a guess.
pub fn shrink(w: &ChaosWorkload, oracle: Oracle, plan: &FaultPlan, message: String) -> Shrunk {
    let mut current = plan.clone();
    let mut message = message;
    let mut runs = 0u64;

    // Returns the failure message if `candidate` still fails.
    let still_fails = |candidate: &FaultPlan, runs: &mut u64| -> Option<String> {
        if *runs >= SHRINK_RUN_BUDGET {
            return None;
        }
        *runs += 1;
        oracle.check(w, candidate).err()
    };

    loop {
        let mut changed = false;

        // Pass 1: empty whole shards (coarsest cut first).
        for s in 0..current.shards.len() {
            if current.shards[s].is_empty() {
                continue;
            }
            let mut candidate = current.clone();
            candidate.shards[s] = FaultSchedule::empty();
            if let Some(msg) = still_fails(&candidate, &mut runs) {
                current = candidate;
                message = msg;
                changed = true;
            }
        }

        // Pass 2: drop individual components, highest index first so
        // removal does not disturb the positions still to visit.
        for s in 0..current.shards.len() {
            for i in (0..current.shards[s].crashes.len()).rev() {
                let mut candidate = current.clone();
                candidate.shards[s].crashes.remove(i);
                if let Some(msg) = still_fails(&candidate, &mut runs) {
                    current = candidate;
                    message = msg;
                    changed = true;
                }
            }
            for i in (0..current.shards[s].stream_faults.len()).rev() {
                let mut candidate = current.clone();
                candidate.shards[s].stream_faults.remove(i);
                if let Some(msg) = still_fails(&candidate, &mut runs) {
                    current = candidate;
                    message = msg;
                    changed = true;
                }
            }
            for i in (0..current.shards[s].bursts.len()).rev() {
                let mut candidate = current.clone();
                candidate.shards[s].bursts.remove(i);
                if let Some(msg) = still_fails(&candidate, &mut runs) {
                    current = candidate;
                    message = msg;
                    changed = true;
                }
            }
        }

        // Pass 3: bisect surviving windows (halve each length, floor 1).
        for s in 0..current.shards.len() {
            for i in 0..current.shards[s].crashes.len() {
                let win = current.shards[s].crashes[i];
                let len = win.end.saturating_since(win.start);
                if len.0 <= 1 {
                    continue;
                }
                let mut candidate = current.clone();
                candidate.shards[s].crashes[i].end = SimTime(win.start.0 + (len.0 / 2).max(1));
                if let Some(msg) = still_fails(&candidate, &mut runs) {
                    current = candidate;
                    message = msg;
                    changed = true;
                }
            }
            for i in 0..current.shards[s].stream_faults.len() {
                let f = current.shards[s].stream_faults[i];
                let len = f.end.saturating_since(f.start);
                if len.0 <= 1 {
                    continue;
                }
                let mut candidate = current.clone();
                candidate.shards[s].stream_faults[i].end = SimTime(f.start.0 + (len.0 / 2).max(1));
                if let Some(msg) = still_fails(&candidate, &mut runs) {
                    current = candidate;
                    message = msg;
                    changed = true;
                }
            }
        }

        if !changed || runs >= SHRINK_RUN_BUDGET {
            break;
        }
    }

    debug_assert!(
        current.validate().is_ok(),
        "shrinking must preserve validity"
    );
    Shrunk {
        plan: current,
        message,
        oracle_runs: runs,
    }
}

/// A shrunk reproducer, serializable as a regression fixture. Committed
/// fixtures live in `tests/fixtures/chaos/` and are replayed against the
/// real oracles by `tests/chaos_fixtures.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosFixture {
    /// What this fixture reproduces (free text).
    pub description: String,
    /// Policy seed of the cluster run.
    pub seed: u64,
    /// Workload divisor the plan's instants were placed against.
    pub scale: u64,
    /// Cluster width the plan addresses.
    pub n_shards: usize,
    /// [`Oracle::name`] of the oracle the original plan violated.
    pub oracle: String,
    /// The (shrunk) fault plan.
    pub plan: FaultPlan,
}

impl ChaosFixture {
    /// Serialize as pretty JSON (stable field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fixture is plain data")
    }

    /// Parse a fixture from JSON.
    pub fn from_json(s: &str) -> Result<ChaosFixture, String> {
        serde_json::from_str(s).map_err(|e| format!("bad chaos fixture: {e}"))
    }
}

/// One sweep failure: the plan that violated an oracle and its shrunk
/// reproducer.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Index of the plan within the sweep.
    pub plan_index: u64,
    /// The per-plan seed (`split_seed(sweep_seed, plan_index)`).
    pub plan_seed: u64,
    /// The violated oracle.
    pub oracle: Oracle,
    /// Violation message of the *original* plan.
    pub message: String,
    /// The shrunk reproducer.
    pub shrunk: Shrunk,
}

/// Outcome of a sweep: how many plans ran, per-oracle evaluation counts,
/// and every (shrunk) failure.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Plans generated and checked.
    pub plans: u64,
    /// Total oracle evaluations (including shrinking).
    pub oracle_runs: u64,
    /// All failures, in plan order.
    pub failures: Vec<ChaosFailure>,
}

/// Run `n_plans` seeded plans through `oracles`, shrinking every failure.
/// Plan `i` draws from `split_seed(seed, i)`, so any failure reproduces
/// from `(seed, i)` alone. With `verbose`, prints one line per plan.
pub fn sweep(
    w: &ChaosWorkload,
    seed: u64,
    n_plans: u64,
    oracles: &[Oracle],
    verbose: bool,
) -> SweepReport {
    let mut report = SweepReport::default();
    for i in 0..n_plans {
        let plan_seed = split_seed(seed, i);
        let plan = generate_plan(plan_seed, w.horizon(), w.n_items(), w.n_shards());
        debug_assert!(plan.validate().is_ok(), "generated plans are valid");
        report.plans += 1;
        let (crashes, lose_state, streams, bursts) = plan_components(&plan);
        let mut verdicts = Vec::new();
        for &oracle in oracles {
            report.oracle_runs += 1;
            match oracle.check(w, &plan) {
                Ok(()) => verdicts.push(format!("{} ok", oracle.name())),
                Err(message) => {
                    verdicts.push(format!("{} FAIL", oracle.name()));
                    let shrunk = shrink(w, oracle, &plan, message.clone());
                    report.oracle_runs += shrunk.oracle_runs;
                    report.failures.push(ChaosFailure {
                        plan_index: i,
                        plan_seed,
                        oracle,
                        message,
                        shrunk,
                    });
                }
            }
        }
        if verbose {
            println!(
                "  plan {i:>3} seed {plan_seed:#018x}: {crashes} crash ({lose_state} lose-state), \
                 {streams} stream, {bursts} burst -> {}",
                verdicts.join(", ")
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_are_valid_and_diverse() {
        let horizon = SimDuration::from_secs(100_000);
        let mut any_lose_state = false;
        let mut any_quiet_shard = false;
        for i in 0..16 {
            let plan = generate_plan(split_seed(0xC4A0, i), horizon, 64, 4);
            plan.validate().expect("valid by construction");
            plan.validate_against_horizon(SimTime(horizon.0))
                .expect("every generated fault is reachable");
            let (_, lose_state, _, _) = plan_components(&plan);
            any_lose_state |= lose_state > 0;
            any_quiet_shard |= plan.shards.iter().any(FaultSchedule::is_empty);
        }
        assert!(any_lose_state, "the generator must exercise crash recovery");
        assert!(
            any_quiet_shard,
            "the generator must leave some shards quiet"
        );
    }

    #[test]
    fn strip_lose_state_removes_exactly_the_crash_mode() {
        let horizon = SimDuration::from_secs(100_000);
        let plan = (0..64)
            .map(|i| generate_plan(split_seed(0xC4A1, i), horizon, 64, 4))
            .find(|p| {
                let (crashes, lose_state, _, _) = plan_components(p);
                lose_state > 0 && crashes > lose_state
            })
            .expect("some plan mixes lose-state with other modes");
        let stripped = strip_lose_state(&plan);
        stripped.validate().expect("stripping preserves validity");
        let (crashes, lose_state, streams, bursts) = plan_components(&plan);
        let (sc, sl, ss, sb) = plan_components(&stripped);
        assert_eq!(sl, 0, "no lose-state windows survive");
        assert_eq!(sc, crashes - lose_state, "other windows untouched");
        assert_eq!((ss, sb), (streams, bursts), "streams and bursts untouched");
    }

    #[test]
    fn fixture_json_round_trips() {
        let horizon = SimDuration::from_secs(100_000);
        let fixture = ChaosFixture {
            description: "round-trip probe".to_string(),
            seed: 0x5EED,
            scale: 32,
            n_shards: 4,
            oracle: Oracle::RecoveryIdentity.name().to_string(),
            plan: generate_plan(0xC4A2, horizon, 64, 4),
        };
        let json = fixture.to_json();
        let back = ChaosFixture::from_json(&json).expect("own JSON parses");
        assert_eq!(back, fixture);
        assert_eq!(
            Oracle::from_name(&back.oracle),
            Some(Oracle::RecoveryIdentity)
        );
    }
}
