//! Run statistics: everything the paper's figures are computed from.

use serde::{Deserialize, Serialize};
use unit_core::policy::ControlSignal;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{Outcome, QueryId};
use unit_core::usm::{OutcomeCounts, UsmWeights};

/// One per-query outcome, stamped with the virtual instant it was decided
/// (only recorded when [`crate::SimConfig::record_outcomes`] is on).
///
/// This is the unit of the cluster merge layer: per-shard logs are merged
/// by `(time, shard_id, seq)`, so `seq` — the record's position in its own
/// shard's log — is the deterministic tie-breaker for outcomes decided at
/// the same virtual instant on the same shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeRecord {
    /// Position of this record in its server's outcome log (0-based).
    pub seq: u64,
    /// Virtual instant the outcome was decided.
    pub time: SimTime,
    /// The query the outcome belongs to.
    pub query: QueryId,
    /// How the query ended.
    pub outcome: Outcome,
}

/// One periodic sample of system state (taken at control ticks when
/// timeline recording is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineSample {
    /// Sample instant.
    pub time: SimTime,
    /// Cumulative average USM up to this instant.
    pub usm: f64,
    /// Admitted, unfinished queries at this instant.
    pub ready_queries: usize,
    /// Remaining update-class work at this instant, seconds.
    pub update_backlog_secs: f64,
    /// CPU utilization over the tick interval just ended.
    pub utilization: f64,
}

/// Counters for the four control signals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalCounts {
    /// `LoosenAdmission` signals seen.
    pub loosen_admission: u64,
    /// `TightenAdmission` signals seen.
    pub tighten_admission: u64,
    /// `DegradeUpdates` signals seen.
    pub degrade_updates: u64,
    /// `UpgradeUpdates` signals seen.
    pub upgrade_updates: u64,
}

impl SignalCounts {
    /// Record one signal.
    pub fn record(&mut self, s: ControlSignal) {
        match s {
            ControlSignal::LoosenAdmission => self.loosen_admission += 1,
            ControlSignal::TightenAdmission => self.tighten_admission += 1,
            ControlSignal::DegradeUpdates => self.degrade_updates += 1,
            ControlSignal::UpgradeUpdates => self.upgrade_updates += 1,
        }
    }

    /// Total signals recorded.
    pub fn total(&self) -> u64 {
        self.loosen_admission + self.tighten_admission + self.degrade_updates + self.upgrade_updates
    }
}

/// Counters of fault-injection activity ([`crate::faults`]); all zero on a
/// fault-free run. Diagnostics only — like `events_processed`, excluded
/// from [`report_digest`] so an installed-but-empty fault schedule digests
/// identically to no schedule at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Update applications dropped (crash/degradation windows plus per-item
    /// drop faults).
    pub update_drops: u64,
    /// Update applications postponed by a delay fault.
    pub update_delays: u64,
    /// Background-load transactions injected by bursts.
    pub background_spawned: u64,
    /// Events (arrivals, deadlines, control ticks) deferred to the end of a
    /// crash window.
    pub deferred_events: u64,
    /// Lose-state crash recoveries performed (checkpoint restore + replay).
    /// Monotone across restores: survives the rollback of every other
    /// counter.
    #[serde(default)]
    pub recoveries: u64,
}

impl FaultCounts {
    /// True when the run saw no fault activity at all.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounts::default()
    }
}

/// Complete result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Preference weights the run was evaluated under.
    pub weights: UsmWeights,
    /// Final outcome counts over all submitted queries.
    pub counts: OutcomeCounts,
    /// Per-item query access counts (Fig. 3(a)).
    pub query_accesses: Vec<u64>,
    /// Per-item versions emitted by the sources (Fig. 3(b,c) grey area).
    pub versions_arrived: Vec<u64>,
    /// Per-item update transactions applied (Fig. 3(b,c) black line).
    pub updates_applied: Vec<u64>,
    /// 2PL-HP evictions (queries/updates restarted by a higher-priority
    /// write).
    pub hp_aborts: u64,
    /// Query restarts following HP aborts.
    pub query_restarts: u64,
    /// CPU preemptions.
    pub preemptions: u64,
    /// On-demand refresh updates spawned (ODU).
    pub demand_refreshes: u64,
    /// Total busy CPU time.
    pub cpu_busy: SimDuration,
    /// Instant the last event was processed.
    pub end_time: SimTime,
    /// Configured workload horizon.
    pub horizon: SimDuration,
    /// Number of CPUs the server ran with.
    pub n_cpus: usize,
    /// Control signals emitted by the policy's ticks.
    pub signals: SignalCounts,
    /// Mean read-set freshness observed at query dispatch (diagnostics).
    pub mean_dispatch_freshness: f64,
    /// Optional timeline (enabled via `SimConfig::record_timeline`).
    pub timeline: Vec<TimelineSample>,
    /// Total discrete events the engine processed (perf instrumentation;
    /// excluded from golden digests so it can evolve freely).
    pub events_processed: u64,
    /// Per-query outcome log (only filled when
    /// [`crate::SimConfig::record_outcomes`] is on; excluded from
    /// [`report_digest`] so digests match between logged and unlogged runs).
    /// Empty in a shard report of a cluster run: the cluster merge moves
    /// the records into its merged log (`unit_cluster::ClusterReport::log`).
    #[serde(default)]
    pub outcome_records: Vec<OutcomeRecord>,
    /// Fault-injection activity counters (zero on fault-free runs;
    /// excluded from [`report_digest`] — fault *effects* show up in the
    /// behavioural fields, these are diagnostics).
    #[serde(default)]
    pub faults: FaultCounts,
}

impl SimReport {
    /// Average USM under the run's weights (Eq. 5).
    pub fn average_usm(&self) -> f64 {
        self.counts.average_usm(&self.weights)
    }

    /// Average USM re-priced under different weights.
    ///
    /// Useful for the weight-insensitive baselines (IMU/ODU/QMF behave
    /// identically under every weighting, so one run can be re-priced);
    /// UNIT must be re-*run* since its controller reacts to the weights.
    pub fn usm_under(&self, weights: &UsmWeights) -> f64 {
        self.counts.average_usm(weights)
    }

    /// Success ratio (naive USM).
    pub fn success_ratio(&self) -> f64 {
        self.counts.success_ratio()
    }

    /// The four outcome ratios `(R_s, R_r, R_fm, R_fs)` (Fig. 6).
    pub fn ratios(&self) -> [f64; 4] {
        self.counts.ratios()
    }

    /// CPU utilization over the horizon (aggregated across CPUs).
    pub fn utilization(&self) -> f64 {
        if self.horizon.is_zero() {
            0.0
        } else {
            self.cpu_busy.as_secs_f64() / (self.horizon.as_secs_f64() * self.n_cpus.max(1) as f64)
        }
    }

    /// Fraction of emitted versions that were applied (update shedding view).
    pub fn applied_ratio(&self) -> f64 {
        let arrived: u64 = self.versions_arrived.iter().sum();
        if arrived == 0 {
            return 1.0;
        }
        let applied: u64 = self.updates_applied.iter().sum();
        applied as f64 / arrived as f64
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let [rs, rr, rfm, rfs] = self.ratios();
        format!(
            "{:<6} USM={:+.4}  Rs={:.3} Rr={:.3} Rfm={:.3} Rfs={:.3}  applied={:.1}%  util={:.0}%",
            self.policy,
            self.average_usm(),
            rs,
            rr,
            rfm,
            rfs,
            100.0 * self.applied_ratio(),
            100.0 * self.utilization()
        )
    }
}

/// FNV-1a over a little-endian byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Bit-exact digest of a [`SimReport`]'s observable behaviour.
///
/// Everything user-visible goes in, in declaration order; the
/// instrumentation fields stay out so they can evolve freely:
/// `events_processed` (perf counter), `outcome_records` (opt-in log —
/// a logged run must digest identically to an unlogged one), and `faults`
/// (fault-activity diagnostics — fault *effects* land in the behavioural
/// fields, and an empty schedule must digest identically to none). The golden
/// snapshot suite and the cluster differential tests share this function,
/// so "cluster(1 shard) == single server" means the whole report matches
/// bit-for-bit, not just the USM.
pub fn report_digest(r: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.bytes(r.policy.as_bytes());
    for w in [
        r.weights.gain,
        r.weights.c_r,
        r.weights.c_fm,
        r.weights.c_fs,
    ] {
        h.f64(w);
    }
    let counts = [
        r.counts.success,
        r.counts.rejected,
        r.counts.deadline_miss,
        r.counts.data_stale,
    ];
    for c in counts {
        h.u64(c);
    }
    // The former per-class block as every single-class run hashed it, so pinned digests hold.
    let finished = r.counts.total() > 0;
    h.u64(u64::from(finished));
    if finished {
        for c in counts {
            h.u64(c);
        }
    }
    for hist in [&r.query_accesses, &r.versions_arrived, &r.updates_applied] {
        h.u64(hist.len() as u64);
        for &v in hist {
            h.u64(v);
        }
    }
    h.u64(r.hp_aborts);
    h.u64(r.query_restarts);
    h.u64(r.preemptions);
    h.u64(r.demand_refreshes);
    h.u64(r.cpu_busy.0);
    h.u64(r.end_time.0);
    h.u64(r.horizon.0);
    h.u64(r.n_cpus as u64);
    for s in [
        r.signals.loosen_admission,
        r.signals.tighten_admission,
        r.signals.degrade_updates,
        r.signals.upgrade_updates,
    ] {
        h.u64(s);
    }
    h.f64(r.mean_dispatch_freshness);
    h.u64(r.timeline.len() as u64);
    for s in &r.timeline {
        h.u64(s.time.0);
        h.f64(s.usm);
        h.u64(s.ready_queries as u64);
        h.f64(s.update_backlog_secs);
        h.f64(s.utilization);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::types::Outcome;

    fn report() -> SimReport {
        let mut counts = OutcomeCounts::default();
        for _ in 0..6 {
            counts.record(Outcome::Success);
        }
        for _ in 0..2 {
            counts.record(Outcome::Rejected);
        }
        counts.record(Outcome::DeadlineMiss);
        counts.record(Outcome::DataStale);
        SimReport {
            policy: "TEST".into(),
            weights: UsmWeights::naive(),
            counts,
            query_accesses: vec![3, 0],
            versions_arrived: vec![10, 10],
            updates_applied: vec![5, 0],
            hp_aborts: 1,
            query_restarts: 1,
            preemptions: 2,
            demand_refreshes: 0,
            cpu_busy: SimDuration::from_secs(50),
            end_time: SimTime::from_secs(110),
            horizon: SimDuration::from_secs(100),
            n_cpus: 1,
            signals: SignalCounts::default(),
            mean_dispatch_freshness: 0.95,
            timeline: Vec::new(),
            events_processed: 0,
            outcome_records: Vec::new(),
            faults: FaultCounts::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.average_usm() - 0.6).abs() < 1e-12);
        assert!((r.success_ratio() - 0.6).abs() < 1e-12);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        assert!((r.applied_ratio() - 0.25).abs() < 1e-12);
        let sum: f64 = r.ratios().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repricing_under_other_weights() {
        let r = report();
        let w = UsmWeights::penalties(1.0, 1.0, 1.0);
        // (6 - 2 - 1 - 1) / 10 = 0.2
        assert!((r.usm_under(&w) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn signal_counts_accumulate() {
        let mut s = SignalCounts::default();
        s.record(ControlSignal::LoosenAdmission);
        s.record(ControlSignal::DegradeUpdates);
        s.record(ControlSignal::DegradeUpdates);
        s.record(ControlSignal::TightenAdmission);
        s.record(ControlSignal::UpgradeUpdates);
        assert_eq!(s.loosen_admission, 1);
        assert_eq!(s.degrade_updates, 2);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn digest_ignores_instrumentation_fields() {
        let base = report();
        let mut instrumented = base.clone();
        instrumented.events_processed = 99;
        instrumented.outcome_records.push(OutcomeRecord {
            seq: 0,
            time: SimTime::from_secs(1),
            query: QueryId(7),
            outcome: Outcome::Success,
        });
        instrumented.faults = FaultCounts {
            update_drops: 3,
            update_delays: 2,
            background_spawned: 1,
            deferred_events: 4,
            recoveries: 1,
        };
        assert!(!instrumented.faults.is_zero());
        assert_eq!(report_digest(&base), report_digest(&instrumented));
    }

    #[test]
    fn digest_sees_behavioural_fields() {
        let base = report();
        let mut changed = base.clone();
        changed.counts.record(Outcome::Success);
        assert_ne!(report_digest(&base), report_digest(&changed));
        let mut changed = base.clone();
        changed.policy.push('X');
        assert_ne!(report_digest(&base), report_digest(&changed));
    }

    #[test]
    fn summary_contains_key_fields() {
        let s = report().summary();
        assert!(s.contains("TEST"));
        assert!(s.contains("USM="));
        assert!(s.contains("Rs=0.600"));
    }
}
