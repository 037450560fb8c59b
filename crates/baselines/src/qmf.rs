//! QMF — the state-of-the-art comparison (§4.1): Kang, Son & Stankovic,
//! "Managing Deadline Miss Ratio and Sensor Data Freshness in Real-Time
//! Databases" (TKDE 16(10), 2004).
//!
//! The original code was obtained privately by the UNIT authors, so this is
//! a reimplementation from the published description (substitution recorded
//! in DESIGN.md). QMF runs a feedback loop over two measured signals — the
//! **deadline miss ratio** of admitted transactions and the **perceived
//! freshness** of the data queries actually read — against fixed targets:
//!
//! * **CPU overloaded** (utilization saturated or miss ratio above target):
//!   if current freshness exceeds the target, degrade QoD (drop updates,
//!   preferring items with a low access/update ratio); otherwise tighten
//!   admission — drop incoming transactions until the system recovers.
//! * **CPU underutilized**: if freshness is below target, upgrade QoD
//!   (restore update streams); otherwise admit more transactions.
//!
//! Admission control is a backlog cap steered by a proportional-integral
//! controller on the miss-ratio error: incoming queries are rejected while
//! the server's outstanding work exceeds the cap. This is what makes QMF
//! "conservative — drops many queries to guarantee the admitted
//! transactions" (§4.5), the behaviour behind its high rejection ratio in
//! Fig. 6 and its weakness under high `C_r` in Fig. 5.
//!
//! Key contrast with UNIT: QMF optimizes *miss ratio among admitted*
//! transactions and a *fixed* freshness target; it is blind to the user's
//! relative pricing of rejections vs. misses vs. staleness.

use unit_core::policy::{AdmissionDecision, Policy, UpdateAction};
use unit_core::snapshot::SnapshotView;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, ItemVec, Outcome, QuerySpec, UpdateSpec};

/// Deadline miss-ratio target among admitted transactions (Kang's default
/// experiments use 1%).
const MISS_RATIO_TARGET: f64 = 0.01;
/// Perceived-freshness target (fraction of dispatches reading data that
/// meets the query's freshness requirement).
const FRESHNESS_TARGET: f64 = 0.98;
/// Interval between controller adaptations.
const ADAPTATION_PERIOD: SimDuration = SimDuration::from_secs(500);
/// Utilization above which the CPU counts as overloaded.
const OVERLOAD_UTILIZATION: f64 = 0.95;
/// Items moved per QoD degrade/upgrade step.
const QOD_STEP: usize = 32;
/// Proportional gain of the backlog-cap controller (seconds of backlog per
/// unit miss-ratio error).
const KP: f64 = 2_000.0;
/// Integral gain.
const KI: f64 = 200.0;
/// Initial backlog cap, seconds of outstanding work.
const INITIAL_BACKLOG_CAP: f64 = 500.0;
/// Bounds on the backlog cap.
const BACKLOG_CAP_RANGE: (f64, f64) = (50.0, 20_000.0);

/// The QMF policy.
#[derive(Debug)]
pub struct QmfPolicy {
    // Measurement windows (reset each adaptation).
    window_admitted_done: u64,
    window_misses: u64,
    window_dispatches: u64,
    window_fresh_dispatches: u64,
    // Adaptive update policy state.
    access_counts: ItemVec<u64>,
    update_counts: ItemVec<u64>,
    dropped: ItemVec<bool>,
    qod_level: usize,
    // Admission controller.
    backlog_cap_secs: f64,
    integral: f64,
    last_adaptation: SimTime,
    adaptations: u64,
    rejected: u64,
}

impl Default for QmfPolicy {
    fn default() -> Self {
        QmfPolicy {
            backlog_cap_secs: INITIAL_BACKLOG_CAP,
            window_admitted_done: 0,
            window_misses: 0,
            window_dispatches: 0,
            window_fresh_dispatches: 0,
            access_counts: ItemVec::default(),
            update_counts: ItemVec::default(),
            dropped: ItemVec::default(),
            qod_level: 0,
            integral: 0.0,
            last_adaptation: SimTime::ZERO,
            adaptations: 0,
            rejected: 0,
        }
    }
}

impl QmfPolicy {
    /// Current backlog cap (seconds of outstanding work admitted).
    pub fn backlog_cap_secs(&self) -> f64 {
        self.backlog_cap_secs
    }

    /// Number of items whose update streams are currently dropped.
    pub fn qod_level(&self) -> usize {
        self.qod_level
    }

    /// Number of controller adaptations so far.
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    fn window_miss_ratio(&self) -> f64 {
        if self.window_admitted_done == 0 {
            0.0
        } else {
            self.window_misses as f64 / self.window_admitted_done as f64
        }
    }

    fn window_perceived_freshness(&self) -> f64 {
        if self.window_dispatches == 0 {
            1.0
        } else {
            self.window_fresh_dispatches as f64 / self.window_dispatches as f64
        }
    }

    /// Rebuild the dropped-item set: the `qod_level` items with the lowest
    /// access/update ratio lose their update streams (Kang's adaptive update
    /// policy: shed updates nobody reads).
    fn rebuild_dropped_set(&mut self) {
        for d in self.dropped.values_mut() {
            *d = false;
        }
        if self.qod_level == 0 {
            return;
        }
        let mut ratio: Vec<(DataId, f64)> = self
            .update_counts
            .iter()
            .zip(self.access_counts.values())
            .filter(|&((_, &updates), _)| updates > 0)
            .map(|((d, &updates), &accesses)| (d, accesses as f64 / updates as f64))
            .collect();
        ratio.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        for &(d, _) in ratio.iter().take(self.qod_level) {
            *self.dropped.at_mut(d) = true;
        }
    }

    fn adapt(&mut self, now: SimTime, sys: &SnapshotView<'_>) {
        self.adaptations += 1;
        self.last_adaptation = now;

        let miss_ratio = self.window_miss_ratio();
        let freshness = self.window_perceived_freshness();
        let overloaded =
            sys.recent_utilization >= OVERLOAD_UTILIZATION || miss_ratio > MISS_RATIO_TARGET;

        // Kang's controller treats the miss-ratio target as the *primary*
        // goal: the PI loop on the miss-ratio error always drives the
        // admission budget, regardless of what QoD adaptation does. This is
        // exactly the behaviour the UNIT paper criticizes — "QMF is being
        // conservative and drops many queries to guarantee the admitted
        // transactions ... although within those admitted transactions the
        // miss ratio is minimized, the overall success ratio is low" (§4.5).
        let error = MISS_RATIO_TARGET - miss_ratio; // < 0 over target
                                                    // Leaky, tightly clamped integral: without anti-windup a single
                                                    // saturated-overload window leaves the integral so negative that
                                                    // admission stays shut long after the system recovers.
        self.integral = (0.9 * self.integral + error).clamp(-2.0, 2.0);
        self.backlog_cap_secs += KP * error + KI * self.integral;

        // QoD adaptation: spend spare capacity on freshness, shed update
        // load when overloaded and freshness has slack.
        if overloaded {
            if freshness > FRESHNESS_TARGET {
                self.qod_level = (self.qod_level + QOD_STEP).min(self.dropped.len());
            }
        } else if freshness < FRESHNESS_TARGET {
            self.qod_level = self.qod_level.saturating_sub(QOD_STEP);
        }
        let (lo, hi) = BACKLOG_CAP_RANGE;
        self.backlog_cap_secs = self.backlog_cap_secs.clamp(lo, hi);
        self.rebuild_dropped_set();

        // Reset measurement windows.
        self.window_admitted_done = 0;
        self.window_misses = 0;
        self.window_dispatches = 0;
        self.window_fresh_dispatches = 0;
    }
}

impl Policy for QmfPolicy {
    fn name(&self) -> &str {
        "QMF"
    }

    fn init(&mut self, n_items: usize, _updates: &[UpdateSpec]) {
        self.access_counts = ItemVec::new(n_items, 0);
        self.update_counts = ItemVec::new(n_items, 0);
        self.dropped = ItemVec::new(n_items, false);
    }

    fn on_query_arrival(&mut self, q: &QuerySpec, sys: &SnapshotView<'_>) -> AdmissionDecision {
        let backlog = sys.update_backlog.as_secs_f64() + sys.query_backlog().as_secs_f64();
        if backlog + q.exec_time.as_secs_f64() > self.backlog_cap_secs {
            self.rejected += 1;
            AdmissionDecision::Reject
        } else {
            AdmissionDecision::Admit
        }
    }

    fn on_version_arrival(
        &mut self,
        item: DataId,
        _now: SimTime,
        _sys: &SnapshotView<'_>,
    ) -> UpdateAction {
        *self.update_counts.at_mut(item) += 1;
        if *self.dropped.at(item) {
            UpdateAction::Skip
        } else {
            UpdateAction::Apply
        }
    }

    fn on_query_dispatch(&mut self, q: &QuerySpec, freshness: f64) {
        for &d in &q.items {
            *self.access_counts.at_mut(d) += 1;
        }
        self.window_dispatches += 1;
        if freshness >= q.freshness_req {
            self.window_fresh_dispatches += 1;
        }
    }

    fn on_query_outcome(&mut self, _q: &QuerySpec, outcome: Outcome) {
        match outcome {
            Outcome::Rejected => {}
            Outcome::DeadlineMiss => {
                self.window_admitted_done += 1;
                self.window_misses += 1;
            }
            Outcome::Success | Outcome::DataStale => {
                self.window_admitted_done += 1;
            }
        }
    }

    fn on_tick(
        &mut self,
        now: SimTime,
        sys: &SnapshotView<'_>,
    ) -> Vec<unit_core::policy::ControlSignal> {
        if now.saturating_since(self.last_adaptation) >= ADAPTATION_PERIOD {
            self.adapt(now, sys);
        }
        Vec::new()
    }

    fn checkpoint_state(&self, enc: &mut unit_core::checkpoint::Enc) {
        enc.put_u64(self.window_admitted_done);
        enc.put_u64(self.window_misses);
        enc.put_u64(self.window_dispatches);
        enc.put_u64(self.window_fresh_dispatches);
        enc.put_u64_slice(self.access_counts.as_slice());
        enc.put_u64_slice(self.update_counts.as_slice());
        enc.put_usize(self.dropped.len());
        for &d in self.dropped.values() {
            enc.put_bool(d);
        }
        enc.put_usize(self.qod_level);
        enc.put_f64(self.backlog_cap_secs);
        enc.put_f64(self.integral);
        enc.put_u64(self.last_adaptation.0);
        enc.put_u64(self.adaptations);
        enc.put_u64(self.rejected);
    }

    fn restore_state(
        &mut self,
        dec: &mut unit_core::checkpoint::Dec<'_>,
    ) -> Result<(), unit_core::checkpoint::CheckpointError> {
        use unit_core::checkpoint::CheckpointError;
        self.window_admitted_done = dec.take_u64()?;
        self.window_misses = dec.take_u64()?;
        self.window_dispatches = dec.take_u64()?;
        self.window_fresh_dispatches = dec.take_u64()?;
        let access = dec.take_u64_vec()?;
        let update = dec.take_u64_vec()?;
        let n_dropped = dec.take_usize()?;
        if access.len() != self.access_counts.len()
            || update.len() != self.update_counts.len()
            || n_dropped != self.dropped.len()
        {
            return Err(CheckpointError::Mismatch {
                what: "QMF table size",
            });
        }
        self.access_counts = access.into();
        self.update_counts = update.into();
        for d in self.dropped.values_mut() {
            *d = dec.take_bool()?;
        }
        self.qod_level = dec.take_usize()?;
        self.backlog_cap_secs = dec.take_f64()?;
        self.integral = dec.take_f64()?;
        self.last_adaptation = SimTime(dec.take_u64()?);
        self.adaptations = dec.take_u64()?;
        self.rejected = dec.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::snapshot::SystemSnapshot;
    use unit_core::time::SimDuration;
    use unit_core::types::QueryId;

    fn query(exec_s: u64) -> QuerySpec {
        QuerySpec {
            id: QueryId(0),
            arrival: SimTime::ZERO,
            items: vec![DataId(0)],
            exec_time: SimDuration::from_secs(exec_s),
            relative_deadline: SimDuration::from_secs(60),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    fn policy() -> QmfPolicy {
        let mut p = QmfPolicy::default();
        p.init(8, &[]);
        p
    }

    #[test]
    fn admits_under_the_backlog_cap_rejects_above() {
        let mut p = policy();
        let mut sys = SystemSnapshot::empty(SimTime::ZERO);
        assert!(p.on_query_arrival(&query(2), &sys.view()).is_admit());
        // Pile 800s of update backlog: over the 500s default cap.
        sys.update_backlog = SimDuration::from_secs(800);
        assert!(!p.on_query_arrival(&query(2), &sys.view()).is_admit());
    }

    #[test]
    fn applies_versions_until_qod_degrades() {
        let mut p = policy();
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        assert!(p
            .on_version_arrival(DataId(1), SimTime::from_secs(1), &sys.view())
            .is_apply());

        // Window: misses above target, freshness perfect -> overloaded path
        // degrades QoD.
        for _ in 0..10 {
            p.on_query_dispatch(&query(1), 1.0);
            p.on_query_outcome(&query(1), Outcome::DeadlineMiss);
        }
        let mut busy = SystemSnapshot::empty(SimTime::from_secs(10));
        busy.recent_utilization = 1.0;
        p.adapt(SimTime::from_secs(10), &busy.view());
        assert_eq!(p.qod_level(), 8); // step clamped to n_items
                                      // All items' streams are now dropped.
        assert!(!p
            .on_version_arrival(DataId(1), SimTime::from_secs(11), &sys.view())
            .is_apply());
    }

    #[test]
    fn low_freshness_under_overload_tightens_admission_instead() {
        let mut p = policy();
        for _ in 0..10 {
            p.on_query_dispatch(&query(1), 0.0); // everything stale
            p.on_query_outcome(&query(1), Outcome::DeadlineMiss);
        }
        let cap_before = p.backlog_cap_secs();
        let mut busy = SystemSnapshot::empty(SimTime::from_secs(10));
        busy.recent_utilization = 1.0;
        p.adapt(SimTime::from_secs(10), &busy.view());
        assert!(p.backlog_cap_secs() < cap_before);
        assert_eq!(p.qod_level(), 0, "freshness at the floor: do not degrade");
    }

    #[test]
    fn underutilized_low_freshness_restores_updates() {
        let mut p = policy();
        // First degrade.
        for _ in 0..10 {
            p.on_query_dispatch(&query(1), 1.0);
            p.on_query_outcome(&query(1), Outcome::DeadlineMiss);
        }
        let mut busy = SystemSnapshot::empty(SimTime::from_secs(10));
        busy.recent_utilization = 1.0;
        p.adapt(SimTime::from_secs(10), &busy.view());
        assert!(p.qod_level() > 0);
        // Then: idle CPU, stale dispatches -> upgrade.
        for _ in 0..10 {
            p.on_query_dispatch(&query(1), 0.0);
            p.on_query_outcome(&query(1), Outcome::Success);
        }
        let idle = SystemSnapshot::empty(SimTime::from_secs(20));
        p.adapt(SimTime::from_secs(20), &idle.view());
        assert_eq!(p.qod_level(), 0);
    }

    #[test]
    fn healthy_windows_raise_the_admission_cap() {
        let mut p = policy();
        for _ in 0..20 {
            p.on_query_dispatch(&query(1), 1.0);
            p.on_query_outcome(&query(1), Outcome::Success);
        }
        let cap_before = p.backlog_cap_secs();
        let idle = SystemSnapshot::empty(SimTime::from_secs(10));
        p.adapt(SimTime::from_secs(10), &idle.view());
        assert!(p.backlog_cap_secs() >= cap_before);
    }

    #[test]
    fn dropped_set_prefers_low_access_update_ratio() {
        let mut p = policy();
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        // Item 0: heavily updated, never read. Item 1: updated and read.
        for _ in 0..20 {
            let _ = p.on_version_arrival(DataId(0), SimTime::from_secs(1), &sys.view());
            let _ = p.on_version_arrival(DataId(1), SimTime::from_secs(1), &sys.view());
        }
        let mut q = query(1);
        q.items = vec![DataId(1)];
        for _ in 0..20 {
            p.on_query_dispatch(&q, 1.0);
        }
        // One dropped stream (below one QOD_STEP, which would shed both
        // updated items) must go to the lower access/update ratio.
        p.qod_level = 1;
        p.rebuild_dropped_set();
        assert!(
            *p.dropped.at(DataId(0)),
            "never-read hot-updated item dropped first"
        );
        assert!(!*p.dropped.at(DataId(1)));
    }

    #[test]
    fn tick_adapts_once_per_period() {
        let mut p = policy();
        let sys = SystemSnapshot::empty(SimTime::from_secs(100));
        let _ = p.on_tick(SimTime::from_secs(100), &sys.view());
        assert_eq!(p.adaptations(), 0, "period not elapsed yet");
        let sys = SystemSnapshot::empty(SimTime::from_secs(500));
        let _ = p.on_tick(SimTime::from_secs(500), &sys.view());
        assert_eq!(p.adaptations(), 1);
        let sys = SystemSnapshot::empty(SimTime::from_secs(600));
        let _ = p.on_tick(SimTime::from_secs(600), &sys.view());
        assert_eq!(p.adaptations(), 1);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use unit_core::snapshot::SystemSnapshot;
    use unit_core::types::{DataId, Outcome, QueryId};

    fn query(exec_s: u64) -> QuerySpec {
        QuerySpec {
            id: QueryId(0),
            arrival: SimTime::ZERO,
            items: vec![DataId(0)],
            exec_time: SimDuration::from_secs(exec_s),
            relative_deadline: SimDuration::from_secs(60),
            freshness_req: 0.9,
            pref_class: 0,
        }
    }

    #[test]
    fn chronic_misses_drive_the_cap_to_its_floor() {
        let mut p = QmfPolicy::default();
        p.init(8, &[]);
        // Ten adaptation rounds of 100% miss ratio with fine freshness.
        for round in 0..10 {
            for _ in 0..20 {
                p.on_query_dispatch(&query(1), 1.0);
                p.on_query_outcome(&query(1), Outcome::DeadlineMiss);
            }
            let mut sys = SystemSnapshot::empty(SimTime::from_secs(100 * (round + 1)));
            sys.recent_utilization = 1.0;
            p.adapt(SimTime::from_secs(100 * (round + 1)), &sys.view());
        }
        let (floor, _) = BACKLOG_CAP_RANGE;
        assert!(
            (p.backlog_cap_secs() - floor).abs() < 1e-9,
            "cap {} should hit the floor {floor}",
            p.backlog_cap_secs()
        );
        // At the floor, QMF rejects essentially everything with backlog.
        let mut sys = SystemSnapshot::empty(SimTime::from_secs(2_000));
        sys.update_backlog = SimDuration::from_secs(200);
        assert!(!p.on_query_arrival(&query(1), &sys.view()).is_admit());
    }

    #[test]
    fn recovery_reopens_admission() {
        let mut p = QmfPolicy::default();
        p.init(8, &[]);
        // Crash the cap...
        for _ in 0..20 {
            p.on_query_outcome(&query(1), Outcome::DeadlineMiss);
        }
        let mut busy = SystemSnapshot::empty(SimTime::from_secs(100));
        busy.recent_utilization = 1.0;
        p.adapt(SimTime::from_secs(100), &busy.view());
        let crashed = p.backlog_cap_secs();
        // ...then feed clean windows: the PI loop must raise it again.
        for round in 0..20 {
            for _ in 0..20 {
                p.on_query_outcome(&query(1), Outcome::Success);
            }
            let idle = SystemSnapshot::empty(SimTime::from_secs(200 + 100 * round));
            p.adapt(SimTime::from_secs(200 + 100 * round), &idle.view());
        }
        assert!(
            p.backlog_cap_secs() > crashed,
            "cap must recover: {} -> {}",
            crashed,
            p.backlog_cap_secs()
        );
    }

    #[test]
    fn rebuild_with_no_update_history_drops_nothing() {
        let mut p = QmfPolicy::default();
        p.init(4, &[]);
        p.qod_level = 4;
        p.rebuild_dropped_set();
        // No item has recorded updates -> nothing qualifies for dropping.
        let sys = SystemSnapshot::empty(SimTime::ZERO);
        for i in 0..4 {
            assert!(p
                .on_version_arrival(DataId(i), SimTime::from_secs(1), &sys.view())
                .is_apply());
        }
    }

    #[test]
    fn empty_windows_adapt_without_panicking() {
        let mut p = QmfPolicy::default();
        p.init(4, &[]);
        let sys = SystemSnapshot::empty(SimTime::from_secs(500));
        p.adapt(SimTime::from_secs(500), &sys.view());
        assert_eq!(p.adaptations(), 1);
        // Miss ratio of an empty window reads as 0 (meeting the target).
        assert!(p.backlog_cap_secs() >= INITIAL_BACKLOG_CAP);
    }
}
