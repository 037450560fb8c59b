//! Transaction bookkeeping: a transaction is spawned (an admitted query,
//! an applied version, an on-demand refresh, injected load), commits or
//! is aborted at its firm deadline, and leaves exactly one priced outcome
//! per query. Pinned by `tests/engine_behaviour.rs`.

use super::Simulator;
use crate::events::Event;
use crate::faults::UpdateFault;
use crate::txn::{Txn, TxnId, TxnKind, TxnState};
use unit_core::policy::Policy;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome, TxnClass};
use unit_obs::ObsEvent;

impl<P: Policy> Simulator<'_, P> {
    /// Spawn a ready transaction carrying `kind`, with service demand
    /// `exec` and EDF deadline `deadline`. Update-class work (every kind but
    /// a query) joins the update backlog. O(log N_rq).
    pub(super) fn spawn(&mut self, kind: TxnKind, exec: SimDuration, deadline: SimTime) -> TxnId {
        let id = self.state.txns.next_id();
        let class = match kind {
            TxnKind::Query { .. } => TxnClass::Query,
            TxnKind::Update { .. } | TxnKind::Background => {
                self.state.outstanding_update_work += exec;
                TxnClass::Update
            }
        };
        let txn = Txn {
            id,
            class,
            edf_deadline: deadline,
            exec_time: exec,
            remaining: exec,
            state: TxnState::Ready,
            holds_locks: false,
            blocked_on: None,
            kind,
        };
        self.state.ready.insert(self.cfg.discipline.key(&txn));
        self.state.txns.push(txn);
        id
    }

    /// Query-arrival hook: admission decision plus ready-queue insertion.
    /// O(log N_rq) for the policy's slack probe and the index inserts, plus
    /// the [`Simulator::reschedule`] that follows.
    pub(super) fn on_query_arrival(&mut self, spec_idx: usize) {
        self.state.arrivals_in_flight -= 1;
        let spec = self.state.queries.get(spec_idx);
        let (spec_deadline, spec_exec, spec_id) = (spec.deadline(), spec.exec_time, spec.id);
        if self.faults.is_some() && spec_deadline <= self.state.clock {
            // Dead on arrival: the firm deadline expired while the arrival
            // sat deferred through a crash window. Unreachable fault-free
            // (relative deadlines are strictly positive).
            self.record_outcome(spec_idx, Outcome::DeadlineMiss);
            return;
        }
        let decision = self
            .with_view(|policy, specs, view| policy.on_query_arrival(specs.get(spec_idx), view));
        if self.obs.is_some() {
            let (verdict, c_flex) = match self.policy.last_admission() {
                Some(a) => (Some(a.verdict), Some(a.c_flex)),
                None => (None, None),
            };
            self.emit(ObsEvent::Admission {
                time: self.state.clock,
                query: spec_id,
                decision,
                verdict,
                c_flex,
            });
        }
        if !decision.is_admit() {
            self.record_outcome(spec_idx, Outcome::Rejected);
            return;
        }
        let kind = TxnKind::Query {
            spec_idx,
            freshness_at_dispatch: None,
            restarts: 0,
        };
        let id = self.spawn(kind, spec_exec, spec_deadline);
        self.state
            .events
            .push(spec_deadline, Event::QueryDeadline { txn: id });
        self.insert_admitted(spec_idx, id);
        if self.policy.refresh_at_admission() {
            // Eager on-demand policies (ODU) check staleness the moment the
            // query enters the system.
            self.spawn_demand_refreshes(spec_idx);
        }
        self.reschedule();
    }

    /// Ask the policy which of `spec`'s items need an on-demand refresh and
    /// spawn update transactions for them. Returns true if any were spawned.
    pub(super) fn spawn_demand_refreshes(&mut self, spec_idx: usize) -> bool {
        let freshness = &self.state.freshness;
        let wanted = self
            .policy
            .demand_refresh(self.state.queries.get(spec_idx), &|d: DataId| {
                freshness.udrop(d)
            });
        self.spawn_refreshes(wanted)
    }

    /// Spawn one on-demand refresh per item in `wanted` that has an update
    /// stream and no refresh already queued. Returns true if any were
    /// spawned.
    pub(super) fn spawn_refreshes(&mut self, wanted: Vec<DataId>) -> bool {
        let mut spawned = false;
        for d in wanted {
            if *self.state.pending_ondemand.at(d) {
                continue; // a refresh for this item is already queued
            }
            let Some(exec) = *self.item_update_exec.at(d) else {
                continue; // no stream -> cannot be stale
            };
            *self.state.pending_ondemand.at_mut(d) = true;
            self.state.demand_refreshes += 1;
            // EDF deadline "now": on-demand refreshes precede periodic
            // updates that arrived earlier with later validity deadlines.
            let kind = TxnKind::Update {
                item: d,
                on_demand: true,
            };
            self.spawn(kind, exec, self.state.clock);
            spawned = true;
        }
        spawned
    }

    /// Version-arrival hook: freshness bookkeeping, the policy's
    /// apply/skip decision, and the next arrival's scheduling.
    /// O(log N_ev) for the event pushes; the policy callback is O(1) for
    /// every shipped policy.
    pub(super) fn on_version_arrival(&mut self, stream_idx: usize) {
        #[expect(
            clippy::indexing_slicing,
            reason = "stream indexes are minted by start()'s enumerate over `updates` and only ever re-pushed"
        )]
        let u = &self.updates[stream_idx];
        let (item, period, exec) = (u.item, u.period, u.exec_time);
        // Sources are external: the version is observed (Udrop rises) even
        // when a fault keeps it from being applied.
        self.state.freshness.record_arrival(item);

        let fault = match self.faults.as_deref() {
            None => UpdateFault::Apply,
            // Down or degraded windows drop every application; staleness
            // then accrues honestly through the ordinary Udrop path.
            Some(h) if h.health(self.state.clock).updates_dropped() => UpdateFault::Drop,
            Some(h) => h.update_fault(item, self.state.clock),
        };
        let edf_deadline = self.state.clock + period;
        if fault == UpdateFault::Drop {
            self.state.fault_counts.update_drops += 1;
        } else {
            // A delay fault only postpones the application the policy
            // chooses; the EDF deadline stays at the version's
            // temporal-validity deadline, not the delayed spawn instant.
            let action =
                self.with_view(|policy, _, view| policy.on_version_arrival(item, view.now, view));
            if action.is_apply() {
                if let UpdateFault::Delay(d) = fault {
                    self.state.fault_counts.update_delays += 1;
                    let delayed = Event::DelayedApply {
                        item,
                        exec,
                        edf_deadline,
                    };
                    self.state.events.push(self.state.clock + d, delayed);
                } else {
                    let kind = TxnKind::Update {
                        item,
                        on_demand: false,
                    };
                    self.spawn(kind, exec, edf_deadline);
                    self.reschedule();
                }
            }
        }

        if edf_deadline.0 <= self.cfg.horizon.0 {
            self.state
                .events
                .push(edf_deadline, Event::VersionArrival { stream_idx });
        }
    }

    /// Completion hook: commit the transaction, release its locks, record
    /// the outcome. O(W + log N_rq) where W is the freed waiter count, plus
    /// the trailing [`Simulator::reschedule`].
    pub(super) fn on_completion(&mut self, id: TxnId, generation: u64) {
        // Stale completions (the transaction was preempted or aborted after
        // this event was scheduled) are ignored.
        let Some(pos) = self
            .state
            .running
            .iter()
            .position(|r| r.id == id && r.generation == generation)
        else {
            return;
        };
        let demand = self.state.txns.at(id).remaining;
        let (_, elapsed) = self.vacate(pos);
        debug_assert!(elapsed == demand, "completion fired early or late");

        let txn = self.state.txns.at_mut(id);
        debug_assert_eq!(txn.state, TxnState::Running);
        txn.state = TxnState::Finished;
        txn.holds_locks = false;
        let exec = txn.exec_time;
        let kind = txn.kind.clone();

        let freed = self.state.locks.release_all(id);
        self.unblock_waiters(&freed);

        match kind {
            TxnKind::Query {
                spec_idx,
                freshness_at_dispatch,
                ..
            } => {
                let spec = self.state.queries.get(spec_idx);
                debug_assert!(
                    self.state.clock <= spec.deadline(),
                    "firm deadline violated"
                );
                // Freshness verdict: the data the query actually *read*,
                // i.e. the strict-minimum freshness captured when its read
                // locks were granted (§2.2). Read-time evaluation is what
                // makes the paper's ODU baseline achieve 100% freshness:
                // any version *applied* during execution would have evicted
                // the query via 2PL-HP, so the captured value is exact for
                // the versions read.
                let outcome = if freshness_at_dispatch.unwrap_or(1.0) >= spec.freshness_req {
                    Outcome::Success
                } else {
                    Outcome::DataStale
                };
                self.remove_admitted(id);
                self.record_outcome(spec_idx, outcome);
            }
            TxnKind::Update { item, on_demand } => {
                if on_demand {
                    *self.state.pending_ondemand.at_mut(item) = false;
                }
                self.state.freshness.record_applied(item);
                self.policy.on_update_commit(item, exec);
            }
            // Injected load: consumes CPU, touches nothing.
            TxnKind::Background => {}
        }
        self.state.txns.retire();
        self.reschedule();
    }

    /// Firm-deadline hook: abort an expired query wherever it currently
    /// sits. O(n_cpus + log N_rq) to evict it from the run/ready/admitted
    /// structures, plus the trailing [`Simulator::reschedule`].
    pub(super) fn on_query_deadline(&mut self, id: TxnId) {
        // Deadline events outlive their queries: a retired id (`None`) is
        // the one dead id the engine can still hold.
        let finished = self
            .state
            .txns
            .get(id)
            .map_or(true, |t| t.state == TxnState::Finished);
        if finished {
            return; // committed (or already aborted) before expiry
        }
        self.remove_admitted(id);
        // Firm deadline: abort wherever the query currently is.
        if let Some(pos) = self.state.running.iter().position(|r| r.id == id) {
            self.vacate(pos);
        }
        let key = self.pkey(id);
        self.state.ready.remove(&key);
        self.state.blocked.retain(|&b| b != id);

        let txn = self.state.txns.at_mut(id);
        txn.state = TxnState::Finished;
        txn.holds_locks = false;
        let TxnKind::Query { spec_idx, .. } = txn.kind else {
            unreachable!("updates have no deadline events")
        };
        let freed = self.state.locks.release_all(id);
        self.unblock_waiters(&freed);
        self.record_outcome(spec_idx, Outcome::DeadlineMiss);
        self.state.txns.retire();
        self.reschedule();
    }

    /// Price one query's outcome: tallies, the optional outcome log, the
    /// policy's feedback and the observer. Its spec's last use, so the
    /// slab slot is recycled here, bounding slab growth by the in-flight
    /// query count. O(1).
    pub(super) fn record_outcome(&mut self, spec_idx: usize, outcome: Outcome) {
        self.state.counts.record(outcome);
        #[cfg(feature = "validate")]
        self.state.outcome_log.push(outcome);
        let spec_id = self.state.queries.get(spec_idx).id;
        if self.cfg.record_outcomes {
            self.state
                .outcome_records
                .push(crate::stats::OutcomeRecord {
                    seq: self.state.outcome_records.len() as u64,
                    time: self.state.clock,
                    query: spec_id,
                    outcome,
                });
        }
        self.policy
            .on_query_outcome(self.state.queries.get(spec_idx), outcome);
        if self.obs.is_some() {
            self.emit(ObsEvent::QueryOutcome {
                time: self.state.clock,
                query: spec_id,
                outcome,
            });
        }
        self.state.queries.release(spec_idx);
    }
}
