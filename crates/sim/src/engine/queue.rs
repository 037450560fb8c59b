//! The admitted-query index and the policy's view of the server: which
//! admitted work sits ahead of a deadline, and the snapshot every policy
//! callback reads. Pinned by the `work-index` recount under `validate` and,
//! through every admission decision, by the golden digests.

use super::feed::SpecSlab;
use super::{RunningTxn, Simulator};
use crate::txn::{TxnArena, TxnId, TxnKind};
use crate::worktreap::WorkTreap;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Bound;
use unit_core::policy::Policy;
use unit_core::snapshot::{QueueEntryView, QueueSource, SnapshotView};
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::QueryId;

/// An admitted, unfinished query as tracked by the deadline index.
#[derive(Debug, Clone, Copy)]
pub(super) struct AdmittedEntry {
    /// The live transaction carrying this query.
    pub(super) txn: TxnId,
    /// Stored remaining service, synced whenever the transaction's
    /// `remaining` changes at rest (preemption, 2PL-HP restart). The
    /// in-progress slice of a *running* query is subtracted at view time.
    pub(super) remaining: SimDuration,
}

/// Borrowed, work-indexed [`QueueSource`] over the simulator's admitted
/// queries: `O(log N_rq)` work probes, `O(N_rq)` materialization only when a
/// policy explicitly asks for the whole list.
struct EngineQueue<'b> {
    clock: SimTime,
    admitted: &'b BTreeMap<(SimTime, QueryId), AdmittedEntry>,
    work: &'b WorkTreap,
    running: &'b [RunningTxn],
    txns: &'b TxnArena,
    scratch: &'b RefCell<Vec<QueueEntryView>>,
}

impl EngineQueue<'_> {
    /// In-progress slice of `id` when it currently holds a CPU.
    fn running_elapsed(&self, id: TxnId) -> SimDuration {
        self.running
            .iter()
            .find(|r| r.id == id)
            .map_or(SimDuration::ZERO, |r| {
                self.clock.saturating_since(r.started)
            })
    }

    fn entry_view(&self, key: &(SimTime, QueryId), e: &AdmittedEntry) -> QueueEntryView {
        QueueEntryView {
            id: key.1,
            deadline: key.0,
            remaining: e.remaining.saturating_sub(self.running_elapsed(e.txn)),
        }
    }

    /// Already-served (not yet synced) work of current query-class runners
    /// with deadline `<= deadline`; pass [`SimTime::MAX`] for all of them.
    /// `O(n_cpus)`.
    fn running_query_elapsed_before(&self, deadline: SimTime) -> SimDuration {
        let mut elapsed = SimDuration::ZERO;
        for r in self.running {
            let txn = self.txns.at(r.id);
            if txn.is_query() && txn.edf_deadline <= deadline {
                elapsed += self.clock.saturating_since(r.started);
            }
        }
        elapsed
    }
}

impl QueueSource for EngineQueue<'_> {
    fn query_count(&self) -> usize {
        self.admitted.len()
    }

    fn total_query_work(&self) -> SimDuration {
        SimDuration(self.work.total())
            .saturating_sub(self.running_query_elapsed_before(SimTime::MAX))
    }

    fn query_work_at_or_before(&self, deadline: SimTime) -> SimDuration {
        SimDuration(self.work.at_or_before(deadline))
            .saturating_sub(self.running_query_elapsed_before(deadline))
    }

    fn for_each_later(&self, after: SimTime, visit: &mut dyn FnMut(QueueEntryView) -> bool) {
        // Keys strictly above `(after, MAX)` are exactly those with
        // deadline > after (no trace query carries id u64::MAX).
        let from = (
            Bound::Excluded((after, QueryId(u64::MAX))),
            Bound::Unbounded,
        );
        for (key, e) in self.admitted.range(from) {
            if !visit(self.entry_view(key, e)) {
                return;
            }
        }
    }

    fn with_queries(&self, f: &mut dyn FnMut(&[QueueEntryView])) {
        let mut buf = self.scratch.borrow_mut();
        buf.clear();
        buf.extend(self.admitted.iter().map(|(k, e)| self.entry_view(k, e)));
        f(&buf);
    }
}

impl<'a, P: Policy> Simulator<'a, P> {
    /// The cheap [`SnapshotView`] scalars — the update backlog adjusted for
    /// the in-progress slices of running updates, and the windowed CPU
    /// utilization — in `O(n_cpus)`.
    fn view_scalars(&self) -> (SimDuration, f64) {
        let mut update_backlog = self.state.outstanding_update_work;
        for r in &self.state.running {
            if !self.state.txns.at(r.id).is_query() {
                update_backlog =
                    update_backlog.saturating_sub(self.state.clock.saturating_since(r.started));
            }
        }

        let window = self.state.clock.saturating_since(self.state.window_start);
        let mut busy = self.state.window_busy;
        for r in &self.state.running {
            // Include the in-progress slice of each current runner.
            let started = r.started.max(self.state.window_start);
            busy += self.state.clock.saturating_since(started);
        }
        let recent_utilization = if window.is_zero() {
            0.0
        } else {
            (busy.as_secs_f64() / (window.as_secs_f64() * self.cfg.n_cpus as f64)).min(1.0)
        };
        (update_backlog, recent_utilization)
    }

    /// Run `f(policy, specs, view)` with a borrowed [`SnapshotView`] over
    /// the live indexes: no admitted-query list is materialized unless the
    /// policy asks for one, and work probes go through the work index. The
    /// in-flight specs ride along (the slab is disjoint from every view
    /// input) for callers deciding about one query.
    pub(super) fn with_view<R>(
        &mut self,
        f: impl FnOnce(&mut P, &SpecSlab<'a>, &SnapshotView<'_>) -> R,
    ) -> R {
        let (update_backlog, recent_utilization) = self.view_scalars();
        let Simulator {
            policy,
            state,
            view_scratch,
            ..
        } = self;
        let source = EngineQueue {
            clock: state.clock,
            admitted: &state.admitted,
            work: &state.work,
            running: &state.running,
            txns: &state.txns,
            scratch: &*view_scratch,
        };
        let view = SnapshotView::new(state.clock, update_backlog, recent_utilization, &source);
        f(policy, &state.queries, &view)
    }

    pub(super) fn insert_admitted(&mut self, spec_idx: usize, txn: TxnId) {
        let spec = self.state.queries.get(spec_idx);
        let (deadline, exec) = (spec.deadline(), spec.exec_time);
        let prev = self.state.admitted.insert(
            (deadline, spec.id),
            AdmittedEntry {
                txn,
                remaining: exec,
            },
        );
        debug_assert!(prev.is_none(), "query admitted twice");
        self.state.work.add(deadline, exec.0);
    }

    /// Re-sync the stored remaining of an admitted query after its
    /// transaction's `remaining` changed at rest (preemption or 2PL-HP
    /// restart). No-op for update transactions.
    pub(super) fn sync_admitted_remaining(&mut self, id: TxnId) {
        let txn = self.state.txns.at(id);
        let TxnKind::Query { spec_idx, .. } = txn.kind else {
            return;
        };
        let deadline = txn.edf_deadline;
        let key = (deadline, self.state.queries.get(spec_idx).id);
        let new = txn.remaining;
        #[expect(
            clippy::expect_used,
            reason = "insert/remove are paired with txn lifecycle"
        )]
        let entry = self
            .state
            .admitted
            .get_mut(&key)
            .expect("unfinished query must be admitted");
        let old = entry.remaining;
        entry.remaining = new;
        if new >= old {
            self.state.work.add(deadline, new.0 - old.0);
        } else {
            self.state.work.sub(deadline, old.0 - new.0);
        }
    }

    pub(super) fn remove_admitted(&mut self, id: TxnId) {
        let txn = self.state.txns.at(id);
        let TxnKind::Query { spec_idx, .. } = txn.kind else {
            unreachable!("only queries enter the admitted index");
        };
        let deadline = txn.edf_deadline;
        let key = (deadline, self.state.queries.get(spec_idx).id);
        #[expect(
            clippy::expect_used,
            reason = "insert/remove are paired with txn lifecycle"
        )]
        let entry = self
            .state
            .admitted
            .remove(&key)
            .expect("unfinished query must be admitted");
        self.state.work.sub(deadline, entry.remaining.0);
    }
}
