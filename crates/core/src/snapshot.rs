//! A policy's view of the server at decision time.
//!
//! Admission control (§3.3) needs to reason about the ready queue: how much
//! work is ahead of a candidate query (for the Earliest-possible Start Time
//! check) and which admitted queries an extra admission would endanger (for
//! the system-USM check). Policy hooks receive a borrowed, lazy
//! [`SnapshotView`]: the cheap scalars (`now`, `update_backlog`,
//! `recent_utilization`) are plain fields computed in O(n_cpus), while the
//! admitted-query set is probed through a [`QueueSource`] so the common
//! admission path costs O(log N_rq) per probe instead of materializing an
//! owned `O(N_rq)` list per event. The owned [`SystemSnapshot`] remains as a
//! convenient test fixture (`snapshot.view()` adapts it).

use crate::time::{SimDuration, SimTime};
use crate::types::QueryId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One admitted-but-unfinished query as seen by a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueEntryView {
    /// The query's identifier.
    pub id: QueryId,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Remaining service demand (full `qe` if not yet started; the unserved
    /// remainder if preempted mid-run).
    pub remaining: SimDuration,
}

/// Source of admitted-query state behind a [`SnapshotView`].
///
/// The simulator implements this directly over its deadline-indexed
/// order-statistic structures (Fenwick-backed, O(log N_rq) per probe);
/// [`SystemSnapshot`] implements it linearly over its owned vector for
/// tests and custom harnesses.
pub trait QueueSource {
    /// Number of admitted, unfinished queries (`N_rq`).
    fn query_count(&self) -> usize;

    /// Total remaining service over all admitted queries.
    fn total_query_work(&self) -> SimDuration;

    /// Remaining admitted-query work with deadline `<= deadline`.
    fn query_work_at_or_before(&self, deadline: SimTime) -> SimDuration;

    /// Visit admitted queries with deadline strictly after `after`, in
    /// ascending `(deadline, id)` order, until `visit` returns `false`.
    fn for_each_later(&self, after: SimTime, visit: &mut dyn FnMut(QueueEntryView) -> bool);

    /// Hand the full admitted list, in ascending `(deadline, id)` order, to
    /// `f`. Implementations may materialize lazily into a reused buffer —
    /// only policies that genuinely need the whole list pay for it.
    fn with_queries(&self, f: &mut dyn FnMut(&[QueueEntryView]));
}

/// Borrowed, lazily-materialized snapshot of server state passed to policy
/// hooks.
///
/// Scalars are free to read; the admitted-query set is reached through the
/// methods, which forward to the engine's indexed structures.
pub struct SnapshotView<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Total remaining service of all queued/running update transactions.
    /// Updates outrank every query, so this entire backlog precedes any
    /// query-class work.
    pub update_backlog: SimDuration,
    /// CPU utilization over the recent measurement window, in `[0, 1]`.
    pub recent_utilization: f64,
    source: &'a dyn QueueSource,
}

impl<'a> SnapshotView<'a> {
    /// Assemble a view from precomputed scalars and a queue source.
    pub fn new(
        now: SimTime,
        update_backlog: SimDuration,
        recent_utilization: f64,
        source: &'a dyn QueueSource,
    ) -> Self {
        SnapshotView {
            now,
            update_backlog,
            recent_utilization,
            source,
        }
    }

    /// Work that would execute before a query-class transaction with absolute
    /// deadline `deadline`: the whole update backlog plus every admitted
    /// query with an earlier deadline (EDF within the query class). Ties are
    /// broken in favor of the incumbent (already-admitted work runs first).
    pub fn work_ahead_of(&self, deadline: SimTime) -> SimDuration {
        self.update_backlog + self.source.query_work_at_or_before(deadline)
    }

    /// Total remaining query-class work.
    pub fn query_backlog(&self) -> SimDuration {
        self.source.total_query_work()
    }

    /// Number of admitted, unfinished queries (`N_rq`).
    pub fn ready_queue_len(&self) -> usize {
        self.source.query_count()
    }

    /// Visit admitted queries with deadline strictly after `after`, in
    /// ascending `(deadline, id)` order, until `visit` returns `false`.
    pub fn for_each_later(&self, after: SimTime, mut visit: impl FnMut(QueueEntryView) -> bool) {
        self.source.for_each_later(after, &mut visit);
    }

    /// Run `f` over the full admitted list in ascending `(deadline, id)`
    /// order. Materialization cost is paid only on this call.
    #[expect(
        clippy::expect_used,
        reason = "QueueSource contract: the callback runs exactly once"
    )]
    pub fn with_queries<R>(&self, f: impl FnOnce(&[QueueEntryView]) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.source.with_queries(&mut |qs| {
            out = Some((f.take().expect("with_queries called twice"))(qs));
        });
        out.expect("QueueSource::with_queries must invoke its callback")
    }
}

impl fmt::Debug for SnapshotView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotView")
            .field("now", &self.now)
            .field("update_backlog", &self.update_backlog)
            .field("recent_utilization", &self.recent_utilization)
            .field("queries", &self.source.query_count())
            .finish()
    }
}

/// Owned snapshot of server state: test fixture and serialization form.
///
/// Production hooks receive a [`SnapshotView`]; build one from an owned
/// snapshot with [`SystemSnapshot::view`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SystemSnapshot {
    /// Current simulated time.
    pub now: SimTime,
    /// Admitted, uncommitted user queries (ready, running, or blocked),
    /// in no particular order.
    pub queries: Vec<QueueEntryView>,
    /// Total remaining service of all queued/running update transactions.
    pub update_backlog: SimDuration,
    /// CPU utilization over the recent measurement window, in `[0, 1]`.
    pub recent_utilization: f64,
}

impl SystemSnapshot {
    /// An empty snapshot at time `now` (useful in tests and warm-up).
    pub fn empty(now: SimTime) -> Self {
        SystemSnapshot {
            now,
            queries: Vec::new(),
            update_backlog: SimDuration::ZERO,
            recent_utilization: 0.0,
        }
    }

    /// Borrow this snapshot as the view policies consume.
    pub fn view(&self) -> SnapshotView<'_> {
        SnapshotView::new(self.now, self.update_backlog, self.recent_utilization, self)
    }

    /// Work that would execute before a query-class transaction with absolute
    /// deadline `deadline` (see [`SnapshotView::work_ahead_of`]).
    pub fn work_ahead_of(&self, deadline: SimTime) -> SimDuration {
        self.update_backlog + self.query_work_at_or_before(deadline)
    }

    /// Total remaining query-class work.
    pub fn query_backlog(&self) -> SimDuration {
        self.queries
            .iter()
            .fold(SimDuration::ZERO, |acc, q| acc + q.remaining)
    }

    /// Number of admitted, unfinished queries (`N_rq`).
    pub fn ready_queue_len(&self) -> usize {
        self.queries.len()
    }

    /// The queries sorted in ascending `(deadline, id)` order (the order the
    /// engine's indexed source yields them in).
    fn sorted_queries(&self) -> Vec<QueueEntryView> {
        let mut qs = self.queries.clone();
        qs.sort_by_key(|e| (e.deadline, e.id));
        qs
    }
}

impl QueueSource for SystemSnapshot {
    fn query_count(&self) -> usize {
        self.queries.len()
    }

    fn total_query_work(&self) -> SimDuration {
        self.query_backlog()
    }

    fn query_work_at_or_before(&self, deadline: SimTime) -> SimDuration {
        let mut ahead = SimDuration::ZERO;
        for q in &self.queries {
            if q.deadline <= deadline {
                ahead += q.remaining;
            }
        }
        ahead
    }

    fn for_each_later(&self, after: SimTime, visit: &mut dyn FnMut(QueueEntryView) -> bool) {
        for q in self.sorted_queries() {
            if q.deadline > after && !visit(q) {
                return;
            }
        }
    }

    fn with_queries(&self, f: &mut dyn FnMut(&[QueueEntryView])) {
        f(&self.sorted_queries());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, deadline_s: u64, remaining_s: u64) -> QueueEntryView {
        QueueEntryView {
            id: QueryId(id),
            deadline: SimTime::from_secs(deadline_s),
            remaining: SimDuration::from_secs(remaining_s),
        }
    }

    #[test]
    fn work_ahead_counts_updates_and_earlier_deadlines() {
        let snap = SystemSnapshot {
            now: SimTime::from_secs(0),
            queries: vec![entry(1, 10, 2), entry(2, 20, 3), entry(3, 30, 4)],
            update_backlog: SimDuration::from_secs(5),
            recent_utilization: 0.5,
        };
        // Deadline 25: updates (5) + queries with deadline <= 25 (2 + 3).
        assert_eq!(
            snap.work_ahead_of(SimTime::from_secs(25)),
            SimDuration::from_secs(10)
        );
        // Deadline 5: only the update backlog precedes it.
        assert_eq!(
            snap.work_ahead_of(SimTime::from_secs(5)),
            SimDuration::from_secs(5)
        );
        // Tie at an incumbent's deadline counts the incumbent.
        assert_eq!(
            snap.work_ahead_of(SimTime::from_secs(10)),
            SimDuration::from_secs(7)
        );
        // The borrowed view agrees with the owned snapshot.
        let view = snap.view();
        assert_eq!(
            view.work_ahead_of(SimTime::from_secs(25)),
            SimDuration::from_secs(10)
        );
    }

    #[test]
    fn backlog_and_len() {
        let snap = SystemSnapshot {
            now: SimTime::ZERO,
            queries: vec![entry(1, 10, 2), entry(2, 20, 3)],
            update_backlog: SimDuration::from_secs(1),
            recent_utilization: 0.0,
        };
        assert_eq!(snap.query_backlog(), SimDuration::from_secs(5));
        assert_eq!(snap.ready_queue_len(), 2);
        let view = snap.view();
        assert_eq!(view.query_backlog(), SimDuration::from_secs(5));
        assert_eq!(view.ready_queue_len(), 2);
    }

    #[test]
    fn empty_snapshot_is_idle() {
        let snap = SystemSnapshot::empty(SimTime::from_secs(7));
        assert_eq!(snap.now, SimTime::from_secs(7));
        assert_eq!(snap.work_ahead_of(SimTime::MAX), SimDuration::ZERO);
        assert_eq!(snap.ready_queue_len(), 0);
    }

    #[test]
    fn view_iterates_in_deadline_order_and_stops_on_false() {
        let snap = SystemSnapshot {
            now: SimTime::ZERO,
            // Deliberately unsorted; includes a deadline tie broken by id.
            queries: vec![
                entry(4, 30, 1),
                entry(2, 10, 1),
                entry(3, 20, 1),
                entry(1, 10, 1),
            ],
            update_backlog: SimDuration::ZERO,
            recent_utilization: 0.0,
        };
        let view = snap.view();

        let mut seen = Vec::new();
        view.for_each_later(SimTime::from_secs(10), |q| {
            seen.push(q.id.0);
            true
        });
        assert_eq!(seen, vec![3, 4], "deadline == after must be excluded");

        let mut seen = Vec::new();
        view.for_each_later(SimTime::ZERO, |q| {
            seen.push(q.id.0);
            seen.len() < 3
        });
        assert_eq!(seen, vec![1, 2, 3], "tie broken by id; early stop honored");

        let order = view.with_queries(|qs| qs.iter().map(|q| q.id.0).collect::<Vec<_>>());
        assert_eq!(order, vec![1, 2, 3, 4]);
    }
}
