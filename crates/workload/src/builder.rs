//! Fluent construction of hand-crafted workloads.
//!
//! The generators in [`crate::cello`] and [`crate::updates`] synthesize the
//! paper's statistical workloads; [`TraceBuilder`] is for the other kind of
//! user — someone modelling a *specific* scenario (a stock ticker, a sensor
//! fleet, a flash crowd) who wants readable, checked construction instead
//! of raw struct literals:
//!
//! ```
//! use unit_workload::builder::TraceBuilder;
//! use unit_core::time::SimDuration;
//!
//! let trace = TraceBuilder::new(8)
//!     // Every item ticks every 300 s, costing 20 s to apply.
//!     .update_stream(0, 300.0, 20.0)
//!     .update_stream(1, 300.0, 20.0)
//!     // A query at t=50 reading items 0 and 1, 2 s of work, 30 s deadline.
//!     .query(50.0, &[0, 1], 2.0, 30.0)
//!     // A strict-freshness query.
//!     .query_with(80.0, &[1], 1.0, 10.0, 0.99)
//!     .build()
//!     .expect("valid trace");
//! assert_eq!(trace.queries.len(), 2);
//! assert_eq!(trace.offered_update_utilization(SimDuration::from_secs(300)), 2.0 * 20.0 / 300.0);
//! ```

use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, QueryId, QuerySpec, SpecError, Trace, UpdateSpec, UpdateStreamId};

/// Default freshness requirement applied by [`TraceBuilder::query`]
/// (the paper's 90%).
pub const DEFAULT_FRESHNESS_REQ: f64 = 0.9;

/// Incremental, checked construction of a [`Trace`].
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    n_items: usize,
    queries: Vec<QuerySpec>,
    updates: Vec<UpdateSpec>,
}

impl TraceBuilder {
    /// Start a workload over a database of `n_items` items.
    pub fn new(n_items: usize) -> Self {
        TraceBuilder {
            n_items,
            queries: Vec::new(),
            updates: Vec::new(),
        }
    }

    /// Add a query: arrival time, read set, execution time, and relative
    /// deadline (all in seconds). Freshness requirement defaults to the
    /// paper's 90%.
    pub fn query(self, arrival_s: f64, items: &[u32], exec_s: f64, deadline_s: f64) -> Self {
        self.query_with(arrival_s, items, exec_s, deadline_s, DEFAULT_FRESHNESS_REQ)
    }

    /// Add a query with an explicit freshness requirement.
    pub fn query_with(
        mut self,
        arrival_s: f64,
        items: &[u32],
        exec_s: f64,
        deadline_s: f64,
        freshness_req: f64,
    ) -> Self {
        let id = QueryId(self.queries.len() as u64);
        self.queries.push(QuerySpec {
            id,
            arrival: SimTime::from_secs_f64(arrival_s),
            items: items.iter().map(|&i| DataId(i)).collect(),
            exec_time: SimDuration::from_secs_f64(exec_s),
            relative_deadline: SimDuration::from_secs_f64(deadline_s),
            freshness_req,
            pref_class: 0,
        });
        self
    }

    /// Add a periodic update stream for `item` with the given source period
    /// and per-application execution time (seconds). The first version
    /// arrives at `period` (use [`TraceBuilder::update_stream_at`] for an
    /// explicit phase).
    pub fn update_stream(self, item: u32, period_s: f64, exec_s: f64) -> Self {
        let phase = period_s;
        self.update_stream_at(item, period_s, exec_s, phase)
    }

    /// Add a periodic update stream with an explicit first-arrival time.
    pub fn update_stream_at(
        mut self,
        item: u32,
        period_s: f64,
        exec_s: f64,
        first_arrival_s: f64,
    ) -> Self {
        let id = UpdateStreamId(self.updates.len() as u32);
        self.updates.push(UpdateSpec {
            id,
            item: DataId(item),
            period: SimDuration::from_secs_f64(period_s),
            exec_time: SimDuration::from_secs_f64(exec_s),
            first_arrival: SimTime::from_secs_f64(first_arrival_s),
        });
        self
    }

    /// Number of queries added so far.
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// Number of update streams added so far.
    pub fn update_count(&self) -> usize {
        self.updates.len()
    }

    /// Finish: sorts queries by arrival (re-numbering ids to match), then
    /// validates everything against the database size.
    pub fn build(mut self) -> Result<Trace, SpecError> {
        self.queries
            .sort_by(|a, b| a.arrival.cmp(&b.arrival).then(a.id.cmp(&b.id)));
        for (i, q) in self.queries.iter_mut().enumerate() {
            q.id = QueryId(i as u64);
        }
        let trace = Trace {
            n_items: self.n_items,
            queries: self.queries,
            updates: self.updates,
        };
        trace.validate()?;
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_sorted_validated_trace() {
        let trace = TraceBuilder::new(4)
            .query(20.0, &[1], 1.0, 10.0)
            .query(5.0, &[0, 2], 2.0, 30.0)
            .update_stream(0, 100.0, 5.0)
            .build()
            .expect("valid");
        assert_eq!(trace.queries.len(), 2);
        // Sorted by arrival, ids renumbered.
        assert_eq!(trace.queries[0].arrival, SimTime::from_secs(5));
        assert_eq!(trace.queries[0].id, QueryId(0));
        assert_eq!(trace.queries[1].arrival, SimTime::from_secs(20));
        assert_eq!(trace.queries[1].id, QueryId(1));
        assert_eq!(trace.updates.len(), 1);
        assert_eq!(trace.updates[0].first_arrival, SimTime::from_secs(100));
    }

    #[test]
    fn query_with_sets_freshness() {
        let trace = TraceBuilder::new(2)
            .query_with(1.0, &[0], 1.0, 5.0, 0.5)
            .build()
            .expect("valid");
        assert_eq!(trace.queries[0].freshness_req, 0.5);
    }

    #[test]
    fn defaults_match_the_paper() {
        let trace = TraceBuilder::new(2)
            .query(1.0, &[0], 1.0, 5.0)
            .build()
            .expect("valid");
        assert_eq!(trace.queries[0].freshness_req, DEFAULT_FRESHNESS_REQ);
    }

    #[test]
    fn invalid_traces_are_rejected_at_build() {
        // Out-of-range item.
        let err = TraceBuilder::new(2).query(1.0, &[5], 1.0, 5.0).build();
        assert!(err.is_err());
        // Zero-period update stream.
        let err = TraceBuilder::new(2)
            .query(1.0, &[0], 1.0, 5.0)
            .update_stream(0, 0.0, 1.0)
            .build();
        assert!(err.is_err());
        // Duplicate read-set item.
        let err = TraceBuilder::new(2).query(1.0, &[0, 0], 1.0, 5.0).build();
        assert!(err.is_err());
    }

    #[test]
    fn counts_track_additions() {
        let b = TraceBuilder::new(3)
            .query(1.0, &[0], 1.0, 5.0)
            .update_stream(1, 10.0, 1.0)
            .update_stream(2, 10.0, 1.0);
        assert_eq!(b.query_count(), 1);
        assert_eq!(b.update_count(), 2);
    }
}
