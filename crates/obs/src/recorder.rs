//! The [`Observer`] trait and its two shipped implementations: the no-op
//! [`NullObserver`] (compiles to nothing on the engine's hot path) and the
//! bounded [`RingRecorder`].

use crate::event::ObsEvent;
use std::collections::VecDeque;

/// A sink for [`ObsEvent`]s.
///
/// Observers are passive: they receive borrowed events and must not feed
/// anything back into the simulation. The engine only *constructs* events
/// when an observer is installed, so an absent observer costs one branch on
/// an `Option` per emission site, and an installed one is
/// `report_digest`-bit-neutral by construction (the differential suite in
/// `crates/obs/tests` pins both properties).
pub trait Observer {
    /// Receive one event. Called in virtual-time order within a run;
    /// implementations should be O(1) amortized — the engine calls this on
    /// its hot path.
    fn on_event(&mut self, event: &ObsEvent);
}

/// The observer that ignores everything. Behaviourally identical to
/// installing no observer at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    /// O(1): discards the event.
    #[inline]
    fn on_event(&mut self, _event: &ObsEvent) {}
}

/// A bounded ring-buffer recorder: keeps the **latest** `capacity` events,
/// counting (not storing) everything older that was displaced.
///
/// The bound makes long runs safe to observe — memory stays O(capacity)
/// regardless of horizon — while [`RingRecorder::unbounded`] serves the
/// exporters and the cluster merge, which need complete streams.
#[derive(Debug, Clone, Default)]
pub struct RingRecorder {
    capacity: usize,
    events: VecDeque<ObsEvent>,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder keeping the latest `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RingRecorder {
        assert!(capacity > 0, "a recorder needs room for at least one event");
        RingRecorder {
            capacity,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// A recorder that never drops (capacity `usize::MAX`). Used where the
    /// full stream is required: exporters, cluster replay.
    pub fn unbounded() -> RingRecorder {
        RingRecorder {
            capacity: usize::MAX,
            events: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The configured capacity. O(1).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held, oldest first. O(1).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything was displaced).
    /// O(1).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events displaced by the capacity bound. O(1).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterate the held events, oldest first. O(1) to create.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter()
    }

    /// Consume the recorder, returning the held events oldest-first. O(n).
    pub fn into_events(self) -> Vec<ObsEvent> {
        self.events.into_iter().collect()
    }
}

impl Observer for RingRecorder {
    /// O(1) amortized: one clone into the ring, displacing the oldest
    /// event when full.
    fn on_event(&mut self, event: &ObsEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        // lint: allow(P2) — Observer hands a borrow and the ring must own the event
        self.events.push_back(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::time::SimTime;
    use unit_core::types::{Outcome, QueryId};

    fn outcome_at(sec: u64) -> ObsEvent {
        ObsEvent::QueryOutcome {
            time: SimTime::from_secs(sec),
            query: QueryId(sec),
            outcome: Outcome::Success,
        }
    }

    #[test]
    fn ring_keeps_the_latest_events_and_counts_drops() {
        let mut rec = RingRecorder::new(3);
        for s in 0..5 {
            rec.on_event(&outcome_at(s));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let times: Vec<u64> = rec.events().map(|e| e.time().0).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_secs(2).0,
                SimTime::from_secs(3).0,
                SimTime::from_secs(4).0
            ]
        );
    }

    #[test]
    fn unbounded_recorder_never_drops() {
        let mut rec = RingRecorder::unbounded();
        for s in 0..1000 {
            rec.on_event(&outcome_at(s));
        }
        assert_eq!(rec.len(), 1000);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.into_events().len(), 1000);
    }

    #[test]
    #[should_panic(expected = "room for at least one event")]
    fn zero_capacity_is_rejected() {
        let _ = RingRecorder::new(0);
    }

    #[test]
    fn null_observer_is_inert() {
        let mut n = NullObserver;
        n.on_event(&outcome_at(1));
    }
}
