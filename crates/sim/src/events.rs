//! The discrete-event queue.
//!
//! A binary min-heap over `(time, sequence)` keys. The sequence number makes
//! same-instant events pop in insertion order, which keeps every run
//! bit-reproducible — a property the whole evaluation leans on.
//!
//! Payloads are interned in a slab and the heap holds only 24-byte
//! `(time, seq, slot)` keys: sift operations move small `Copy` keys instead
//! of full `Event` variants, and freed slots are recycled so the
//! steady-state path performs no per-event heap allocation.

use crate::txn::TxnId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use unit_core::time::SimTime;

/// Everything that can happen in the simulated server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A user query from the trace reaches the server.
    QueryArrival {
        /// Slot of the query's spec in the engine's in-flight slab.
        spec_idx: usize,
    },
    /// A source emits a new version of its item.
    VersionArrival {
        /// Index into `Trace::updates`.
        stream_idx: usize,
    },
    /// The running transaction finishes its remaining service. Valid only if
    /// `generation` matches the transaction's current dispatch generation
    /// (preemption invalidates stale completions).
    Completion {
        /// The transaction expected to be running.
        txn: TxnId,
        /// Dispatch generation this completion was scheduled under.
        generation: u64,
    },
    /// A query's firm deadline expires; if uncommitted it is aborted (DMF).
    QueryDeadline {
        /// The admitted query transaction.
        txn: TxnId,
    },
    /// A fault-schedule transition instant (crash-window boundary or load
    /// burst). Only scheduled when a [`crate::faults::FaultHook`] is
    /// installed; a run without faults never sees one.
    FaultTransition,
    /// A fault-delayed update application becomes due: spawn the update
    /// transaction that [`crate::faults::UpdateFault::Delay`] postponed.
    DelayedApply {
        /// The item whose version is (finally) being applied.
        item: unit_core::types::DataId,
        /// Execution time of the application transaction.
        exec: unit_core::time::SimDuration,
        /// EDF (temporal-validity) deadline the update would have carried
        /// had it been spawned at its arrival instant.
        edf_deadline: SimTime,
    },
}

/// First sequence number of the *runtime* class. Sequence numbers below this
/// are reserved for query arrivals (one per query, `seq == feed ordinal`),
/// so an arrival pushed mid-run by the feed sorts exactly where seeding the
/// whole trace up front would have placed it: before every runtime event at
/// the same instant, and in trace order among arrivals. The split keeps
/// same-instant tie-breaking a pure function of the trace — not of *when*
/// events were pushed — which is what makes a run independent of the
/// feed's lookahead.
pub const ARRIVAL_SEQ_BASE: u64 = 1 << 48;

/// Min-heap event queue with deterministic same-time ordering.
#[derive(Debug, Clone)]
pub struct EventQueue {
    /// Keys only: payloads never participate in sifting or ordering.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Interned payloads, indexed by the key's slot.
    slab: Vec<Event>,
    /// Recycled slab slots.
    free: Vec<u32>,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            // Runtime events start above the arrival class (see
            // [`ARRIVAL_SEQ_BASE`]).
            next_seq: ARRIVAL_SEQ_BASE,
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at `time` in the runtime sequence class (insertion
    /// order among runtime events).
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.alloc_seq();
        self.push_with_seq(time, event, seq);
    }

    /// Schedule a query arrival with its explicit sequence number (the
    /// query's feed ordinal). Arrival sequences sort *below* every runtime
    /// sequence, reproducing trace order no matter when the arrival is
    /// fed. O(log N_ev).
    pub fn push_arrival(&mut self, time: SimTime, event: Event, seq: u64) {
        debug_assert!(
            seq < ARRIVAL_SEQ_BASE,
            "arrival seq {seq} collides with the runtime class"
        );
        self.push_with_seq(time, event, seq);
    }

    /// Claim the next runtime sequence number without pushing anything —
    /// used by the engine's tracked control tick, which keeps the tick out
    /// of the heap but orders against it by the same `(time, seq)` key.
    /// O(1).
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Claim `n` consecutive runtime sequence numbers at once, discarding
    /// them — the bulk counterpart of [`EventQueue::alloc_seq`] for the
    /// engine's idle-tick skip, which must burn exactly the sequence slots
    /// the skipped tick re-arms would have taken. O(1).
    pub fn alloc_seqs(&mut self, n: u64) {
        self.next_seq += n;
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`free` holds only slots pop() released, all below slab.len()"
    )]
    fn push_with_seq(&mut self, time: SimTime, event: Event, seq: u64) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = event;
                s
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "4B simultaneous events is beyond any trace scale"
                )]
                let s = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(event);
                s
            }
        };
        self.heap.push(Reverse((time, seq, slot)));
    }

    /// Pop the earliest event (ties in insertion order).
    #[expect(
        clippy::indexing_slicing,
        reason = "heap keys index live slab slots by construction"
    )]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse((t, _, slot))| {
            self.free.push(slot);
            let event = std::mem::replace(&mut self.slab[slot as usize], Event::FaultTransition);
            (t, event)
        })
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// `(time, seq)` key of the next event without popping it — what the
    /// engine compares its tracked control tick against. O(1).
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse((t, s, _))| (*t, *s))
    }

    /// Pending events whose payload satisfies `pred` (test support). O(N_ev).
    #[cfg(test)]
    pub(crate) fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.heap
            .iter()
            .filter(|Reverse((_, _, slot))| self.slab.get(*slot as usize).is_some_and(&pred))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), Event::FaultTransition);
        q.push(SimTime::from_secs(1), Event::QueryArrival { spec_idx: 0 });
        q.push(
            SimTime::from_secs(3),
            Event::VersionArrival { stream_idx: 2 },
        );
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(t1, SimTime::from_secs(1));
        assert_eq!(e1, Event::QueryArrival { spec_idx: 0 });
        let (t2, _) = q.pop().unwrap();
        assert_eq!(t2, SimTime::from_secs(3));
        let (t3, _) = q.pop().unwrap();
        assert_eq!(t3, SimTime::from_secs(5));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..10 {
            q.push(t, Event::QueryArrival { spec_idx: i });
        }
        for i in 0..10 {
            let (_, e) = q.pop().unwrap();
            assert_eq!(e, Event::QueryArrival { spec_idx: i });
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(4), Event::FaultTransition);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn arrival_class_outranks_runtime_class_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        // Runtime event pushed FIRST, arrivals fed later (out of order, as a
        // streamed feed might): arrivals still pop first, in trace order.
        q.push(t, Event::FaultTransition);
        q.push_arrival(t, Event::QueryArrival { spec_idx: 3 }, 3);
        q.push_arrival(t, Event::QueryArrival { spec_idx: 1 }, 1);
        assert_eq!(q.pop().unwrap().1, Event::QueryArrival { spec_idx: 1 });
        assert_eq!(q.pop().unwrap().1, Event::QueryArrival { spec_idx: 3 });
        assert_eq!(q.pop().unwrap().1, Event::FaultTransition);
    }

    #[test]
    fn alloc_seq_reserves_a_runtime_slot() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, Event::QueryArrival { spec_idx: 0 }); // seq BASE
        let skipped = q.alloc_seq(); // seq BASE+1, never pushed
        q.push(t, Event::QueryArrival { spec_idx: 2 }); // seq BASE+2
        assert_eq!(skipped, ARRIVAL_SEQ_BASE + 1);
        assert_eq!(q.peek_key(), Some((t, ARRIVAL_SEQ_BASE)));
        assert_eq!(q.pop().unwrap().1, Event::QueryArrival { spec_idx: 0 });
        assert_eq!(q.pop().unwrap().1, Event::QueryArrival { spec_idx: 2 });
    }

    /// An engine snapshot holds the queue by value: a clone taken mid-run,
    /// restored over a queue that has moved on, pops what was pending at
    /// the snapshot in the same order and numbers later pushes alike.
    #[test]
    fn snapshot_and_restore_preserve_pop_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(3);
        q.push(t, Event::FaultTransition);
        q.push_arrival(t, Event::QueryArrival { spec_idx: 7 }, 7);
        q.push(
            SimTime::from_secs(1),
            Event::VersionArrival { stream_idx: 4 },
        );
        // Pop one so the slab contains a recycled placeholder slot.
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, Event::VersionArrival { stream_idx: 4 });

        let snap = q.clone();
        assert_eq!(snap.len(), 2);
        // The live queue moves on past the snapshot.
        q.push(SimTime::from_secs(2), Event::FaultTransition);
        assert_eq!(q.pop().unwrap().1, Event::FaultTransition);
        assert_eq!(q.pop().unwrap().1, Event::QueryArrival { spec_idx: 7 });

        q.clone_from(&snap);
        let mut r = snap.clone();
        for queue in [&mut q, &mut r] {
            queue.push(t, Event::VersionArrival { stream_idx: 5 });
            assert_eq!(queue.pop().unwrap().1, Event::QueryArrival { spec_idx: 7 });
            assert_eq!(queue.pop().unwrap().1, Event::FaultTransition);
            assert_eq!(
                queue.pop().unwrap().1,
                Event::VersionArrival { stream_idx: 5 }
            );
            assert!(queue.pop().is_none());
        }
    }

    #[test]
    fn slab_slots_are_recycled() {
        let mut q = EventQueue::new();
        // Interleave pushes and pops: the slab must not grow past the peak
        // number of simultaneously pending events.
        for round in 0..100usize {
            q.push(SimTime::from_secs(round as u64), Event::FaultTransition);
            q.push(
                SimTime::from_secs(round as u64),
                Event::QueryArrival { spec_idx: round },
            );
            let (_, e) = q.pop().unwrap();
            assert_eq!(e, Event::FaultTransition);
            let (_, e) = q.pop().unwrap();
            assert_eq!(e, Event::QueryArrival { spec_idx: round });
        }
        assert!(q.slab.len() <= 2, "slab grew to {}", q.slab.len());
        assert!(q.is_empty());
    }
}
