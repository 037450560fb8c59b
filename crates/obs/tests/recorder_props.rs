//! Property tests for [`RingRecorder`]'s drop-oldest accounting: however
//! events arrive, `len + dropped` equals the feed length, the survivors
//! are exactly the newest `len` events in arrival order, and per-lane
//! subsequences of interleaved `Shard` events survive as suffixes.

use proptest::prelude::*;
use unit_core::time::SimTime;
use unit_obs::{ObsEvent, Observer, RingRecorder};

/// A distinguishable event: the payload doubles as identity.
fn tagged(i: u64) -> ObsEvent {
    ObsEvent::CheckpointTaken { time: SimTime(i) }
}

fn tag_of(e: &ObsEvent) -> u64 {
    match e {
        ObsEvent::CheckpointTaken { time } => time.0,
        other => panic!("unexpected event {other:?}"),
    }
}

proptest! {
    /// `len == min(fed, capacity)`, `dropped == fed - len`, and the
    /// survivors are exactly the newest `len` events in arrival order.
    #[test]
    fn drop_oldest_accounting_is_exact(fed in 0usize..400, capacity in 1usize..64) {
        let mut rec = RingRecorder::new(capacity);
        prop_assert_eq!(rec.capacity(), capacity);
        for i in 0..fed {
            rec.on_event(&tagged(i as u64));
        }
        let kept = fed.min(capacity);
        prop_assert_eq!(rec.len(), kept);
        prop_assert_eq!(rec.is_empty(), fed == 0);
        prop_assert_eq!(rec.dropped(), (fed - kept) as u64);
        let tags: Vec<u64> = rec.events().map(tag_of).collect();
        let expected: Vec<u64> = ((fed - kept) as u64..fed as u64).collect();
        prop_assert_eq!(tags, expected, "survivors must be the newest, in order");
    }

    /// The degenerate ring: capacity 1 always holds exactly the newest
    /// event, and every earlier event counts as dropped.
    #[test]
    fn capacity_one_keeps_only_the_newest(fed in 1usize..200) {
        let mut rec = RingRecorder::new(1);
        for i in 0..fed {
            rec.on_event(&tagged(i as u64));
            // Invariant holds after *every* push, not just at the end.
            prop_assert_eq!(rec.len(), 1);
            prop_assert_eq!(rec.dropped(), i as u64);
            prop_assert_eq!(rec.events().map(tag_of).next(), Some(i as u64));
        }
        let events = rec.into_events();
        prop_assert_eq!(events.len(), 1);
        prop_assert_eq!(events.first().map(tag_of), Some(fed as u64 - 1));
    }

    /// Interleaved `Shard` lanes: drop-oldest is global, so each lane's
    /// surviving events are a *suffix* of that lane's own sequence, in
    /// order — the ring never punches holes in a lane.
    #[test]
    fn interleaved_shard_lanes_survive_as_suffixes(
        lanes in prop::collection::vec(0u32..4, 1..300),
        capacity in 1usize..48,
    ) {
        let mut per_lane_seq = [0u64; 4];
        let mut rec = RingRecorder::new(capacity);
        let mut full: Vec<(u32, u64)> = Vec::new();
        for &lane in &lanes {
            let seq = per_lane_seq[lane as usize];
            per_lane_seq[lane as usize] += 1;
            full.push((lane, seq));
            rec.on_event(&ObsEvent::Shard {
                shard: lane,
                seq,
                event: Box::new(tagged(seq)),
            });
        }
        prop_assert_eq!(rec.len() as u64 + rec.dropped(), lanes.len() as u64);
        let survivors: Vec<(u32, u64)> = rec
            .events()
            .map(|e| match e {
                ObsEvent::Shard { shard, seq, .. } => (*shard, *seq),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        // Global suffix...
        let start = full.len() - survivors.len();
        prop_assert_eq!(&survivors[..], &full[start..], "global order preserved");
        // ...hence a per-lane suffix: the surviving seqs of each lane run
        // contiguously up to that lane's final seq.
        for lane in 0..4u32 {
            let seqs: Vec<u64> = survivors
                .iter()
                .filter(|&&(l, _)| l == lane)
                .map(|&(_, s)| s)
                .collect();
            let total = per_lane_seq[lane as usize];
            let expected: Vec<u64> = (total - seqs.len() as u64..total).collect();
            prop_assert_eq!(seqs, expected, "lane {} lost interior events", lane);
        }
    }
}

/// The unbounded recorder never drops, whatever arrives.
#[test]
fn unbounded_recorder_never_drops() {
    let mut rec = RingRecorder::unbounded();
    for i in 0..10_000u64 {
        rec.on_event(&tagged(i));
    }
    assert_eq!(rec.len(), 10_000);
    assert_eq!(rec.dropped(), 0);
    assert_eq!(rec.into_events().len(), 10_000);
}
