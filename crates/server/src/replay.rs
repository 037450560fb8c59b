//! # Replay mode — the deterministic engine as differential oracle
//!
//! Feeds a trace's queries through the *same shape of pipeline* the live
//! server uses — a producer thread pushing specs into a bounded MPSC
//! channel, a consumer draining it — but the consumer is the
//! deterministic [`unit_sim::Simulator`] (via [`SimRun::streaming`]) and the
//! timeline is a [`VirtualClock`] advanced to each arrival as it crosses
//! the channel. Because the engine's iterator feed is proven
//! bit-identical to its trace-backed feed for any lookahead (pinned by
//! `crates/sim/tests/streaming.rs`), a replay through a real channel
//! inherits bit-identity: `report_digest(replay) ==
//! report_digest(SimRun::trace(..).run())` for the same
//! trace/policy/config.
//!
//! That gives the live server a two-sided oracle:
//!
//! * **exact** — under a `VirtualClock`, replay must be *bit-identical*
//!   to the engine (asserted across every policy × discipline in
//!   `tests/replay_differential.rs`);
//! * **statistical** — under a `WallClock`, the live server's outcome
//!   *distribution* must agree with the engine's within a stated
//!   tolerance ([`outcome_agreement`]), since worker-local admission and
//!   completion-time deadline checks perturb individual decisions but
//!   not the aggregate behaviour.

use std::sync::mpsc::sync_channel;
use unit_core::clock::VirtualClock;
use unit_core::policy::Policy;
use unit_core::time::SimTime;
use unit_core::types::{QuerySpec, Trace};
use unit_core::usm::OutcomeCounts;
use unit_sim::{SimConfig, SimReport, SimRun};

/// Iterator adapter that advances a [`VirtualClock`] to each query's
/// arrival instant as the query is pulled off the ingress channel — the
/// virtual clock tracks the ingress frontier exactly the way the wall
/// clock tracks real arrivals.
struct ClockedIngress<'a, I> {
    inner: I,
    clock: &'a VirtualClock,
}

impl<I: Iterator<Item = QuerySpec>> Iterator for ClockedIngress<'_, I> {
    type Item = QuerySpec;

    fn next(&mut self) -> Option<QuerySpec> {
        let spec = self.inner.next()?;
        self.clock.advance_to(spec.arrival);
        Some(spec)
    }
}

/// Replay `trace` through the channelled pipeline under `clock`,
/// returning the oracle's report. `chunk` bounds both the channel and
/// the engine's arrival lookahead — the analogue of the live
/// server's ingress bound.
///
/// # Panics
/// Panics if the trace is malformed (same contract as
/// [`SimRun::build`])
/// or a pipeline thread panics.
pub fn replay<P: Policy + Send>(
    trace: &Trace,
    policy: P,
    cfg: SimConfig,
    chunk: usize,
    clock: &VirtualClock,
) -> SimReport {
    let chunk = chunk.max(1);
    let (tx, rx) = sync_channel::<QuerySpec>(chunk);
    let queries = trace.queries.clone();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for q in queries {
                if tx.send(q).is_err() {
                    return; // consumer hung up (engine horizon reached)
                }
            }
        });
        let ingress = ClockedIngress {
            inner: rx.into_iter(),
            clock,
        };
        let report = SimRun::streaming(trace.n_items, &trace.updates, policy, cfg)
            .run_streamed(ingress, chunk);
        // The run is over: the virtual timeline has reached the horizon.
        clock.advance_to(SimTime::ZERO + cfg.horizon);
        report
    })
}

/// How far apart two outcome distributions are: half the L1 distance
/// between their outcome-ratio vectors, in `[0, 1]` (total variation
/// distance). `0` means identical mixes; `1` means disjoint.
#[derive(Debug, Clone, Copy)]
pub struct Agreement {
    /// Total-variation distance between the two outcome distributions.
    pub distance: f64,
}

impl Agreement {
    /// True when the distributions agree within `tolerance`.
    #[must_use]
    pub fn within(&self, tolerance: f64) -> bool {
        self.distance <= tolerance
    }
}

/// Compare two outcome tallies as distributions (see [`Agreement`]).
/// An empty tally compared against a non-empty one is maximally distant.
#[must_use]
pub fn outcome_agreement(a: &OutcomeCounts, b: &OutcomeCounts) -> Agreement {
    if a.total() == 0 || b.total() == 0 {
        return Agreement {
            distance: if a.total() == b.total() { 0.0 } else { 1.0 },
        };
    }
    let ra = a.ratios();
    let rb = b.ratios();
    let l1: f64 = ra.iter().zip(rb.iter()).map(|(x, y)| (x - y).abs()).sum();
    Agreement { distance: l1 / 2.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unit_core::clock::Clock;
    use unit_core::config::UnitConfig;
    use unit_core::time::SimDuration;
    use unit_core::types::{DataId, QueryId};
    use unit_core::unit_policy::UnitPolicy;
    use unit_sim::report_digest;

    fn tiny_trace() -> Trace {
        Trace {
            n_items: 2,
            queries: (0..20)
                .map(|i| QuerySpec {
                    id: QueryId(i),
                    arrival: SimTime::from_secs(1 + i),
                    items: vec![DataId((i % 2) as u32)],
                    exec_time: SimDuration::from_secs(1),
                    relative_deadline: SimDuration::from_secs(10),
                    freshness_req: 0.5,
                    pref_class: 0,
                })
                .collect(),
            updates: vec![],
        }
    }

    #[test]
    fn replay_is_bit_identical_to_direct_run() {
        let trace = tiny_trace();
        let cfg = SimConfig::new(SimDuration::from_secs(60));
        let clock = VirtualClock::new();
        let replayed = replay(
            &trace,
            UnitPolicy::new(UnitConfig::default()),
            cfg,
            4,
            &clock,
        );
        let direct = SimRun::trace(&trace, UnitPolicy::new(UnitConfig::default()), cfg).run();
        assert_eq!(report_digest(&replayed), report_digest(&direct));
        assert_eq!(clock.now(), SimTime::ZERO + cfg.horizon);
    }

    #[test]
    fn agreement_distance_behaves() {
        let mut a = OutcomeCounts::default();
        let mut b = OutcomeCounts::default();
        assert!(outcome_agreement(&a, &b).within(0.0));
        a.success = 90;
        a.rejected = 10;
        b.success = 85;
        b.rejected = 15;
        let agr = outcome_agreement(&a, &b);
        assert!((agr.distance - 0.05).abs() < 1e-9);
        assert!(agr.within(0.051) && !agr.within(0.049));
        let empty = OutcomeCounts::default();
        assert!((outcome_agreement(&a, &empty).distance - 1.0).abs() < 1e-12);
    }
}
