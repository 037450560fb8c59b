//! The live server on a real clock, with the deterministic engine as the
//! statistical reference.
//!
//! A `WallClock` serve of a compressed trace must conserve queries (every
//! submitted query reaches exactly one outcome), emit a well-formed
//! per-worker observability stream (monotone times, dense sequence
//! numbers within each worker lane), and land its outcome *distribution*
//! within a stated tolerance of a direct simulation of the same trace.

use unit_core::config::UnitConfig;
use unit_core::time::SimTime;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::{OutcomeCounts, UsmWeights};
use unit_obs::ObsEvent;
use unit_server::{serve, MemBackend, ServeConfig, WallClock};
use unit_sim::{run_simulation, SimConfig};
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SEED: u64 = 0x5EED_0011;

/// How far apart two outcome distributions are: half the L1 distance
/// between their outcome-ratio vectors, in `[0, 1]` (total variation
/// distance). `0` means identical mixes; `1` means disjoint. An empty
/// tally compared against a non-empty one is maximally distant.
fn outcome_distance(a: &OutcomeCounts, b: &OutcomeCounts) -> f64 {
    if a.total() == 0 || b.total() == 0 {
        return if a.total() == b.total() { 0.0 } else { 1.0 };
    }
    let l1: f64 = a
        .ratios()
        .iter()
        .zip(b.ratios().iter())
        .map(|(x, y)| (x - y).abs())
        .sum();
    l1 / 2.0
}

#[test]
fn agreement_distance_behaves() {
    let mut a = OutcomeCounts::default();
    let mut b = OutcomeCounts::default();
    assert_eq!(outcome_distance(&a, &b), 0.0);
    a.success = 90;
    a.rejected = 10;
    b.success = 85;
    b.rejected = 15;
    assert!((outcome_distance(&a, &b) - 0.05).abs() < 1e-9);
    let empty = OutcomeCounts::default();
    assert!((outcome_distance(&a, &empty) - 1.0).abs() < 1e-12);
}

#[test]
fn wall_clock_smoke_conserves_and_streams_monotone_obs() {
    // A heavily scaled-down bundle compressed ~60,000x: the wall serve
    // takes ~0.5 s while keeping scaled deadlines (16 µs – 1.6 ms) wide
    // enough that the run exercises all outcome classes without being
    // degenerate.
    let qcfg = QueryTraceConfig::default().scaled_down(128);
    let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
        .with_total((UpdateVolume::Med.total_updates() / 128).max(1));
    let bundle = TraceBundle::generate(&qcfg, &ucfg);
    let time_scale = (bundle.horizon.0 / 500_000).max(1); // ≈0.5 s wall

    let cfg = ServeConfig::new(4, time_scale)
        .with_weights(UsmWeights::low_high_cfm())
        .with_observation();
    let clock = WallClock::new();
    let backend = MemBackend::new(bundle.trace.n_items, 8);
    let report = serve(&cfg, &clock, &backend, &bundle.trace, bundle.horizon, |i| {
        UnitPolicy::new(
            UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED + i as u64),
        )
    });

    // Conservation: every submitted query reached exactly one outcome.
    assert_eq!(report.submitted, bundle.trace.queries.len() as u64);
    assert!(
        report.conserves(),
        "outcome tally {} != submitted {}",
        report.counts.total(),
        report.submitted
    );
    assert!(report.ops_per_sec() > 0.0);
    assert_eq!(report.policy, "UNIT");

    // The obs stream is shard-wrapped per worker, with dense per-lane
    // sequence numbers and monotone event times within each lane.
    assert!(!report.events.is_empty(), "observation was on");
    let mut lane_seq = vec![0u64; report.workers];
    let mut lane_time = vec![SimTime::ZERO; report.workers];
    for event in &report.events {
        match event {
            ObsEvent::Shard { shard, seq, event } => {
                let lane = *shard as usize;
                assert!(lane < report.workers, "unknown worker lane {lane}");
                assert_eq!(*seq, lane_seq[lane], "lane {lane} skipped a seq");
                lane_seq[lane] += 1;
                let t = event.time();
                assert!(
                    t >= lane_time[lane],
                    "lane {lane} went backwards: {t:?} after {:?}",
                    lane_time[lane]
                );
                lane_time[lane] = t;
            }
            other => panic!("unwrapped event in live stream: {other:?}"),
        }
    }

    // Statistical reference: the live outcome mix agrees with the
    // engine's within a stated tolerance. The bound is deliberately loose
    // — the live server's worker-local admission and completion-time
    // deadline detection shift individual outcomes — but it catches
    // wholesale divergence (e.g. everything rejected, or conservation by
    // double-counting).
    let engine = run_simulation(
        &bundle.trace,
        UnitPolicy::new(UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(SEED)),
        SimConfig::new(bundle.horizon).with_weights(UsmWeights::low_high_cfm()),
    );
    let distance = outcome_distance(&report.counts, &engine.counts);
    assert!(
        distance <= 0.75,
        "live outcome distribution diverged wholesale from the engine: \
         distance {distance:.3} (live {:?} vs engine {:?})",
        report.counts,
        engine.counts
    );
}
