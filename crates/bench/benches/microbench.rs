//! Microbenchmarks for the core data structures: the operations the
//! admission-control and modulation paths execute per event.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unit_core::admission::AdmissionControl;
use unit_core::config::UnitConfig;
use unit_core::controller::Lbc;
use unit_core::freshness::FreshnessTable;
use unit_core::lottery::{VictimIndex, WeightedSampler};
use unit_core::policy::Policy;
use unit_core::snapshot::{QueueEntryView, SystemSnapshot};
use unit_core::tickets::TicketTable;
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome, QueryId, QuerySpec, UpdateSpec, UpdateStreamId};
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;

fn lottery(c: &mut Criterion) {
    let mut group = c.benchmark_group("lottery");
    for n in [256usize, 1024, 16384] {
        let weights: Vec<f64> = (0..n).map(|i| ((i * 37) % 100) as f64 + 1.0).collect();
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| WeightedSampler::from_weights(black_box(&weights)));
        });
        let sampler = WeightedSampler::from_weights(&weights);
        let mut rng = StdRng::seed_from_u64(7);
        group.bench_with_input(BenchmarkId::new("sample", n), &n, |b, _| {
            b.iter(|| sampler.sample(&mut rng).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("set", n), &n, |b, _| {
            let mut s = WeightedSampler::from_weights(&weights);
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 17) % n;
                s.set(i, (i % 50) as f64 + 0.5);
            });
        });
    }
    // One degrade signal's index over shifted tickets, four in five items
    // capped (the `modulation` group's table shape).
    let n = 1024;
    let mut tickets = TicketTable::with_scale(n, 0.9, 48.0, 28.0);
    for i in 0..n {
        tickets.on_update(i, (1 + i * 37 % 97) as f64);
    }
    let mut index = VictimIndex::default();
    group.bench_with_input(BenchmarkId::new("victim_index_build", n), &n, |b, _| {
        b.iter(|| {
            index.build(
                |w| tickets.shifted_weights_into(w),
                |i| black_box(i % 5 != 0),
            )
        });
    });
    group.finish();
}

fn tickets(c: &mut Criterion) {
    let mut group = c.benchmark_group("tickets");
    let n = 1024;
    group.bench_function("on_query_access", |b| {
        let mut t = TicketTable::new(n, 0.9, 96.0);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 13) % n;
            t.on_query_access(i, 0.02);
        });
    });
    group.bench_function("on_update", |b| {
        let mut t = TicketTable::with_scale(n, 0.9, 96.0, 28.0);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 13) % n;
            t.on_update(i, 100.0);
        });
    });
    group.bench_function("shifted_weights_1024", |b| {
        let mut t = TicketTable::new(n, 0.9, 96.0);
        for i in 0..n {
            t.on_update(i, (i % 150) as f64);
        }
        b.iter(|| black_box(t.shifted_weights()));
    });
    group.bench_function("clamped_weights_1024", |b| {
        let mut t = TicketTable::new(n, 0.9, 96.0);
        for i in 0..n {
            t.on_update(i, (i % 150) as f64);
        }
        b.iter(|| black_box(t.clamped_weights()));
    });
    group.finish();
}

fn freshness(c: &mut Criterion) {
    let mut group = c.benchmark_group("freshness");
    let mut table = FreshnessTable::new(1024);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..5_000 {
        table.record_arrival(DataId(rng.gen_range(0..1024)));
    }
    let read_set: Vec<DataId> = (0..4).map(|i| DataId(i * 100)).collect();
    group.bench_function("record_arrival", |b| {
        b.iter(|| table.record_arrival(black_box(DataId(512))));
    });
    group.bench_function("read_set_freshness_4", |b| {
        b.iter(|| black_box(table.read_set_freshness(&read_set)));
    });
    group.bench_function("stale_items_4", |b| {
        b.iter(|| black_box(table.stale_items(&read_set, 0.9)));
    });
    group.finish();
}

fn admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission");
    let weights = UsmWeights::low_high_cfm();
    let ac = AdmissionControl::default();
    let query = QuerySpec {
        id: QueryId(1),
        arrival: SimTime::from_secs(1_000),
        items: vec![DataId(0)],
        exec_time: SimDuration::from_secs(1),
        relative_deadline: SimDuration::from_secs(50),
        freshness_req: 0.9,
        pref_class: 0,
    };
    for queue_len in [4usize, 32, 256] {
        let snapshot = SystemSnapshot {
            now: SimTime::from_secs(1_000),
            queries: (0..queue_len)
                .map(|i| QueueEntryView {
                    id: QueryId(i as u64),
                    deadline: SimTime::from_secs(1_000 + 10 * i as u64),
                    remaining: SimDuration::from_secs(1),
                })
                .collect(),
            update_backlog: SimDuration::from_secs(10),
            recent_utilization: 0.8,
        };
        group.bench_with_input(
            BenchmarkId::new("evaluate", queue_len),
            &queue_len,
            |b, _| {
                b.iter(|| black_box(ac.evaluate(&query, &snapshot.view(), &weights)));
            },
        );
    }
    group.finish();
}

fn controller(c: &mut Criterion) {
    c.bench_function("lbc_record_and_activate", |b| {
        let mut lbc = Lbc::new(
            UsmWeights::low_high_cfm(),
            UnitConfig::default().grace_period,
            5,
        );
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            lbc.record(match i % 4 {
                0 => Outcome::Success,
                1 => Outcome::Rejected,
                2 => Outcome::DeadlineMiss,
                _ => Outcome::DataStale,
            });
            if i % 32 == 0 {
                black_box(lbc.activate(SimTime::from_secs(i), 0.9));
            }
        });
    });
}

/// Degradation cap of the `modulation` group: low, so preparing a table
/// with most items at the cap takes few signals.
const BENCH_MAX_FACTOR: f64 = 2.0;

/// Feed the LBC a full window of `outcome`s and tick once past its grace
/// period: one `DegradeUpdates` (deadline misses) or `UpgradeUpdates`
/// (stale reads) signal through `Policy::on_tick`.
fn signal_tick(p: &mut UnitPolicy, now: SimTime, outcome: Outcome) {
    let q = QuerySpec {
        id: QueryId(0),
        arrival: now,
        items: vec![DataId(0)],
        exec_time: SimDuration::from_secs(1),
        relative_deadline: SimDuration::from_secs(10),
        freshness_req: 0.9,
        pref_class: 0,
    };
    for _ in 0..16 {
        p.on_query_outcome(&q, outcome);
    }
    let sys = SystemSnapshot::empty(now);
    black_box(p.on_tick(now, &sys.view()));
}

/// A UNIT policy over `n` streamed items with spread tickets, degraded by
/// lottery signals until at most a fifth of them are below the cap, and
/// the instant of its next control tick. Per-item update utilization is
/// small enough that a signal spends its 4096 draws before its shed budget,
/// as on the paper traces.
fn modulated_policy(n: usize) -> (UnitPolicy, SimTime) {
    let cfg = UnitConfig {
        max_degradation_factor: BENCH_MAX_FACTOR,
        ..UnitConfig::with_weights(UsmWeights::low_high_cfm()).with_seed(11)
    };
    let specs: Vec<UpdateSpec> = (0..n)
        .map(|i| UpdateSpec {
            id: UpdateStreamId(i as u32),
            item: DataId(i as u32),
            period: SimDuration::from_secs(200 * n as u64),
            exec_time: SimDuration::from_secs(1 + (i * 37 % 97) as u64),
            first_arrival: SimTime::ZERO,
        })
        .collect();
    let mut p = UnitPolicy::new(cfg);
    p.init(n, &specs);
    for u in &specs {
        p.on_update_commit(u.item, u.exec_time);
    }
    let capped = |p: &UnitPolicy| {
        specs
            .iter()
            .filter(|u| {
                let pc = p.current_period(u.item).unwrap_or(SimDuration::MAX);
                pc.scale(1.1).min(u.period.scale(BENCH_MAX_FACTOR)) == pc
            })
            .count()
    };
    let mut now = SimTime::from_secs(60);
    while capped(&p) * 5 < n * 4 {
        signal_tick(&mut p, now, Outcome::DeadlineMiss);
        now += SimDuration::from_secs(60);
    }
    (p, now)
}

/// One modulation signal through `Policy::on_tick` on a table with ≈ 20 %
/// of its items below the cap; every call starts from the same state.
fn modulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("modulation");
    for n in [1024usize, 16_384, 131_072] {
        let (prepared, now) = modulated_policy(n);
        for (name, outcome) in [
            ("degrade", Outcome::DeadlineMiss),
            ("upgrade", Outcome::DataStale),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter_batched(
                    || prepared.clone(),
                    |mut p| {
                        signal_tick(&mut p, now, outcome);
                        p
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

criterion_group!(benches, lottery, tickets, freshness, admission, controller, modulation);
criterion_main!(benches);
