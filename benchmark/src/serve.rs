//! The three live-server workloads: `serve-flatout`, `serve-steady`,
//! `serve-overload`. All go through `unit_server::serve` with one worker, a
//! wall clock at `time_scale` 1 (trace µs are wall µs), a 100 ms control
//! tick, the low-C_r/high-C_fm weights and a `MemBackend` of 1024 items in
//! 16 shards. Only the arrival schedule, the service demand and the deadline
//! differ — see `README.md` for why each was chosen.

use crate::gen::{generate, Arrivals, ServeShape, N_ITEMS};
use crate::metrics::{set_policy_layers, EndToEnd, RunOutput};
use crate::probe::{LatencyProbe, QueryTiming, TimedBackend, TimedPolicy, TimingSink};
use crate::stats::{crossing_rate, median, percentile, percentile_sorted};
use crate::trace::{Op, TraceSink};
use crate::{measure_for, RunArgs};
use std::time::Instant;
use unit_core::config::UnitConfig;
use unit_core::split_seed;
use unit_core::time::SimDuration;
use unit_core::types::Outcome;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_server::{serve, MemBackend, ServeConfig, ServeReport, WallClock};

const WEIGHTS: UsmWeights = UsmWeights::low_high_cfm();
const BACKEND_SHARDS: usize = 16;
/// Nominal capacity of one worker on the paced workloads: 1 / mean(20..=60 µs).
const NOMINAL_CAPACITY: f64 = 25_000.0;
/// The ladder of `serve-steady`, as shares of nominal capacity.
const LADDER: [f64; 4] = [10_000.0, 16_000.0, 20_000.0, 23_500.0];
/// The ladder step whose latency and goodput `serve-steady` reports (65 % load).
const STEADY_RATE: f64 = LADDER[1];
const OVERLOAD_RATE: f64 = 1.2 * NOMINAL_CAPACITY;
/// Failure share that defines the sustainable rate.
const FAIL_LIMIT: f64 = 0.05;

fn paced_shape(rate_per_s: f64, seconds: f64) -> ServeShape {
    ServeShape {
        arrivals: Arrivals::Span {
            span: SimDuration::from_secs_f64(seconds),
            rate_per_s,
        },
        exec_us: (20, 60),
        deadline: SimDuration(2_000),
        update_period: SimDuration(20_000),
    }
}

fn flatout_shape(n: usize) -> ServeShape {
    ServeShape {
        arrivals: Arrivals::Count {
            n,
            rate_per_s: 500_000.0,
        },
        // 1 µs is the smallest demand the server's clock can express, so
        // wall time is pipeline overhead and nothing else.
        exec_us: (1, 1),
        deadline: SimDuration(50_000),
        update_period: SimDuration(2_000),
    }
}

fn serve_config(workers: usize, paced: bool, observe: bool) -> ServeConfig {
    let mut cfg = ServeConfig::new(workers, 1).with_weights(WEIGHTS);
    cfg.tick_period = SimDuration(100_000);
    if !paced {
        cfg = cfg.flat_out();
    }
    if observe {
        cfg = cfg.with_observation();
    }
    cfg
}

fn unit_policy(seed: u64, instance: usize) -> UnitPolicy {
    UnitPolicy::new(
        UnitConfig::with_weights(WEIGHTS)
            .with_grace_period(SimDuration(500_000))
            .with_seed(split_seed(seed, instance as u64)),
    )
}

/// How much of the benchmark's own machinery sits around the program.
#[derive(Clone, Copy)]
enum Instrument<'a> {
    /// The raw `UnitPolicy` and `MemBackend`.
    Raw,
    /// `LatencyProbe` around the policy only.
    Probed,
    /// `TimedPolicy<LatencyProbe<_>>` and `TimedBackend` into the sink.
    Traced(&'a TraceSink),
}

struct Rep {
    report: ServeReport,
    /// One entry per time the set-up (trace generation and construction) ran.
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Latency from due time of every non-rejected query, µs, ascending.
    latency_us: Vec<f64>,
    /// The probe's records in query order, with `due` filled in (empty on a
    /// raw run). The trace itself is dropped with the repetition.
    timings: Vec<QueryTiming>,
}

impl Rep {
    fn submitted(&self) -> f64 {
        self.report.submitted as f64
    }

    fn ops_per_s(&self) -> f64 {
        self.report.counts.total() as f64 / self.wall_s
    }

    fn goodput_per_s(&self) -> f64 {
        self.report.counts.success as f64 / self.wall_s
    }

    fn fail_ratio(&self) -> f64 {
        1.0 - self.report.counts.success as f64 / self.submitted().max(1.0)
    }

    fn usm_per_query(&self) -> f64 {
        self.report.total_usm() / self.submitted().max(1.0)
    }
}

/// What one repetition runs with, besides its trace shape and seed.
#[derive(Clone, Copy)]
struct RepConfig<'a> {
    workers: usize,
    paced: bool,
    observe: bool,
    instrument: Instrument<'a>,
    /// How often to run the set-up (only the last one is used). The paced
    /// workloads have few repetitions and a set-up of milliseconds, so they
    /// sample it several times to report a steady median.
    setup_samples: usize,
}

impl RepConfig<'_> {
    const RAW_FLATOUT: RepConfig<'static> = RepConfig {
        workers: 1,
        paced: false,
        observe: false,
        instrument: Instrument::Raw,
        setup_samples: 1,
    };
    const PROBED_PACED: RepConfig<'static> = RepConfig {
        workers: 1,
        paced: true,
        observe: false,
        instrument: Instrument::Probed,
        setup_samples: 4,
    };
}

/// Generate the trace (the set-up), serve it once, and check the report.
fn run_rep(shape: &ServeShape, seed: u64, rc: RepConfig<'_>, out: &mut RunOutput) -> Rep {
    let RepConfig {
        workers,
        paced,
        observe,
        instrument,
        setup_samples,
    } = rc;
    let mut setup_s = Vec::with_capacity(setup_samples);
    let (gen, backend, cfg, timing_sink) = loop {
        let setup = Instant::now();
        let gen = generate(shape, seed);
        let backend = MemBackend::new(N_ITEMS, BACKEND_SHARDS);
        let cfg = serve_config(workers, paced, observe);
        let timing_sink: TimingSink = Default::default();
        setup_s.push(setup.elapsed().as_secs_f64());
        if setup_s.len() >= setup_samples {
            break (gen, backend, cfg, timing_sink);
        }
    };
    let n = gen.trace.queries.len();

    let clock = WallClock::new();
    let started = Instant::now();
    let report = match instrument {
        Instrument::Raw => serve(&cfg, &clock, &backend, &gen.trace, gen.horizon, |i| {
            unit_policy(seed, i)
        }),
        Instrument::Probed => serve(&cfg, &clock, &backend, &gen.trace, gen.horizon, |i| {
            LatencyProbe::new(unit_policy(seed, i), &clock, n, timing_sink.clone())
        }),
        Instrument::Traced(sink) => {
            let backend = TimedBackend::new(backend, sink.clone());
            serve(&cfg, &clock, &backend, &gen.trace, gen.horizon, |i| {
                let probe = LatencyProbe::new(unit_policy(seed, i), &clock, n, timing_sink.clone());
                TimedPolicy::new(probe, sink.clone(), true)
            })
        }
    };
    let wall_s = started.elapsed().as_secs_f64();

    out.attempted += n as u64;
    out.failed += (n as u64).abs_diff(report.counts.total());
    out.check(report.conserves(), || {
        format!(
            "conservation: {} submitted, {} outcomes",
            report.submitted,
            report.counts.total()
        )
    });
    out.check(report.submitted == n as u64, || {
        format!("submitted {} of {n} generated queries", report.submitted)
    });
    out.check(report.updates_applied <= report.updates_arrived, || {
        format!(
            "{} updates applied but only {} arrived",
            report.updates_applied, report.updates_arrived
        )
    });

    let mut timings = std::mem::take(&mut *timing_sink.lock().expect("timing sink poisoned"));
    timings.sort_unstable_by_key(|t| t.id);
    if !matches!(instrument, Instrument::Raw) {
        out.check(timings.len() == n, || {
            format!("probe saw {} of {n} queries", timings.len())
        });
    }
    for t in &mut timings {
        t.due = gen.trace.queries[t.id as usize].arrival.0 as u32;
    }
    let mut latency_us: Vec<f64> = timings
        .iter()
        .filter(|t| t.outcome != Outcome::Rejected)
        .map(|t| f64::from(t.done.saturating_sub(t.due)))
        .collect();
    latency_us.sort_by(f64::total_cmp);

    Rep {
        report,
        setup_s,
        wall_s,
        latency_us,
        timings,
    }
}

fn medians(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics from this workload's reps.
fn set_end_to_end(out: &mut RunOutput, reps: &[Rep], latency_p50_us: f64, latency_p90_us: f64) {
    let setups: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .collect();
    EndToEnd {
        setup_s: median(&setups),
        ops_per_s: medians(reps, Rep::ops_per_s),
        usm_per_query: medians(reps, Rep::usm_per_query),
        latency_p50_us,
        latency_p90_us,
    }
    .set(out);
}

/// The untraced run of a paced workload: `n_reps` probed repetitions of
/// `shape`; per-query latency is the median repetition's percentile.
fn run_paced_untraced(shape: &ServeShape, n_reps: u64, seed: u64, out: &mut RunOutput) {
    let reps: Vec<Rep> = (0..n_reps)
        .map(|i| run_rep(shape, split_seed(seed, i), RepConfig::PROBED_PACED, out))
        .collect();
    let p50 = medians(&reps, |r| query_latency(r, 50.0));
    let p90 = medians(&reps, |r| query_latency(r, 90.0));
    set_end_to_end(out, &reps, p50, p90);
}

fn query_latency(rep: &Rep, p: f64) -> f64 {
    if rep.latency_us.is_empty() {
        // Every query was rejected: nothing was served late.
        return 0.0;
    }
    percentile_sorted(&rep.latency_us, p)
}

/// Outcome shares and the report-derived numbers of the per-layer list.
fn set_outcome_layers(out: &mut RunOutput, reps: &[Rep]) {
    let share = |f: fn(&Rep) -> u64| medians(reps, |r| f(r) as f64 / r.submitted().max(1.0));
    out.metrics.set(
        "server.outcome.rejected_ratio",
        share(|r| r.report.counts.rejected),
    );
    out.metrics.set(
        "server.outcome.dmf_ratio",
        share(|r| r.report.counts.deadline_miss),
    );
    out.metrics.set(
        "server.outcome.dsf_ratio",
        share(|r| r.report.counts.data_stale),
    );
    out.metrics.set(
        "server.updates.applied_ratio",
        medians(reps, |r| {
            r.report.updates_applied as f64 / (r.report.updates_arrived as f64).max(1.0)
        }),
    );
    out.metrics
        .set("fail_ratio", medians(reps, Rep::fail_ratio));
    out.metrics
        .set("goodput_per_s", medians(reps, Rep::goodput_per_s));
    out.metrics
        .set("usm_per_query", medians(reps, Rep::usm_per_query));
    out.metrics.set("wall_s", medians(reps, |r| r.wall_s));
}

/// Queueing layers of one rep, from the probe's stamps. A closed loop has no
/// due times, so only the waits inside the server mean anything there.
fn set_queueing_layers(out: &mut RunOutput, rep: &Rep, open_loop: bool) {
    let sorted = |f: &dyn Fn(&QueryTiming) -> f64| {
        let mut v: Vec<f64> = rep.timings.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let lag = sorted(&|t| f64::from(t.enqueue.saturating_sub(t.due)));
    let wait = sorted(&|t| f64::from(t.admit.saturating_sub(t.enqueue)));
    let service = sorted(&|t| f64::from(t.done.saturating_sub(t.admit)));
    if lag.is_empty() {
        return;
    }
    out.metrics
        .set("server.ingress.wait_us_p50", percentile_sorted(&wait, 50.0));
    out.metrics
        .set("server.ingress.wait_us_p99", percentile_sorted(&wait, 99.0));
    out.metrics
        .set("server.service_us_p50", percentile_sorted(&service, 50.0));
    if !open_loop {
        return;
    }
    out.metrics
        .set("server.inject.lag_us_p50", percentile_sorted(&lag, 50.0));
    out.metrics
        .set("server.inject.lag_us_p99", percentile_sorted(&lag, 99.0));
    out.metrics
        .set("server.inject.lag_us_max", percentile_sorted(&lag, 100.0));
    out.metrics.set("latency_p99_us", query_latency(rep, 99.0));
    out.metrics.set("latency_p999_us", query_latency(rep, 99.9));
}

/// Hook, backend and stage timings out of the trace sink.
fn set_trace_layers(out: &mut RunOutput, sink: &TraceSink, worker_wall_ns: f64) {
    let s = sink.summary();
    set_policy_layers(out, &s);
    for (name, op) in [
        ("server.mem.begin_ns", Op::MemBegin),
        ("server.mem.read_ns", Op::MemRead),
        ("server.mem.commit_ns", Op::MemCommit),
        ("server.mem.apply_ns", Op::MemApply),
        ("server.mem.observe_version_ns", Op::MemObserveVersion),
    ] {
        out.metrics.set(name, s.op(op).mean_ns());
    }
    out.metrics
        .set("server.mem.reads", s.op(Op::MemRead).count as f64);
    out.metrics
        .set("server.mem.applies", s.op(Op::MemApply).count as f64);
    let errors: u64 = s.stats.iter().map(|o| o.errors).sum();
    out.metrics.set("server.mem.errors", errors as f64);

    let served = s.op(Op::Service).count.max(1) as f64;
    let st = s.stages;
    let other = st
        .service_ns
        .saturating_sub(st.policy_ns + st.backend_ns + st.spin_ns);
    out.metrics.set(
        "server.stage.policy_ns_per_query",
        st.policy_ns as f64 / served,
    );
    out.metrics.set(
        "server.stage.backend_ns_per_query",
        st.backend_ns as f64 / served,
    );
    out.metrics
        .set("server.stage.spin_ns_per_query", st.spin_ns as f64 / served);
    out.metrics
        .set("server.stage.other_ns_per_query", other as f64 / served);
    out.metrics.set(
        "server.stage.between_ns_per_query",
        st.between_ns as f64 / served,
    );
    // Every stage is stamped on the worker thread; the wall is the runner's
    // own clock around `serve()`. With one worker the two agree unless time
    // goes missing outside the spans (thread start, the drain at the end).
    out.metrics.set(
        "server.stage.sum_over_wall",
        (st.policy_ns + st.backend_ns + st.spin_ns + other + st.between_ns) as f64
            / worker_wall_ns.max(1.0),
    );
}

/// `serve-flatout`: closed loop, no service demand.
pub fn flatout(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    let n = ((125_000.0 * args.seconds) as usize).clamp(50_000, 1_000_000);
    let shape = flatout_shape(n);
    if !args.trace {
        let reps = measure_for(
            args.seconds,
            |r: &Rep| r.wall_s,
            |i| {
                run_rep(
                    &shape,
                    split_seed(args.seed, i),
                    RepConfig::RAW_FLATOUT,
                    &mut out,
                )
            },
        );
        // A closed loop has no due times; the time one repetition takes is
        // what its caller waits for.
        let walls_us: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e6).collect();
        let (p50, p90) = (percentile(&walls_us, 50.0), percentile(&walls_us, 90.0));
        set_end_to_end(&mut out, &reps, p50, p90);
        return out;
    }

    // Four variants share the time: raw, traced, observed, two workers.
    let sink = TraceSink::new(false);
    let share = args.seconds / 4.0;
    let variant = |rc: RepConfig<'_>, salt: u64, out: &mut RunOutput| {
        measure_for(
            share,
            |r: &Rep| r.wall_s,
            |i| run_rep(&shape, split_seed(args.seed, salt * 1000 + i), rc, out),
        )
    };
    let base = RepConfig::RAW_FLATOUT;
    let raw = variant(base, 0, &mut out);
    let traced = variant(
        RepConfig {
            instrument: Instrument::Traced(&sink),
            ..base
        },
        1,
        &mut out,
    );
    let observed = variant(
        RepConfig {
            observe: true,
            ..base
        },
        2,
        &mut out,
    );
    let two = variant(RepConfig { workers: 2, ..base }, 3, &mut out);

    let raw_ops = medians(&raw, Rep::ops_per_s);
    set_outcome_layers(&mut out, &raw);
    let traced_wall_ns: f64 = traced.iter().map(|r| r.wall_s * 1e9).sum();
    set_trace_layers(&mut out, &sink, traced_wall_ns);
    if let Some(rep) = traced.first() {
        set_queueing_layers(&mut out, rep, false);
    }
    out.metrics.set(
        "server.trace_overhead_ratio",
        medians(&traced, Rep::ops_per_s) / raw_ops,
    );
    out.metrics.set(
        "obs.overhead_ratio",
        medians(&observed, Rep::ops_per_s) / raw_ops,
    );
    out.metrics.set(
        "obs.events_per_query",
        medians(&observed, |r| {
            r.report.events.len() as f64 / r.submitted().max(1.0)
        }),
    );
    out.metrics.set(
        "server.scaling.w2_over_w1",
        medians(&two, Rep::ops_per_s) / raw_ops,
    );
    crate::write_trace(&sink, "serve-flatout", &mut out);
    out
}

/// `serve-steady`: open loop below capacity.
pub fn steady(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    if !args.trace {
        const REPS: u64 = 6;
        let shape = paced_shape(STEADY_RATE, args.seconds / REPS as f64);
        run_paced_untraced(&shape, REPS, args.seed, &mut out);
        return out;
    }

    // The whole ladder, one fresh server per step; only the 65 % step is
    // traced in full and reported layer by layer.
    let sink = TraceSink::new(true);
    let step_s = args.seconds / LADDER.len() as f64;
    let mut ladder = Vec::with_capacity(LADDER.len());
    let mut steady_rep = None;
    for (i, &rate) in LADDER.iter().enumerate() {
        let instrument = if rate == STEADY_RATE {
            Instrument::Traced(&sink)
        } else {
            Instrument::Probed
        };
        let rc = RepConfig {
            instrument,
            ..RepConfig::PROBED_PACED
        };
        let seed = split_seed(args.seed, i as u64);
        let rep = run_rep(&paced_shape(rate, step_s), seed, rc, &mut out);
        ladder.push((rate, rep.fail_ratio()));
        if rate == STEADY_RATE {
            steady_rep = Some(rep);
        }
    }
    let rep = steady_rep.expect("the ladder contains the steady rate");
    out.metrics
        .set("sustainable_rate_per_s", crossing_rate(&ladder, FAIL_LIMIT));
    set_queueing_layers(&mut out, &rep, true);
    set_trace_layers(&mut out, &sink, rep.wall_s * 1e9);
    set_outcome_layers(&mut out, std::slice::from_ref(&rep));
    crate::write_trace(&sink, "serve-steady", &mut out);
    out
}

/// `serve-overload`: open loop at 120 % of nominal capacity.
pub fn overload(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    // The server drains what was offered at its own pace, so a repetition
    // takes about 1.2× the offered span.
    const REPS: u64 = 3;
    let offered_s = args.seconds / (REPS as f64 * OVERLOAD_RATE / NOMINAL_CAPACITY);
    let shape = paced_shape(OVERLOAD_RATE, offered_s);
    if !args.trace {
        run_paced_untraced(&shape, REPS, args.seed, &mut out);
        return out;
    }
    let sink = TraceSink::new(true);
    let rc = RepConfig {
        instrument: Instrument::Traced(&sink),
        ..RepConfig::PROBED_PACED
    };
    let rep = run_rep(&shape, split_seed(args.seed, 0), rc, &mut out);
    set_queueing_layers(&mut out, &rep, true);
    set_trace_layers(&mut out, &sink, rep.wall_s * 1e9);
    set_outcome_layers(&mut out, std::slice::from_ref(&rep));
    crate::write_trace(&sink, "serve-overload", &mut out);
    out
}
