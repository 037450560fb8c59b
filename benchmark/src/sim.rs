//! The two engine workloads: `sim-paper` (the nine Fig. 4 traces through
//! `SimRun::trace`) and `sim-flood` (one query-heavy trace through the
//! streaming engine). Both run UNIT at paper scale; what differs is which
//! part of the engine does the work — see `README.md`.

use crate::metrics::{set_policy_layers, EndToEnd, RunOutput};
use crate::paper::{self, CELLS, MED_UNIF};
use crate::probe::{TimedIter, TimedPolicy};
use crate::stats::{median, percentile};
use crate::trace::{Op, TraceSink};
use crate::{measure_for, RunArgs};
use std::time::Instant;
use unit_core::policy::Policy;
use unit_core::unit_policy::UnitPolicy;
use unit_obs::RingRecorder;
use unit_sim::{report_digest, SimReport, SimRun};
use unit_workload::{generate_updates, stream_queries, TraceBundle};

/// Query-load multiplier of `sim-flood` (1.76 M queries against med-unif's
/// 30 000 updates and 385 k control ticks).
const FLOOD_SCALE: u64 = 16;
/// Lookahead of the streaming engine, in arrivals.
const FLOOD_CHUNK: usize = 1024;
/// Query-load multiplier of the streamed-equals-materialized check.
const IDENTITY_SCALE: u64 = 2;

/// Exact behaviour counts of a set of simulation reports. Any change in one
/// of them means the program decided something differently.
#[derive(Default)]
struct Exact {
    queries: u64,
    total_usm: f64,
    events: u64,
    digest: u64,
    hp_aborts: u64,
    query_restarts: u64,
    preemptions: u64,
    cpu_busy: u64,
    end_time: u64,
    degrade: u64,
    upgrade: u64,
    tac: u64,
    lac: u64,
}

impl Exact {
    fn add(&mut self, r: &SimReport) {
        self.queries += r.counts.total();
        self.total_usm += r.counts.total_usm(&r.weights);
        self.events += r.events_processed;
        self.digest ^= report_digest(r);
        self.hp_aborts += r.hp_aborts;
        self.query_restarts += r.query_restarts;
        self.preemptions += r.preemptions;
        self.cpu_busy += r.cpu_busy.0;
        self.end_time += r.end_time.0;
        self.degrade += r.signals.degrade_updates;
        self.upgrade += r.signals.upgrade_updates;
        self.tac += r.signals.tighten_admission;
        self.lac += r.signals.loosen_admission;
    }

    fn usm_per_query(&self) -> f64 {
        self.total_usm / (self.queries as f64).max(1.0)
    }

    fn set_layers(&self, out: &mut RunOutput) {
        let m = &mut out.metrics;
        m.set("sim.events", self.events as f64);
        // 53 bits survive the trip through a JSON number.
        m.set("sim.digest53", (self.digest & ((1 << 53) - 1)) as f64);
        m.set("sim.hp_aborts", self.hp_aborts as f64);
        m.set("sim.query_restarts", self.query_restarts as f64);
        m.set("sim.preemptions", self.preemptions as f64);
        m.set(
            "sim.cpu_busy_ratio",
            self.cpu_busy as f64 / (self.end_time as f64).max(1.0),
        );
        m.set("core.signals.degrade", self.degrade as f64);
        m.set("core.signals.upgrade", self.upgrade as f64);
        m.set("core.signals.tac", self.tac as f64);
        m.set("core.signals.lac", self.lac as f64);
        m.set("usm_per_query", self.usm_per_query());
    }
}

/// One timed pass over some traces.
struct Pass {
    setup_s: f64,
    /// Wall time of each simulation, in trace order.
    walls_s: Vec<f64>,
    reports: Vec<SimReport>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.walls_s.iter().sum()
    }

    fn queries(&self) -> u64 {
        self.reports.iter().map(|r| r.counts.total()).sum()
    }

    fn events(&self) -> u64 {
        self.reports.iter().map(|r| r.events_processed).sum()
    }

    fn exact(&self) -> Exact {
        let mut e = Exact::default();
        self.reports.iter().for_each(|r| e.add(r));
        e
    }
}

fn check_counts(out: &mut RunOutput, what: &str, report: &SimReport, queries: usize) {
    out.attempted += queries as u64;
    out.failed += (queries as u64).abs_diff(report.counts.total());
    out.check(report.counts.total() == queries as u64, || {
        format!(
            "{what}: {} outcomes for {queries} queries",
            report.counts.total()
        )
    });
}

/// Generate `cells` from `seed` (the set-up) and simulate each with the
/// policy `wrap` builds around UNIT.
fn paper_pass<P: Policy>(
    cells: &[paper::Cell],
    seed: u64,
    wrap: impl Fn(UnitPolicy) -> P,
    mut recorder: Option<&mut RingRecorder>,
    out: &mut RunOutput,
) -> Pass {
    let setup = Instant::now();
    let bundles: Vec<TraceBundle> = cells.iter().map(|&c| paper::bundle(c, seed)).collect();
    let setup_s = setup.elapsed().as_secs_f64();
    let mut walls_s = Vec::with_capacity(bundles.len());
    let mut reports = Vec::with_capacity(bundles.len());
    for b in &bundles {
        let policy = wrap(UnitPolicy::new(paper::unit_config(seed)));
        let started = Instant::now();
        let mut run = SimRun::trace(&b.trace, policy, paper::sim_config(b.horizon));
        if let Some(rec) = recorder.as_deref_mut() {
            run = run.with_observer(rec);
        }
        let report = run.run();
        walls_s.push(started.elapsed().as_secs_f64());
        check_counts(out, &b.name, &report, b.trace.queries.len());
        reports.push(report);
    }
    Pass {
        setup_s,
        walls_s,
        reports,
    }
}

/// The end-to-end metrics from a workload's passes. The walls of the
/// individual simulations stand in for latency: what the caller of one
/// simulation waits for.
fn set_end_to_end(out: &mut RunOutput, passes: &[Pass]) {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let runs_us: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.walls_s.iter().map(|w| w * 1e6))
        .collect();
    EndToEnd {
        setup_s: per_pass(&|p| p.setup_s),
        ops_per_s: per_pass(&|p| p.queries() as f64 / p.wall_s()),
        usm_per_query: passes[0].exact().usm_per_query(),
        latency_p50_us: percentile(&runs_us, 50.0),
        latency_p90_us: percentile(&runs_us, 90.0),
    }
    .set(out);
}

/// Passes over the same seed must not differ: the engine is deterministic.
fn check_repeatable(out: &mut RunOutput, passes: &[Pass]) {
    let first = passes[0].exact().digest;
    for (i, p) in passes.iter().enumerate().skip(1) {
        out.check(p.exact().digest == first, || {
            format!("pass {i} digests differently from pass 0 on the same traces")
        });
    }
}

/// Hook timings and the engine's own time per event, from a timed pass.
fn set_engine_layers(out: &mut RunOutput, sink: &TraceSink, wall_s: f64, events: u64) {
    let s = sink.summary();
    let hooks_ns = set_policy_layers(out, &s);
    let stream = s.op(Op::StreamNext);
    if stream.count > 0 {
        out.metrics
            .set("workload.stream_ns_per_query", stream.mean_ns());
    }
    let self_ns = (wall_s * 1e9) - hooks_ns as f64 - stream.sum_ns as f64;
    out.metrics.set(
        "sim.engine.self_ns_per_event",
        self_ns.max(0.0) / (events as f64).max(1.0),
    );
}

/// `sim-paper`: the reproduction grid.
pub fn paper(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    if !args.trace {
        let passes = measure_for(args.seconds, Pass::wall_s, |_| {
            paper_pass(&CELLS, args.seed, |p| p, None, &mut out)
        });
        check_repeatable(&mut out, &passes);
        set_end_to_end(&mut out, &passes);
        return out;
    }

    // Quiet pass over all nine for the exact counts, then the three uniform
    // traces again with every hook timed, and once more with a recorder.
    let quiet = paper_pass(&CELLS, args.seed, |p| p, None, &mut out);
    quiet.exact().set_layers(&mut out);
    out.metrics
        .set("events_per_s", quiet.events() as f64 / quiet.wall_s());
    out.metrics.set("wall_s", quiet.wall_s());
    out.metrics.set("workload.generate_s", quiet.setup_s);

    let unif = [CELLS[0], CELLS[3], CELLS[6]];
    let quiet_unif_s = quiet.walls_s[0] + quiet.walls_s[3] + quiet.walls_s[6];
    let sink = TraceSink::new(false);
    let timed = paper_pass(
        &unif,
        args.seed,
        |p| TimedPolicy::new(p, sink.clone(), false),
        None,
        &mut out,
    );
    set_engine_layers(&mut out, &sink, timed.wall_s(), timed.events());

    let mut recorder = RingRecorder::unbounded();
    let observed = paper_pass(&unif, args.seed, |p| p, Some(&mut recorder), &mut out);
    let recorded = recorder.into_events().len();
    out.metrics.set(
        "obs.recorder_ns_per_event",
        ((observed.wall_s() - quiet_unif_s) * 1e9).max(0.0) / (recorded as f64).max(1.0),
    );
    out.metrics
        .set("obs.overhead_ratio", quiet_unif_s / observed.wall_s());
    out.metrics.set(
        "obs.events_per_query",
        recorded as f64 / (observed.queries() as f64).max(1.0),
    );
    // The wrappers and the recorder must not change a single decision.
    for (what, pass) in [("timed", &timed), ("observed", &observed)] {
        for (i, cell) in [0usize, 3, 6].into_iter().enumerate() {
            out.check(
                report_digest(&pass.reports[i]) == report_digest(&quiet.reports[cell]),
                || format!("{what} run of trace {cell} digests differently from the quiet run"),
            );
        }
    }
    crate::write_trace(&sink, "sim-paper", &mut out);
    out
}

/// One streamed med-unif run with the query load multiplied by `scale`.
fn flood_pass<P: Policy>(
    scale: u64,
    seed: u64,
    wrap: impl FnOnce(UnitPolicy) -> P,
    sink: Option<&TraceSink>,
    out: &mut RunOutput,
) -> Pass {
    let setup = Instant::now();
    let qcfg = paper::query_config().scaled_up(scale);
    let stream = stream_queries(&qcfg);
    let updates = generate_updates(
        &paper::update_config(MED_UNIF, seed),
        stream.item_weights(),
        qcfg.horizon,
    )
    .updates;
    let setup_s = setup.elapsed().as_secs_f64();

    let policy = wrap(UnitPolicy::new(paper::unit_config(seed)));
    let started = Instant::now();
    let run = SimRun::streaming(
        qcfg.n_items,
        &updates,
        policy,
        paper::sim_config(qcfg.horizon),
    );
    let report = match sink {
        Some(sink) => run.run_streamed(TimedIter::new(stream, sink.clone()), FLOOD_CHUNK),
        None => run.run_streamed(stream, FLOOD_CHUNK),
    };
    let wall_s = started.elapsed().as_secs_f64();
    check_counts(out, "flood", &report, qcfg.n_queries);
    Pass {
        setup_s,
        walls_s: vec![wall_s],
        reports: vec![report],
    }
}

/// The streamed path must be the same program as the materialized one.
fn check_stream_identity(seed: u64, out: &mut RunOutput) {
    let before = (out.attempted, out.failed);
    let streamed = flood_pass(IDENTITY_SCALE, seed, |p| p, None, out);
    let qcfg = paper::query_config().scaled_up(IDENTITY_SCALE);
    let bundle = TraceBundle::generate(&qcfg, &paper::update_config(MED_UNIF, seed));
    let materialized = SimRun::trace(
        &bundle.trace,
        UnitPolicy::new(paper::unit_config(seed)),
        paper::sim_config(bundle.horizon),
    )
    .run();
    // A check, not part of the measured work.
    (out.attempted, out.failed) = before;
    out.check(
        report_digest(&streamed.reports[0]) == report_digest(&materialized),
        || format!("streamed and materialized runs differ at query load x{IDENTITY_SCALE}"),
    );
}

/// `sim-flood`: the streaming engine under a query flood.
pub fn flood(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    check_stream_identity(args.seed, &mut out);
    if !args.trace {
        let passes = measure_for(args.seconds, Pass::wall_s, |_| {
            flood_pass(FLOOD_SCALE, args.seed, |p| p, None, &mut out)
        });
        check_repeatable(&mut out, &passes);
        set_end_to_end(&mut out, &passes);
        return out;
    }
    let quiet = flood_pass(FLOOD_SCALE, args.seed, |p| p, None, &mut out);
    quiet.exact().set_layers(&mut out);
    out.metrics
        .set("events_per_s", quiet.events() as f64 / quiet.wall_s());
    out.metrics.set("wall_s", quiet.wall_s());
    out.metrics.set("workload.generate_s", quiet.setup_s);

    let sink = TraceSink::new(false);
    let timed = flood_pass(
        FLOOD_SCALE,
        args.seed,
        |p| TimedPolicy::new(p, sink.clone(), false),
        Some(&sink),
        &mut out,
    );
    // The generator's last pull (the one that returns `None`) may come after
    // the policy, whose drop hands over this thread's buffer, is gone.
    sink.flush_thread();
    set_engine_layers(&mut out, &sink, timed.wall_s(), timed.events());
    out.check(
        report_digest(&timed.reports[0]) == report_digest(&quiet.reports[0]),
        || "the timed flood run digests differently from the quiet run".to_string(),
    );
    crate::write_trace(&sink, "sim-flood", &mut out);
    out
}
