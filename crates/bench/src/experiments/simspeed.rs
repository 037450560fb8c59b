//! Perf gate: times the fig3 workload (UNIT policy, med-unif and
//! med-neg bundles) at `--scale 8` and writes `BENCH_simspeed.json` at
//! the repo root so the bench trajectory accumulates across PRs.
//!
//! `--baseline` takes a reference total wall-clock (the seed engine's time on
//! the same machine) and records the resulting speedup in the JSON.
//! `--max-regression R` (requires `--baseline`) exits non-zero when the timed
//! total exceeds `R × baseline` — the CI perf gate.
//!
//! `--scale-up M` adds a throughput-stress entry: the plan's query count is
//! multiplied by `M` at a fixed horizon and the med-unif cell is run twice,
//! end to end, through the one engine — once trace-fed (the eager query
//! `Vec` is generated, then `SimRun::trace` feeds from it; the
//! "materialized" row) and once generator-fed (lazy generation straight
//! into `SimRun::streaming`, the query `Vec` never exists; the "streamed"
//! row). The two reports are asserted bit-identical before the speedup is
//! recorded.
//!
//! `--stream-demo M` times generation-only streaming at `M×` query load:
//! specs are drained one at a time into a checksum, so peak memory stays at
//! the generator's fixed per-query tape (arrival + exec time) instead of the
//! full spec `Vec`. This is the scale-1000 "no materialization" receipt.

use std::time::Instant;
use unit_bench::cli::{Flags, Shared};
use unit_bench::{default_workload_plan, run_policy, ExperimentPlan, PolicyKind};
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_sim::{report_digest, SimRun};
use unit_workload::{generate_updates, stream_queries, UpdateDistribution, UpdateVolume};

struct Args {
    shared: Shared,
    runs: usize,
    baseline_secs: Option<f64>,
    max_regression: Option<f64>,
    scale_up: Option<u64>,
    stream_demo: Option<u64>,
    chunk: usize,
}

fn parse_args(shared: Shared, mut fl: Flags) -> Args {
    let mut args = Args {
        shared,
        runs: 3,
        baseline_secs: None,
        max_regression: None,
        scale_up: None,
        stream_demo: None,
        chunk: 1024,
    };
    while let Some(arg) = fl.next_flag() {
        match arg.as_str() {
            "--runs" => args.runs = fl.parse(&arg),
            "--baseline" => args.baseline_secs = Some(fl.parse(&arg)),
            "--max-regression" => args.max_regression = Some(fl.parse(&arg)),
            "--scale-up" => args.scale_up = Some(fl.parse(&arg)),
            "--stream-demo" => args.stream_demo = Some(fl.parse(&arg)),
            "--chunk" => args.chunk = fl.parse(&arg),
            other => args.shared.accept(&mut fl, other),
        }
    }
    if args.max_regression.is_some() && args.baseline_secs.is_none() {
        fl.fail("--max-regression needs --baseline to compare against");
    }
    args
}

/// Time the med-unif cell at `m×` query load through both feeds, assert
/// the reports bit-identical (trace-fed ≡ generator-fed), and return the
/// JSON fragment plus a human-readable summary line.
fn scale_up_entry(plan: &ExperimentPlan, m: u64, chunk: usize, weights: UsmWeights) -> String {
    let plan_up = plan.scaled_up(m);
    let n_queries = plan_up.query_cfg.n_queries;
    println!("\n  scale-up x{m} (med-unif, {n_queries} queries, fixed horizon):");

    // Generator-fed first (the trace-fed side then runs with a warm
    // allocator, which is the conservative ordering for the speedup claim):
    // lazy generation feeds the engine, the update streams are derived from
    // the generator's popularity profile, and the full query `Vec` never
    // exists.
    let ucfg = plan_up.update_config(UpdateVolume::Med, UpdateDistribution::Uniform);
    let start = Instant::now();
    let stream = stream_queries(&plan_up.query_cfg);
    let updates = generate_updates(&ucfg, stream.item_weights(), plan_up.query_cfg.horizon);
    let streamed_report = SimRun::streaming(
        plan_up.query_cfg.n_items,
        &updates.updates,
        UnitPolicy::new(plan_up.unit_config(weights)),
        plan_up.sim_config(weights),
    )
    .run_streamed(stream, chunk);
    let streamed_secs = start.elapsed().as_secs_f64();
    drop(updates);

    // Trace-fed: eager query Vec + bundle, then the same engine over the slice.
    let start = Instant::now();
    let bundle = plan_up.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    let mat = run_policy(&plan_up, &bundle, PolicyKind::Unit, weights);
    let mat_secs = start.elapsed().as_secs_f64();

    assert_eq!(
        report_digest(&streamed_report),
        report_digest(&mat.report),
        "generator-fed run diverged from the trace-fed run at x{m}"
    );
    let events = mat.report.events_processed;
    let mat_eps = events as f64 / mat_secs;
    let streamed_eps = events as f64 / streamed_secs;
    let speedup = mat_secs / streamed_secs;
    println!("    materialized {mat_secs:>8.3} s  {mat_eps:>12.0} events/s");
    println!(
        "    streamed     {streamed_secs:>8.3} s  {streamed_eps:>12.0} events/s  ({speedup:.2}x)"
    );
    format!(
        ",\n  \"scale_up\": {{\"multiplier\": {m}, \"trace\": \"med-unif\", \
         \"queries\": {n_queries}, \"events\": {events}, \"chunk\": {chunk}, \
         \"materialized\": {{\"wall_secs\": {mat_secs:.6}, \"events_per_sec\": {mat_eps:.1}}}, \
         \"streamed\": {{\"wall_secs\": {streamed_secs:.6}, \"events_per_sec\": {streamed_eps:.1}}}, \
         \"streamed_speedup\": {speedup:.3}}}"
    )
}

/// Drain generation-only streaming at `m×` load without collecting the
/// specs; the checksum keeps the work observable.
fn stream_demo_entry(plan: &ExperimentPlan, m: u64) -> String {
    let qcfg = plan.query_cfg.scaled_up(m);
    let start = Instant::now();
    let stream = stream_queries(&qcfg);
    let expected = stream.len();
    let mut checksum = 0u64;
    let mut count = 0usize;
    for spec in stream {
        checksum = checksum
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(spec.items.len() as u64);
        count += 1;
    }
    assert_eq!(count, expected, "stream terminated early");
    let secs = start.elapsed().as_secs_f64();
    let qps = count as f64 / secs;
    println!(
        "\n  stream-demo x{m}: generated {count} specs in {secs:.3} s \
         ({qps:.0} specs/s, checksum {checksum:#x}) without materializing the Vec"
    );
    format!(
        ",\n  \"stream_generation\": {{\"multiplier\": {m}, \"queries\": {count}, \
         \"wall_secs\": {secs:.6}, \"queries_per_sec\": {qps:.1}, \
         \"materialized_vec\": false}}"
    )
}

pub(crate) fn run(shared: Shared, fl: Flags) {
    let args = parse_args(shared, fl);
    let scale = args.shared.scale;
    let plan = default_workload_plan(scale);
    let weights = UsmWeights::naive();
    let cells = [
        ("med-unif", UpdateDistribution::Uniform),
        ("med-neg", UpdateDistribution::NegativeCorrelation),
    ];

    println!(
        "simspeed: fig3 workload (UNIT), scale 1/{scale}, best of {} runs\n",
        args.runs
    );

    let mut total_secs = 0.0f64;
    let mut total_events = 0u64;
    let mut peak_events_per_sec = 0.0f64;
    let mut rows = Vec::new();
    for (name, dist) in cells {
        let bundle = plan.bundle(UpdateVolume::Med, dist);
        // One warm-up run, then best-of-K timed runs.
        let mut best_secs = f64::INFINITY;
        let mut events = 0u64;
        let mut usm = 0.0f64;
        for run in 0..=args.runs {
            let start = Instant::now();
            let out = run_policy(&plan, &bundle, PolicyKind::Unit, weights);
            let secs = start.elapsed().as_secs_f64();
            events = out.report.events_processed;
            usm = out.report.average_usm();
            if run > 0 && secs < best_secs {
                best_secs = secs;
            }
        }
        let events_per_sec = events as f64 / best_secs;
        peak_events_per_sec = peak_events_per_sec.max(events_per_sec);
        total_secs += best_secs;
        total_events += events;
        println!(
            "  {name:<10} {best_secs:>8.3} s  {events:>9} events  {events_per_sec:>12.0} events/s  USM {usm:+.4}"
        );
        rows.push(format!(
            "    {{\"trace\": \"{name}\", \"wall_secs\": {best_secs:.6}, \
             \"events\": {events}, \"events_per_sec\": {events_per_sec:.1}, \
             \"usm\": {usm:.6}}}"
        ));
    }

    println!(
        "\n  total     {total_secs:>8.3} s  {total_events:>9} events  peak {peak_events_per_sec:.0} events/s"
    );
    let baseline_json = match args.baseline_secs {
        Some(base) => {
            let speedup = base / total_secs;
            println!("  speedup   {speedup:>8.2}x vs seed baseline {base:.3} s");
            format!(
                "\n  \"seed_baseline_wall_secs_total\": {base:.6},\n  \"speedup_vs_seed\": {speedup:.2},"
            )
        }
        None => String::new(),
    };

    let scale_up_json = args
        .scale_up
        .map(|m| scale_up_entry(&plan, m, args.chunk, weights))
        .unwrap_or_default();
    let demo_json = args
        .stream_demo
        .map(|m| stream_demo_entry(&plan, m))
        .unwrap_or_default();

    if let Some(path) = args.shared.out {
        let json = format!(
            "{{\n  \"bench\": \"simspeed\",\n  \"workload\": \"fig3\",\n  \"scale\": {},\n  \"runs\": {},\n  \"wall_secs_total\": {:.6},\n  \"events_total\": {},\n  \"peak_events_per_sec\": {:.1},{}\n  \"cells\": [\n{}\n  ]{}{}\n}}\n",
            scale,
            args.runs,
            total_secs,
            total_events,
            peak_events_per_sec,
            baseline_json,
            rows.join(",\n"),
            scale_up_json,
            demo_json
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("  wrote {path}");
    }

    if let (Some(base), Some(ratio)) = (args.baseline_secs, args.max_regression) {
        let limit = base * ratio;
        if total_secs > limit {
            eprintln!(
                "PERF REGRESSION: total {total_secs:.3} s exceeds {ratio:.2}x \
                 baseline {base:.3} s (limit {limit:.3} s)"
            );
            std::process::exit(1);
        }
        println!("  perf gate: total {total_secs:.3} s within {ratio:.2}x of baseline {base:.3} s");
    }
}
