//! Workload generation CLI: build any Table 1 workload (or a custom-sized
//! one), inspect its statistics, and save it as JSON for reuse.
//!
//! ```sh
//! # Generate the paper's med-unif workload and save it:
//! cargo run --release -p unit-bench -- tracegen \
//!     --volume med --dist unif --out workload.json
//!
//! # Inspect a saved workload:
//! cargo run --release -p unit-bench -- tracegen --inspect workload.json
//! ```
//!
//! Without `--inspect`, generates the selected Table 1 workload (default
//! med-unif at 1/4 scale), prints its statistics, and with `--out` saves
//! it as JSON. With `--inspect`, loads a saved workload and prints its
//! statistics instead.

use std::path::Path;
use unit_bench::cli::{Flags, Shared};
use unit_bench::default_workload_plan;
use unit_bench::render::{bucketize, spark};
use unit_workload::{TraceBundle, TraceStats, UpdateDistribution, UpdateVolume};

struct Args {
    shared: Shared,
    volume: UpdateVolume,
    dist: UpdateDistribution,
    inspect: Option<String>,
}

fn parse_args(shared: Shared, mut fl: Flags) -> Args {
    let mut out = Args {
        shared,
        volume: UpdateVolume::Med,
        dist: UpdateDistribution::Uniform,
        inspect: None,
    };
    while let Some(arg) = fl.next_flag() {
        match arg.as_str() {
            "--volume" => {
                let v = fl.value(&arg);
                out.volume = match v.as_str() {
                    "low" => UpdateVolume::Low,
                    "med" => UpdateVolume::Med,
                    "high" => UpdateVolume::High,
                    _ => fl.fail(&format!("bad --volume value: {v}")),
                }
            }
            "--dist" => {
                let v = fl.value(&arg);
                out.dist = match v.as_str() {
                    "unif" => UpdateDistribution::Uniform,
                    "pos" => UpdateDistribution::PositiveCorrelation,
                    "neg" => UpdateDistribution::NegativeCorrelation,
                    _ => fl.fail(&format!("bad --dist value: {v}")),
                }
            }
            "--inspect" => out.inspect = Some(fl.value(&arg)),
            other => out.shared.accept(&mut fl, other),
        }
    }
    out
}

fn describe(bundle: &TraceBundle) {
    let t = &bundle.trace;
    println!("workload `{}`", bundle.name);
    println!("  items:            {}", t.n_items);
    println!("  queries:          {}", t.queries.len());
    println!("  update streams:   {}", t.updates.len());
    println!("  horizon:          {:.0}s", bundle.horizon.as_secs_f64());
    println!(
        "  offered load:     {:.1}% query + {:.1}% update = {:.1}%",
        100.0 * bundle.query_utilization,
        100.0 * bundle.update_utilization,
        100.0 * bundle.offered_load()
    );
    println!("  update/query rho: {:+.3}", bundle.achieved_rho);

    let access = t.query_access_histogram();
    println!("  access histogram: {}", spark(&bucketize(&access, 64)));
    let volume = t.update_volume_histogram(bundle.horizon);
    println!("  update histogram: {}", spark(&bucketize(&volume, 64)));

    let execs: Vec<f64> = t
        .queries
        .iter()
        .map(|q| q.exec_time.as_secs_f64())
        .collect();
    let deadlines: Vec<f64> = t
        .queries
        .iter()
        .map(|q| q.relative_deadline.as_secs_f64())
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "  query exec:       mean {:.2}s, max {:.2}s",
        mean(&execs),
        execs.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "  query deadline:   mean {:.1}s, max {:.1}s",
        mean(&deadlines),
        deadlines.iter().copied().fold(0.0, f64::max)
    );

    let stats = TraceStats::of(t, bundle.horizon);
    println!(
        "  access skew:      gini {:.2}, top-decile share {:.0}%",
        stats.access_gini,
        100.0 * stats.top_decile_access_share
    );
    println!(
        "  burstiness:       interarrival CV {:.2} (1 = Poisson)",
        stats.interarrival_cv
    );
    println!(
        "  slack:            mean deadline/exec {:.1}x",
        stats.mean_slack_factor
    );
}

pub(crate) fn run(shared: Shared, fl: Flags) {
    let args = parse_args(shared, fl);

    if let Some(path) = &args.inspect {
        match TraceBundle::load(Path::new(path)) {
            Ok(bundle) => {
                if let Err(e) = bundle.trace.validate() {
                    eprintln!("warning: trace fails validation: {e}");
                }
                describe(&bundle);
            }
            Err(e) => {
                eprintln!("cannot load {path}: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let plan = default_workload_plan(args.shared.scale);
    let bundle = plan.bundle(args.volume, args.dist);
    describe(&bundle);

    if let Some(path) = &args.shared.out {
        match bundle.save(Path::new(path)) {
            Ok(()) => println!("\nsaved to {path}"),
            Err(e) => {
                eprintln!("cannot save {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
