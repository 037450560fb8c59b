//! Controller-convergence timeline (companion to Fig. 1's feedback story):
//! cumulative USM, backlog, and utilization over time for each policy on
//! one workload — showing UNIT's warm-up and steady state.

use unit_bench::cli::HarnessArgs;
use unit_bench::render::{csv, f, render_event_timeline};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_policy_with, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_obs::{Observer, RingRecorder};
use unit_sim::{SimConfig, SimReport, TimelineSample};
use unit_workload::{UpdateDistribution, UpdateVolume};

fn downsample(timeline: &[TimelineSample], points: usize) -> Vec<&TimelineSample> {
    if timeline.is_empty() {
        return Vec::new();
    }
    let step = (timeline.len() / points).max(1);
    timeline.iter().step_by(step).collect()
}

fn run(
    plan: &unit_bench::ExperimentPlan,
    bundle: &unit_workload::TraceBundle,
    kind: PolicyKind,
    observer: Option<&mut dyn Observer>,
) -> SimReport {
    let cfg = SimConfig::new(bundle.horizon)
        .with_weights(UsmWeights::naive())
        .with_tick_period(plan.tick_period)
        .with_timeline();
    run_policy_with(plan, bundle, kind, cfg, observer).report
}

fn main() {
    let args = HarnessArgs::from_env();
    let plan = default_workload_plan(args.scale);
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    println!(
        "Timeline: cumulative success ratio over time (med-unif, scale 1/{})\n",
        args.scale
    );

    let mut csv_rows = Vec::new();
    for kind in PolicyKind::ALL {
        // The UNIT run doubles as the --trace-out subject (observation is
        // digest-neutral, so the observed report serves the table too).
        let record = args.trace_out.is_some() && kind == PolicyKind::Unit;
        let mut rec = RingRecorder::unbounded();
        let report = if record {
            run(&plan, &bundle, kind, Some(&mut rec))
        } else {
            run(&plan, &bundle, kind, None)
        };
        if record {
            let events = rec.into_events();
            println!("\nevent timeline (UNIT, med-unif):");
            print!("{}", render_event_timeline(&events, 64));
            if let Some(path) = args.write_trace(&events) {
                println!("event trace written to {path}");
            }
            println!();
        }
        let samples = downsample(&report.timeline, 12);
        print!("{:<5}", kind.name());
        for s in &samples {
            print!(" {:>5.2}", s.usm);
        }
        println!("   (final {:.3})", report.success_ratio());
        // CSV keeps ~500 evenly spaced samples per policy (per-tick rows at
        // full scale would be hundreds of thousands of lines).
        let step = (report.timeline.len() / 500).max(1);
        for s in report.timeline.iter().step_by(step) {
            csv_rows.push(row![
                kind.name(),
                f(s.time.as_secs_f64(), 0),
                f(s.usm, 4),
                s.ready_queries,
                f(s.update_backlog_secs, 1),
                f(s.utilization, 3),
            ]);
        }
    }
    println!("\n(columns are evenly spaced samples across the run; UNIT's early dip is the\n controller warm-up while the ticket table learns the access pattern)");

    if let Some(path) = args.write_csv(
        "timeline.csv",
        &csv(
            &row![
                "policy",
                "time_s",
                "usm",
                "ready_queries",
                "update_backlog_s",
                "utilization"
            ],
            &csv_rows,
        ),
    ) {
        println!("CSV written to {path}");
    }
}
