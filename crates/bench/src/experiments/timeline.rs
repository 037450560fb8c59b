//! Controller-convergence timeline (companion to Fig. 1's feedback story):
//! cumulative USM, backlog, and utilization over time for each policy on
//! one workload — showing UNIT's warm-up and steady state.

use std::fmt::Write as _;
use unit_bench::cli::Shared;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_policy_with, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_obs::{Observer, RingRecorder};
use unit_sim::SimConfig;
use unit_workload::{UpdateDistribution, UpdateVolume};

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    let cfg = SimConfig::new(bundle.horizon)
        .with_weights(UsmWeights::naive())
        .with_tick_period(plan.tick_period)
        .with_timeline();

    let mut rows = Vec::new();
    let mut notes = String::new();
    for kind in PolicyKind::ALL {
        // The UNIT run doubles as the --trace-out subject (observation is
        // digest-neutral, so the observed report serves the table too).
        let mut rec = RingRecorder::unbounded();
        let record = args.trace_out.is_some() && kind == PolicyKind::Unit;
        let observer = record.then_some(&mut rec as &mut dyn Observer);
        let report = run_policy_with(&plan, &bundle, kind, cfg, observer).report;
        if record {
            args.write_trace("UNIT, med-unif", &rec.into_events());
        }
        // The notes show 12 evenly spaced samples per policy ...
        let _ = write!(notes, "{:<5}", kind.name());
        let step = (report.timeline.len() / 12).max(1);
        for s in report.timeline.iter().step_by(step) {
            let _ = write!(notes, " {:>5.2}", s.usm);
        }
        let _ = writeln!(notes, "   (final {:.3})", report.success_ratio());
        // ... the table ~500 (per-tick rows at full scale would be hundreds
        // of thousands of lines).
        let step = (report.timeline.len() / 500).max(1);
        for s in report.timeline.iter().step_by(step) {
            rows.push(row![
                kind.name(),
                f(s.time.as_secs_f64(), 0),
                f(s.usm, 4),
                s.ready_queries,
                f(s.update_backlog_secs, 1),
                f(s.utilization, 3),
            ]);
        }
    }
    notes.push_str(
        "(cumulative success ratio at evenly spaced instants across the run; UNIT's early\n\
         dip is the controller warm-up while the ticket table learns the access pattern)\n",
    );
    Table {
        stem: "timeline",
        title: format!(
            "Timeline: cumulative success ratio over time (med-unif, scale 1/{})",
            args.scale
        ),
        header: row![
            "policy",
            "time_s",
            "usm",
            "ready_queries",
            "update_backlog_s",
            "utilization"
        ],
        rows,
        notes,
    }
}
