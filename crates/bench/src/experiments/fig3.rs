//! Figure 3 — distribution of accesses and updates over the data items,
//! original versus UNIT-degraded.
//!
//! Three panels, as in the paper:
//!
//! * (a) query accesses per item — the skewed reference distribution;
//! * (b) `med-unif`: versions emitted (grey) vs updates UNIT applied
//!   (black) — the survivors should follow the query distribution;
//! * (c) `med-neg`: same — the hot-updated/cold-accessed mass should be
//!   shed almost entirely (the paper reports >95% dropped).
//!
//! The table carries the full per-item histograms for external plotting;
//! the notes render them as 64-bucket sparklines.

use std::fmt::Write as _;
use unit_bench::cli::Shared;
use unit_bench::render::{bucketize, spark, Table};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_policy_with, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_obs::{Observer, RingRecorder};
use unit_workload::dist::pearson;
use unit_workload::{UpdateDistribution, UpdateVolume};

/// Indices of all items, sorted by query-access count descending: the
/// "access rank" view that makes the paper's shapes visible (item ids are
/// randomly permuted, so id-ordered buckets mix hot and cold items).
fn access_rank_order(accesses: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..accesses.len()).collect();
    order.sort_by(|&a, &b| accesses[b].cmp(&accesses[a]).then(a.cmp(&b)));
    order
}

/// Reorder `values` by the given item order.
fn reordered(values: &[u64], order: &[usize]) -> Vec<u64> {
    order.iter().map(|&i| values[i]).collect()
}

/// Fraction of updates kept (applied/arrived) over a slice of items.
fn keep_rate(items: &[usize], applied: &[u64], arrived: &[u64]) -> f64 {
    let a: u64 = items.iter().map(|&i| applied[i]).sum();
    let v: u64 = items.iter().map(|&i| arrived[i]).sum();
    if v == 0 {
        1.0
    } else {
        a as f64 / v as f64
    }
}

pub(crate) fn run(args: &Shared) -> Table {
    let plan = default_workload_plan(args.scale);
    let weights = UsmWeights::naive();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut notes = String::new();

    for (panel, dist) in [
        ("(b) med-unif", UpdateDistribution::Uniform),
        ("(c) med-neg", UpdateDistribution::NegativeCorrelation),
    ] {
        let bundle = plan.bundle(UpdateVolume::Med, dist);
        // The med-unif panel doubles as the --trace-out subject: recording
        // is digest-neutral, so the observed report serves the figure too.
        let record = args.trace_out.is_some() && dist == UpdateDistribution::Uniform;
        let mut rec = RingRecorder::unbounded();
        let observer = record.then_some(&mut rec as &mut dyn Observer);
        let cfg = plan.sim_config(weights);
        let out = run_policy_with(&plan, &bundle, PolicyKind::Unit, cfg, observer);
        if record {
            args.write_trace("UNIT, med-unif", &rec.into_events());
        }
        let r = &out.report;
        let order = access_rank_order(&r.query_accesses);

        if notes.is_empty() {
            let _ = writeln!(
                notes,
                "(a) query distribution over data (accesses per item):\n\
                 \x20   by item id:     {}\n\
                 \x20   by access rank: {}\n",
                spark(&bucketize(&r.query_accesses, 64)),
                spark(&bucketize(&reordered(&r.query_accesses, &order), 64))
            );
        }

        let arrived: u64 = r.versions_arrived.iter().sum();
        let applied: u64 = r.updates_applied.iter().sum();
        let dropped_pct = 100.0 * (1.0 - applied as f64 / arrived.max(1) as f64);

        let accesses_f: Vec<f64> = r.query_accesses.iter().map(|&x| x as f64).collect();
        let applied_f: Vec<f64> = r.updates_applied.iter().map(|&x| x as f64).collect();
        let arrived_f: Vec<f64> = r.versions_arrived.iter().map(|&x| x as f64).collect();
        let rho_applied = pearson(&applied_f, &accesses_f);
        let rho_arrived = pearson(&arrived_f, &accesses_f);

        // Keep rates by access decile: the quantified version of "the
        // surviving updates follow the query distribution".
        let n = order.len();
        let keep =
            |items: &[usize]| 100.0 * keep_rate(items, &r.updates_applied, &r.versions_arrived);
        let _ = writeln!(
            notes,
            "{panel}: update distribution over data (items sorted hot -> cold)\n\
             \x20   original {} ({arrived} versions, corr to queries {rho_arrived:+.2})\n\
             \x20   degraded {} ({applied} applied, {dropped_pct:.1}% dropped, corr to queries {rho_applied:+.2})\n\
             \x20   kept updates: top-10%-accessed items {:.0}%, middle {:.0}%, bottom-half {:.0}%\n",
            spark(&bucketize(&reordered(&r.versions_arrived, &order), 64)),
            spark(&bucketize(&reordered(&r.updates_applied, &order), 64)),
            keep(&order[..n / 10]),
            keep(&order[n / 10..n / 2]),
            keep(&order[n / 2..]),
        );

        for i in 0..bundle.trace.n_items {
            rows.push(row![
                bundle.name,
                i,
                r.query_accesses[i],
                r.versions_arrived[i],
                r.updates_applied[i],
            ]);
        }
    }

    notes.push_str(
        "Shape checks (paper §4.2): the degraded med-unif distribution should follow\n\
         the query distribution (positive correlation above), and med-neg should shed\n\
         the hot-updated/cold-accessed mass (paper: >95% of updates dropped).\n",
    );
    Table {
        stem: "fig3",
        title: format!(
            "Figure 3: access/update distributions over data, scale 1/{}",
            args.scale
        ),
        header: row![
            "trace",
            "item",
            "query_accesses",
            "versions_arrived",
            "updates_applied"
        ],
        rows,
        notes,
    }
}
