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
//! Terminal output renders 64-bucket sparklines; the CSV carries the full
//! per-item histograms for external plotting.

use unit_bench::cli::HarnessArgs;
use unit_bench::render::{bucketize, csv, f, render_event_timeline, spark};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_policy, run_policy_with, PolicyKind};
use unit_core::usm::UsmWeights;
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

fn main() {
    let args = HarnessArgs::from_env();
    let plan = default_workload_plan(args.scale);
    let weights = UsmWeights::naive();

    println!(
        "Figure 3: access/update distributions over data, scale 1/{}\n",
        args.scale
    );

    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    let mut first_access_hist: Option<Vec<u64>> = None;

    for (panel, dist) in [
        ("(b) med-unif", UpdateDistribution::Uniform),
        ("(c) med-neg", UpdateDistribution::NegativeCorrelation),
    ] {
        let bundle = plan.bundle(UpdateVolume::Med, dist);
        // The med-unif panel doubles as the --trace-out subject: recording
        // is digest-neutral, so the observed report serves the figure too.
        let record = args.trace_out.is_some() && dist == UpdateDistribution::Uniform;
        let out = if record {
            let mut rec = unit_obs::RingRecorder::unbounded();
            let cfg = plan.sim_config(weights);
            let out = run_policy_with(&plan, &bundle, PolicyKind::Unit, cfg, Some(&mut rec));
            let events = rec.into_events();
            println!("event timeline (UNIT, med-unif):");
            print!("{}", render_event_timeline(&events, 64));
            if let Some(path) = args.write_trace(&events) {
                println!("event trace written to {path}");
            }
            println!();
            out
        } else {
            run_policy(&plan, &bundle, PolicyKind::Unit, weights)
        };
        let r = &out.report;

        if first_access_hist.is_none() {
            println!("(a) query distribution over data (accesses per item):");
            println!(
                "    by item id:     {}",
                spark(&bucketize(&r.query_accesses, 64))
            );
            let order = access_rank_order(&r.query_accesses);
            println!(
                "    by access rank: {}\n",
                spark(&bucketize(&reordered(&r.query_accesses, &order), 64))
            );
            first_access_hist = Some(r.query_accesses.clone());
        }

        let arrived: u64 = r.versions_arrived.iter().sum();
        let applied: u64 = r.updates_applied.iter().sum();
        let dropped_pct = 100.0 * (1.0 - applied as f64 / arrived.max(1) as f64);

        let accesses_f: Vec<f64> = r.query_accesses.iter().map(|&x| x as f64).collect();
        let applied_f: Vec<f64> = r.updates_applied.iter().map(|&x| x as f64).collect();
        let arrived_f: Vec<f64> = r.versions_arrived.iter().map(|&x| x as f64).collect();
        let rho_applied = pearson(&applied_f, &accesses_f);
        let rho_arrived = pearson(&arrived_f, &accesses_f);

        let order = access_rank_order(&r.query_accesses);
        println!("{panel}: update distribution over data (items sorted hot -> cold)");
        println!(
            "    original {} ({} versions, corr to queries {:+.2})",
            spark(&bucketize(&reordered(&r.versions_arrived, &order), 64)),
            arrived,
            rho_arrived
        );
        println!(
            "    degraded {} ({} applied, {:.1}% dropped, corr to queries {:+.2})",
            spark(&bucketize(&reordered(&r.updates_applied, &order), 64)),
            applied,
            dropped_pct,
            rho_applied
        );
        // Keep rates by access decile: the quantified version of "the
        // surviving updates follow the query distribution".
        let n = order.len();
        let top10 = &order[..n / 10];
        let mid = &order[n / 10..n / 2];
        let bottom = &order[n / 2..];
        println!(
            "    kept updates: top-10%-accessed items {:.0}%, middle {:.0}%, bottom-half {:.0}%\n",
            100.0 * keep_rate(top10, &r.updates_applied, &r.versions_arrived),
            100.0 * keep_rate(mid, &r.updates_applied, &r.versions_arrived),
            100.0 * keep_rate(bottom, &r.updates_applied, &r.versions_arrived),
        );

        for i in 0..bundle.trace.n_items {
            csv_rows.push(row![
                bundle.name,
                i,
                r.query_accesses[i],
                r.versions_arrived[i],
                r.updates_applied[i],
            ]);
        }
        let _ = f(0.0, 1); // keep helper linked for the csv module
    }

    println!(
        "Shape checks (paper §4.2): the degraded med-unif distribution should follow\n\
         the query distribution (positive correlation above), and med-neg should shed\n\
         the hot-updated/cold-accessed mass (paper: >95% of updates dropped)."
    );

    if let Some(path) = args.write_csv(
        "fig3.csv",
        &csv(
            &row![
                "trace",
                "item",
                "query_accesses",
                "versions_arrived",
                "updates_applied"
            ],
            &csv_rows,
        ),
    ) {
        println!("CSV written to {path}");
    }
}
