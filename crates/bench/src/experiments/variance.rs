//! Seed-robustness study: do the headline conclusions survive workload
//! resampling, or are they an artifact of one trace draw?
//!
//! Regenerates `med-unif` under several independent workload seeds and
//! reports mean ± population std-dev of each policy's success ratio, plus
//! how often UNIT wins.

use unit_bench::cli::Shared;
use unit_bench::render::{f, Table};
use unit_bench::row;
use unit_bench::{default_workload_plan, run_matrix, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_workload::{
    QueryTraceConfig, TraceBundle, UpdateDistribution, UpdateTraceConfig, UpdateVolume,
};

const SEEDS: [u64; 8] = [11, 23, 37, 59, 71, 97, 113, 131];

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

pub(crate) fn run(args: &Shared) -> Table {
    // One bundle per seed: reseed both the query trace and the update trace.
    let plan = default_workload_plan(args.scale);
    let base = plan.query_cfg;
    let bundles: Vec<TraceBundle> = SEEDS
        .iter()
        .map(|&seed| {
            let qcfg = QueryTraceConfig { seed, ..base };
            let mut ucfg =
                UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
                    .with_total((30_000 / args.scale).max(1));
            ucfg.seed = seed.wrapping_mul(0x9e37_79b9);
            TraceBundle::generate(&qcfg, &ucfg)
        })
        .collect();

    let out = run_matrix(&plan, &bundles, &PolicyKind::ALL, UsmWeights::naive());

    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); 4];
    let mut unit_wins = 0usize;
    for bi in 0..bundles.len() {
        let s: Vec<f64> = (0..4)
            .map(|pi| out[bi * 4 + pi].report.success_ratio())
            .collect();
        let best = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if (s[3] - best).abs() < 1e-12 {
            unit_wins += 1;
        }
        for (pi, v) in s.iter().enumerate() {
            per_policy[pi].push(*v);
        }
    }

    let rows = PolicyKind::ALL
        .iter()
        .zip(&per_policy)
        .map(|(kind, values)| {
            let (mean, std) = mean_std(values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            row![kind.name(), f(mean, 4), f(std, 4), f(min, 4), f(max, 4)]
        })
        .collect();
    Table {
        stem: "variance",
        title: format!(
            "Seed-robustness: med-unif regenerated under {} workload seeds (scale 1/{})",
            SEEDS.len(),
            args.scale
        ),
        header: row!["policy", "mean", "std", "min", "max"],
        rows,
        notes: format!(
            "UNIT is the top policy in {unit_wins} of {} resampled workloads.\n",
            bundles.len()
        ),
    }
}
