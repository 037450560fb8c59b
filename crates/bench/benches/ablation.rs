//! Runtime cost of the UNIT design variants DESIGN.md calls out (the
//! *quality* comparison lives in `cargo run -p unit-bench -- ablation`;
//! this bench shows none of the variants changes the simulator's speed
//! class).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use unit_bench::default_workload_plan;
use unit_core::config::{UnitConfig, VictimWeighting};
use unit_core::modulation::UpgradeRule;
use unit_core::unit_policy::UnitPolicy;
use unit_core::usm::UsmWeights;
use unit_sim::run_simulation;
use unit_workload::{UpdateDistribution, UpdateVolume};

fn variants() -> Vec<(&'static str, UnitConfig)> {
    let base = UnitConfig::default();
    vec![
        ("default", base.clone()),
        (
            "shift_min_weights",
            UnitConfig {
                victim_weighting: VictimWeighting::ShiftMin,
                ..base.clone()
            },
        ),
        (
            "linear_upgrade",
            UnitConfig {
                upgrade_rule: UpgradeRule::LinearIdealStep,
                ..base.clone()
            },
        ),
        (
            "paper_literal_tickets",
            UnitConfig {
                access_ticket_scale: Some(1.0),
                ..base.clone()
            },
        ),
        (
            "no_admission_control",
            UnitConfig {
                admission_enabled: false,
                ..base.clone()
            },
        ),
    ]
}

fn ablation_runtime(c: &mut Criterion) {
    let plan = default_workload_plan(32);
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    let cfg = plan.sim_config(UsmWeights::naive());

    let mut group = c.benchmark_group("unit_variant_runtime");
    group.sample_size(15);
    for (name, ucfg) in variants() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &ucfg, |b, ucfg| {
            b.iter(|| {
                black_box(run_simulation(
                    &bundle.trace,
                    UnitPolicy::new(ucfg.clone()),
                    cfg,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_runtime);
criterion_main!(benches);
