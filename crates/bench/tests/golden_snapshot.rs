//! Golden fixed-seed regression test for the engine→policy hot path.
//!
//! Pins the complete `SimReport` — outcome counts, USM bits, per-item
//! histograms, scheduler accounting, and the recorded timeline — for a
//! `scale=40` med-unif workload across all four policies and all three
//! scheduling disciplines. The values were captured from the eager
//! `SystemSnapshot` implementation; the lazy `SnapshotView` / Fenwick
//! admission path must reproduce every run bit-for-bit.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p unit-bench --test golden_snapshot -- --nocapture
//! ```

use unit_bench::{default_workload_plan, run_policy_with, PolicyKind};
use unit_core::usm::UsmWeights;
use unit_sim::{report_digest, SchedulingDiscipline, SimReport};
use unit_workload::{UpdateDistribution, UpdateVolume};

const DISCIPLINES: [(SchedulingDiscipline, &str); 3] = [
    (SchedulingDiscipline::DualPriorityEdf, "dual"),
    (SchedulingDiscipline::GlobalEdf, "global"),
    (SchedulingDiscipline::QueryFirst, "qfirst"),
];

/// Golden digests captured from the eager-snapshot engine
/// (policy, discipline, USM bits, digest).
const GOLDEN: [(&str, &str, u64, u64); 12] = [
    ("IMU", "dual", 0xbfcfb02a4cee29f0, 0xf38f7adce7bba9e6),
    ("IMU", "global", 0x3fefb8819521b2ec, 0x627a29b192aaa272),
    ("IMU", "qfirst", 0x3fefb8819521b2ec, 0x627a29b192aaa272),
    ("ODU", "dual", 0x3fe76eed58368398, 0xa05fc31eb75e286d),
    ("ODU", "global", 0x3fe76eed58368398, 0xa05fc31eb75e286d),
    ("ODU", "qfirst", 0x3fedff08279e96f4, 0x779aaba10860b7f8),
    ("QMF", "dual", 0x3fbdca01dca01dca, 0xee3586e7d2d722bd),
    ("QMF", "global", 0x3fefb8819521b2ec, 0x6ffcfe501967cabf),
    ("QMF", "qfirst", 0x3fefb8819521b2ec, 0x6ffcfe501967cabf),
    ("UNIT", "dual", 0x3fb77a3f3a334fcc, 0xccb57ab3399f6f69),
    ("UNIT", "global", 0x3fd8e6dd8e6dd8e7, 0x79ce101b55902c76),
    ("UNIT", "qfirst", 0x3fd8e6dd8e6dd8e7, 0x79ce101b55902c76),
];

fn run_cell(policy: PolicyKind, discipline: SchedulingDiscipline) -> SimReport {
    let mut plan = default_workload_plan(40);
    // The runner's sim_config has no timeline; rebuild with it on so the
    // digest also pins the control-tick sampling path.
    let bundle = plan.bundle(UpdateVolume::Med, UpdateDistribution::Uniform);
    plan.tick_period = unit_core::time::SimDuration::from_secs(10);
    let weights = UsmWeights::low_high_cfm();
    let cfg = plan
        .sim_config(weights)
        .with_timeline()
        .with_discipline(discipline);
    run_policy_with(&plan, &bundle, policy, cfg, None).report
}

#[test]
fn reports_match_golden_digests() {
    let print_mode = std::env::var_os("GOLDEN_PRINT").is_some();
    let mut failures = Vec::new();
    for kind in PolicyKind::ALL {
        for (discipline, dname) in DISCIPLINES {
            let report = run_cell(kind, discipline);
            let digest = report_digest(&report);
            let usm_bits = report.average_usm().to_bits();
            if print_mode {
                println!(
                    "    (\"{}\", \"{}\", 0x{usm_bits:016x}, 0x{digest:016x}),",
                    kind.name(),
                    dname
                );
                continue;
            }
            let expected = GOLDEN
                .iter()
                .find(|(p, d, _, _)| *p == kind.name() && *d == dname)
                .unwrap_or_else(|| panic!("no golden entry for {}/{dname}", kind.name()));
            if digest != expected.3 || usm_bits != expected.2 {
                failures.push(format!(
                    "{}/{}: usm {:+.6} (bits 0x{usm_bits:016x}, want 0x{:016x}), \
                     digest 0x{digest:016x} (want 0x{:016x}), counts {:?}",
                    kind.name(),
                    dname,
                    report.average_usm(),
                    expected.2,
                    expected.3,
                    report.counts,
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "SimReport diverged from the golden seed capture:\n{}",
        failures.join("\n")
    );
}
