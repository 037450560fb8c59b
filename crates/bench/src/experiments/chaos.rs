//! Seeded chaos sweep: random fault plans vs the invariant oracles, with
//! greedy shrinking of every failure to a minimal JSON reproducer.
//!
//! Each plan is drawn from `split_seed(seed, index)`, so any failure line
//! printed by a sweep reproduces from the sweep seed and the plan index
//! alone. Failures are shrunk (empty shards → drop components → bisect
//! windows) and written as [`ChaosFixture`] JSON under the output
//! directory; commit one to `crates/bench/tests/fixtures/chaos/` to turn
//! it into a permanent regression test.
//!
//! `--fixture-broken` plants a deliberately false oracle (no shard ever
//! recovers) and exits 0 only if the harness finds and shrinks the
//! planted violation — an end-to-end self test of the find+shrink
//! machinery.

use unit_bench::chaos::{sweep, ChaosFixture, ChaosWorkload, Oracle};
use unit_bench::cli::{write_file, Flags, Shared};

/// The sweep seed without `--seed`.
const DEFAULT_SEED: u64 = 0xC4A0_5EED;

struct Args {
    shared: Shared,
    seed: u64,
    plans: u64,
    shards: usize,
    fixture_broken: bool,
}

fn parse_args(shared: Shared, mut fl: Flags) -> Args {
    let mut args = Args {
        shared,
        seed: DEFAULT_SEED,
        plans: 50,
        shards: 4,
        fixture_broken: false,
    };
    while let Some(arg) = fl.next_flag() {
        match arg.as_str() {
            "--seed" => args.seed = fl.parse(&arg),
            "--plans" => args.plans = fl.parse(&arg),
            "--shards" => args.shards = fl.parse(&arg),
            "--fixture-broken" => args.fixture_broken = true,
            other => args.shared.accept(&mut fl, other),
        }
    }
    if args.shards == 0 {
        fl.fail("--shards must be >= 1");
    }
    args
}

pub(crate) fn run(shared: Shared, fl: Flags) {
    let args = parse_args(shared, fl);
    let (scale, seed) = (args.shared.scale, args.seed);
    let w = ChaosWorkload::new(scale, args.shards, seed);
    let oracles: Vec<Oracle> = if args.fixture_broken {
        let mut o = Oracle::REAL.to_vec();
        o.push(Oracle::PlantedNoRecoveries);
        o
    } else {
        Oracle::REAL.to_vec()
    };

    println!(
        "chaos: {} plans, seed {:#x}, scale 1/{}, {} shards, {} queries, horizon {}s{}",
        args.plans,
        seed,
        scale,
        args.shards,
        w.n_queries(),
        w.horizon().0 / 1_000,
        if args.fixture_broken {
            " [planted broken oracle]"
        } else {
            ""
        }
    );
    println!(
        "  oracles: {}\n",
        oracles
            .iter()
            .map(|o| o.name())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let report = sweep(&w, seed, args.plans, &oracles, true);

    println!(
        "\n  {} plans, {} oracle evaluations, {} failure(s)",
        report.plans,
        report.oracle_runs,
        report.failures.len()
    );
    for f in &report.failures {
        println!(
            "\n  FAIL plan {} (seed {:#018x}) oracle {}:",
            f.plan_index,
            f.plan_seed,
            f.oracle.name()
        );
        println!("    original: {}", f.message);
        println!(
            "    shrunk to {:?} components in {} runs: {}",
            unit_bench::chaos::plan_components(&f.shrunk.plan),
            f.shrunk.oracle_runs,
            f.shrunk.message
        );
        let fixture = ChaosFixture {
            description: format!(
                "shrunk reproducer: oracle '{}' on sweep seed {:#x} plan {}",
                f.oracle.name(),
                seed,
                f.plan_index
            ),
            seed,
            scale,
            n_shards: args.shards,
            oracle: f.oracle.name().to_string(),
            plan: f.shrunk.plan.clone(),
        };
        if let Some(dir) = &args.shared.out {
            let name = format!("{}-plan{}.json", fixture.oracle, f.plan_index);
            if let Some(path) = write_file(dir, &name, &fixture.to_json()) {
                println!("    fixture written to {path}");
            }
        }
    }

    if args.fixture_broken {
        // Success means the harness *found* the planted violation — and
        // nothing else broke.
        let planted: Vec<_> = report
            .failures
            .iter()
            .filter(|f| f.oracle == Oracle::PlantedNoRecoveries)
            .collect();
        let real_failures = report.failures.len() - planted.len();
        if real_failures > 0 {
            eprintln!("\n  {real_failures} REAL failure(s) alongside the planted oracle");
            std::process::exit(1);
        }
        match planted.first() {
            Some(f) => {
                let (crashes, lose_state, streams, bursts) =
                    unit_bench::chaos::plan_components(&f.shrunk.plan);
                println!(
                    "\n  planted oracle found and shrunk: {crashes} crash ({lose_state} \
                     lose-state), {streams} stream, {bursts} burst"
                );
                if crashes + streams + bursts != 1 || lose_state != 1 {
                    eprintln!("  shrink did not reach a single lose-state window");
                    std::process::exit(1);
                }
                println!("  ok: find+shrink machinery verified");
            }
            None => {
                eprintln!("\n  planted broken oracle was NOT found — harness is blind");
                std::process::exit(1);
            }
        }
    } else if !report.failures.is_empty() {
        std::process::exit(1);
    } else {
        println!("  ok: every oracle held on every plan");
    }
}
