//! `unit-bench <experiment> [flags]` — the one entry point of the harness.
//!
//! ```sh
//! cargo run --release -p unit-bench -- list            # the registry
//! cargo run --release -p unit-bench -- fig4 --full     # one experiment
//! cargo run --release -p unit-bench -- report --full   # all of results/
//! ```
//!
//! A table experiment returns its result as a [`Table`]; this file prints
//! it and writes `<stem>.csv` / `<stem>.txt`. `report` runs every table
//! experiment once and renders the same tables as markdown too. The other
//! three — `report`, `chaos` and `tracegen` — have knobs of their own.

mod experiments;

use experiments::{
    ablation, chaos, cluster, cpus, crossover, faults, fig3, fig4, fig5, fig6, replication,
    sensitivity, table1, table2, timeline, tracegen, variance,
};
use unit_bench::cli::{write_file, Flags, Shared};
use unit_bench::render::Table;

/// How an experiment runs.
#[derive(Clone, Copy)]
enum Run {
    /// Computes one table; the harness prints and writes it.
    Table(fn(&Shared) -> Table),
    /// Parses knobs of its own from the remaining flags and reports itself.
    Custom(fn(Shared, Flags)),
}

/// One row of the registry.
struct Experiment {
    name: &'static str,
    about: &'static str,
    /// The flags it takes, as its usage line spells them.
    flags: &'static str,
    /// Default `--scale`.
    scale: u64,
    /// Default `--out`; `None` writes nothing unless asked.
    out: Option<&'static str>,
    run: Run,
}

const TABLE_FLAGS: &str = "[--scale N | --full] [--out DIR | --no-out]";

/// A table experiment: scale 4, artifacts under `results/`.
const fn table(name: &'static str, about: &'static str, run: fn(&Shared) -> Table) -> Experiment {
    Experiment {
        name,
        about,
        flags: TABLE_FLAGS,
        scale: 4,
        out: Some("results"),
        run: Run::Table(run),
    }
}

/// A table experiment whose representative run `--trace-out` records.
const fn traced(mut exp: Experiment) -> Experiment {
    exp.flags = "[--scale N | --full] [--out DIR | --no-out] [--trace-out FILE]";
    exp
}

const REGISTRY: [Experiment; 18] = [
    table("table1", "Table 1: the nine update traces", table1::run),
    table(
        "table2",
        "Table 2: the USM weight configurations",
        table2::run,
    ),
    traced(table(
        "fig3",
        "Fig. 3: access/update distributions, original vs degraded",
        fig3::run,
    )),
    table(
        "fig4",
        "Fig. 4: naive USM, 9 traces x 4 policies",
        fig4::run,
    ),
    table(
        "fig5",
        "Fig. 5: USM under the Table 2 weightings",
        fig5::run,
    ),
    table("fig6", "Fig. 6: outcome-ratio decomposition", fig6::run),
    table("ablation", "UNIT design-choice ablations", ablation::run),
    table("cpus", "success ratio by CPU count", cpus::run),
    table(
        "crossover",
        "success ratio vs offered update utilization",
        crossover::run,
    ),
    table(
        "sensitivity",
        "one-at-a-time sweep of the paper's constants",
        sensitivity::run,
    ),
    traced(table(
        "timeline",
        "cumulative USM, backlog and utilization over time",
        timeline::run,
    )),
    table(
        "variance",
        "seed robustness of the Fig. 4 med-unif cell",
        variance::run,
    ),
    traced(table(
        "cluster",
        "sharded-cluster scaling, 1/2/4/8 shards x 3 routings",
        cluster::run,
    )),
    traced(table(
        "faults",
        "USM vs crash rate under three dispatcher strategies",
        faults::run,
    )),
    table(
        "replication",
        "replication factor x propagation lag x routing",
        replication::run,
    ),
    Experiment {
        name: "report",
        about: "every table experiment, once: all of results/ plus REPORT.md",
        flags: TABLE_FLAGS,
        scale: 4,
        out: Some("results"),
        run: Run::Custom(report),
    },
    Experiment {
        name: "chaos",
        about: "seeded fault-plan sweep against the invariant oracles",
        flags: "[--plans N] [--seed S] [--scale N | --full] [--shards N] \
                [--fixture-broken] [--out DIR | --no-out]",
        scale: 24,
        out: Some("results/chaos"),
        run: Run::Custom(chaos::run),
    },
    Experiment {
        name: "tracegen",
        about: "generate, describe, save or inspect a Table 1 workload",
        flags: "[--scale N | --full] [--volume low|med|high] [--dist unif|pos|neg] \
                [--out FILE] [--inspect FILE]",
        scale: 4,
        out: None,
        run: Run::Custom(tracegen::run),
    },
];

impl Experiment {
    /// The default artifact, as `list` shows it.
    fn artifact(&self) -> String {
        match (self.run, self.out) {
            (Run::Table(_), Some(dir)) => format!("{dir}/{}.csv", self.name),
            (_, Some(out)) => out.to_string(),
            (_, None) => "-".to_string(),
        }
    }
}

/// Print one table and write its artifacts.
fn emit(shared: &Shared, table: &Table) {
    print!("{}", table.text());
    if let Some(path) = shared.write_table(table) {
        println!("\nwrote {path} (and .txt)");
    }
}

/// Run every table experiment of the registry once; write each one's
/// artifacts and all of them as markdown into `REPORT.md` (printed instead
/// under `--no-out`).
fn report(shared: Shared, fl: Flags) {
    let shared = shared.parse_all(fl);
    let plan = unit_bench::default_workload_plan(shared.scale);
    let mut md = format!(
        "# UNIT reproduction report\n\n\
         Workload scale 1/{} ({} queries over {:.0} simulated seconds). All runs\n\
         deterministic; regenerate with `cargo run --release -p unit-bench --\n\
         report --scale {}`.\n",
        shared.scale,
        plan.query_cfg.n_queries,
        plan.query_cfg.horizon.as_secs_f64(),
        shared.scale
    );
    for exp in &REGISTRY {
        if let Run::Table(run) = exp.run {
            let table = run(&shared);
            if let Some(path) = shared.write_table(&table) {
                println!("wrote {path} (and .txt)");
            }
            md.push('\n');
            md.push_str(&table.markdown());
        }
    }
    match &shared.out {
        Some(dir) => {
            if let Some(path) = write_file(dir, "REPORT.md", &md) {
                println!("wrote {path}");
            }
        }
        None => print!("{md}"),
    }
}

fn list() -> String {
    REGISTRY
        .iter()
        .map(|e| format!("{:<12} {:<24} {}\n", e.name, e.artifact(), e.about))
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "list" {
        print!("{}", list());
        return;
    }
    let Some(exp) = REGISTRY.iter().find(|e| e.name == name) else {
        eprintln!(
            "unknown experiment: {name:?}\nusage: unit-bench <experiment> [flags] | unit-bench list\n\n{}",
            list()
        );
        std::process::exit(2);
    };
    let usage = format!("usage: unit-bench {} {}", exp.name, exp.flags);
    let fl = Flags::from_args(args.collect(), &usage);
    let shared = Shared::new(exp.scale, exp.out);
    match exp.run {
        Run::Table(run) => {
            let shared = shared.parse_all(fl);
            emit(&shared, &run(&shared));
        }
        Run::Custom(run) => run(shared, fl),
    }
}
