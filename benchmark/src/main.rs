//! The repo's reference benchmark. See `README.md` beside this crate.
//!
//! ```text
//! unit-benchmark run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! unit-benchmark repeat --runs <n> [--seed <u64>] [--seconds <n>]
//! ```
//!
//! `run` generates the workload from the seed, drives the program through its
//! public functions only, checks what comes back, prints a readable table on
//! stderr and, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod cluster;
mod gen;
mod metrics;
mod paper;
mod probe;
mod repeat;
mod serve;
mod sim;
mod stats;
mod trace;

use metrics::{Contract, MetricSpec, RunOutput};
use std::path::PathBuf;
use std::process::ExitCode;

/// Arguments of one `run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the timed regions of the run last, in total.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one (end-to-end).
    pub trace: bool,
}

/// Run repetitions until their timed regions add up to `seconds` (always at
/// least one). `rep` gets the repetition's index.
pub fn measure_for<T>(
    seconds: f64,
    wall_s: impl Fn(&T) -> f64,
    mut rep: impl FnMut(u64) -> T,
) -> Vec<T> {
    let mut reps = Vec::new();
    let mut measured = 0.0;
    while measured < seconds {
        let r = rep(reps.len() as u64);
        measured += wall_s(&r);
        reps.push(r);
    }
    reps
}

/// Write the traced run's span file: `out/trace-<workload>.jsonl` beside
/// this crate's manifest.
pub fn write_trace(sink: &trace::TraceSink, workload: &str, out: &mut RunOutput) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    match sink.write_file(&path, workload) {
        Ok(()) => eprintln!("  {} spans in {}", sink.summary().spans, path.display()),
        Err(e) => out
            .violations
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// Run one workload by name.
pub fn run_workload(args: &RunArgs) -> Result<RunOutput, String> {
    Ok(match args.workload.as_str() {
        "serve-flatout" => serve::flatout(args),
        "serve-steady" => serve::steady(args),
        "serve-overload" => serve::overload(args),
        "sim-paper" => sim::paper(args),
        "sim-flood" => sim::flood(args),
        "cluster-mix" => cluster::mix(args),
        other => return Err(format!("unknown workload {other}")),
    })
}

const USAGE: &str = "usage:
  unit-benchmark run --workload <name> --seed <u64> --seconds <n> --trace <0|1>
  unit-benchmark repeat --runs <n> [--seed <u64>] [--seconds <n>]";

/// `--flag value` pairs after the subcommand.
pub(crate) fn flag_pairs(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    if args.len() % 2 != 0 {
        return Err(format!("flag {} has no value", args[args.len() - 1]));
    }
    Ok(args
        .chunks(2)
        .map(|pair| (pair[0].as_str(), pair[1].as_str()))
        .collect())
}

pub(crate) fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn parse_run(args: &[String], contract: &Contract) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: contract.run_seconds as f64,
        trace: false,
    };
    for (flag, value) in flag_pairs(args)? {
        match flag {
            "--workload" => run.workload = value.to_string(),
            "--seed" => run.seed = parse(flag, value)?,
            "--seconds" => run.seconds = parse(flag, value)?,
            "--trace" => run.trace = parse::<u8>(flag, value)? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !contract.workloads.iter().any(|w| w.name == run.workload) {
        let names: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
        return Err(format!(
            "--workload must be one of {}; got {:?}",
            names.join(", "),
            run.workload
        ));
    }
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60]; got {}", run.seconds));
    }
    Ok(run)
}

fn print_table(args: &RunArgs, out: &RunOutput, specs: &[MetricSpec]) {
    eprintln!(
        "{} seed {} seconds {} {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    for spec in specs {
        if let Some(v) = out.metrics.get(&spec.name) {
            eprintln!("  {:<40} {:>16.4} {}", spec.name, v, spec.unit);
        }
    }
    for v in &out.violations {
        eprintln!("  CHECK FAILED: {v}");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::load();
    let result = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest, &contract).and_then(|args| {
            let out = run_workload(&args)?;
            let specs = if args.trace {
                &contract.per_layer
            } else {
                &contract.end_to_end
            };
            print_table(&args, &out, specs);
            println!("{}", metrics::result_line(&out, specs, args.trace)?);
            if out.correct() {
                Ok(())
            } else {
                Err(format!(
                    "{} check(s) failed, {} operation(s) lost",
                    out.violations.len(),
                    out.failed
                ))
            }
        }),
        Some((cmd, rest)) if cmd == "repeat" => repeat::main(rest, &contract),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("unit-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
