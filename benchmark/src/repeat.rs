//! `repeat`: run every workload several times and judge how steady the
//! end-to-end metrics are, by the same rule the benchmark is accepted under.
//!
//! Each run is a child process of this same binary (so `peak_rss_mb` is one
//! run's own), with seed `--seed + run index`; odd-numbered runs go through
//! the workloads in reverse order so that neighbours do not always warm the
//! machine the same way. Per workload and metric the median, the quartiles
//! (Python's `statistics.quantiles(n=4)`), min and max are printed. The
//! command fails if a metric's interquartile distance exceeds its bound as a
//! share of the median (`setup_s` excepted, as in the acceptance rule), or —
//! with `--sets 2` — if the second set's median is worse than the first's by
//! more than the bound.

use crate::metrics::{Contract, MetricSpec};
use crate::stats::{median, quartiles_exclusive, relative_spread};
use std::collections::BTreeMap;
use std::process::Command;

struct Args {
    runs: usize,
    sets: usize,
    seed: u64,
    seconds: u64,
    only: Option<String>,
}

/// Pull `name`'s value out of a result line this binary printed.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !line.contains("\"correct\": true") {
        return Err(format!("{workload} seed {seed} is not correct: {line}"));
    }
    Ok(line.to_string())
}

/// Values per (workload, metric) of one set of runs.
type SetValues = BTreeMap<(String, String), Vec<f64>>;

fn run_set(args: &Args, set: usize, contract: &Contract) -> Result<SetValues, String> {
    let mut workloads: Vec<&str> = contract
        .workloads
        .iter()
        .map(|w| w.name.as_str())
        .filter(|w| args.only.as_deref().map_or(true, |o| o == *w))
        .collect();
    if workloads.is_empty() {
        return Err(format!("no workload named {:?}", args.only));
    }
    let mut values = SetValues::new();
    for run in 0..args.runs {
        for workload in &workloads {
            let seed = args.seed + run as u64;
            let line = run_child(workload, seed, args.seconds)?;
            eprintln!("set {set} run {run} {workload} seed {seed} done");
            for m in &contract.end_to_end {
                let v = metric_value(&line, &m.name)
                    .ok_or_else(|| format!("{workload}: no {} in {line}", m.name))?;
                values
                    .entry((workload.to_string(), m.name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        workloads.reverse();
    }
    Ok(values)
}

/// By how much of `reference` the value `new` is worse, in `spec`'s direction.
fn worsening(spec: &MetricSpec, reference: f64, new: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    let delta = if spec.higher_is_better() {
        reference - new
    } else {
        new - reference
    };
    delta / reference.abs()
}

pub fn main(argv: &[String], contract: &Contract) -> Result<(), String> {
    let mut args = Args {
        runs: 5,
        sets: 1,
        seed: 1,
        seconds: contract.run_seconds,
        only: None,
    };
    for (flag, value) in crate::flag_pairs(argv)? {
        match flag {
            "--runs" => args.runs = crate::parse(flag, value)?,
            "--sets" => args.sets = crate::parse(flag, value)?,
            "--seed" => args.seed = crate::parse(flag, value)?,
            "--seconds" => args.seconds = crate::parse(flag, value)?,
            "--workload" => args.only = Some(value.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.runs < 2 || args.sets < 1 {
        return Err("--runs must be at least 2 and --sets at least 1".to_string());
    }

    let sets: Vec<SetValues> = (0..args.sets)
        .map(|s| run_set(&args, s, contract))
        .collect::<Result<_, _>>()?;

    let mut failures = Vec::new();
    println!(
        "{:<15} {:<16} {:>3} {:>13} {:>13} {:>13} {:>13} {:>13} {:>7} {:>6}",
        "workload", "metric", "set", "median", "q1", "q3", "min", "max", "spread", "bound"
    );
    for w in &contract.workloads {
        for m in &contract.end_to_end {
            let key = (w.name.clone(), m.name.clone());
            let bound = m.bound.unwrap_or(0.0);
            let mut first_median = None;
            for (s, set) in sets.iter().enumerate() {
                let Some(v) = set.get(&key) else { continue };
                let med = median(v);
                let (q1, q3) = quartiles_exclusive(v);
                let spread = relative_spread(v);
                let min = v.iter().copied().fold(f64::INFINITY, f64::min);
                let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                println!(
                    "{:<15} {:<16} {s:>3} {med:>13.4} {q1:>13.4} {q3:>13.4} {min:>13.4} {max:>13.4} {spread:>7.4} {bound:>6.3}",
                    w.name, m.name
                );
                if m.name != "setup_s" && spread > bound {
                    failures.push(format!(
                        "{} {} set {s}: spread {spread:.4} exceeds bound {bound}",
                        w.name, m.name
                    ));
                }
                match first_median {
                    None => first_median = Some(med),
                    Some(reference) => {
                        let worse = worsening(m, reference, med);
                        if worse > bound {
                            failures.push(format!(
                                "{} {} set {s}: median {med:.4} is {worse:.4} worse than set 0's {reference:.4} (bound {bound})",
                                w.name, m.name
                            ));
                        }
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("unsteady metrics:\n  {}", failures.join("\n  ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"ab\": {\"value\": 20, \"unit\": \"1/s\"}}}";
        assert_eq!(metric_value(line, "a"), Some(1.5));
        assert_eq!(metric_value(line, "ab"), Some(20.0));
        assert_eq!(metric_value(line, "b"), None);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let spec = |better: &str| MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            better: better.into(),
            bound: Some(0.1),
        };
        assert!((worsening(&spec("lower"), 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&spec("lower"), 10.0, 8.0) + 0.2).abs() < 1e-12);
        assert!((worsening(&spec("higher"), 10.0, 8.0) - 0.2).abs() < 1e-12);
        assert_eq!(worsening(&spec("higher"), 0.0, 8.0), 0.0);
    }
}
