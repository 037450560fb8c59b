//! Metric names, the contract file, and the result line.
//!
//! `BENCHMARK.json` at the repo root is compiled in, so the names a run
//! prints and the names the contract lists cannot drift apart: a workload
//! that sets a name the contract does not know, or leaves an end-to-end name
//! unset, is a bug the runner reports instead of printing a result.

use crate::trace::{Op, TraceSummary};
use serde::Deserialize;
use std::collections::BTreeMap;

const CONTRACT_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    /// Read by the self-test that holds the file to its size limits.
    #[allow(dead_code)]
    pub why: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Allowed worsening as a share of the reference median (end-to-end
    /// metrics only).
    #[serde(default)]
    pub bound: Option<f64>,
}

impl MetricSpec {
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    /// `command` and `paths` are for the benchmark's driver; only the
    /// self-test reads them here.
    #[allow(dead_code)]
    pub command: Vec<String>,
    #[allow(dead_code)]
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    pub fn load() -> Contract {
        serde_json::from_str(CONTRACT_JSON).expect("BENCHMARK.json parses")
    }
}

/// The values one run measured, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one `run` invocation produced.
#[derive(Debug, Default, Clone)]
pub struct RunOutput {
    /// Operations (queries) submitted to the program in the timed regions.
    pub attempted: u64,
    /// Operations the program lost or answered wrongly — never a deadline
    /// miss or a rejection, which are outcomes UNIT prices (see README).
    pub failed: u64,
    /// Every correctness check that did not hold, in words.
    pub violations: Vec<String>,
    pub metrics: Metrics,
}

impl RunOutput {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// The end-to-end metrics every workload reports — the one place their
/// names are written down.
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub usm_per_query: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
}

impl EndToEnd {
    pub fn set(self, out: &mut RunOutput) {
        let m = &mut out.metrics;
        m.set("setup_s", self.setup_s);
        m.set("peak_rss_mb", peak_rss_mb());
        m.set("ops_per_s", self.ops_per_s);
        // Shifted so that total collapse (every query a deadline miss,
        // -0.8 under the benchmark's weights) still reads above 0.
        m.set("usm_plus_one", 1.0 + self.usm_per_query);
        m.set("latency_p50_us", self.latency_p50_us);
        m.set("latency_p90_us", self.latency_p90_us);
    }
}

/// Mean time per policy hook and the tick and signal counts, out of a traced
/// run's summary. Returns the total time spent inside the hooks, in ns.
pub fn set_policy_layers(out: &mut RunOutput, summary: &TraceSummary) -> u64 {
    let mut hooks_ns = 0;
    for (name, op) in [
        ("core.policy.on_query_arrival_ns", Op::PolicyArrival),
        ("core.policy.on_query_outcome_ns", Op::PolicyOutcome),
        ("core.policy.on_tick_ns", Op::PolicyTick),
        ("core.policy.on_version_arrival_ns", Op::PolicyVersion),
        ("core.policy.on_update_commit_ns", Op::PolicyUpdateCommit),
    ] {
        out.metrics.set(name, summary.op(op).mean_ns());
        hooks_ns += summary.op(op).sum_ns;
    }
    out.metrics
        .set("core.policy.ticks", summary.op(Op::PolicyTick).count as f64);
    out.metrics
        .set("core.policy.signals", summary.signals as f64);
    hooks_ns
}

/// Render the result line: every metric of `specs`, in contract order. An
/// end-to-end metric the workload did not set is an error; a per-layer
/// metric it did not set belongs to a layer the workload does not exercise
/// and reads 0.
pub fn result_line(out: &RunOutput, specs: &[MetricSpec], traced: bool) -> Result<String, String> {
    for name in out.metrics.0.keys() {
        if !specs.iter().any(|s| s.name == *name) {
            return Err(format!("metric {name} is not in BENCHMARK.json"));
        }
    }
    let mut fields = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = match out.metrics.get(&spec.name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {} is not finite: {v}", spec.name)),
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", spec.name)),
        };
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    ))
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_well_formed() {
        let c = Contract::load();
        assert_eq!(c.paths, vec!["benchmark".to_string()]);
        assert!((1..=60).contains(&c.run_seconds));
        assert!((2..=8).contains(&c.workloads.len()));
        assert!(c
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for m in &c.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", m.name);
        }
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .chain(c.workloads.iter().map(|w| w.name.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(c.per_layer.len() <= 128 && c.end_to_end.len() <= 16);
        for w in &c.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn result_line_lists_exactly_the_contracted_metrics() {
        let specs = vec![
            MetricSpec {
                name: "a".into(),
                unit: "s".into(),
                better: "lower".into(),
                bound: Some(0.1),
            },
            MetricSpec {
                name: "b".into(),
                unit: "count".into(),
                better: "higher".into(),
                bound: None,
            },
        ];
        let mut out = RunOutput {
            attempted: 10,
            ..RunOutput::default()
        };
        out.metrics.set("a", 1.5);
        assert!(result_line(&out, &specs, false).is_err(), "b is missing");
        let line = result_line(&out, &specs, true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        out.metrics.set("zzz", 1.0);
        assert!(result_line(&out, &specs, true).is_err(), "unknown name");
        assert!(peak_rss_mb() > 0.0);
    }
}
