//! The `unit-bench` entry point, driven the way a user drives it: every
//! registered experiment is reachable, every table experiment runs and
//! yields a well-formed table, and bad command lines exit 2 with usage.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_unit-bench"))
        .args(args)
        .output()
        .expect("spawn unit-bench")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// `(name, default artifact)` per line of `unit-bench list`.
fn registry() -> Vec<(String, String)> {
    let out = bench(&["list"]);
    assert!(out.status.success());
    stdout(&out)
        .lines()
        .map(|line| {
            let mut cols = line.split_whitespace();
            let name = cols.next().expect("name column").to_string();
            (name, cols.next().expect("artifact column").to_string())
        })
        .collect()
}

fn assert_usage_error(args: &[&str]) {
    let out = bench(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: unit-bench"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn list_names_every_experiment_exactly_once() {
    let names: Vec<String> = registry().into_iter().map(|(name, _)| name).collect();
    assert_eq!(names.len(), 18, "{names:?}");
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate entry in {names:?}");
    // Every listed name dispatches to an experiment with a usage of its own.
    for name in &names {
        let out = bench(&[name, "--no-such-flag"]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("usage: unit-bench {name} ")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn every_table_experiment_yields_a_well_formed_table() {
    let tables: Vec<String> = registry()
        .into_iter()
        .filter(|(_, artifact)| artifact.ends_with(".csv"))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(tables.len(), 15, "{tables:?}");
    for name in &tables {
        let out = bench(&[name, "--scale", "64", "--no-out"]);
        assert!(out.status.success(), "{name} failed: {out:?}");
        let text = stdout(&out);
        let lines: Vec<&str> = text.lines().collect();
        // Title, blank, header, rule, rows until the first blank line: the
        // text renderer pads every cell, so a row of the wrong arity (or a
        // ragged one) cannot be as wide as the rule.
        let rule = lines
            .iter()
            .position(|l| !l.is_empty() && l.chars().all(|c| c == '-' || c == ' '))
            .unwrap_or_else(|| panic!("{name}: no table in\n{text}"));
        let width = lines[rule].chars().count();
        assert_eq!(lines[rule - 1].chars().count(), width, "{name}: header");
        let rows: Vec<&&str> = lines[rule + 1..]
            .iter()
            .take_while(|l| !l.is_empty() && !l.starts_with("... "))
            .collect();
        assert!(!rows.is_empty(), "{name}: empty table");
        for row in rows {
            assert_eq!(row.chars().count(), width, "{name}: ragged row {row:?}");
        }
        assert!(!text.contains("wrote "), "{name}: --no-out wrote a file");
    }
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    assert_usage_error(&[]);
    assert_usage_error(&["fig7"]);
    // Speed is measured by the reference benchmark, not by the harness.
    assert_usage_error(&["simspeed"]);
    assert_usage_error(&["serve"]);
    // Unknown flag, including a shared flag this experiment's usage does
    // not name.
    assert_usage_error(&["fig4", "--bogus"]);
    assert_usage_error(&["fig4", "--seed", "1"]);
    assert_usage_error(&["chaos", "--trace-out", "t.jsonl"]);
    assert_usage_error(&["fig4", "--policy", "unit"]);
    // Bad and missing values.
    assert_usage_error(&["fig4", "--scale", "x"]);
    assert_usage_error(&["fig4", "--scale", "0"]);
    assert_usage_error(&["fig4", "--scale"]);
    assert_usage_error(&["fig4", "--out"]);
    assert_usage_error(&["timeline", "--trace-out"]);
    assert_usage_error(&["cluster", "--seed", "s"]);
    // Cluster speed is measured by the reference benchmark; the cluster
    // tables take the table flags only.
    assert_usage_error(&["cluster", "--assert-scaling"]);
    assert_usage_error(&["replication", "--runs", "2"]);
    assert_usage_error(&["faults", "--seed", "1"]);
}

#[test]
fn out_and_trace_out_name_what_gets_written() {
    let dir = std::env::temp_dir().join(format!("unit-registry-test-{}", std::process::id()));
    let dir_s = dir.to_string_lossy().into_owned();
    let trace = dir.join("events.jsonl");
    let out = bench(&[
        "timeline",
        "--scale",
        "64",
        "--out",
        &dir_s,
        "--trace-out",
        &trace.to_string_lossy(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let csv = std::fs::read_to_string(dir.join("timeline.csv")).expect("csv written");
    let width = csv.lines().next().expect("header").split(',').count();
    assert!(csv.lines().count() > 1);
    assert!(csv.lines().all(|l| l.split(',').count() == width));
    // The text artifact is what the run printed.
    let txt = std::fs::read_to_string(dir.join("timeline.txt")).expect("txt written");
    assert!(stdout(&out).contains(&txt));
    let events = std::fs::read_to_string(&trace).expect("trace written");
    assert!(events.lines().all(|l| l.starts_with("{\"kind\":")));
    assert!(events.lines().count() > 100);
    std::fs::remove_dir_all(&dir).ok();
}
