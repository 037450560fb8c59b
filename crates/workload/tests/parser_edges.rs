//! Trace-parser edge cases: every malformed input must come back as a
//! clean [`TraceParseError`] (or `InvalidData` io error through the file
//! API) with useful position info — never a panic, and never a bad trace
//! that detonates later inside the simulator's panicking constructor.

use std::io;
use unit_workload::prelude::*;
use unit_workload::trace::TraceParseError;

/// A minimal well-formed bundle, as pretty JSON, to mutate from.
fn good_json() -> String {
    let qcfg = QueryTraceConfig {
        n_items: 16,
        n_queries: 8,
        horizon: unit_core::time::SimDuration::from_secs(1_000),
        seed: 3,
        ..QueryTraceConfig::default()
    };
    let ucfg =
        UpdateTraceConfig::table1(UpdateVolume::Low, UpdateDistribution::Uniform).with_total(4);
    TraceBundle::generate(&qcfg, &ucfg).to_json().unwrap()
}

fn parse(s: &str) -> Result<TraceBundle, TraceParseError> {
    TraceBundle::from_json(s)
}

#[test]
fn empty_input_is_a_clean_error_at_line_one() {
    let err = parse("").unwrap_err();
    assert_eq!(err.line, Some(1), "{err}");
    assert_eq!(err.column, Some(1), "{err}");
    assert!(err.to_string().contains("line 1"), "{err}");
}

#[test]
fn whitespace_only_file_is_a_clean_error() {
    // An "empty" trace file in practice: a couple of blank lines.
    let err = parse("\n\n  \n").unwrap_err();
    assert!(err.line.is_some(), "{err}");
}

#[test]
fn trailing_newline_is_accepted() {
    let mut json = good_json();
    json.push('\n');
    let b = parse(&json).expect("trailing newline must not break parsing");
    b.trace.validate().unwrap();
}

#[test]
fn crlf_line_endings_parse_and_locate_correctly() {
    // CRLF input must parse; CRLF input with an error must report the same
    // line number an editor would show.
    let crlf = good_json().replace('\n', "\r\n");
    parse(&crlf).expect("CRLF bundle must parse");

    let bad = "{\r\n  \"name\": \"x\",\r\n  \"trace\": 1,\r\n]\r\n}";
    let err = parse(bad).unwrap_err();
    assert_eq!(err.line, Some(4), "{err}");
}

#[test]
fn empty_file_through_the_file_api_is_invalid_data_not_a_panic() {
    let dir = std::env::temp_dir().join("unit-workload-parser-edges");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.json");
    std::fs::write(&path, "").unwrap();
    let err = TraceBundle::load(&path).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("empty.json"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn duplicate_item_id_is_a_located_parse_error_not_a_panic() {
    // Duplicate an item inside the first query's read set. The JSON stays
    // syntactically valid, so only semantic validation can catch it — and
    // it must point at the offending query, not panic in SimRun::build.
    let json = good_json();
    let items_at = json.find("\"items\": [").expect("pretty items array");
    let open = items_at + "\"items\": [".len();
    let close = open + json[open..].find(']').unwrap();
    let first_item = json[open..close]
        .split(',')
        .next()
        .unwrap()
        .trim()
        .to_string();
    let mut bad = json.clone();
    bad.insert_str(close, &format!(", {first_item}"));

    let err = parse(&bad).unwrap_err();
    assert!(
        err.message.contains("reads item") && err.message.contains("twice"),
        "{err}"
    );
    assert!(err.line.is_some(), "semantic errors should locate: {err}");
    assert!(err.column.is_some(), "{err}");

    // The reported line is the offending query's "id" key, which must sit
    // at or before the mutated read set.
    let (mutation_line, _) = {
        let prefix = &bad.as_bytes()[..close];
        (1 + prefix.iter().filter(|&&b| b == b'\n').count(), 0)
    };
    assert!(err.line.unwrap() <= mutation_line, "{err}");
}

#[test]
fn unsorted_arrivals_are_a_clean_semantic_error() {
    // Swap the arrival times of the first two queries by editing the JSON's
    // first two "arrival" values to be out of order.
    let json = good_json();
    let b: TraceBundle = parse(&json).unwrap();
    let mut trace = b.trace.clone();
    if trace.queries.len() >= 2 {
        let a0 = trace.queries[0].arrival;
        let a1 = trace.queries[1].arrival;
        trace.queries[0].arrival = a0.max(a1) + unit_core::time::SimDuration::from_secs(1);
    }
    let mut tampered = b.clone();
    tampered.trace = trace;
    let bad_json = tampered.to_json().unwrap();
    let err = parse(&bad_json).unwrap_err();
    assert!(err.message.contains("arrives before"), "{err}");
}
