//! SARIF 2.1.0 emission for GitHub code scanning.
//!
//! One run, one driver (`unit-analyze`), one result per finding; code
//! scanning computes its own fingerprints to track a result across line
//! shifts. Hand-rolled like every other serializer in this crate — xtask
//! has no dependencies.

use crate::json_str;
use crate::rules::Finding;
use std::fmt::Write as _;

/// Rule metadata: (id, short description).
const RULES: &[(&str, &str)] = &[
    (
        "D1",
        "HashMap/HashSet in deterministic crates (iteration-order nondeterminism)",
    ),
    ("D2", "Wall clocks or unseeded entropy in simulation code"),
    ("D3", "Panic-family call in non-test library code"),
    ("D4", "Float equality or simulated-time truncation cast"),
    (
        "D5",
        "Nondeterminism source reachable from report_digest / outcome-log construction",
    ),
    ("D6", "Panic site reachable from the public API"),
    ("P1", "Hot-path surface fn without an O(...) complexity doc"),
    ("P2", "Allocation inside a per-event hook"),
    (
        "A1",
        "Malformed lint-allow annotation (unknown rule id or missing reason)",
    ),
];

/// Render `findings` as a SARIF 2.1.0 log.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",");
    out.push_str("\"version\":\"2.1.0\",\"runs\":[{");
    out.push_str("\"tool\":{\"driver\":{\"name\":\"unit-analyze\",");
    out.push_str("\"informationUri\":\"https://example.invalid/unit/DESIGN.md\",");
    out.push_str("\"rules\":[");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
            json_str(id),
            json_str(desc)
        );
    }
    out.push_str("]}},\"results\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},",
            json_str(f.rule),
            json_str(&format!("{} — fix: {}", f.message, f.hint))
        );
        let _ = write!(
            out,
            "\"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":{},\"uriBaseId\":\"%SRCROOT%\"}},\"region\":{{\"startLine\":{}}}}}}}]",
            json_str(&f.file),
            f.line
        );
        out.push('}');
    }
    out.push_str("]}]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_carries_rule_and_location() {
        let f = Finding {
            file: "crates/sim/src/x.rs".into(),
            line: 7,
            rule: "D5",
            message: "taint \"path\"".into(),
            hint: "h".into(),
            symbol: "sim::f".into(),
            kind: "taint:Instant::now".into(),
        };
        let s = render_sarif(&[f]);
        assert!(s.contains("\"ruleId\":\"D5\""), "{s}");
        assert!(s.contains("\"startLine\":7"), "{s}");
        assert!(s.contains("\"uri\":\"crates/sim/src/x.rs\""), "{s}");
        // The quoted word in the message must be escaped.
        assert!(s.contains("taint \\\"path\\\""), "{s}");
        // All nine rules are declared.
        for (id, _) in RULES {
            assert!(s.contains(&format!("\"id\":\"{id}\"")), "{id} missing");
        }
    }

    #[test]
    fn empty_findings_is_still_valid_sarif_shape() {
        let s = render_sarif(&[]);
        assert!(s.contains("\"results\":[]"), "{s}");
        assert!(s.starts_with("{\"$schema\""), "{s}");
    }
}
