//! Trace assembly and (de)serialization.
//!
//! [`TraceBundle`] pairs a generated query trace with one update trace and
//! the resulting [`Trace`] the simulator consumes, carrying the achieved
//! statistics (utilizations, correlation) so experiments can report what
//! they actually ran on. Bundles serialize to JSON for inspection and reuse.

use crate::cello::{generate_queries, QueryTrace, QueryTraceConfig};
use crate::updates::{generate_updates, UpdateTrace, UpdateTraceConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::path::Path;
use unit_core::time::SimDuration;
use unit_core::types::{SpecError, Trace};

/// A trace-deserialization failure with source-position context.
///
/// The vendored JSON parser reports byte offsets in its messages;
/// [`TraceBundle::from_json`] resolves the offset against the input text so
/// a malformed trace file points at the offending line instead of panicking
/// or surfacing a bare parser string. Shape errors (valid JSON that does not
/// match the [`TraceBundle`] schema) carry no position — `line` is `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// The underlying parser or deserializer message.
    pub message: String,
    /// 1-based line of the error, when the parser reported a byte offset.
    pub line: Option<usize>,
    /// 1-based byte column within that line, when known.
    pub column: Option<usize>,
}

impl TraceParseError {
    /// Wrap a parser message, resolving any `at byte N` suffix the vendored
    /// parser embeds into a line/column pair within `src`.
    fn locate(src: &str, message: String) -> TraceParseError {
        let (line, column) = match byte_offset_in(&message) {
            Some(off) => {
                let (l, c) = line_col(src, off);
                (Some(l), Some(c))
            }
            None => (None, None),
        };
        TraceParseError {
            message,
            line,
            column,
        }
    }

    /// Wrap a semantic (spec-validation) failure, pointing at the `"id"` key
    /// of the offending query or update stream when it can be found in the
    /// source text.
    fn locate_spec(src: &str, err: &SpecError) -> TraceParseError {
        let (line, column) =
            match spec_error_anchor(err).and_then(|(id, q)| locate_spec_id(src, id, q)) {
                Some(off) => {
                    let (l, c) = line_col(src, off);
                    (Some(l), Some(c))
                }
                None => (None, None),
            };
        TraceParseError {
            message: format!("invalid trace: {err}"),
            line,
            column,
        }
    }
}

/// 1-based line and byte-column of byte offset `off` within `src`. Counts
/// `\n` only, so CRLF input resolves to the same line numbers an editor
/// shows (the `\r` lands in the previous line's last column).
fn line_col(src: &str, off: usize) -> (usize, usize) {
    let bytes = src.as_bytes();
    let prefix = bytes.get(..off).unwrap_or(bytes);
    let line = 1 + prefix.iter().filter(|&&b| b == b'\n').count();
    let col = 1 + prefix.iter().rev().take_while(|&&b| b != b'\n').count();
    (line, col)
}

/// The spec id a [`SpecError`] is anchored to: `(raw id, is_query)`.
/// Out-of-range items carry no owning id, so they resolve to `None`.
fn spec_error_anchor(err: &SpecError) -> Option<(u64, bool)> {
    match err {
        SpecError::EmptyReadSet(q)
        | SpecError::DuplicateItem(q, _)
        | SpecError::ZeroExecTime(q)
        | SpecError::ZeroDeadline(q)
        | SpecError::BadFreshnessReq(q, _)
        | SpecError::UnsortedQueries(q) => Some((q.0, true)),
        SpecError::ZeroPeriod(u) | SpecError::ZeroUpdateExec(u) => Some((u.0 as u64, false)),
        SpecError::ItemOutOfRange(..) => None,
    }
}

/// Best-effort byte offset of the `"id"` key belonging to query (or update
/// stream) `id` in the serialized trace. Relies on the `Trace` field order —
/// the `"queries"` array precedes the `"updates"` array — to tell the two
/// id spaces apart; returns `None` rather than guessing when the sections
/// cannot be found.
fn locate_spec_id(src: &str, id: u64, query: bool) -> Option<usize> {
    let queries_at = src.find("\"queries\"")?;
    let updates_at = src.find("\"updates\"")?;
    let (lo, hi) = if query {
        (queries_at, updates_at)
    } else {
        (updates_at, src.len())
    };
    let section = src.get(lo..hi)?;
    let want = id.to_string();
    let mut from = 0;
    while let Some(rel) = section.get(from..)?.find("\"id\"") {
        let key_at = from + rel;
        let rest = section.get(key_at + "\"id\"".len()..)?.trim_start();
        if let Some(rest) = rest.strip_prefix(':') {
            let rest = rest.trim_start();
            let digits: &str = rest
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap_or("");
            if digits == want {
                return Some(lo + key_at);
            }
        }
        from = key_at + "\"id\"".len();
    }
    None
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.column) {
            (Some(l), Some(c)) => {
                write!(
                    f,
                    "trace parse error at line {l}, column {c}: {}",
                    self.message
                )
            }
            _ => write!(f, "trace parse error: {}", self.message),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Extract the byte offset from a vendored-parser message ending in
/// `... at byte N ...`, if present.
fn byte_offset_in(message: &str) -> Option<usize> {
    let tail = message.get(message.rfind("at byte ")? + "at byte ".len()..)?;
    let digits: &str = tail.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// A fully generated workload: queries + updates + derived statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceBundle {
    /// Table 1-style trace name, e.g. "med-unif".
    pub name: String,
    /// The simulator-facing trace.
    pub trace: Trace,
    /// Workload horizon.
    pub horizon: SimDuration,
    /// Normalized per-item query weights used as the reference distribution.
    pub query_weights: Vec<f64>,
    /// Achieved update/query correlation.
    pub achieved_rho: f64,
    /// Offered query-class utilization.
    pub query_utilization: f64,
    /// Offered update-class utilization.
    pub update_utilization: f64,
}

impl TraceBundle {
    /// Combine pre-generated query and update traces.
    pub fn assemble(queries: QueryTrace, updates: UpdateTrace) -> TraceBundle {
        let horizon = queries.config.horizon;
        let trace = Trace {
            n_items: queries.config.n_items,
            queries: queries.queries,
            updates: updates.updates,
        };
        let query_utilization = trace.offered_query_utilization(horizon);
        let update_utilization = trace.offered_update_utilization(horizon);
        TraceBundle {
            name: updates.config.trace_name(),
            trace,
            horizon,
            query_weights: queries.item_weights,
            achieved_rho: updates.achieved_rho,
            query_utilization,
            update_utilization,
        }
    }

    /// Generate a bundle from the two configurations.
    pub fn generate(qcfg: &QueryTraceConfig, ucfg: &UpdateTraceConfig) -> TraceBundle {
        let queries = generate_queries(qcfg);
        let updates = generate_updates(ucfg, &queries.item_weights, qcfg.horizon);
        TraceBundle::assemble(queries, updates)
    }

    /// Combined offered utilization (query + update classes).
    pub fn offered_load(&self) -> f64 {
        self.query_utilization + self.update_utilization
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserialize from JSON. Malformed input yields a [`TraceParseError`]
    /// carrying the 1-based line and column of the first syntax error;
    /// well-formed JSON whose trace violates a spec invariant (duplicate
    /// read-set item, zero deadline, unsorted arrivals, ...) yields one
    /// pointing at the offending spec's `"id"` key. Either way the
    /// simulator's panicking constructor is never reached with bad input.
    pub fn from_json(s: &str) -> Result<TraceBundle, TraceParseError> {
        let bundle: TraceBundle =
            serde_json::from_str(s).map_err(|e| TraceParseError::locate(s, e.to_string()))?;
        if let Err(e) = bundle.trace.validate() {
            return Err(TraceParseError::locate_spec(s, &e));
        }
        Ok(bundle)
    }

    /// Write the bundle to a file as JSON.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = self
            .to_json()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Load a bundle from a JSON file. Parse failures are reported as
    /// [`io::ErrorKind::InvalidData`] with the file path and, for syntax
    /// errors, the line and column of the offending byte.
    pub fn load(path: &Path) -> io::Result<TraceBundle> {
        let s = std::fs::read_to_string(path)?;
        TraceBundle::from_json(&s).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::UpdateDistribution;
    use crate::updates::UpdateVolume;

    fn small_bundle() -> TraceBundle {
        let qcfg = QueryTraceConfig {
            n_items: 64,
            n_queries: 300,
            horizon: SimDuration::from_secs(20_000),
            seed: 11,
            ..QueryTraceConfig::default()
        };
        // 156 updates x ~96s over 20,000s ≈ 75% utilization.
        let ucfg = UpdateTraceConfig::table1(UpdateVolume::Med, UpdateDistribution::Uniform)
            .with_total(156);
        TraceBundle::generate(&qcfg, &ucfg)
    }

    #[test]
    fn bundle_is_valid_and_named() {
        let b = small_bundle();
        assert_eq!(b.name, "med-unif");
        b.trace.validate().expect("bundle trace must validate");
        assert_eq!(b.trace.n_items, 64);
        assert_eq!(b.trace.queries.len(), 300);
    }

    #[test]
    fn utilizations_are_recorded() {
        let b = small_bundle();
        // 300 queries x ~1s over 20,000s ≈ 1.5%; 156 updates x ~96s ≈ 75%.
        assert!(
            (b.query_utilization - 0.015).abs() < 0.005,
            "{}",
            b.query_utilization
        );
        assert!(
            (b.update_utilization - 0.75).abs() < 0.12,
            "{}",
            b.update_utilization
        );
        assert!((b.offered_load() - (b.query_utilization + b.update_utilization)).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_preserves_the_trace() {
        let b = small_bundle();
        let json = b.to_json().unwrap();
        let back = TraceBundle::from_json(&json).unwrap();
        assert_eq!(b.trace, back.trace);
        assert_eq!(b.name, back.name);
        assert_eq!(b.achieved_rho, back.achieved_rho);
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        // The `]` on line 4 is wrong inside an object: error at line 4.
        let bad = "{\n  \"name\": \"x\",\n  \"trace\": 1,\n]\n}";
        let err = TraceBundle::from_json(bad).unwrap_err();
        assert_eq!(err.line, Some(4), "{err}");
        assert_eq!(err.column, Some(1), "{err}");
        let rendered = err.to_string();
        assert!(rendered.contains("line 4"), "{rendered}");
    }

    #[test]
    fn shape_errors_pass_through_without_position() {
        // Valid JSON, wrong shape: no byte offset to resolve.
        let err = TraceBundle::from_json("[1, 2, 3]").unwrap_err();
        assert_eq!(err.line, None);
        assert!(err.to_string().starts_with("trace parse error:"));
    }

    #[test]
    fn load_reports_path_and_line() {
        let dir = std::env::temp_dir().join("unit-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{\n  \"name\": oops\n}").unwrap();
        let err = TraceBundle::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let rendered = err.to_string();
        assert!(rendered.contains("corrupt.json"), "{rendered}");
        assert!(rendered.contains("line 2"), "{rendered}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_round_trip() {
        let b = small_bundle();
        let dir = std::env::temp_dir().join("unit-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        b.save(&path).unwrap();
        let back = TraceBundle::load(&path).unwrap();
        assert_eq!(b.trace, back.trace);
        std::fs::remove_file(&path).ok();
    }
}
