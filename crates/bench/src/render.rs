//! Rendering: an experiment's result as a [`Table`], its three renderers
//! (aligned text, CSV, markdown), and ASCII histograms for the figures.

use std::fmt::Write as _;

/// Rows of a long table shown by the text and markdown renderers (the CSV
/// always carries every row): the per-item and per-sample tables run to
/// thousands of lines nobody reads in a terminal.
const PREVIEW_ROWS: usize = 40;

/// The result of one table experiment, as data: cells are formatted once,
/// at the CSV's precision, and the harness renders the same strings as
/// text (stdout and `<stem>.txt`), CSV (`<stem>.csv`) and markdown
/// (`REPORT.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// File stem of the artifacts.
    pub stem: &'static str,
    /// One-line heading (what was measured, on which workload and scale).
    pub title: String,
    /// Column names, as the CSV spells them.
    pub header: Vec<String>,
    /// One row per measurement; same arity as `header`.
    pub rows: Vec<Vec<String>>,
    /// Free-text commentary rendered under the table: sparklines, summary
    /// lines, the paper's shape to look for. May be empty.
    pub notes: String,
}

impl Table {
    /// The rows the human-readable renderers show, and how many they elide.
    fn preview(&self) -> (&[Vec<String>], usize) {
        let shown = self.rows.len().min(PREVIEW_ROWS);
        (&self.rows[..shown], self.rows.len() - shown)
    }

    /// Title, aligned table, notes — what the harness prints and writes to
    /// `<stem>.txt`.
    pub fn text(&self) -> String {
        let (rows, elided) = self.preview();
        let mut out = format!("{}\n\n{}", self.title, text_table(&self.header, rows));
        if elided > 0 {
            let _ = writeln!(out, "... {elided} more rows in {}.csv", self.stem);
        }
        if !self.notes.is_empty() {
            let _ = write!(out, "\n{}", self.notes);
        }
        out
    }

    /// Every row as CSV — what the harness writes to `<stem>.csv`.
    pub fn csv(&self) -> String {
        csv(&self.header, &self.rows)
    }

    /// A `##` section: markdown table, notes in a fenced block.
    pub fn markdown(&self) -> String {
        let (rows, elided) = self.preview();
        let mut out = format!("## {}\n\n{}", self.title, md_table(&self.header, rows));
        if elided > 0 {
            let _ = writeln!(out, "\n... {elided} more rows in `{}.csv`", self.stem);
        }
        if !self.notes.is_empty() {
            let _ = write!(out, "\n```text\n{}```\n", self.notes);
        }
        out
    }
}

/// Render an aligned text table. `header` and every row must have the same
/// arity.
pub fn text_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                let _ = write!(out, "{:<w$}", cell, w = widths[i]);
            } else {
                let _ = write!(out, "  {:>w$}", cell, w = widths[i]);
            }
        }
        out.push('\n');
    };
    line(header, &mut out);
    let rule: String = widths
        .iter()
        .enumerate()
        .map(|(i, w)| {
            if i == 0 {
                "-".repeat(*w)
            } else {
                format!("  {}", "-".repeat(*w))
            }
        })
        .collect();
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        line(row, &mut out);
    }
    out
}

/// Render rows as CSV (no quoting — harness values are numeric/simple).
pub fn csv(header: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Render rows as a markdown table.
pub fn md_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut out = format!("| {} |\n", header.join(" | "));
    let _ = writeln!(out, "|{}|", vec!["---"; header.len()].join("|"));
    for row in rows {
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Downsample per-item counts into `buckets` buckets (sums within each) for
/// terminal-width histograms.
pub fn bucketize(values: &[u64], buckets: usize) -> Vec<u64> {
    assert!(buckets > 0);
    if values.is_empty() {
        return vec![0; buckets];
    }
    let mut out = vec![0u64; buckets.min(values.len())];
    let n = out.len();
    for (i, &v) in values.iter().enumerate() {
        let b = i * n / values.len();
        out[b] += v;
    }
    out
}

/// Render a compact vertical-bar histogram (one char per bucket, 8 levels).
pub fn spark(values: &[u64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return "▁".repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            let idx = ((v as f64 / max as f64) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// Render an ASCII timeline of a recorded event stream: one sparkline row
/// per event family (admissions, rejections, completions, misses/stale,
/// refresh-period modulations), bucketed over the stream's time span.
/// Cluster streams are flattened first ([`unit_obs::ObsEvent::Shard`]
/// wrappers contribute their inner event).
pub fn render_event_timeline(events: &[unit_obs::ObsEvent], buckets: usize) -> String {
    use unit_core::types::Outcome;
    use unit_obs::ObsEvent;
    assert!(buckets > 0);
    if events.is_empty() {
        return "  (no events recorded)\n".to_string();
    }
    let span_start = events.iter().map(|e| e.time().0).min().unwrap_or(0);
    let span_end = events.iter().map(|e| e.time().0).max().unwrap_or(0);
    let width = (span_end - span_start).max(1);
    let mut rows: Vec<(&str, Vec<u64>)> =
        ["admitted", "rejected", "success", "miss/stale", "modulated"]
            .iter()
            .map(|&name| (name, vec![0u64; buckets]))
            .collect();
    for ev in events {
        let inner = match ev {
            ObsEvent::Shard { event, .. } => event.as_ref(),
            other => other,
        };
        let row = match inner {
            ObsEvent::Admission { decision, .. } => {
                if decision.is_admit() {
                    0
                } else {
                    1
                }
            }
            ObsEvent::DispatcherReject { .. } => 1,
            ObsEvent::QueryOutcome { outcome, .. } => match outcome {
                Outcome::Success => 2,
                Outcome::DeadlineMiss | Outcome::DataStale => 3,
                Outcome::Rejected => 1,
            },
            ObsEvent::TicketMass { .. } => 4,
            _ => continue,
        };
        let b = ((inner.time().0 - span_start) * buckets as u64 / width).min(buckets as u64 - 1);
        rows[row].1[b as usize] += 1;
    }
    let mut out = String::new();
    for (name, counts) in &rows {
        let total: u64 = counts.iter().sum();
        let _ = writeln!(out, "  {name:<10} {} ({total})", spark(counts));
    }
    out
}

/// Format a float with fixed precision, for table cells.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format a signed float (explicit `+`), for USM cells.
pub fn fs(v: f64, digits: usize) -> String {
    format!("{v:+.digits$}")
}

/// Build a `Vec<String>` from string-likes (table-row helper).
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        ::std::vec::Vec::from([$($cell.to_string()),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let header = row!["trace", "IMU", "UNIT"];
        let rows = vec![row!["med-unif", "0.12", "0.85"], row!["hi", "0.0", "1.0"]];
        let t = text_table(&header, &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equally wide.
        assert!(lines
            .iter()
            .all(|l| l.chars().count() == lines[0].chars().count()));
        assert!(lines[0].contains("trace"));
        assert!(lines[2].contains("med-unif"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let header = row!["a", "b"];
        let rows = vec![row!["only-one"]];
        let _ = text_table(&header, &rows);
    }

    #[test]
    fn csv_joins_cells() {
        let out = csv(&row!["a", "b"], &[row!["1", "2"]]);
        assert_eq!(out, "a,b\n1,2\n");
    }

    #[test]
    fn every_renderer_carries_the_same_cells() {
        let t = Table {
            stem: "probe",
            title: "Probe table".to_string(),
            header: row!["trace", "imu", "unit"],
            rows: vec![
                row!["med-unif", "0.3030", "0.8267"],
                row!["hi", "0.0000", "1.0000"],
            ],
            notes: "shape: unit wins\n".to_string(),
        };
        assert_eq!(
            t.csv(),
            "trace,imu,unit\nmed-unif,0.3030,0.8267\nhi,0.0000,1.0000\n"
        );
        let (text, md) = (t.text(), t.markdown());
        for cell in t.header.iter().chain(t.rows.iter().flatten()) {
            assert!(text.contains(cell.as_str()), "text lacks {cell}");
            assert!(md.contains(cell.as_str()), "markdown lacks {cell}");
        }
        assert!(text.starts_with("Probe table\n\ntrace"));
        assert!(text.ends_with("\nshape: unit wins\n"));
        assert!(md.starts_with("## Probe table\n\n| trace | imu | unit |\n|---|---|---|\n"));
        assert!(md.contains("| med-unif | 0.3030 | 0.8267 |\n"));
    }

    #[test]
    fn long_tables_are_previewed_in_text_but_whole_in_csv() {
        let t = Table {
            stem: "long",
            title: "Long".to_string(),
            header: row!["i"],
            rows: (0..PREVIEW_ROWS + 5).map(|i| row![i]).collect(),
            notes: String::new(),
        };
        assert_eq!(t.csv().lines().count(), 1 + PREVIEW_ROWS + 5);
        assert!(t.text().ends_with("... 5 more rows in long.csv\n"));
        assert!(t.markdown().contains("... 5 more rows in `long.csv`"));
    }

    #[test]
    fn bucketize_sums_within_buckets() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(bucketize(&v, 4), vec![3, 7, 11, 15]);
        assert_eq!(bucketize(&v, 8), v.to_vec());
        // More buckets than values degrades to one bucket per value.
        assert_eq!(bucketize(&[5, 6], 10), vec![5, 6]);
        assert_eq!(bucketize(&[], 3), vec![0, 0, 0]);
    }

    #[test]
    fn spark_scales_to_max() {
        let s = spark(&[0, 5, 10]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 3);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[2], '█');
        assert_eq!(spark(&[0, 0]), "▁▁");
    }

    #[test]
    fn event_timeline_buckets_by_family() {
        use unit_core::time::SimTime;
        use unit_core::types::{Outcome, QueryId};
        use unit_obs::ObsEvent;
        let events = vec![
            ObsEvent::QueryOutcome {
                time: SimTime::from_secs(1),
                query: QueryId(0),
                outcome: Outcome::Success,
            },
            ObsEvent::Shard {
                shard: 1,
                seq: 0,
                event: Box::new(ObsEvent::QueryOutcome {
                    time: SimTime::from_secs(9),
                    query: QueryId(1),
                    outcome: Outcome::DeadlineMiss,
                }),
            },
        ];
        let out = render_event_timeline(&events, 8);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(out.contains("success"));
        assert!(out.contains("miss/stale"));
        // One success, one miss — counts rendered per family.
        assert!(lines
            .iter()
            .any(|l| l.contains("success") && l.contains("(1)")));
        assert_eq!(render_event_timeline(&[], 8), "  (no events recorded)\n");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.123456, 3), "0.123");
        assert_eq!(fs(0.5, 2), "+0.50");
        assert_eq!(fs(-0.5, 2), "-0.50");
    }
}
