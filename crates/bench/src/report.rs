//! Aligned text tables, CSV output, and provenance-stamped JSON
//! reports for experiment results.

use spp_runtime::pool::WorkerPool;
use spp_telemetry::json::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A simple result table: header row plus data rows, rendered as aligned
/// monospace text (right-aligned data columns, left-aligned first column)
/// and optionally written to CSV under `results/`.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(line, "{:<w$}", c, w = widths[0]);
                } else {
                    let _ = write!(line, "  {:>w$}", c, w = widths[i]);
                }
            }
            line
        };
        let header = fmt_row(&self.headers, &widths);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV to `results/<name>.csv` (creating the
    /// directory), returning the path. Errors are printed, not fatal —
    /// harnesses should keep running without a writable disk.
    pub fn write_csv(&self, name: &str) -> Option<std::path::PathBuf> {
        let dir = Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create results/: {e}");
            return None;
        }
        let path = dir.join(format!("{name}.csv"));
        let mut csv = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            csv,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                csv,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        match std::fs::write(&path, csv) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Schema version stamped into every `BENCH_*.json` header. Bump when
/// the shared header fields change shape.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Provenance-stamped JSON writer for `results/BENCH_*.json`.
///
/// Every harness that emits machine-readable results goes through this
/// helper so all `BENCH_*` files share one header: `schema_version`,
/// the bench name, the git commit the run came from, and the
/// worker-pool budget ([`WorkerPool::global`]). Body fields are
/// [`Json`] values appended in insertion order; harnesses pick each
/// number's precision ([`Json::fixed`]).
#[derive(Clone, Debug)]
pub struct BenchReport {
    name: String,
    fields: Vec<(String, Json)>,
}

impl BenchReport {
    /// A report named `name` (the file becomes
    /// `results/BENCH_<name>.json`), with the provenance header already
    /// stamped.
    pub fn new(name: &str) -> Self {
        let mut r = Self {
            name: name.to_string(),
            fields: Vec::new(),
        };
        r.field("schema_version", BENCH_SCHEMA_VERSION)
            .field("bench", name)
            .field("git_commit", git_commit())
            .field("pool_workers", WorkerPool::global().workers());
        r
    }

    /// Appends a field.
    pub fn field(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Renders the report as a JSON object, one field per line in
    /// insertion order.
    pub fn render(&self) -> String {
        Json::Obj(self.fields.clone()).pretty()
    }

    /// Writes `results/BENCH_<name>.json` (creating the directory),
    /// returning the path. Errors are printed, not fatal — mirrors
    /// [`Table::write_csv`].
    pub fn write(&self) -> Option<PathBuf> {
        let dir = Path::new("results");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create results/: {e}");
            return None;
        }
        let path = dir.join(format!("BENCH_{}.json", self.name));
        match std::fs::write(&path, self.render()) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// The current git commit, or `"unknown"` outside a work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats seconds as a human-friendly duration string.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Geometric mean of a set of positive values (0 if empty).
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("test", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "23".into()]);
        let r = t.render();
        assert!(r.contains("== test =="));
        assert!(r.contains("long-name"));
        // Right-aligned numeric column.
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines.last().unwrap().ends_with("23"));
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn row_length_checked() {
        Table::new("t", &["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.5), "2.50s");
        assert_eq!(fmt_secs(0.0025), "2.50ms");
        assert_eq!(fmt_secs(0.0000025), "2.5us");
    }

    #[test]
    fn bench_report_stamps_header_in_order() {
        let mut r = BenchReport::new("demo");
        r.field("answer", 42u64).field("note", "a \"quoted\"\nline");
        let s = r.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "{");
        assert_eq!(lines[1], "  \"schema_version\": 1,");
        assert_eq!(lines[2], "  \"bench\": \"demo\",");
        assert!(lines[3].starts_with("  \"git_commit\": \""), "{}", lines[3]);
        assert!(lines[4].starts_with("  \"pool_workers\": "), "{}", lines[4]);
        assert_eq!(lines[5], "  \"answer\": 42,");
        // Last field: escaped string, no trailing comma.
        assert_eq!(lines[6], "  \"note\": \"a \\\"quoted\\\"\\nline\"");
        assert_eq!(*lines.last().unwrap(), "}");
    }

    #[test]
    fn bench_report_pool_workers_matches_global() {
        let want = WorkerPool::global().workers();
        let s = BenchReport::new("demo").render();
        let field = format!("\"pool_workers\": {want}");
        assert!(
            s.lines().any(|l| l.trim().trim_end_matches(',') == field),
            "{s}"
        );
    }
}
