//! Committed-baseline comparison for the static gates.
//!
//! `results/lint_baseline.json` (from `lint --json`),
//! `results/hotpath_baseline.json` (from `audit-hotpaths --json`), and
//! `results/determinism_baseline.json` (from `audit-determinism
//! --json`) are snapshots the repo commits; CI and local runs fail when
//! the current analysis drifts from them in either direction:
//!
//! - a **new** entry means an invariant regression (or a new annotated
//!   escape that must be reviewed and re-inventoried);
//! - a **stale** entry means the baseline documents something that no
//!   longer fires — the snapshot lies about the code and must be
//!   refreshed.
//!
//! `--refresh-baseline` rewrites the snapshot after review.
//!
//! Entries compare *without* line numbers (roots by name/fn, escapes by
//! file/rules/reason, stops by file/fn/reason), so unrelated edits that
//! shift lines don't churn the baseline.

use crate::items::AuditKind;
use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Result of comparing current output against a committed baseline.
#[derive(Debug, PartialEq, Eq)]
pub enum BaselineStatus {
    /// No baseline file exists under the scanned root (e.g. fixture
    /// trees); nothing to compare.
    Missing,
    /// Baseline and current output agree.
    Clean,
    /// Entry-level differences, human-readable.
    Drift(Vec<String>),
}

/// Baseline path of a gate.
pub fn baseline_path(root: &Path, kind: AuditKind) -> PathBuf {
    root.join(match kind {
        AuditKind::Hot => "results/hotpath_baseline.json",
        AuditKind::Det => "results/determinism_baseline.json",
        AuditKind::Lint => "results/lint_baseline.json",
    })
}

/// Compares two entry multisets; reports stale (baseline-only) and new
/// (current-only) entries under `label`.
fn diff_multiset(label: &str, baseline: &[String], current: &[String], out: &mut Vec<String>) {
    let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
    for b in baseline {
        *counts.entry(b.as_str()).or_insert(0) += 1;
    }
    for c in current {
        *counts.entry(c.as_str()).or_insert(0) -= 1;
    }
    for (entry, n) in counts {
        use std::cmp::Ordering;
        match n.cmp(&0) {
            Ordering::Greater => out.push(format!("stale {label} (no longer fires): {entry}")),
            Ordering::Less => out.push(format!("new {label} (not in baseline): {entry}")),
            Ordering::Equal => {}
        }
    }
}

fn arr<'a>(doc: &'a Json, key: &str) -> Vec<&'a Json> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(|a| a.iter().collect())
        .unwrap_or_default()
}

fn s(v: &Json, key: &str) -> String {
    v.get(key).and_then(Json::as_str).unwrap_or("").to_string()
}

/// Parses a baseline file; `Ok(None)` when the file does not exist.
fn load(path: &Path) -> Result<Option<Json>, String> {
    if !path.is_file() {
        return Ok(None);
    }
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&src)
        .map(Some)
        .map_err(|e| format!("{}: not valid JSON: {e}", path.display()))
}

/// Entry keys: line-insensitive. `roots_key` selects the
/// root-inventory array (`hot_roots` / `det_roots` / `lint_roots`); the
/// rest of the document shape is shared between the passes.
fn graph_audit_keys(
    doc: &Json,
    roots_key: &str,
) -> (Vec<String>, Vec<String>, Vec<String>, Vec<String>) {
    let roots = arr(doc, roots_key)
        .into_iter()
        .map(|r| format!("{} = {} ({})", s(r, "name"), s(r, "fn"), s(r, "file")))
        .collect();
    let escapes = arr(doc, "escapes")
        .into_iter()
        .map(|e| format!("{} [{}] {}", s(e, "file"), s(e, "rules"), s(e, "reason")))
        .collect();
    let stops = arr(doc, "stops")
        .into_iter()
        .map(|st| format!("{} {} ({})", s(st, "file"), s(st, "fn"), s(st, "reason")))
        .collect();
    let findings = arr(doc, "findings")
        .into_iter()
        .map(|f| {
            format!(
                "[{}] {} in {}: {}",
                s(f, "rule"),
                s(f, "file"),
                s(f, "fn"),
                s(f, "message")
            )
        })
        .collect();
    (roots, escapes, stops, findings)
}

/// Compares a gate's current `--json` output against its committed
/// baseline under `root`.
pub fn check_audit_baseline(
    root: &Path,
    kind: AuditKind,
    current_json: &str,
) -> Result<BaselineStatus, String> {
    let Some(base) = load(&baseline_path(root, kind))? else {
        return Ok(BaselineStatus::Missing);
    };
    let cur = json::parse(current_json).map_err(|e| format!("current output: {e}"))?;
    let roots_key = format!("{}_roots", kind.prefix());
    let (br, be, bs, bf) = graph_audit_keys(&base, &roots_key);
    let (cr, ce, cs, cf) = graph_audit_keys(&cur, &roots_key);
    let mut diffs = Vec::new();
    diff_multiset(&format!("{} root", kind.prefix()), &br, &cr, &mut diffs);
    diff_multiset("escape", &be, &ce, &mut diffs);
    diff_multiset("stop", &bs, &cs, &mut diffs);
    diff_multiset("finding", &bf, &cf, &mut diffs);
    if diffs.is_empty() {
        Ok(BaselineStatus::Clean)
    } else {
        Ok(BaselineStatus::Drift(diffs))
    }
}

/// Writes `contents` to `path`, creating parent directories.
pub fn refresh(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_baseline_skips_comparison() {
        let dir = std::env::temp_dir().join("spp-baseline-test-missing");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(
            check_audit_baseline(&dir, AuditKind::Lint, "{}").unwrap(),
            BaselineStatus::Missing
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_and_new_lint_escapes_are_reported() {
        let dir = std::env::temp_dir().join("spp-baseline-test-lint");
        std::fs::create_dir_all(dir.join("results")).unwrap();
        let base = r#"{
  "findings": [],
  "escapes": [{"file": "b.rs", "line": 9, "rules": "l8-relaxed-note", "reason": "tally"}]
}"#;
        std::fs::write(dir.join("results/lint_baseline.json"), base).unwrap();
        let current = base.replace("b.rs", "c.rs");
        let BaselineStatus::Drift(diffs) =
            check_audit_baseline(&dir, AuditKind::Lint, &current).unwrap()
        else {
            panic!("expected drift");
        };
        assert!(diffs.iter().any(|d| d.contains("stale escape")));
        assert!(diffs.iter().any(|d| d.contains("new escape")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn det_baseline_reads_det_roots_key() {
        let dir = std::env::temp_dir().join("spp-baseline-test-det");
        std::fs::create_dir_all(dir.join("results")).unwrap();
        let base = r#"{
  "det_roots": [{"name": "a.root", "fn": "root", "file": "a.rs", "line": 2, "reachable": 1, "max_depth": 0}],
  "findings": [],
  "escapes": [{"file": "p.rs", "line": 140, "rules": "d3-ambient-read", "reason": "scheduling knob"}],
  "stops": []
}"#;
        std::fs::write(dir.join("results/determinism_baseline.json"), base).unwrap();
        let moved = base.replace("\"line\": 140", "\"line\": 155");
        assert_eq!(
            check_audit_baseline(&dir, AuditKind::Det, &moved).unwrap(),
            BaselineStatus::Clean
        );
        let dropped = base.replace(
            r#"{"name": "a.root", "fn": "root", "file": "a.rs", "line": 2, "reachable": 1, "max_depth": 0}"#,
            "",
        );
        let BaselineStatus::Drift(diffs) =
            check_audit_baseline(&dir, AuditKind::Det, &dropped).unwrap()
        else {
            panic!("expected drift");
        };
        assert!(diffs.iter().any(|d| d.contains("stale det root")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hotpath_compare_ignores_line_numbers() {
        let dir = std::env::temp_dir().join("spp-baseline-test-hot");
        std::fs::create_dir_all(dir.join("results")).unwrap();
        let base = r#"{
  "hot_roots": [{"name": "a.root", "fn": "root", "file": "a.rs", "line": 2, "reachable": 1, "max_depth": 0}],
  "findings": [],
  "escapes": [{"file": "a.rs", "line": 5, "rules": "h1-alloc", "reason": "amortized"}],
  "stops": []
}"#;
        std::fs::write(dir.join("results/hotpath_baseline.json"), base).unwrap();
        let moved = base.replace("\"line\": 5", "\"line\": 50");
        assert_eq!(
            check_audit_baseline(&dir, AuditKind::Hot, &moved).unwrap(),
            BaselineStatus::Clean
        );
        let dropped = base.replace(
            r#"{"file": "a.rs", "line": 5, "rules": "h1-alloc", "reason": "amortized"}"#,
            "",
        );
        let BaselineStatus::Drift(diffs) =
            check_audit_baseline(&dir, AuditKind::Hot, &dropped).unwrap()
        else {
            panic!("expected drift");
        };
        assert!(diffs.iter().any(|d| d.contains("stale escape")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
