//! Committed-baseline comparison for the static gates.
//!
//! `results/lint_baseline.json` (from `lint --json`),
//! `results/hotpath_baseline.json` (from `audit-hotpaths --json`), and
//! `results/determinism_baseline.json` (from `audit-determinism
//! --json`) are snapshots the repo commits. Each gate compares its
//! rendered document with the committed file byte for byte, so any
//! drift fails it: a new or vanished root, escape, stop or finding, and
//! a moved reach count or `files_scanned` alike. The documents carry no
//! line numbers, so moving code never churns them. `--refresh-baseline`
//! rewrites the snapshot after review.

use crate::items::AuditKind;
use std::path::{Path, PathBuf};

/// Result of comparing current output against a committed baseline.
#[derive(Debug, PartialEq, Eq)]
pub enum BaselineStatus {
    /// No baseline file exists under the scanned root (e.g. fixture
    /// trees); nothing to compare.
    Missing,
    /// Baseline and current output agree.
    Clean,
    /// The first differing lines: where, the baseline's (`- `) and the
    /// rendered document's (`+ `).
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

/// Compares a gate's rendered `--json` document with its committed
/// baseline under `root`, byte for byte.
pub fn check_audit_baseline(
    root: &Path,
    kind: AuditKind,
    current_json: &str,
) -> Result<BaselineStatus, String> {
    let path = baseline_path(root, kind);
    if !path.is_file() {
        return Ok(BaselineStatus::Missing);
    }
    let base = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if base == current_json {
        return Ok(BaselineStatus::Clean);
    }
    let (base, cur): (Vec<&str>, Vec<&str>) =
        (base.lines().collect(), current_json.lines().collect());
    let at = base.iter().zip(&cur).take_while(|(b, c)| b == c).count();
    let mut diffs = vec![format!("{} differs from line {}", path.display(), at + 1)];
    diffs.extend(base.get(at).map(|l| format!("- {l}")));
    diffs.extend(cur.get(at).map(|l| format!("+ {l}")));
    Ok(BaselineStatus::Drift(diffs))
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

    /// Writes `base` as the `kind` baseline of a scratch root and
    /// compares `current` with it.
    fn compare(tag: &str, kind: AuditKind, base: &str, current: &str) -> BaselineStatus {
        let dir = std::env::temp_dir().join(format!("spp-baseline-test-{tag}"));
        std::fs::create_dir_all(dir.join("results")).unwrap();
        std::fs::write(baseline_path(&dir, kind), base).unwrap();
        let status = check_audit_baseline(&dir, kind, current).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        status
    }

    #[test]
    fn stale_and_new_lint_escapes_are_reported() {
        let base = "{\n  \"escapes\": [{\"file\": \"b.rs\", \"rules\": \"l8-relaxed-note\"}]\n}\n";
        let diffs = compare("lint", AuditKind::Lint, base, &base.replace("b.rs", "c.rs"));
        let BaselineStatus::Drift(diffs) = diffs else {
            panic!("expected drift");
        };
        assert!(diffs[0].ends_with("differs from line 2"), "{diffs:?}");
        assert!(
            diffs[1].starts_with("- ") && diffs[1].contains("b.rs"),
            "{diffs:?}"
        );
        assert!(
            diffs[2].starts_with("+ ") && diffs[2].contains("c.rs"),
            "{diffs:?}"
        );
    }

    #[test]
    fn det_baseline_reads_det_roots_key() {
        let base =
            "{\n  \"det_roots\": [{\"name\": \"a.root\", \"reachable\": 1}],\n  \"stops\": []\n}\n";
        let clean = compare("det-clean", AuditKind::Det, base, base);
        assert_eq!(clean, BaselineStatus::Clean);
        let dropped = base.replace(r#"{"name": "a.root", "reachable": 1}"#, "");
        let BaselineStatus::Drift(diffs) = compare("det", AuditKind::Det, base, &dropped) else {
            panic!("expected drift");
        };
        assert!(diffs[1].contains("a.root") && diffs[2] == "+   \"det_roots\": [],");
    }

    #[test]
    fn hotpath_compare_is_byte_exact() {
        let base = "{\n  \"reachable_functions\": 4\n}\n";
        for drifted in [
            base.replace('4', "5"),
            base.replace("  ", " "),
            base.replace("}\n", "}"),
        ] {
            let status = compare("hot", AuditKind::Hot, base, &drifted);
            assert!(matches!(status, BaselineStatus::Drift(_)), "{drifted:?}");
        }
    }
}
