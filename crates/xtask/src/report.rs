//! Text and JSON rendering of lint findings.
//!
//! JSON is hand-rolled (the offline workspace carries no serde); the
//! shape is stable and consumed by `results/lint_baseline.json` diffing
//! in CI:
//!
//! ```json
//! {
//!   "findings": [{"rule": "...", "file": "...", "line": 1, "message": "..."}],
//!   "counts": {"l1-no-panic": 0, ...},
//!   "relaxed_sites": [{"file": "...", "line": 1, "reason": "..."}],
//!   "total": 0,
//!   "files_scanned": 42
//! }
//! ```
//!
//! `relaxed_sites` is the L8 inventory: every annotated `*_relaxed(`
//! call site with its justification, so the workspace's entire
//! relaxed-ordering surface is reviewable from one document.

use crate::rules::{Finding, RelaxedSite, RULE_IDS};
use std::collections::BTreeMap;

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as human-readable `file:line: [rule] message` lines
/// plus the relaxed-site inventory and a summary.
pub fn render_text(findings: &[Finding], files_scanned: usize, relaxed: &[RelaxedSite]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    for s in relaxed {
        out.push_str(&format!("{}:{}: relaxed({})\n", s.path, s.line, s.reason));
    }
    out.push_str(&format!(
        "spp-lint: {} finding(s), {} annotated relaxed site(s) in {} file(s) scanned\n",
        findings.len(),
        relaxed.len(),
        files_scanned
    ));
    out
}

/// Renders findings as the stable machine-readable JSON document.
pub fn render_json(findings: &[Finding], files_scanned: usize, relaxed: &[RelaxedSite]) -> String {
    let mut counts: BTreeMap<&str, usize> = RULE_IDS.iter().map(|&r| (r, 0)).collect();
    for f in findings {
        *counts.entry(f.rule.as_str()).or_insert(0) += 1;
    }
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(&f.rule),
                json_escape(&f.path),
                f.line,
                json_escape(&f.message)
            )
        })
        .collect();
    let count_items: Vec<String> = counts
        .iter()
        .map(|(r, n)| format!("    \"{}\": {}", json_escape(r), n))
        .collect();
    let relaxed_items: Vec<String> = relaxed
        .iter()
        .map(|s| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                json_escape(&s.path),
                s.line,
                json_escape(&s.reason)
            )
        })
        .collect();
    format!(
        "{{\n  \"findings\": [\n{}\n  ],\n  \"counts\": {{\n{}\n  }},\n  \"relaxed_sites\": [\n{}\n  ],\n  \"total\": {},\n  \"files_scanned\": {}\n}}\n",
        items.join(",\n"),
        count_items.join(",\n"),
        relaxed_items.join(",\n"),
        findings.len(),
        files_scanned
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            path: "crates/core/src/vip.rs".to_string(),
            line: 7,
            rule: "l5-prob-clamp".to_string(),
            message: "needs \"clamp01\"".to_string(),
        }]
    }

    fn sample_relaxed() -> Vec<RelaxedSite> {
        vec![RelaxedSite {
            path: "crates/serve/src/overlay.rs".to_string(),
            line: 125,
            reason: "tally; exact via RMW".to_string(),
        }]
    }

    #[test]
    fn text_contains_location_and_summary() {
        let t = render_text(&sample(), 3, &sample_relaxed());
        assert!(t.contains("crates/core/src/vip.rs:7: [l5-prob-clamp]"));
        assert!(t.contains("crates/serve/src/overlay.rs:125: relaxed(tally; exact via RMW)"));
        assert!(t.contains("1 finding(s), 1 annotated relaxed site(s) in 3 file(s)"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let j = render_json(&sample(), 3, &sample_relaxed());
        assert!(j.contains("\\\"clamp01\\\""));
        assert!(j.contains("\"l5-prob-clamp\": 1"));
        assert!(j.contains("\"l1-no-panic\": 0"));
        assert!(j.contains("\"l7-raw-atomics\": 0"));
        assert!(j.contains("\"l8-relaxed-note\": 0"));
        assert!(j.contains("\"reason\": \"tally; exact via RMW\""));
        assert!(j.contains("\"total\": 1"));
        assert!(j.contains("\"files_scanned\": 3"));
    }

    #[test]
    fn empty_findings_render_cleanly() {
        let j = render_json(&[], 0, &[]);
        assert!(j.contains("\"total\": 0"));
    }
}
