//! Rendering and summarization for the three static gates,
//! `cargo xtask lint`, `audit-hotpaths` and `audit-determinism`.
//!
//! The `--json` document is the committed baseline format
//! (`results/{lint,hotpath,determinism}_baseline.json`): root inventory
//! with reachable-set size and call-graph depth, the escape-site
//! inventory, cold boundaries, findings, and the `unannotated_escapes`
//! counter that benches trend. The passes differ only in what
//! [`AuditKind`] names — the key prefix (`hot_roots` / `det_roots` /
//! `lint_roots`), the rule ids and which stop annotation bounds
//! traversal — so one renderer serves all three, and
//! [`crate::baseline`] compares each document byte for byte. The lint family is scoped by path, not reachability: its
//! root and stop sections are always empty and its escape inventory is
//! the `spp-lint` pragmas plus every annotated `*_relaxed(` call. The
//! document renders through `spp_telemetry::json`.

use crate::callgraph::{CallGraph, Reached};
use crate::items::{AuditKind, FileItems};
use crate::rules::{rule_ids, Report};
use spp_telemetry::json::Json;
use std::collections::BTreeMap;

/// One declared root with its reachability summary.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RootSummary {
    /// Declared root name (`// spp-hot(<name>)` / `// spp-det(<name>)`).
    pub name: String,
    /// Qualified fn name.
    pub func: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based signature line.
    pub line: usize,
    /// Functions attributed to this root by the multi-source BFS
    /// (first-reacher wins, so overlapping regions count once).
    pub reachable: usize,
    /// Deepest call chain attributed to this root.
    pub max_depth: usize,
}

/// One cold boundary (`// spp-hot: stop(..)` / `// spp-det: stop(..)`)
/// hit by traversal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StopSite {
    pub path: String,
    pub func: String,
    pub reason: String,
}

/// Everything the audit produces; rendered to text or JSON.
#[derive(Debug)]
pub struct AuditOutput {
    pub kind: AuditKind,
    pub roots: Vec<RootSummary>,
    pub stops: Vec<StopSite>,
    pub reachable_functions: usize,
    pub report: Report,
    pub files_scanned: usize,
}

/// Summarizes the reachability pass per root. `root_nodes` is the set
/// traversal actually started from (a subset of the declared roots when
/// `--root` filters), so partial views report only what they audited.
pub fn summarize(
    kind: AuditKind,
    files: &[FileItems],
    graph: &CallGraph,
    root_nodes: &[usize],
    reach: &[Reached],
    files_scanned: usize,
    report: Report,
) -> AuditOutput {
    let mut per_root: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for r in reach {
        let e = per_root.entry(r.root.as_str()).or_insert((0, 0));
        e.0 += 1;
        e.1 = e.1.max(r.depth);
    }
    let mut roots = Vec::new();
    for &ri in root_nodes {
        let n = &graph.nodes[ri];
        let name = n.item.root_for(kind).unwrap_or_default().to_string();
        let (reachable, max_depth) = per_root.get(name.as_str()).copied().unwrap_or((0, 0));
        roots.push(RootSummary {
            name,
            func: n.item.qual.clone(),
            path: files[n.file].rel_path.clone(),
            line: n.item.line,
            reachable,
            max_depth,
        });
    }
    roots.sort();
    let mut stops: Vec<StopSite> = reach
        .iter()
        .filter_map(|r| {
            let n = &graph.nodes[r.node];
            n.item.stop_for(kind).map(|reason| StopSite {
                path: files[n.file].rel_path.clone(),
                func: n.item.qual.clone(),
                reason: reason.to_string(),
            })
        })
        .collect();
    stops.sort();
    stops.dedup();
    AuditOutput {
        kind,
        roots,
        stops,
        reachable_functions: reach.len(),
        report,
        files_scanned,
    }
}

/// Human-readable report.
pub fn render_text(out: &AuditOutput) -> String {
    let mut s = String::new();
    for r in &out.roots {
        s.push_str(&format!(
            "root {} = {} ({}:{}): {} reachable fn(s), max depth {}\n",
            r.name, r.func, r.path, r.line, r.reachable, r.max_depth
        ));
    }
    for f in &out.report.findings {
        let ctx = if f.func.is_empty() {
            String::new()
        } else {
            format!(" in `{}` (via {})", f.func, f.root)
        };
        s.push_str(&format!(
            "{}:{}: [{}]{} {}\n",
            f.path, f.line, f.rule, ctx, f.message
        ));
    }
    for e in &out.report.escapes {
        s.push_str(&format!(
            "{}:{}: escape [{}] {}\n",
            e.path, e.line, e.rules, e.reason
        ));
    }
    for st in &out.stops {
        s.push_str(&format!("stop {} ({}): {}\n", st.func, st.path, st.reason));
    }
    s.push_str(&format!(
        "{}: {} root(s), {} reachable fn(s), {} finding(s), \
         {} escape(s), {} stop(s) in {} file(s) scanned\n",
        out.kind.command(),
        out.roots.len(),
        out.reachable_functions,
        out.report.findings.len(),
        out.report.escapes.len(),
        out.stops.len(),
        out.files_scanned
    ));
    s
}

/// Stable machine-readable JSON document (the baseline format). It
/// carries no line numbers, so an edit that only moves code leaves it
/// byte-identical; the text report keeps them.
pub fn render_json(out: &AuditOutput) -> String {
    let prefix = out.kind.prefix();
    let annotation_rule = format!("{prefix}-annotation");
    let mut counts: BTreeMap<&str, usize> = rule_ids(out.kind).map(|r| (r, 0)).collect();
    counts.insert(&annotation_rule, 0);
    for f in &out.report.findings {
        *counts.entry(f.rule.as_str()).or_insert(0) += 1;
    }
    let roots = out.roots.iter().map(|r| {
        Json::obj([
            ("name", r.name.as_str().into()),
            ("fn", r.func.as_str().into()),
            ("file", r.path.as_str().into()),
            ("reachable", r.reachable.into()),
            ("max_depth", r.max_depth.into()),
        ])
    });
    let findings = out.report.findings.iter().map(|f| {
        Json::obj([
            ("rule", f.rule.as_str().into()),
            ("file", f.path.as_str().into()),
            ("fn", f.func.as_str().into()),
            ("root", f.root.as_str().into()),
            ("message", f.message.as_str().into()),
        ])
    });
    let escapes = out.report.escapes.iter().map(|e| {
        Json::obj([
            ("file", e.path.as_str().into()),
            ("rules", e.rules.as_str().into()),
            ("reason", e.reason.as_str().into()),
        ])
    });
    let stops = out.stops.iter().map(|s| {
        Json::obj([
            ("file", s.path.as_str().into()),
            ("fn", s.func.as_str().into()),
            ("reason", s.reason.as_str().into()),
        ])
    });
    let roots_key = format!("{prefix}_roots");
    let root_count_key = format!("{prefix}_root_count");
    Json::obj([
        (roots_key.as_str(), roots.collect()),
        (root_count_key.as_str(), out.roots.len().into()),
        ("reachable_functions", out.reachable_functions.into()),
        ("findings", findings.collect()),
        (
            "counts",
            Json::obj(counts.iter().map(|(r, n)| (*r, Json::from(*n)))),
        ),
        ("escapes", escapes.collect()),
        ("stops", stops.collect()),
        ("unannotated_escapes", out.report.findings.len().into()),
        ("files_scanned", out.files_scanned.into()),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{EscapeSite, Finding};

    fn sample(kind: AuditKind, rule: &str) -> AuditOutput {
        AuditOutput {
            kind,
            roots: vec![RootSummary {
                name: "core.hop_update".to_string(),
                func: "hop_update".to_string(),
                path: "crates/core/src/vip.rs".to_string(),
                line: 7,
                reachable: 3,
                max_depth: 2,
            }],
            stops: vec![StopSite {
                path: "crates/pool/src/lib.rs".to_string(),
                func: "pool_metrics".to_string(),
                reason: "one-time registration".to_string(),
            }],
            reachable_functions: 3,
            report: Report {
                findings: vec![Finding {
                    path: "crates/a/src/lib.rs".to_string(),
                    line: 4,
                    rule: rule.to_string(),
                    func: "deep".to_string(),
                    root: "core.hop_update".to_string(),
                    message: "`.push(` allocates".to_string(),
                }],
                escapes: vec![EscapeSite {
                    path: "crates/b/src/lib.rs".to_string(),
                    line: 9,
                    rules: rule.to_string(),
                    reason: "amortized".to_string(),
                }],
            },
            files_scanned: 5,
        }
    }

    #[test]
    fn text_has_roots_findings_and_summary() {
        let t = render_text(&sample(AuditKind::Hot, "h1-alloc"));
        assert!(t.contains("root core.hop_update = hop_update"));
        assert!(t.contains("crates/a/src/lib.rs:4: [h1-alloc] in `deep` (via core.hop_update)"));
        assert!(t.contains("escape [h1-alloc] amortized"));
        assert!(t.contains("stop pool_metrics"));
        assert!(t.contains("audit-hotpaths: 1 root(s), 3 reachable fn(s), 1 finding(s)"));
        let t = render_text(&sample(AuditKind::Det, "d1-unordered-iter"));
        assert!(t.contains("audit-determinism: 1 root(s), 3 reachable fn(s), 1 finding(s)"));
    }

    #[test]
    fn json_counts_and_counters() {
        let j = render_json(&sample(AuditKind::Hot, "h1-alloc"));
        assert!(j.contains("\"hot_roots\": ["));
        assert!(j.contains("\"hot_root_count\": 1"));
        assert!(j.contains("\"reachable_functions\": 3"));
        assert!(j.contains("\"h1-alloc\": 1"));
        assert!(j.contains("\"h4-float-order\": 0"));
        assert!(j.contains("\"hot-annotation\": 0"));
        assert!(j.contains("\"unannotated_escapes\": 1"));
        assert!(j.contains("\"files_scanned\": 5"));
        assert!(spp_telemetry::json::parse(&j).is_ok());
    }

    #[test]
    fn det_json_uses_det_keys_and_rule_table() {
        let j = render_json(&sample(AuditKind::Det, "d1-unordered-iter"));
        assert!(j.contains("\"det_roots\": ["));
        assert!(j.contains("\"det_root_count\": 1"));
        assert!(j.contains("\"d1-unordered-iter\": 1"));
        assert!(j.contains("\"d5-float-order\": 0"));
        assert!(j.contains("\"det-annotation\": 0"));
        assert!(!j.contains("h1-alloc"));
        assert!(spp_telemetry::json::parse(&j).is_ok());
        let j = render_json(&sample(AuditKind::Lint, "l5-prob-clamp"));
        assert!(j.contains("\"lint_roots\": ["));
        assert!(j.contains("\"l5-prob-clamp\": 1"));
        assert!(j.contains("\"l8-relaxed-note\": 0"));
        assert!(j.contains("\"lint-annotation\": 0"));
    }
}
