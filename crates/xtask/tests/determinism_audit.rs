//! End-to-end tests for `cargo xtask audit-determinism`, driven through
//! the compiled binary against checked-in fixture trees (`--dir` points
//! the walker at a miniature workspace, so the real repository's roots
//! and baseline never leak into the assertions), plus the cross-pass
//! consistency guarantee: from the same root, `audit-determinism` and
//! `audit-hotpaths` resolve identical reachable sets.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use spp_xtask::callgraph::CallGraph;
use spp_xtask::items::AuditKind;
use spp_xtask::{items, scan, walk};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn audit(cmd: &str, dir: &str, extra: &[&str]) -> Output {
    let mut args = vec![cmd, "--dir", dir];
    args.extend_from_slice(extra);
    Command::new(env!("CARGO_BIN_EXE_spp-xtask"))
        .args(args)
        .output()
        .expect("spawn spp-xtask")
}

fn det(dir: &Path, extra: &[&str]) -> Output {
    audit("audit-determinism", dir.to_str().unwrap(), extra)
}

#[test]
fn clean_tree_passes_with_escape_inventoried_and_stop_recorded() {
    let out = det(&fixture_root("det_tree_ok"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "expected clean audit, got:\n{text}");
    // One root; its whole reachable set (step, index_of, gather, render)
    // is attributed to it.
    assert!(
        text.contains("root fixture.step = step (crates/core/src/pipeline.rs:10): 4 reachable"),
        "{text}"
    );
    assert!(text.contains("0 finding(s)"), "{text}");
    // The justified ambient read is inventoried, not flagged.
    assert!(
        text.contains(
            "escape [d3-ambient-read] build stamp recorded beside results, never inside them"
        ),
        "{text}"
    );
    // The trace boundary is recorded; the wall clock inside it is never
    // checked.
    assert!(
        text.contains(
            "stop render (crates/core/src/pipeline.rs): trace emission; timestamps label log \
             lines, not results"
        ),
        "{text}"
    );
}

#[test]
fn seeded_hash_drain_is_caught_two_calls_below_root_across_crates() {
    let out = det(&fixture_root("det_tree_bad"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success(), "seeded violations must fail");
    // The drain lives in crates/util `merge`, reached root ->
    // stage_batch -> merge via a bare-name cross-crate edge.
    assert!(
        text.contains(
            "crates/util/src/lib.rs:12: [d1-unordered-iter] in `merge` (via fixture.ingest)"
        ),
        "{text}"
    );
    assert!(
        text.contains(
            "order-observing iteration over hash collection `table` (reached from det root \
             `fixture.ingest` at depth 2)"
        ),
        "{text}"
    );
}

#[test]
fn seeded_rng_ambient_worker_and_float_order_mutants_are_caught() {
    let out = det(&fixture_root("det_tree_bad"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("[d2-unseeded-rng] in `jitter` (via fixture.flush)"),
        "{text}"
    );
    assert!(
        text.contains("[d3-ambient-read] in `knob` (via fixture.ingest)"),
        "{text}"
    );
    // The worker count leaks into flush's returned value.
    assert!(
        text.contains("[d4-worker-leak] in `width` (via fixture.flush)"),
        "{text}"
    );
    // Hash iteration in a float-accumulating fn escalates to D5, not D1.
    assert!(
        text.contains("[d5-float-order] in `spread` (via fixture.flush)"),
        "{text}"
    );
    assert!(
        text.contains("float accumulation over hash collection `hist`"),
        "{text}"
    );
    // The identical unseeded draw in the never-reached `cold_resample`
    // is silent.
    assert!(!text.contains("cold_resample"), "{text}");
}

#[test]
fn stale_det_escape_is_flagged() {
    let out = det(&fixture_root("det_tree_bad"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("crates/core/src/pipeline.rs:23: [det-annotation]"),
        "{text}"
    );
    assert!(
        text.contains(
            "stale escape: `spp-det: allow(d1-unordered-iter)` suppresses nothing on this line"
        ),
        "{text}"
    );
}

#[test]
fn root_filter_restricts_traversal() {
    let out = det(&fixture_root("det_tree_bad"), &["--root", "fixture.ingest"]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success(), "filtered view still has findings");
    // Only fixture.ingest's region is checked: the drain and env read
    // remain; flush's rng/worker/float hazards disappear.
    assert!(text.contains("[d1-unordered-iter] in `merge`"), "{text}");
    assert!(text.contains("[d3-ambient-read] in `knob`"), "{text}");
    assert!(!text.contains("d2-unseeded-rng"), "{text}");
    assert!(!text.contains("d4-worker-leak"), "{text}");
    assert!(!text.contains("d5-float-order"), "{text}");
    assert!(text.contains("1 root(s)"), "{text}");
}

#[test]
fn unknown_root_lists_declared_names() {
    let out = det(&fixture_root("det_tree_bad"), &["--root", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no det root named `nosuch`"), "{err}");
    assert!(err.contains("fixture.ingest"), "{err}");
    assert!(err.contains("fixture.flush"), "{err}");
}

#[test]
fn json_document_carries_counts_and_counters() {
    let out = det(&fixture_root("det_tree_bad"), &["--json"]);
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success());
    assert!(json.contains("\"det_root_count\": 2"), "{json}");
    for rule in [
        "d1-unordered-iter",
        "d2-unseeded-rng",
        "d3-ambient-read",
        "d4-worker-leak",
        "d5-float-order",
        "det-annotation",
    ] {
        assert!(json.contains(&format!("\"{rule}\": 1")), "{rule}: {json}");
    }
    assert!(json.contains("\"unannotated_escapes\": 6"), "{json}");
    assert!(json.contains("\"files_scanned\": 2"), "{json}");
}

#[test]
fn clean_json_inventories_every_escape() {
    let out = det(&fixture_root("det_tree_ok"), &["--json"]);
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{json}");
    assert!(json.contains("\"det_root_count\": 1"), "{json}");
    assert!(json.contains("\"unannotated_escapes\": 0"), "{json}");
    assert!(json.contains("\"reachable_functions\": 4"), "{json}");
    assert!(
        json.contains("\"reason\": \"build stamp recorded beside results, never inside them\""),
        "{json}"
    );
}

/// Cross-pass consistency at the library level: the hot and det
/// traversals share one call graph, so a fn dual-annotated as both a hot
/// and a det root (with the same boundary declared to both families)
/// must reach exactly the same node set under either kind.
#[test]
fn hot_and_det_passes_resolve_identical_reachable_sets() {
    let root = fixture_root("crossaudit_tree");
    let sources = walk::read_targets(&root).unwrap();
    let parsed: Vec<_> = sources
        .iter()
        .map(|(rel, src)| items::parse_items(&scan::scan_source(rel, src), src))
        .collect();
    let graph = CallGraph::build(&parsed, &Default::default());

    let hot_roots = graph.roots_for(AuditKind::Hot);
    let det_roots = graph.roots_for(AuditKind::Det);
    assert_eq!(hot_roots, det_roots, "dual annotation must yield one root");

    let node_set = |kind: AuditKind, roots: &[usize]| -> BTreeSet<String> {
        graph
            .reach_for(roots, kind)
            .iter()
            .map(|r| graph.nodes[r.node].item.name.clone())
            .collect()
    };
    let hot = node_set(AuditKind::Hot, &hot_roots);
    let det = node_set(AuditKind::Det, &det_roots);
    assert_eq!(hot, det, "reachable sets diverged between audit families");
    let expect: BTreeSet<String> = ["serve", "stage", "finish", "log_result"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(hot, expect);
    assert!(!hot.contains("orphan"), "unreached leaf leaked in");
}

/// The same guarantee end-to-end through the compiled binary: both
/// commands report the same root line and reachable count over the
/// shared fixture tree.
#[test]
fn both_audit_commands_agree_on_the_shared_tree() {
    let dir = fixture_root("crossaudit_tree");
    let hot = audit("audit-hotpaths", dir.to_str().unwrap(), &[]);
    let det = det(&dir, &[]);
    let hot_text = String::from_utf8(hot.stdout).unwrap();
    let det_text = String::from_utf8(det.stdout).unwrap();
    assert!(hot.status.success(), "{hot_text}");
    assert!(det.status.success(), "{det_text}");
    let root_line = "root fixture.serve = serve (crates/core/src/pipeline.rs:11): \
                     4 reachable fn(s), max depth 2";
    assert!(hot_text.contains(root_line), "{hot_text}");
    assert!(det_text.contains(root_line), "{det_text}");
    // Each family records the boundary under its own reason.
    assert!(
        hot_text.contains(
            "stop log_result (crates/core/src/pipeline.rs): report assembly; off the batch path"
        ),
        "{hot_text}"
    );
    assert!(
        det_text.contains("stop log_result (crates/core/src/pipeline.rs): report assembly; log text is outside §9 scope"),
        "{det_text}"
    );
}
