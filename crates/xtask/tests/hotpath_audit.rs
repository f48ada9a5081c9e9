//! End-to-end tests for `cargo xtask audit-hotpaths`, driven through
//! the compiled binary against checked-in fixture trees (`--dir` points
//! the walker at a miniature workspace, so the real repository's roots
//! and baseline never leak into the assertions).

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture_root(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

fn audit(dir: &str, extra: &[&str]) -> Output {
    let mut args = vec!["audit-hotpaths", "--dir", dir];
    args.extend_from_slice(extra);
    Command::new(env!("CARGO_BIN_EXE_spp-xtask"))
        .args(args)
        .output()
        .expect("spawn spp-xtask")
}

#[test]
fn clean_tree_passes_with_escapes_inventoried() {
    let out = audit(&fixture_root("hotpath_tree_ok"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "expected clean audit, got:\n{text}");
    // One root; its whole reachable set (step, accumulate, gather_row,
    // render) is attributed to it.
    assert!(
        text.contains("root fixture.step = step (crates/core/src/pipeline.rs:7): 4 reachable"),
        "{text}"
    );
    assert!(text.contains("0 finding(s)"), "{text}");
    // Annotated allocations are inventoried, not flagged.
    assert!(
        text.contains("escape [h1-alloc] output row, sized once per call"),
        "{text}"
    );
    assert!(
        text.contains("escape [h1-alloc] capacity reserved above"),
        "{text}"
    );
    // The cold boundary is recorded but its format! is never checked.
    assert!(
        text.contains("stop render (crates/core/src/pipeline.rs): report assembly"),
        "{text}"
    );
}

#[test]
fn seeded_transitive_unwrap_is_caught_two_calls_below_root() {
    let out = audit(&fixture_root("hotpath_tree_bad"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success(), "seeded violations must fail");
    // The unwrap lives in `head`, reached root -> stage_batch -> head.
    assert!(
        text.contains("crates/core/src/pipeline.rs:22: [h2-panic] in `head` (via fixture.ingest)"),
        "{text}"
    );
    assert!(
        text.contains(
            "`.unwrap()` can panic on a hot path (reached from root `fixture.ingest` at depth 2)"
        ),
        "{text}"
    );
}

#[test]
fn seeded_unannotated_push_is_caught_across_crates() {
    let out = audit(&fixture_root("hotpath_tree_bad"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    // The push lives in crates/util, reached from the root in
    // crates/core via a bare-name cross-crate edge.
    assert!(
        text.contains("crates/util/src/lib.rs:8: [h1-alloc] in `grow` (via fixture.ingest)"),
        "{text}"
    );
    assert!(
        text.contains(
            "`.push(` allocates on a hot path (reached from root `fixture.ingest` at depth 2)"
        ),
        "{text}"
    );
    // Buffer growth is an allocation too.
    let resize = "lib.rs:9: [h1-alloc] in `grow` (via fixture.ingest) `.resize(` allocates";
    assert!(text.contains(resize), "{text}");
    // The identical push in the never-reached `cold_rebuild` is silent.
    assert!(!text.contains("cold_rebuild"), "{text}");
}

#[test]
fn stale_escape_and_blocking_leaf_are_flagged() {
    let out = audit(&fixture_root("hotpath_tree_bad"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    // The allow(h1-alloc) on a non-allocating line is itself a finding.
    assert!(
        text.contains("crates/core/src/pipeline.rs:20: [hot-annotation]"),
        "{text}"
    );
    assert!(text.contains("stale escape"), "{text}");
    // The second root's lock().unwrap() trips H3 and H2 on one line.
    assert!(
        text.contains(
            "crates/core/src/pipeline.rs:32: [h3-lock] in `drain_len` (via fixture.flush)"
        ),
        "{text}"
    );
    assert!(
        text.contains(
            "crates/core/src/pipeline.rs:32: [h2-panic] in `drain_len` (via fixture.flush)"
        ),
        "{text}"
    );
}

#[test]
fn root_filter_restricts_traversal() {
    let out = audit(
        &fixture_root("hotpath_tree_bad"),
        &["--root", "fixture.ingest"],
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success(), "filtered view still has findings");
    // Only fixture.ingest's region is checked: the unwrap in `head`
    // remains, the lock under fixture.flush disappears.
    assert!(text.contains("[h2-panic] in `head`"), "{text}");
    assert!(!text.contains("h3-lock"), "{text}");
    assert!(!text.contains("drain_len"), "{text}");
    assert!(text.contains("1 root(s)"), "{text}");
}

#[test]
fn unknown_root_lists_declared_names() {
    let out = audit(&fixture_root("hotpath_tree_bad"), &["--root", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no hot root named `nosuch`"), "{err}");
    assert!(err.contains("fixture.ingest"), "{err}");
    assert!(err.contains("fixture.flush"), "{err}");
}

#[test]
fn json_document_carries_counts_and_counters() {
    let out = audit(&fixture_root("hotpath_tree_bad"), &["--json"]);
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success());
    assert!(json.contains("\"hot_root_count\": 2"), "{json}");
    assert!(json.contains("\"h1-alloc\": 2"), "{json}");
    assert!(json.contains("\"h2-panic\": 2"), "{json}");
    assert!(json.contains("\"h3-lock\": 1"), "{json}");
    assert!(json.contains("\"h4-float-order\": 0"), "{json}");
    assert!(json.contains("\"hot-annotation\": 1"), "{json}");
    // unannotated_escapes trends the full finding count (ISSUE 6).
    assert!(json.contains("\"unannotated_escapes\": 6"), "{json}");
}

#[test]
fn clean_json_has_zero_unannotated_escapes() {
    let out = audit(&fixture_root("hotpath_tree_ok"), &["--json"]);
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{json}");
    assert!(json.contains("\"hot_root_count\": 1"), "{json}");
    assert!(json.contains("\"unannotated_escapes\": 0"), "{json}");
    assert!(json.contains("\"reachable_functions\": 4"), "{json}");
}

#[test]
fn array_typed_and_turbofish_callees_are_audited() {
    let out = audit(&fixture_root("hotpath_tree_blind"), &[]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success(), "seeded violations must fail");
    assert!(
        text.contains("root fixture.lanes = lanes (crates/core/src/lanes.rs:8): 3 reachable"),
        "{text}"
    );
    // `widen(x: [f32; 4])` is an item despite the `;` in its signature.
    assert!(
        text.contains("crates/core/src/lanes.rs:15: [h1-alloc] in `widen` (via fixture.lanes)"),
        "{text}"
    );
    // `pick::<4>(..)` is an edge to `pick`.
    assert!(
        text.contains("crates/core/src/lanes.rs:20: [h2-panic] in `pick` (via fixture.lanes)"),
        "{text}"
    );
}
