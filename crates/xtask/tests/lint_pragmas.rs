//! End-to-end tests for `cargo xtask lint` escape handling, driven
//! through the compiled binary against checked-in fixture trees
//! (`--dir` points the walker at a miniature workspace).

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

fn lint(root: &str, json: bool) -> Output {
    let mut args = vec!["lint", "--dir", root];
    if json {
        args.push("--json");
    }
    Command::new(env!("CARGO_BIN_EXE_spp-xtask"))
        .args(args)
        .output()
        .expect("spawn spp-xtask")
}

#[test]
fn well_formed_escapes_suppress_and_are_inventoried() {
    let root = fixture_root("lint_tree_ok");
    let out = lint(&root, false);
    let text = String::from_utf8(out.stdout).unwrap();
    // Trailing prose after the justification, multiple rules in one
    // escape, and the standalone next-line form must all suppress.
    assert!(out.status.success(), "expected clean lint, got:\n{text}");
    assert!(text.contains("0 finding(s), 4 escape(s)"), "{text}");
    assert!(
        text.contains("vip.rs:10: escape [l2-csr-index,l5-prob-clamp] fixture exercising"),
        "{text}"
    );
    assert!(
        text.contains("vip.rs:15: escape [l5-prob-clamp] standalone form"),
        "{text}"
    );
    // The annotated relaxed call is inventoried, not flagged.
    assert!(
        text.contains("vip.rs:19: escape [l8-relaxed-note] fixture: monotonic tally"),
        "{text}"
    );
}

#[test]
fn malformed_escape_is_a_hard_error_and_suppresses_nothing() {
    let root = fixture_root("lint_tree_bad");
    let out = lint(&root, false);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        !out.status.success(),
        "malformed escapes must fail the lint"
    );
    // Both malformed shapes are reported ...
    let malformed = "[lint-annotation] malformed spp-lint annotation";
    assert_eq!(text.matches(malformed).count(), 2, "{text}");
    // ... and neither suppresses: the underlying violations surface too.
    assert!(text.contains("vip.rs:5: [l2-csr-index]"), "{text}");
    assert!(text.contains("vip.rs:9: [l5-prob-clamp]"), "{text}");
}

#[test]
fn stale_escapes_are_findings() {
    let root = fixture_root("lint_tree_bad");
    let out = lint(&root, false);
    let text = String::from_utf8(out.stdout).unwrap();
    // A well-formed escape over a line with no CSR indexing.
    assert!(
        text.contains(
            "vip.rs:14: [lint-annotation] stale escape: `spp-lint: allow(l2-csr-index)` \
             suppresses nothing on this line"
        ),
        "{text}"
    );
    // A relaxed note whose call was rewritten is the same finding.
    assert!(
        text.contains(
            "vip.rs:22: [lint-annotation] stale escape: `spp-lint: allow(l8-relaxed-note)`"
        ),
        "{text}"
    );
}

#[test]
fn l8_fires_on_an_unannotated_relaxed_call() {
    let root = fixture_root("lint_tree_bad");
    let out = lint(&root, true);
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(!out.status.success());
    assert!(json.contains("\"l8-relaxed-note\": 1"), "{json}");
    assert!(json.contains("\"lint-annotation\": 4"), "{json}");
    assert!(json.contains("\"unannotated_escapes\": 7"), "{json}");
    // Neither relaxed site is validly annotated, so the inventory stays
    // empty.
    assert!(json.contains("\"escapes\": []"), "{json}");
}

#[test]
fn json_report_inventories_the_escapes() {
    let root = fixture_root("lint_tree_ok");
    let out = lint(&root, true);
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{json}");
    assert!(json.contains("\"unannotated_escapes\": 0"), "{json}");
    assert!(json.contains("\"files_scanned\": 1"), "{json}");
    assert!(
        json.contains("\"rules\": \"l8-relaxed-note\", \"reason\": \"fixture: monotonic tally\""),
        "{json}"
    );
}
