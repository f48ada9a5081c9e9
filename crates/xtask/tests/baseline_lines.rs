//! The gate documents carry no line numbers: an edit that only moves
//! code (here, a blank line inserted at the top of a scanned file)
//! leaves `--json` byte-identical, so committed baselines never churn
//! on unrelated edits. The text report still points at the new lines.
//! Every other byte counts: a committed baseline that differs from the
//! rendered document only in a reach count fails the gate.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

fn run(dir: &Path, json: bool) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spp-xtask"));
    cmd.args(["audit-hotpaths", "--dir", dir.to_str().unwrap()]);
    if json {
        cmd.arg("--json");
    }
    cmd.output().expect("spawn spp-xtask")
}

fn audit(dir: &Path, json: bool) -> String {
    let out = run(dir, json);
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn shifting_lines_leaves_the_json_document_byte_identical() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hotpath_tree_ok");
    let dir = std::env::temp_dir().join(format!("spp-baseline-lines-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    copy_tree(&fixture, &dir);
    let before_json = audit(&dir, true);
    let before_text = audit(&dir, false);

    let file = dir.join("crates/core/src/pipeline.rs");
    let src = std::fs::read_to_string(&file).unwrap();
    std::fs::write(&file, format!("\n{src}")).unwrap();

    assert_eq!(audit(&dir, true), before_json);
    let after_text = audit(&dir, false);
    assert!(before_text.contains("pipeline.rs:7)"), "{before_text}");
    assert!(after_text.contains("pipeline.rs:8)"), "{after_text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_baseline_differing_only_in_reach_count_fails_the_gate() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hotpath_tree_ok");
    let dir = std::env::temp_dir().join(format!("spp-baseline-reach-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    copy_tree(&fixture, &dir);
    let doc = audit(&dir, true);
    let baseline = dir.join("results/hotpath_baseline.json");
    std::fs::create_dir_all(baseline.parent().unwrap()).unwrap();
    std::fs::write(&baseline, &doc).unwrap();
    assert!(run(&dir, false).status.success());

    let stale = doc.replace("\"reachable_functions\": 4", "\"reachable_functions\": 5");
    assert_ne!(stale, doc);
    std::fs::write(&baseline, stale).unwrap();
    let out = run(&dir, false);
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(!out.status.success(), "{err}");
    assert!(
        err.contains("- ") && err.contains("\"reachable_functions\": 5"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
