//! The gate documents carry no line numbers: an edit that only moves
//! code (here, a blank line inserted at the top of a scanned file)
//! leaves `--json` byte-identical, so committed baselines never churn
//! on unrelated edits. The text report still points at the new lines.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};
use std::process::Command;

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

fn audit(dir: &Path, json: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spp-xtask"));
    cmd.args(["audit-hotpaths", "--dir", dir.to_str().unwrap()]);
    if json {
        cmd.arg("--json");
    }
    let out = cmd.output().expect("spawn spp-xtask");
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
