//! End-to-end tests for `cargo xtask validate-trace`, driven through
//! the compiled binary against checked-in fixtures (no dependence on
//! bench-emitted artifacts, which are gitignored).

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spp-xtask"))
        .args(args)
        .output()
        .expect("spawn spp-xtask")
}

fn validate(file: &str, stages: bool) -> Output {
    let path = fixture(file);
    let path = path.to_str().unwrap();
    let mut args = vec!["validate-trace", path];
    if stages {
        args.push("--stages");
    }
    run(&args)
}

fn validate_attrib(file: &str) -> Output {
    let path = fixture(file);
    run(&["validate-trace", path.to_str().unwrap(), "--attrib"])
}

#[test]
fn valid_chrome_trace_passes_with_all_stages() {
    let out = validate("trace_valid.json", true);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("ok"), "stdout: {stdout}");
    assert!(
        stdout.contains("all pipeline stages present"),
        "stdout: {stdout}"
    );
}

#[test]
fn valid_jsonl_stream_passes() {
    let out = validate("trace_valid.jsonl", false);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 events"));
}

#[test]
fn missing_stage_span_fails_only_under_stages_flag() {
    let lenient = validate("trace_missing_stage.json", false);
    assert!(
        lenient.status.success(),
        "schema-valid trace must pass without --stages"
    );
    let strict = validate("trace_missing_stage.json", true);
    assert!(!strict.status.success());
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(
        stderr.contains("missing pipeline stage spans"),
        "stderr: {stderr}"
    );
    // The three present stages are not reported missing.
    for present in ["sample", "slice", "train"] {
        assert!(
            !stderr
                .split("missing pipeline stage spans:")
                .nth(1)
                .unwrap()
                .split(", ")
                .any(|s| s.trim() == present),
            "{present} wrongly reported missing: {stderr}"
        );
    }
}

#[test]
fn schema_violation_is_rejected() {
    let out = validate("trace_invalid.json", false);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing numeric `dur`"), "stderr: {stderr}");
}

#[test]
fn unreadable_file_exits_with_usage_error() {
    let out = validate("no_such_trace.json", false);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn valid_attribution_section_passes_under_attrib_flag() {
    let out = validate_attrib("trace_attrib_valid.json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("2 attribution report(s) valid"),
        "stdout: {stdout}"
    );
}

#[test]
fn missing_attribution_fails_only_under_attrib_flag() {
    // trace_valid.json has no attrib section: fine without the flag,
    // an error with it.
    let lenient = validate("trace_valid.json", false);
    assert!(lenient.status.success());
    let strict = validate_attrib("trace_valid.json");
    assert!(!strict.status.success());
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(
        stderr.contains("missing top-level `attrib`"),
        "stderr: {stderr}"
    );
}

#[test]
fn tier_hits_must_partition_lookups() {
    let out = validate_attrib("trace_attrib_bad_partition.json");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("must partition"), "stderr: {stderr}");
}

#[test]
fn comm_matrix_must_be_square() {
    let out = validate_attrib("trace_attrib_bad_matrix.json");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("must be square"), "stderr: {stderr}");
}

#[test]
fn store_only_attribution_satisfies_attrib_flag() {
    let out = validate_attrib("trace_attrib_store_valid.json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("1 attribution report(s) valid"),
        "stdout: {stdout}"
    );
}

#[test]
fn store_bytes_must_match_faults_times_page_size() {
    let out = validate_attrib("trace_attrib_bad_store.json");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bytes_read 999 != pages_faulted 30"),
        "stderr: {stderr}"
    );
}

#[test]
fn sketch_bucket_counts_must_match_total() {
    // A present-but-inconsistent attrib section fails even WITHOUT the
    // --attrib flag: present sections are always validated.
    let out = validate("trace_attrib_bad_buckets.json", false);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bucket counts sum to 2 but count is 5"),
        "stderr: {stderr}"
    );
}

#[test]
fn comm_total_must_equal_matrix_sum() {
    // The comm report states its bytes twice — `total_bytes` and the
    // window matrices — and the decoder holds them equal.
    let out = validate_attrib("trace_attrib_bad_total.json");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("total_bytes 999 != matrix sum 128"),
        "stderr: {stderr}"
    );
}
