//! The call-resolution rule, end to end: `fixtures/resolve_tree` is a
//! three-crate workspace with manifests (`bench` -> `engine` ->
//! `store`) whose one hot root makes one call per case. Every callee
//! the rule must not reach carries a hazard, so reaching it would be a
//! finding; every callee it must reach panics, so reaching it is one.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::Command;

fn audit() -> String {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/resolve_tree");
    let out = Command::new(env!("CARGO_BIN_EXE_spp-xtask"))
        .args(["audit-hotpaths", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn spp-xtask");
    assert!(!out.status.success(), "the two reached panics must fail");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn the_root_reaches_exactly_the_resolved_callees() {
    // step, Store::{row, serve}, Remote::fetch, Busy::serve, load,
    // Stage::{settle, settle_into}.
    let text = audit();
    assert!(
        text.contains("root fixture.resolve = step (crates/engine/src/lib.rs:21): 8 reachable"),
        "{text}"
    );
    assert!(text.contains("2 finding(s)"), "{text}");
}

#[test]
fn method_on_a_local_receiver_skips_crates_outside_the_closure() {
    assert!(!audit().contains("`Table::row`"));
}

#[test]
fn downstream_trait_impl_is_reached_through_dyn() {
    let text = audit();
    assert!(
        text.contains("lib.rs:24: [h2-panic] in `Remote::fetch`"),
        "{text}"
    );
}

#[test]
fn same_crate_method_does_not_shadow_the_dependency() {
    let text = audit();
    assert!(
        text.contains("store/src/lib.rs:22: [h2-panic] in `Store::serve`"),
        "{text}"
    );
}

#[test]
fn bare_call_reaches_the_free_fn_not_an_associated_one() {
    assert!(!audit().contains("`Meta::load`"));
}

#[test]
fn self_call_resolves_to_its_own_impl() {
    assert!(!audit().contains("`Log::settle_into`"));
}

#[test]
fn std_container_method_stays_in_the_calling_crate() {
    assert!(!audit().contains("`Store::capacity`"));
}

#[test]
fn a_call_of_a_parameter_reaches_no_fn_of_its_name() {
    let text = audit();
    assert!(!text.contains("`weigh`"), "{text}");
    assert!(!text.contains("`tally`"), "{text}");
}
