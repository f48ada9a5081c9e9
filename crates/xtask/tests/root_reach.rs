//! A root's reach count is its own: a second root that reaches a shared
//! callee by a shorter path takes nothing from the first root's
//! `reachable` or `max_depth`.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use spp_xtask::auditreport::{summarize, RootSummary};
use spp_xtask::callgraph::CallGraph;
use spp_xtask::items::{parse_items, AuditKind};
use spp_xtask::rules::Report;
use spp_xtask::scan::scan_source;
use spp_xtask::walk::CrateDeps;

/// The two roots' summaries over one file: `a.first` calls `mid`, which
/// calls `shared`; `b.second` runs `second_body`.
fn roots(second_body: &str) -> Vec<RootSummary> {
    let src = format!(
        "// spp-hot(a.first)\nfn first() {{\n    mid();\n}}\nfn mid() {{\n    shared();\n}}\n\
         fn shared() {{}}\n// spp-hot(b.second)\nfn second() {{\n    {second_body}\n}}\n"
    );
    let path = "crates/a/src/lib.rs";
    let files = vec![parse_items(&scan_source(path, &src), &src)];
    let graph = CallGraph::build(&files, &CrateDeps::new());
    let root_nodes = graph.roots_for(AuditKind::Hot);
    let reach = graph.reach_for(&root_nodes, AuditKind::Hot);
    let out = summarize(
        AuditKind::Hot,
        &files,
        &graph,
        &root_nodes,
        &reach,
        1,
        Report::default(),
    );
    out.roots
}

#[test]
fn a_shorter_path_from_another_root_leaves_a_roots_count_unchanged() {
    let alone = roots("");
    let sharing = roots("shared();");
    let count = |rs: &[RootSummary], name: &str| {
        let r = rs.iter().find(|r| r.name == name).unwrap();
        (r.reachable, r.max_depth)
    };
    // first, mid, shared; shared two calls down.
    assert_eq!(count(&alone, "a.first"), (3, 2));
    assert_eq!(count(&sharing, "a.first"), (3, 2));
    assert_eq!(count(&alone, "b.second"), (1, 0));
    assert_eq!(count(&sharing, "b.second"), (2, 1));
}
