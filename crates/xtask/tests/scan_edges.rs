//! Edge-case tests for the lexical source model ([`spp_xtask::scan`])
//! and its interaction with the item parser ([`spp_xtask::items`]):
//! constructs that a token-level cleaner is most likely to get wrong —
//! raw strings carrying fake annotations, block comments hiding fn
//! signatures, string literals spanning item boundaries, and
//! `#[cfg(test)]` extents feeding the call graph.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use spp_xtask::callgraph::CallGraph;
use spp_xtask::items::{parse_items, AuditKind};
use spp_xtask::scan::scan_source;

fn names(src: &str) -> Vec<String> {
    let sf = scan_source("crates/a/src/lib.rs", src);
    let items = parse_items(&sf, src);
    items.fns.iter().map(|f| f.name.clone()).collect()
}

#[test]
fn raw_string_with_hashes_does_not_fake_annotations() {
    // A raw string carrying the exact bytes of a hot-root annotation
    // and an fn signature must contribute neither items nor roots.
    let src = "fn real() {\n    let t = r##\"\n// spp-hot(fake.root)\nfn phantom() { x.unwrap(); }\n\"##;\n    let _ = t;\n}\n";
    let sf = scan_source("crates/a/src/lib.rs", src);
    for l in &sf.lines {
        assert!(!l.cleaned.contains("spp-hot"), "{:?}", l.cleaned);
        assert!(!l.cleaned.contains("unwrap"), "{:?}", l.cleaned);
    }
    let items = parse_items(&sf, src);
    assert_eq!(names(src), ["real"]);
    assert!(items.fns[0].root_for(AuditKind::Hot).is_none());
}

#[test]
fn multiline_string_spanning_fn_boundary_keeps_item_extents() {
    // The literal closes in what would otherwise be a new item; the
    // parser must see exactly one fn and no phantom `leak`.
    let src =
        "fn holder() -> &'static str {\n    \"first line\nfn leak() {\n\"\n}\n\nfn after() {}\n";
    assert_eq!(names(src), ["holder", "after"]);
}

#[test]
fn nested_block_comment_hides_fn_signatures_across_lines() {
    let src = "/* outer /* fn inner() { */\nfn still_comment() {}\n*/\nfn live() {}\n";
    assert_eq!(names(src), ["live"]);
}

#[test]
fn block_comment_tail_on_code_line_is_preserved() {
    // Code after a same-line `*/` must survive cleaning.
    let src = "fn a() { /* panic!() */ b(); }\nfn b() {}\n";
    let sf = scan_source("crates/a/src/lib.rs", src);
    assert!(!sf.lines[0].cleaned.contains("panic"));
    assert!(sf.lines[0].cleaned.contains("b();"));
    let items = parse_items(&sf, src);
    assert_eq!(items.fns[0].calls.len(), 1);
    assert_eq!(items.fns[0].calls[0].callee, "b");
}

#[test]
fn cfg_test_fns_never_enter_the_call_graph() {
    // `helper` is called from both a live fn and a test fn; only the
    // live edge exists, and the test fn itself is no graph node.
    let src = "// spp-hot(a.root)\nfn root() {\n    helper();\n}\nfn helper() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn exercises() {\n        super::helper();\n        Vec::<u32>::new().push(1);\n    }\n}\n";
    let sf = scan_source("crates/a/src/lib.rs", src);
    let items = parse_items(&sf, src);
    assert!(items.fns.iter().any(|f| f.name == "exercises" && f.in_test));
    let files = vec![items];
    let graph = CallGraph::build(&files, &Default::default());
    assert!(graph.nodes.iter().all(|n| n.item.name != "exercises"));
    let reach = graph.reach(&graph.roots());
    assert_eq!(reach.len(), 2, "root + helper only");
}

#[test]
fn char_literal_quote_does_not_open_a_string() {
    // A '"' char literal must not swallow the rest of the file as a
    // string — the unwrap on the next line has to stay visible.
    let src = "fn a() {\n    let q = '\"';\n    let _ = q;\n}\nfn b(x: Option<u32>) {\n    x.unwrap();\n}\n";
    let sf = scan_source("crates/a/src/lib.rs", src);
    assert!(
        sf.lines[5].cleaned.contains(".unwrap("),
        "{:?}",
        sf.lines[5].cleaned
    );
    assert_eq!(names(src), ["a", "b"]);
}

#[test]
fn standalone_pragma_attaches_to_the_immediate_next_line_only() {
    // The documented sharp edge: a standalone pragma does NOT skip
    // over other comment lines, so stacking two standalone pragmas
    // leaves the second line annotated and the code line bare.
    let src = "// spp-lint: allow(l2-csr-index): first\n// second comment line\nrow_ptr[0];\n";
    let sf = scan_source("crates/a/src/lib.rs", src);
    let items = parse_items(&sf, src);
    assert_eq!(items.escapes.len(), 1);
    assert_eq!(items.escapes[0].line, 2);
    assert!(items.escapes[0].rules.contains("l2-csr-index"));
}

#[test]
fn hot_escape_lines_match_token_lines_not_statement_starts() {
    // An escape is line-scoped: on a multi-line statement it must sit
    // on the line holding the allocating token, and the parser records
    // exactly that line number.
    let src = "fn f(n: usize) -> Vec<u32> {\n    let out =\n        Vec::with_capacity(n); // spp-hot: alloc(sized once)\n    out\n}\n";
    let sf = scan_source("crates/a/src/lib.rs", src);
    let items = parse_items(&sf, src);
    assert_eq!(items.escapes.len(), 1);
    assert_eq!(items.escapes[0].line, 3);
    assert!(items.escapes[0].rules.contains("h1-alloc"));
}
