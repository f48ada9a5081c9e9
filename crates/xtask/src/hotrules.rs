//! The hot-path rules H1–H4, applied transitively over the reachable
//! set computed by [`crate::callgraph`].
//!
//! | id               | invariant (for every fn reachable from a hot root)         |
//! |------------------|------------------------------------------------------------|
//! | `h1-alloc`       | no heap allocation: `Vec::new`/`vec!`/`.push(`/`.clone(`/  |
//! |                  | `.to_vec(`/`.collect(`/`format!`/`Box::new`/`with_capacity`|
//! |                  | — per-batch buffers are hoisted into reusable scratch      |
//! | `h2-panic`       | no panic path: L1's panic family plus `*_unchecked` and    |
//! |                  | raw CSR-array indexing (L1/L2 made transitive)             |
//! | `h3-lock`        | no lock or blocking acquisition: `.lock()`, `Condvar`      |
//! |                  | waits, blocking channel `recv`, thread `join`/`sleep`      |
//! | `h4-float-order` | no `f32`/`f64` accumulation in a fn that iterates a hash   |
//! |                  | collection (L3 made transitive: reductions must be         |
//! |                  | index-ordered so replicas agree bit-for-bit)               |
//!
//! Escapes: `// spp-hot: alloc(<reason>)` (H1 shorthand) or
//! `// spp-hot: allow(<rule>[, <rule>]): <reason>` on (or directly
//! above) the offending line. Every escape that fires is inventoried
//! in the baseline; an escape inside a reached fn that suppresses
//! nothing is itself a finding, so the annotation surface can only
//! shrink with the code.

use crate::callgraph::{CallGraph, Reached};
use crate::items::FileItems;
use crate::rules::{hash_collection_names, hash_iteration, token_positions};
use crate::scan::SourceFile;
use std::collections::BTreeSet;

/// One hot-path diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct HotFinding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`h1-alloc`, ..., or `hot-annotation` for malformed /
    /// stale annotations).
    pub rule: String,
    /// Qualified name of the offending function.
    pub func: String,
    /// Hot root whose reachability surfaced the finding.
    pub root: String,
    /// Human-readable explanation.
    pub message: String,
}

/// One escape annotation that fired (suppressed at least one would-be
/// finding); inventoried in the baseline.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EscapeSite {
    pub path: String,
    pub line: usize,
    /// Comma-joined rule ids the escape covers.
    pub rules: String,
    pub reason: String,
}

/// H1: allocation tokens. `Arc::clone(` is excluded (refcount bump,
/// not a heap allocation); `.clone(` still matches `x.clone()` on an
/// `Arc` field — annotate or restructure those.
const ALLOC_TOKENS: [&str; 16] = [
    "Vec::new",
    "vec!",
    ".push(",
    ".to_vec(",
    ".clone(",
    ".to_owned(",
    "format!",
    ".to_string(",
    "String::new",
    "String::from",
    "Box::new(",
    ".collect(",
    ".collect::<",
    ".extend(",
    // Call forms only — a bare `with_capacity(` would also match fn
    // definitions named `with_capacity`.
    "::with_capacity(",
    ".with_capacity(",
];

/// H2: panic-family macros and unchecked accessors (beyond L1).
const PANIC_TOKENS: [&str; 6] = [
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "unwrap_unchecked",
];

/// H2: CSR arrays whose raw indexing is only sound inside the checked
/// accessors (`crates/graph/src/csr.rs` is exempt — it *is* the
/// checked accessor layer).
const CSR_ARRAYS: [&str; 5] = ["row_ptr", "indptr", "indices", "col_idx", "row_offsets"];

/// H3: blocking acquisition tokens.
const BLOCKING_TOKENS: [&str; 8] = [
    ".lock()",
    ".recv()",
    ".recv_timeout(",
    ".wait(",
    ".wait_timeout(",
    ".wait_while(",
    ".join()",
    "sleep(",
];

/// Float-accumulation signals for H4 (fn-level; shared with D5 in
/// [`crate::detrules`]).
pub(crate) const FLOAT_ACC_TOKENS: [&str; 4] = ["+=", ".sum(", ".sum::<", ".fold("];

/// Per-line hits of any listed token.
pub(crate) fn token_hits<'a>(t: &str, tokens: &[&'a str]) -> Vec<&'a str> {
    let mut hits = Vec::new();
    for &tok in tokens {
        if !token_positions(t, tok).is_empty() {
            hits.push(tok);
        }
    }
    hits
}

/// Innermost fn owning `line_idx` in `file`, if any.
pub(crate) fn line_owner(file: &FileItems, line_idx: usize) -> Option<usize> {
    file.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.start <= line_idx && line_idx <= f.end)
        .max_by_key(|(_, f)| f.start)
        .map(|(i, _)| i)
}

/// Output of a transitive check pass (the determinism pass reuses the
/// record shapes).
#[derive(Debug, Default)]
pub struct HotReport {
    /// Unsuppressed violations plus annotation problems, sorted.
    pub findings: Vec<HotFinding>,
    /// Escapes that fired, sorted; the baseline inventory.
    pub escapes: Vec<EscapeSite>,
}

/// Checks every reached fn against H1–H4.
///
/// `files` and `scanned` are parallel (same indices as the graph's
/// `Node::file`).
pub fn check_reachable(
    files: &[FileItems],
    scanned: &[SourceFile],
    graph: &CallGraph,
    reach: &[Reached],
) -> HotReport {
    let mut findings: Vec<HotFinding> = Vec::new();
    let mut used_escapes: BTreeSet<(usize, usize)> = BTreeSet::new(); // (file, escape idx)

    // Annotation problems are findings regardless of reachability.
    for file in files {
        for (line, msg) in &file.bad {
            findings.push(HotFinding {
                path: file.rel_path.clone(),
                line: *line,
                rule: "hot-annotation".to_string(),
                func: String::new(),
                root: String::new(),
                message: msg.clone(),
            });
        }
    }

    // Hash-collection names per file, computed once for H4.
    let hash_names: Vec<Vec<String>> = scanned.iter().map(hash_collection_names).collect();

    fn suppress(
        files: &[FileItems],
        file_idx: usize,
        line: usize,
        rule: &str,
        used: &mut BTreeSet<(usize, usize)>,
    ) -> bool {
        let mut hit = false;
        for (ei, e) in files[file_idx].escapes.iter().enumerate() {
            if e.line == line && e.rules.contains(rule) {
                used.insert((file_idx, ei));
                hit = true;
            }
        }
        hit
    }

    for r in reach {
        let node = &graph.nodes[r.node];
        if node.item.stop.is_some() {
            continue;
        }
        let fi = node.file;
        let file = &files[fi];
        let sf = &scanned[fi];
        let csr_exempt = file.rel_path == "crates/graph/src/csr.rs";
        // H4 precondition: does this fn accumulate floats anywhere?
        let mut accumulates = false;
        for idx in node.item.start..=node.item.end.min(sf.lines.len().saturating_sub(1)) {
            if line_owner(file, idx).is_some_and(|o| file.fns[o].start != node.item.start) {
                continue;
            }
            if !token_hits(&sf.lines[idx].cleaned, &FLOAT_ACC_TOKENS).is_empty() {
                accumulates = true;
                break;
            }
        }
        for idx in node.item.start..=node.item.end.min(sf.lines.len().saturating_sub(1)) {
            // Innermost-item attribution: skip lines of nested fns.
            if line_owner(file, idx).is_some_and(|o| file.fns[o].start != node.item.start) {
                continue;
            }
            let t = &sf.lines[idx].cleaned;
            let lineno = idx + 1;
            // (rule, message) pairs for this line, suppressed below.
            let mut line_hits: Vec<(&str, String)> = Vec::new();
            // H1: allocation.
            for tok in token_hits(t, &ALLOC_TOKENS) {
                line_hits.push((
                    "h1-alloc",
                    format!(
                        "`{tok}` allocates on a hot path (reached from root \
                         `{}` at depth {}); hoist into caller-provided or \
                         pooled scratch, or annotate \
                         `// spp-hot: alloc(<reason>)`",
                        r.root, r.depth
                    ),
                ));
            }
            // H2: panic path.
            let mut panic_hits = token_hits(t, &PANIC_TOKENS);
            for p in token_positions(t, ".unwrap") {
                if t[p + 7..].starts_with("()") {
                    panic_hits.push(".unwrap()");
                }
            }
            if !token_positions(t, "get_unchecked").is_empty() {
                panic_hits.push("get_unchecked");
            }
            if !csr_exempt {
                for arr in CSR_ARRAYS {
                    for p in token_positions(t, arr) {
                        let rest = &t[p + arr.len()..];
                        if rest.starts_with('[') || rest.starts_with("()[") {
                            panic_hits.push(arr);
                        }
                    }
                }
            }
            for tok in panic_hits {
                line_hits.push((
                    "h2-panic",
                    format!(
                        "`{tok}` can panic on a hot path (reached from root \
                         `{}` at depth {}); surface the workspace error \
                         types or prove the access in a checked accessor",
                        r.root, r.depth
                    ),
                ));
            }
            // H3: blocking.
            for tok in token_hits(t, &BLOCKING_TOKENS) {
                line_hits.push((
                    "h3-lock",
                    format!(
                        "`{tok}` blocks on a hot path (reached from root \
                         `{}` at depth {}); hot kernels must stay lock-free \
                         — move synchronization to the batch boundary",
                        r.root, r.depth
                    ),
                ));
            }
            // H4: float reduction over unordered iteration.
            if accumulates {
                if let Some(name) = hash_iteration(t, &hash_names[fi]) {
                    line_hits.push((
                        "h4-float-order",
                        format!(
                            "iteration over hash collection `{name}` in a \
                             float-accumulating fn (reached from root `{}`); \
                             reductions on hot paths must be index-ordered \
                             so replicas agree bit-for-bit",
                            r.root
                        ),
                    ));
                }
            }
            for (rule, message) in line_hits {
                if !suppress(files, fi, lineno, rule, &mut used_escapes) {
                    findings.push(HotFinding {
                        path: file.rel_path.clone(),
                        line: lineno,
                        rule: rule.to_string(),
                        func: node.item.qual.clone(),
                        root: r.root.clone(),
                        message,
                    });
                }
            }
        }
    }

    // Stale escapes: annotations inside reached fns that fired nothing.
    let reached_starts: BTreeSet<(usize, usize)> = reach
        .iter()
        .filter(|r| graph.nodes[r.node].item.stop.is_none())
        .map(|r| (graph.nodes[r.node].file, graph.nodes[r.node].item.start))
        .collect();
    let mut escapes: Vec<EscapeSite> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (ei, e) in file.escapes.iter().enumerate() {
            if used_escapes.contains(&(fi, ei)) {
                escapes.push(EscapeSite {
                    path: file.rel_path.clone(),
                    line: e.line,
                    rules: e.rules.iter().cloned().collect::<Vec<_>>().join(","),
                    reason: e.reason.clone(),
                });
                continue;
            }
            let owner = line_owner(file, e.line.saturating_sub(1));
            if owner.is_some_and(|o| reached_starts.contains(&(fi, file.fns[o].start))) {
                findings.push(HotFinding {
                    path: file.rel_path.clone(),
                    line: e.line,
                    rule: "hot-annotation".to_string(),
                    func: owner.map(|o| file.fns[o].qual.clone()).unwrap_or_default(),
                    root: String::new(),
                    message: format!(
                        "stale escape: `spp-hot: allow({})` suppresses \
                         nothing on this line — remove the annotation",
                        e.rules.iter().cloned().collect::<Vec<_>>().join(",")
                    ),
                });
            }
        }
    }

    findings.sort();
    findings.dedup();
    escapes.sort();
    escapes.dedup();
    HotReport { findings, escapes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::scan::scan_source;

    fn analyze(sources: &[(&str, &str)]) -> HotReport {
        let scanned: Vec<SourceFile> = sources.iter().map(|(p, s)| scan_source(p, s)).collect();
        let files: Vec<FileItems> = scanned
            .iter()
            .zip(sources.iter())
            .map(|(sf, (_, s))| parse_items(sf, s))
            .collect();
        let graph = CallGraph::build(&files);
        let reach = graph.reach(&graph.roots());
        check_reachable(&files, &scanned, &graph, &reach)
    }

    #[test]
    fn transitive_unwrap_is_caught_two_levels_down() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root() {\n    mid();\n}\nfn mid() {\n    deep();\n}\nfn deep(x: Option<u32>) {\n    x.unwrap();\n}\n",
        )]);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, "h2-panic");
        assert_eq!(rep.findings[0].func, "deep");
        assert_eq!(rep.findings[0].root, "a.root");
    }

    #[test]
    fn unannotated_push_is_caught_and_escape_suppresses() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root(v: &mut Vec<u32>) {\n    v.push(1);\n    v.push(2); // spp-hot: alloc(amortized append)\n}\n",
        )]);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, "h1-alloc");
        assert_eq!(rep.findings[0].line, 3);
        assert_eq!(rep.escapes.len(), 1);
        assert_eq!(rep.escapes[0].line, 4);
    }

    #[test]
    fn cold_fns_are_not_checked() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root() {}\nfn cold(x: Option<u32>) {\n    x.unwrap();\n    Vec::<u32>::new();\n}\n",
        )]);
        assert!(rep.findings.is_empty());
    }

    #[test]
    fn blocking_tokens_flagged() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root(m: &Mutex<u32>) {\n    let _g = m.lock();\n}\n",
        )]);
        assert!(rep.findings.iter().any(|f| f.rule == "h3-lock"));
    }

    #[test]
    fn float_accumulation_over_hash_iteration_flagged() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root(weights: &HashMap<u32, f64>) -> f64 {\n    let mut acc = 0.0;\n    for (_k, w) in weights.iter() {\n        acc += w;\n    }\n    acc\n}\n",
        )]);
        assert!(rep.findings.iter().any(|f| f.rule == "h4-float-order"));
    }

    #[test]
    fn stale_escape_in_reached_fn_is_flagged() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root() {\n    let x = 1; // spp-hot: alloc(nothing here)\n    let _ = x;\n}\n",
        )]);
        assert!(rep
            .findings
            .iter()
            .any(|f| f.rule == "hot-annotation" && f.message.contains("stale escape")));
    }

    #[test]
    fn stop_boundary_suppresses_checks() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root() {\n    cold_reg();\n}\n// spp-hot: stop(one-time registration)\nfn cold_reg() {\n    Vec::<u32>::new();\n}\n",
        )]);
        assert!(rep.findings.is_empty());
    }
}
