//! The determinism rules D1–D5, applied transitively over the
//! reachable set computed by [`crate::callgraph`] (DESIGN.md §17).
//!
//! The §9 contract says every result is bit-identical across worker
//! counts and tracing on/off. The dynamic spot tests (workers 1/2/8)
//! sample that contract; this pass proves the *absence* of the source
//! constructs that break it, for every fn reachable from a
//! `// spp-det(<name>)` root:
//!
//! | id                 | invariant (for every fn reachable from a det root)       |
//! |--------------------|----------------------------------------------------------|
//! | `d1-unordered-iter`| no order-observing iteration over `HashMap`/`HashSet`    |
//! |                    | (construction and keyed lookup stay legal)               |
//! | `d2-unseeded-rng`  | no RNG draw outside the seeded per-stream discipline     |
//! |                    | (`thread_rng`/`from_entropy`/`OsRng`; `seed_from_u64`    |
//! |                    | over `batch_stream_seed` stays legal)                    |
//! | `d3-ambient-read`  | no ambient input: `env::var`, wall clock, `read_dir`     |
//! |                    | (file-system order) — outside the sanctioned telemetry / |
//! |                    | bench / DES homes                                        |
//! | `d4-worker-leak`   | no `available_parallelism` / thread-identity value on a  |
//! |                    | result path (worker count must schedule, never select)   |
//! | `d5-float-order`   | no float accumulation in a fn that iterates a hash       |
//! |                    | collection (H4 generalized beyond hot paths: reduction   |
//! |                    | order must be a pure function of shapes)                 |
//!
//! D1 and D5 fire on the same lexical signal (hash iteration); a hit
//! inside a float-accumulating fn is the stricter D5, otherwise D1.
//! Escapes: `// spp-det: allow(<rule>[, <rule>]): <reason>` on (or
//! directly above) the offending line. Every escape that fires is
//! inventoried in the baseline; an escape inside a reached fn that
//! suppresses nothing is itself a finding.

use crate::callgraph::{CallGraph, Reached};
use crate::hotrules::{
    line_owner, token_hits, EscapeSite, HotFinding, HotReport, FLOAT_ACC_TOKENS,
};
use crate::items::{AuditKind, FileItems};
use crate::rules::{hash_collection_names, hash_iteration};
use crate::scan::SourceFile;
use std::collections::BTreeSet;

/// D2: RNG sources that are not a function of the logical stream
/// position. Seeded construction (`StdRng::seed_from_u64(..)` over
/// `batch_stream_seed`) is the sanctioned path and matches none of
/// these.
const RNG_TOKENS: [&str; 5] = [
    "thread_rng(",
    "from_entropy(",
    "from_os_rng(",
    "OsRng",
    "rand::random(",
];

/// D3: ambient inputs — process environment, wall clock, file-system
/// iteration order.
const AMBIENT_TOKENS: [&str; 6] = [
    "env::var(",
    "env::var_os(",
    "env::vars(",
    "Instant::now(",
    "SystemTime::now(",
    "read_dir(",
];

/// D4: worker-count and thread-identity sources.
const WORKER_TOKENS: [&str; 3] = ["available_parallelism(", "thread::current(", "ThreadId"];

/// Sanctioned ambient homes, mirroring the L6 exemption: the telemetry
/// crate (its clock and env-gated exporters never flow into results —
/// that is exactly the tracing-on/off half of the §9 contract), the
/// bench harness (reports wall time by trade), and the DES (virtual
/// clock; its tests compare against wall time).
fn ambient_sanctioned(path: &str) -> bool {
    path.starts_with("crates/telemetry/src")
        || path.starts_with("crates/bench/")
        || path == "crates/comm/src/des.rs"
}

/// Checks every reached fn against D1–D5.
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
        for (line, msg) in &file.det_bad {
            findings.push(HotFinding {
                path: file.rel_path.clone(),
                line: *line,
                rule: "det-annotation".to_string(),
                func: String::new(),
                root: String::new(),
                message: msg.clone(),
            });
        }
    }

    // Hash-collection names per file, computed once for D1/D5.
    let hash_names: Vec<Vec<String>> = scanned.iter().map(hash_collection_names).collect();

    fn suppress(
        files: &[FileItems],
        file_idx: usize,
        line: usize,
        rule: &str,
        used: &mut BTreeSet<(usize, usize)>,
    ) -> bool {
        let mut hit = false;
        for (ei, e) in files[file_idx].det_escapes.iter().enumerate() {
            if e.line == line && e.rules.contains(rule) {
                used.insert((file_idx, ei));
                hit = true;
            }
        }
        hit
    }

    for r in reach {
        let node = &graph.nodes[r.node];
        if node.item.det_stop.is_some() {
            continue;
        }
        let fi = node.file;
        let file = &files[fi];
        let sf = &scanned[fi];
        let sanctioned = ambient_sanctioned(&file.rel_path);
        // D5 precondition: does this fn accumulate floats anywhere?
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
            // D1/D5: order-observing hash iteration. Inside a
            // float-accumulating fn the hazard is the stricter D5.
            if let Some(name) = hash_iteration(t, &hash_names[fi]) {
                if accumulates {
                    line_hits.push((
                        "d5-float-order",
                        format!(
                            "float accumulation over hash collection `{name}` \
                             (reached from det root `{}`): the reduction order \
                             is not a pure function of shapes — iterate an \
                             index-ordered view instead",
                            r.root
                        ),
                    ));
                } else {
                    line_hits.push((
                        "d1-unordered-iter",
                        format!(
                            "order-observing iteration over hash collection \
                             `{name}` (reached from det root `{}` at depth {}): \
                             RandomState order leaks into results — use an \
                             index vector, sorted drain, or BTreeMap",
                            r.root, r.depth
                        ),
                    ));
                }
            }
            // D2: unseeded RNG.
            for tok in token_hits(t, &RNG_TOKENS) {
                line_hits.push((
                    "d2-unseeded-rng",
                    format!(
                        "`{tok}` draws entropy outside the seeded per-stream \
                         discipline (reached from det root `{}`); derive the \
                         stream via StdRng::seed_from_u64(batch_stream_seed(..))",
                        r.root
                    ),
                ));
            }
            // D3: ambient reads (outside sanctioned homes).
            if !sanctioned {
                for tok in token_hits(t, &AMBIENT_TOKENS) {
                    line_hits.push((
                        "d3-ambient-read",
                        format!(
                            "`{tok}` reads ambient state (reached from det root \
                             `{}` at depth {}); results must be a function of \
                             inputs and seeds only — plumb the value through \
                             config, or annotate a scheduling-only use",
                            r.root, r.depth
                        ),
                    ));
                }
            }
            // D4: worker-count / thread-identity values.
            if !sanctioned {
                for tok in token_hits(t, &WORKER_TOKENS) {
                    line_hits.push((
                        "d4-worker-leak",
                        format!(
                            "`{tok}` exposes worker count or thread identity \
                             (reached from det root `{}`); such values may \
                             schedule work but must never select or shape \
                             results — annotate if this use is scheduling-only",
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
        .filter(|r| graph.nodes[r.node].item.det_stop.is_none())
        .map(|r| (graph.nodes[r.node].file, graph.nodes[r.node].item.start))
        .collect();
    let mut escapes: Vec<EscapeSite> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (ei, e) in file.det_escapes.iter().enumerate() {
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
                    rule: "det-annotation".to_string(),
                    func: owner.map(|o| file.fns[o].qual.clone()).unwrap_or_default(),
                    root: String::new(),
                    message: format!(
                        "stale escape: `spp-det: allow({})` suppresses \
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

/// Convenience: det roots + det traversal + check, in one call.
pub fn audit(files: &[FileItems], scanned: &[SourceFile], graph: &CallGraph) -> HotReport {
    let roots = graph.roots_for(AuditKind::Det);
    let reach = graph.reach_for(&roots, AuditKind::Det);
    check_reachable(files, scanned, graph, &reach)
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
        audit(&files, &scanned, &graph)
    }

    #[test]
    fn hash_drain_two_calls_below_root_is_d1() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.root)\nfn root() {\n    mid();\n}\nfn mid() {\n    deep();\n}\nfn deep(m: &mut HashMap<u32, u32>) -> Vec<(u32, u32)> {\n    m.drain().collect()\n}\n",
        )]);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, "d1-unordered-iter");
        assert_eq!(rep.findings[0].func, "deep");
        assert_eq!(rep.findings[0].root, "a.root");
    }

    #[test]
    fn keyed_lookup_stays_legal() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.root)\nfn root(m: &HashMap<u32, u32>) -> Option<u32> {\n    m.get(&3).copied()\n}\n",
        )]);
        assert!(rep.findings.is_empty());
    }

    #[test]
    fn unseeded_rng_is_d2_but_seeded_stream_is_legal() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.root)\nfn root(seed: u64) -> u64 {\n    let mut r = StdRng::seed_from_u64(seed);\n    let t = thread_rng();\n    0\n}\n",
        )]);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, "d2-unseeded-rng");
        assert_eq!(rep.findings[0].line, 4);
    }

    #[test]
    fn ambient_env_read_is_d3_outside_sanctioned_homes() {
        let src = "// spp-det(a.root)\nfn root() -> Option<String> {\n    std::env::var(\"SPP_X\").ok()\n}\n";
        let rep = analyze(&[("crates/a/src/lib.rs", src)]);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, "d3-ambient-read");
        let sanctioned = analyze(&[("crates/telemetry/src/export.rs", src)]);
        assert!(sanctioned.findings.is_empty());
    }

    #[test]
    fn worker_count_on_result_path_is_d4() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.root)\nfn root() -> usize {\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n",
        )]);
        assert!(rep.findings.iter().any(|f| f.rule == "d4-worker-leak"));
    }

    #[test]
    fn hash_iteration_in_float_accumulating_fn_is_d5_not_d1() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.root)\nfn root(w: &HashMap<u32, f64>) -> f64 {\n    let mut acc = 0.0;\n    for (_k, v) in w.iter() {\n        acc += v;\n    }\n    acc\n}\n",
        )]);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, "d5-float-order");
    }

    #[test]
    fn escape_suppresses_and_is_inventoried() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.root)\nfn root() -> usize {\n    // spp-det: allow(d4-worker-leak): sizes scratch only, never results\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n",
        )]);
        assert!(rep.findings.is_empty());
        assert_eq!(rep.escapes.len(), 1);
        assert_eq!(rep.escapes[0].rules, "d4-worker-leak");
    }

    #[test]
    fn stale_det_escape_is_flagged() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.root)\nfn root() {\n    let x = 1; // spp-det: allow(d3-ambient-read): nothing here\n    let _ = x;\n}\n",
        )]);
        assert!(rep
            .findings
            .iter()
            .any(|f| f.rule == "det-annotation" && f.message.contains("stale escape")));
    }

    #[test]
    fn det_stop_boundary_suppresses_checks() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.root)\nfn root() {\n    cold();\n}\n// spp-det: stop(report assembly; off the result path)\nfn cold() {\n    let _ = std::time::Instant::now();\n}\n",
        )]);
        assert!(rep.findings.is_empty());
    }

    #[test]
    fn hot_only_roots_are_invisible_to_the_det_pass() {
        let rep = analyze(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.hot)\nfn hot_entry() {\n    let t = thread_rng();\n}\n",
        )]);
        assert!(rep.findings.is_empty());
    }
}
