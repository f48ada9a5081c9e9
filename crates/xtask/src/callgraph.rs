//! Intra-workspace call graph and hot-root reachability.
//!
//! Nodes are the non-test `fn` items parsed by [`crate::items`]; edges
//! come from lexical call sites, resolved by name with nearest-scope
//! preference (same file, then same crate, then workspace-wide). The
//! resolution deliberately over-approximates — a method call `.get(..)`
//! links to every workspace `fn get(&self, ..)` its scope search
//! reaches — because the analyzer's job is to *prove absence* of
//! hazards on hot paths; spurious edges only make it stricter, and the
//! escape grammar (`// spp-hot: allow(..)`) documents the survivors.
//!
//! Qualified calls `Type::name(..)` resolve only to methods of a
//! workspace type named `Type`; qualifiers naming std types (`Vec`,
//! `Box`, ...) are external and produce no edge (the H1 token rules
//! catch their allocations lexically).

use crate::items::{AuditKind, FileItems, FnItem};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Std-library qualifiers whose associated calls never target
/// workspace items.
const STD_QUALIFIERS: [&str; 20] = [
    "Vec", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Arc", "Rc",
    "Option", "Result", "Some", "Ok", "Err", "Ordering", "Duration", "Instant", "PathBuf", "Path",
];

/// Method names that collide with std container / iterator / sync /
/// thread APIs. A `.push(..)` in a crate with no `fn push` is almost
/// certainly `Vec::push`, not some other crate's `Ring::push` — so for
/// these names the workspace-wide fallback is disabled and resolution
/// stays within the calling crate (where a workspace type can genuinely
/// shadow std). Their effects are still checked lexically by the H1–H3
/// token rules in the calling function.
const STD_METHODS: [&str; 49] = [
    "add",
    "push",
    "pop",
    "insert",
    "remove",
    "extend",
    "clear",
    "drain",
    "clone",
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "join",
    "spawn",
    "lock",
    "read",
    "write",
    "wait",
    "notify_one",
    "notify_all",
    "send",
    "recv",
    "next",
    "get",
    "set",
    "iter",
    "into_iter",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "take",
    "replace",
    "swap",
    "sort",
    "map",
    "filter",
    "fold",
    "sum",
    "flush",
    "entry",
    "keys",
    "values",
    "truncate",
    "resize",
    "retain",
    "store",
    "load",
];

/// One call-graph node: a function item plus its owning file.
#[derive(Debug)]
pub struct Node {
    /// Index into the `FileItems` slice the graph was built from.
    pub file: usize,
    /// The parsed item.
    pub item: FnItem,
}

/// A resolved edge: `(callee node, 1-based call-site line)`.
pub type Edge = (usize, usize);

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// Outgoing edges per node, deterministically ordered and deduped
    /// by callee.
    pub edges: Vec<Vec<Edge>>,
}

/// One function reached from a hot root.
#[derive(Debug, Clone)]
pub struct Reached {
    /// Node index.
    pub node: usize,
    /// Hops from the root (root itself = 0).
    pub depth: usize,
    /// Name of the hot root that reached it first.
    pub root: String,
    /// Node index of the caller that reached it (None for roots).
    pub via: Option<usize>,
}

/// Crate key for scope resolution: the first two path components
/// (`crates/tensor`, `shims/rand`) or `src` for the facade crate.
fn crate_key(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some(a), Some(b)) if a == "crates" || a == "shims" => format!("{a}/{b}"),
        (Some(a), _) => a.to_string(),
        _ => String::new(),
    }
}

impl CallGraph {
    /// Builds the graph over all non-test items in `files`.
    pub fn build(files: &[FileItems]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            for item in &file.fns {
                if item.in_test {
                    continue;
                }
                nodes.push(Node {
                    file: fi,
                    item: item.clone(),
                });
            }
        }
        // name -> node indices, plus qualified name -> node indices.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(&n.item.name).or_default().push(i);
            by_qual.entry(&n.item.qual).or_default().push(i);
        }
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            let my_file = n.file;
            let my_crate = crate_key(&files[my_file].rel_path);
            let mut out: Vec<Edge> = Vec::new();
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for call in &n.item.calls {
                let candidates: Vec<usize> = if let Some(recv) = &call.recv {
                    // `Self::f(..)` means the enclosing impl type.
                    let recv: &str = if recv == "Self" && n.item.qual.contains("::") {
                        n.item.qual.split("::").next().unwrap_or(recv)
                    } else {
                        recv
                    };
                    if STD_QUALIFIERS.contains(&recv) {
                        Vec::new()
                    } else {
                        let q = format!("{recv}::{}", call.callee);
                        by_qual.get(q.as_str()).cloned().unwrap_or_default()
                    }
                } else {
                    let all = by_name
                        .get(call.callee.as_str())
                        .cloned()
                        .unwrap_or_default();
                    // Method syntax only targets items taking `self`;
                    // bare-name calls cannot invoke such methods.
                    let all: Vec<usize> = all
                        .into_iter()
                        .filter(|&j| nodes[j].item.has_self == call.method)
                        .collect();
                    // Nearest scope wins: same file, else same crate,
                    // else anywhere in the workspace — except for names
                    // shadowing std APIs, which never leave the crate.
                    let same_file: Vec<usize> = all
                        .iter()
                        .copied()
                        .filter(|&j| nodes[j].file == my_file)
                        .collect();
                    if !same_file.is_empty() {
                        same_file
                    } else {
                        let same_crate: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&j| crate_key(&files[nodes[j].file].rel_path) == my_crate)
                            .collect();
                        if !same_crate.is_empty() {
                            same_crate
                        } else if call.method && STD_METHODS.contains(&call.callee.as_str()) {
                            Vec::new()
                        } else {
                            all
                        }
                    }
                };
                for c in candidates {
                    if c != i && seen.insert(c) {
                        out.push((c, call.line));
                    }
                }
            }
            edges[i] = out;
        }
        CallGraph { nodes, edges }
    }

    /// Node indices of declared hot roots, ordered by root name.
    pub fn roots(&self) -> Vec<usize> {
        self.roots_for(AuditKind::Hot)
    }

    /// Node indices of declared roots of the given annotation family,
    /// ordered by root name.
    pub fn roots_for(&self, kind: AuditKind) -> Vec<usize> {
        let mut r: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].item.root_for(kind).is_some())
            .collect();
        r.sort_by(|&a, &b| {
            self.nodes[a]
                .item
                .root_for(kind)
                .cmp(&self.nodes[b].item.root_for(kind))
        });
        r
    }

    /// Hot-family traversal; see [`CallGraph::reach_for`].
    pub fn reach(&self, roots: &[usize]) -> Vec<Reached> {
        self.reach_for(roots, AuditKind::Hot)
    }

    /// Multi-source BFS from `roots`, following the stop boundaries of
    /// the given annotation family. Each reached node is attributed to
    /// the first root that reaches it (breadth-first, roots in the
    /// given order). Nodes with a `stop` annotation are recorded but
    /// not expanded. The traversal itself is family-independent: both
    /// passes walk the same edges, so identical root/stop placement
    /// yields identical reachable sets (pinned by the cross-pass test).
    pub fn reach_for(&self, roots: &[usize], kind: AuditKind) -> Vec<Reached> {
        let mut order: Vec<Reached> = Vec::new();
        let mut visited: BTreeSet<usize> = BTreeSet::new();
        let mut queue: VecDeque<Reached> = VecDeque::new();
        for &r in roots {
            if visited.insert(r) {
                queue.push_back(Reached {
                    node: r,
                    depth: 0,
                    root: self.nodes[r]
                        .item
                        .root_for(kind)
                        .map(str::to_string)
                        .unwrap_or_else(|| self.nodes[r].item.qual.clone()),
                    via: None,
                });
            }
        }
        while let Some(cur) = queue.pop_front() {
            let node = cur.node;
            let stop = self.nodes[node].item.stop_for(kind).is_some();
            order.push(cur.clone());
            if stop {
                continue;
            }
            for &(callee, _line) in &self.edges[node] {
                if visited.insert(callee) {
                    queue.push_back(Reached {
                        node: callee,
                        depth: cur.depth + 1,
                        root: cur.root.clone(),
                        via: Some(node),
                    });
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::scan::scan_source;

    fn files(sources: &[(&str, &str)]) -> Vec<FileItems> {
        sources
            .iter()
            .map(|(p, s)| parse_items(&scan_source(p, s), s))
            .collect()
    }

    #[test]
    fn same_file_resolution_beats_workspace() {
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "// spp-hot(a.root)\nfn root() {\n    helper();\n}\nfn helper() {}\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        let g = CallGraph::build(&fs);
        let roots = g.roots();
        assert_eq!(roots.len(), 1);
        let reach = g.reach(&roots);
        assert_eq!(reach.len(), 2);
        assert_eq!(g.nodes[reach[1].node].file, 0);
        assert_eq!(reach[1].depth, 1);
    }

    #[test]
    fn qualified_calls_resolve_to_impl_methods_only() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root() {\n    Widget::make();\n    Vec::new();\n}\nimpl Widget {\n    fn make() {}\n}\nfn new() {}\n",
        )]);
        let g = CallGraph::build(&fs);
        let reach = g.reach(&g.roots());
        let names: Vec<&str> = reach
            .iter()
            .map(|r| g.nodes[r.node].item.qual.as_str())
            .collect();
        assert!(names.contains(&"Widget::make"));
        // `Vec::new()` is external: the free `fn new` must NOT be linked.
        assert!(!names.contains(&"new"));
    }

    #[test]
    fn stop_nodes_are_recorded_but_not_expanded() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root() {\n    cold();\n}\n// spp-hot: stop(registration)\nfn cold() {\n    deep();\n}\nfn deep() {}\n",
        )]);
        let g = CallGraph::build(&fs);
        let reach = g.reach(&g.roots());
        let names: Vec<&str> = reach
            .iter()
            .map(|r| g.nodes[r.node].item.name.as_str())
            .collect();
        assert!(names.contains(&"cold"));
        assert!(!names.contains(&"deep"));
    }

    #[test]
    fn method_calls_skip_free_functions() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root(x: &W) {\n    x.work();\n}\nfn work() {}\nimpl W {\n    fn work(&self) {}\n}\n",
        )]);
        let g = CallGraph::build(&fs);
        let reach = g.reach(&g.roots());
        let quals: Vec<&str> = reach
            .iter()
            .map(|r| g.nodes[r.node].item.qual.as_str())
            .collect();
        assert!(quals.contains(&"W::work"));
        assert!(!quals.contains(&"work"));
    }

    #[test]
    fn std_method_names_do_not_cross_crates() {
        // `.push(..)` in crate a (which defines no `fn push`) must be
        // treated as `Vec::push`, not linked to crate b's `Ring::push`.
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "// spp-hot(a.root)\nfn root(v: &mut Vec<u32>) {\n    v.push(1); // spp-hot: alloc(test)\n}\n",
            ),
            ("crates/b/src/lib.rs", "impl Ring {\n    fn push(&mut self, x: u32) {}\n}\n"),
        ]);
        let g = CallGraph::build(&fs);
        let reach = g.reach(&g.roots());
        assert_eq!(reach.len(), 1, "push must not leave crate a");
    }

    #[test]
    fn std_method_names_still_resolve_within_crate() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root(q: &mut Q) {\n    q.drain();\n}\nimpl Q {\n    fn drain(&mut self) {}\n}\n",
        )]);
        let g = CallGraph::build(&fs);
        let reach = g.reach(&g.roots());
        let quals: Vec<&str> = reach
            .iter()
            .map(|r| g.nodes[r.node].item.qual.as_str())
            .collect();
        assert!(quals.contains(&"Q::drain"));
    }

    #[test]
    fn bare_calls_skip_self_methods() {
        // A local closure invoked as `run(i)` must not link to a
        // method `fn run(&self)` elsewhere in the workspace.
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "// spp-hot(a.root)\nfn root() {\n    let run = |i: usize| i;\n    run(3);\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Sim {\n    fn run(&self) {}\n}\n",
            ),
        ]);
        let g = CallGraph::build(&fs);
        let reach = g.reach(&g.roots());
        assert_eq!(reach.len(), 1, "bare `run(..)` must not reach Sim::run");
    }

    #[test]
    fn self_qualified_calls_resolve_to_own_impl() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl W {\n    // spp-hot(a.root)\n    fn root(&self) {\n        Self::helper();\n    }\n    fn helper() {}\n}\n",
        )]);
        let g = CallGraph::build(&fs);
        let reach = g.reach(&g.roots());
        let quals: Vec<&str> = reach
            .iter()
            .map(|r| g.nodes[r.node].item.qual.as_str())
            .collect();
        assert!(quals.contains(&"W::helper"), "got {quals:?}");
    }

    #[test]
    fn det_roots_and_stops_are_independent_of_hot() {
        // One fn is a det root only; the hot pass must not see it, and
        // the det traversal must honor det stops while ignoring hot
        // stops.
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "// spp-det(a.det)\nfn droot() {\n    mid();\n}\nfn mid() {\n    deep();\n}\n// spp-det: stop(cold for det only)\nfn deep() {\n    deepest();\n}\nfn deepest() {}\n// spp-hot(a.hot)\nfn hroot() {\n    deep();\n}\n",
        )]);
        let g = CallGraph::build(&fs);
        assert_eq!(g.roots_for(AuditKind::Hot).len(), 1);
        assert_eq!(g.roots_for(AuditKind::Det).len(), 1);
        let det = g.reach_for(&g.roots_for(AuditKind::Det), AuditKind::Det);
        let det_names: Vec<&str> = det
            .iter()
            .map(|r| g.nodes[r.node].item.name.as_str())
            .collect();
        // det stop on `deep` is honored: recorded, not expanded.
        assert_eq!(det_names, ["droot", "mid", "deep"]);
        assert!(det.iter().all(|r| r.root == "a.det"));
        // The hot traversal ignores the det stop and descends through
        // `deep` into `deepest`.
        let hot = g.reach_for(&g.roots_for(AuditKind::Hot), AuditKind::Hot);
        let hot_names: Vec<&str> = hot
            .iter()
            .map(|r| g.nodes[r.node].item.name.as_str())
            .collect();
        assert_eq!(hot_names, ["hroot", "deep", "deepest"]);
    }

    #[test]
    fn test_items_are_outside_the_graph() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root() {\n    helper();\n}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        )]);
        let g = CallGraph::build(&fs);
        assert_eq!(g.nodes.len(), 1);
    }
}
