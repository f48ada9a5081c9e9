//! Intra-workspace call graph and hot-root reachability.
//!
//! Nodes are the non-test `fn` items parsed by [`crate::items`]; edges
//! come from lexical call sites, resolved by name within what the
//! caller's crate can name: itself plus the closure of its
//! `[dependencies]` ([`crate::walk::crate_deps`]). Within that set
//! resolution over-approximates — a method call `.probe(..)` links to
//! every `fn probe(&self, ..)` there — because the analyzer's job is
//! to *prove absence* of hazards; spurious edges only make it stricter,
//! and the escape grammar (`// spp-hot: allow(..)`) documents the
//! survivors. The special cases:
//!
//! - method syntax also reaches `impl Trait for Type` methods in any
//!   crate (`dyn` and generic dispatch), and `self.f()` is the
//!   enclosing impl's `f` when that impl has one;
//! - a bare `f()` reaches free fns only (a fn nested in a method is
//!   free), never an associated `Type::f`;
//! - `Type::f(..)` and `Type::<..>::f(..)` reach only methods of a type
//!   named `Type`; std qualifiers (`Vec`, `Box`, ...) produce no edge
//!   (the H1 token rules catch their allocations lexically);
//!   `<Type as Trait>::f(..)` reaches every trait-impl `f`;
//! - methods named like std APIs (`STD_METHODS`) stay in the caller's
//!   crate;
//! - a crate with no readable manifest (the fixture trees) can name
//!   every crate.

use crate::items::{AuditKind, FileItems, FnItem};
use crate::walk::{crate_key, CrateDeps};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Std-library qualifiers whose associated calls never target
/// workspace items.
const STD_QUALIFIERS: [&str; 20] = [
    "Vec", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Arc", "Rc",
    "Option", "Result", "Some", "Ok", "Err", "Ordering", "Duration", "Instant", "PathBuf", "Path",
];

/// Method names that collide with std container / iterator / sync /
/// thread APIs. A `.push(..)` in a crate with no `fn push` is almost
/// certainly `Vec::push`, not a dependency's `Ring::push` — so these
/// names resolve only within the calling crate (where a workspace type
/// can genuinely shadow std). Their effects are still checked lexically
/// by the H1–H3 token rules in the calling function.
const STD_METHODS: [&str; 52] = [
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
    "capacity",
    "reserve",
    "reserve_exact",
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

/// The crates `krate` can name: itself plus the closure of its
/// dependencies; `None` (every crate) when its manifest is unknown.
fn nameable(krate: &str, deps: &CrateDeps) -> Option<BTreeSet<String>> {
    let mut seen = BTreeSet::from([krate.to_string()]);
    let mut stack = vec![deps.get(krate)?];
    while let Some(direct) = stack.pop() {
        for d in direct {
            if seen.insert(d.clone()) {
                stack.extend(deps.get(d));
            }
        }
    }
    Some(seen)
}

/// The nodes `map` files under `key`.
fn of<'a>(map: &'a BTreeMap<&str, Vec<usize>>, key: &str) -> impl Iterator<Item = usize> + 'a {
    map.get(key).into_iter().flatten().copied()
}

impl CallGraph {
    /// Builds the graph over all non-test items in `files`, resolving
    /// calls within the crate closures of `deps`.
    pub fn build(files: &[FileItems], deps: &CrateDeps) -> CallGraph {
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
        let crates: Vec<String> = nodes
            .iter()
            .map(|n| crate_key(&files[n.file].rel_path))
            .collect();
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            let sees = nameable(&crates[i], deps);
            let can_name = |j: &usize| sees.as_ref().is_none_or(|s| s.contains(&crates[*j]));
            let own_type = n.item.qual.rsplit_once("::").map(|(t, _)| t);
            let mut out: Vec<Edge> = Vec::new();
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for call in &n.item.calls {
                let method_of = |ty: &str| of(&by_qual, &format!("{ty}::{}", call.callee));
                let candidates: Vec<usize> = if call.method {
                    let methods = of(&by_name, &call.callee).filter(|&j| nodes[j].item.has_self);
                    let own: Vec<usize> = match (call.recv.as_deref(), own_type) {
                        (Some("self"), Some(ty)) => method_of(ty)
                            .filter(|&j| nodes[j].item.has_self && crates[j] == crates[i])
                            .collect(),
                        _ => Vec::new(),
                    };
                    if !own.is_empty() {
                        own
                    } else if STD_METHODS.contains(&call.callee.as_str()) {
                        methods.filter(|&j| crates[j] == crates[i]).collect()
                    } else {
                        methods
                            .filter(|j| can_name(j) || nodes[*j].item.trait_impl)
                            .collect()
                    }
                } else if let Some(recv) = &call.recv {
                    // `Self::f(..)` means the enclosing impl type.
                    let ty = match (recv.as_str(), own_type) {
                        ("Self", Some(t)) => t,
                        (r, _) => r,
                    };
                    if ty == "<" {
                        let of_trait = of(&by_name, &call.callee);
                        of_trait.filter(|&j| nodes[j].item.trait_impl).collect()
                    } else if STD_QUALIFIERS.contains(&ty) {
                        Vec::new()
                    } else {
                        method_of(ty).filter(can_name).collect()
                    }
                } else {
                    let free = of(&by_name, &call.callee).filter(|&j| nodes[j].item.free);
                    free.filter(can_name).collect()
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
    fn calls_resolve_within_the_dependency_closure() {
        let fs = files(&[
            (
                "crates/a/src/lib.rs",
                "// spp-hot(a.root)\nfn root() {\n    helper();\n}\nfn helper() {}\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        // Without manifests crate a names every crate; with one that
        // lists no dependencies it names only itself.
        let g = CallGraph::build(&fs, &CrateDeps::new());
        assert_eq!(g.reach(&g.roots()).len(), 3);
        let deps = CrateDeps::from([("crates/a".to_string(), BTreeSet::new())]);
        let g = CallGraph::build(&fs, &deps);
        let reach = g.reach(&g.roots());
        assert_eq!(reach.len(), 2);
        assert_eq!(g.nodes[reach[1].node].file, 0);
    }

    #[test]
    fn qualified_calls_resolve_to_impl_methods_only() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root() {\n    Widget::make();\n    Vec::new();\n}\nimpl Widget {\n    fn make() {}\n}\nfn new() {}\n",
        )]);
        let g = CallGraph::build(&fs, &CrateDeps::new());
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
        let g = CallGraph::build(&fs, &CrateDeps::new());
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
        let g = CallGraph::build(&fs, &CrateDeps::new());
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
        let g = CallGraph::build(&fs, &CrateDeps::new());
        let reach = g.reach(&g.roots());
        assert_eq!(reach.len(), 1, "push must not leave crate a");
    }

    #[test]
    fn std_method_names_still_resolve_within_crate() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "// spp-hot(a.root)\nfn root(q: &mut Q) {\n    q.drain();\n}\nimpl Q {\n    fn drain(&mut self) {}\n}\n",
        )]);
        let g = CallGraph::build(&fs, &CrateDeps::new());
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
        let g = CallGraph::build(&fs, &CrateDeps::new());
        let reach = g.reach(&g.roots());
        assert_eq!(reach.len(), 1, "bare `run(..)` must not reach Sim::run");
    }

    #[test]
    fn self_qualified_calls_resolve_to_own_impl() {
        let fs = files(&[(
            "crates/a/src/lib.rs",
            "impl W {\n    // spp-hot(a.root)\n    fn root(&self) {\n        Self::helper();\n    }\n    fn helper() {}\n}\n",
        )]);
        let g = CallGraph::build(&fs, &CrateDeps::new());
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
        let g = CallGraph::build(&fs, &CrateDeps::new());
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
        let g = CallGraph::build(&fs, &CrateDeps::new());
        assert_eq!(g.nodes.len(), 1);
    }
}
