//! The rule table behind all three static gates, and the one engine
//! that walks it.
//!
//! Every rule is phrased so a lexical match over the cleaned source
//! (see [`crate::scan`]) is sufficient — no type information required
//! (what needs types is clippy's job: `clippy.toml`). A rule is a row
//! of [`RULES`]: an id, a scope, a matcher and a message. The scope
//! decides which lines the rule sees:
//!
//! - `Reachable(Hot)` / `Reachable(Det)`: the lines of every fn
//!   reachable from a `// spp-hot(<name>)` / `// spp-det(<name>)` root
//!   over the [`crate::callgraph`] (rules H1–H4, D1–D5);
//! - `Paths(predicate)`: every non-test code line of the files the
//!   predicate accepts (rules L2, L3, L5, L8 — the lint family).
//!
//! [`check`] runs one family. A hit is suppressed by an escape
//! annotation of that family on (or directly above) its line — grammar
//! in [`crate::items`]. Every escape that fires is inventoried in the
//! baseline; an escape on a walked line that suppresses nothing is
//! itself a finding (`<family>-annotation`), so the annotation surface
//! can only shrink with the code. DESIGN.md "Static gates" has the
//! table in prose.

use crate::callgraph::{CallGraph, Reached};
use crate::items::{AuditKind, FileItems};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// Which lines a rule sees.
pub enum Scope {
    /// Lines of fns reachable from the family's declared roots.
    Reachable(AuditKind),
    /// Non-test code lines of the files the predicate accepts (the lint
    /// family).
    Paths(fn(&str) -> bool),
}

/// How a rule recognises a violation on one cleaned line. Each hit is
/// the text substituted for `{hit}` in the rule's message.
pub enum Matcher {
    /// Any of the listed tokens (standalone, see [`token_positions`]).
    Tokens(&'static [&'static str]),
    /// Order-observing iteration over a `HashMap`/`HashSet`; with
    /// `Some(b)`, only where the enclosing fn's "accumulates floats"
    /// flag equals `b`.
    HashIteration(Option<bool>),
    Custom(fn(&LineCtx) -> Vec<String>),
}

/// One row of the rule table. `message` may use `{hit}`, and for
/// reachability-scoped rules `{root}` and `{depth}`.
pub struct Rule {
    pub id: &'static str,
    pub scope: Scope,
    pub matcher: Matcher,
    pub message: &'static str,
}

impl Rule {
    pub fn family(&self) -> AuditKind {
        match self.scope {
            Scope::Reachable(kind) => kind,
            Scope::Paths(_) => AuditKind::Lint,
        }
    }
}

/// What a custom matcher sees of one line.
pub struct LineCtx<'a> {
    /// Workspace-relative path of the file.
    pub path: &'a str,
    /// The cleaned line.
    pub text: &'a str,
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

/// H2: panic-family macros and unchecked accessors.
const PANIC_TOKENS: [&str; 7] = [
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
    "unwrap_unchecked",
    "get_unchecked",
];

/// L2 / H2: CSR offset and column arrays, whose raw indexing is only
/// sound inside the checked accessors of `crates/graph/src/csr.rs`.
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

/// Float-accumulation signals (fn-level precondition of H4 and D5).
const FLOAT_ACC_TOKENS: [&str; 4] = ["+=", ".sum(", ".sum::<", ".fold("];

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

/// The rule table. Row order is report order within a line; findings
/// are sorted before they are returned.
pub const RULES: [Rule; 13] = [
    Rule {
        id: "l2-csr-index",
        scope: Scope::Paths(csr_clients),
        matcher: Matcher::Custom(csr_index),
        message: "raw indexing into CSR array `{hit}`; use the checked CsrGraph \
                  accessors (neighbors/degree) instead",
    },
    Rule {
        id: "l3-unordered-iter",
        scope: Scope::Paths(order_sensitive),
        matcher: Matcher::HashIteration(None),
        message: "iteration over hash collection `{hit}` in ordering-sensitive code; \
                  use BTreeMap/BTreeSet or sort explicitly so replicas rank identically",
    },
    Rule {
        id: "l5-prob-clamp",
        scope: Scope::Paths(vip_modules),
        matcher: Matcher::Custom(unclamped_store),
        message: "computed probability store must pass through clamp01 \
                  (Proposition 1: p ∈ [0, 1])",
    },
    // Relaxed is the one ordering whose correctness argument lives
    // entirely outside the type system; the escape forces that argument
    // to be written down where the next reader (and the lint inventory)
    // can see it.
    Rule {
        id: "l8-relaxed-note",
        scope: Scope::Paths(|_| true),
        matcher: Matcher::Custom(relaxed_calls),
        message: "relaxed-ordering call site without a \
                  `// spp-sync: relaxed(<reason>)` annotation; state why the weakest \
                  ordering is sound here",
    },
    Rule {
        id: "h1-alloc",
        scope: Scope::Reachable(AuditKind::Hot),
        matcher: Matcher::Tokens(&ALLOC_TOKENS),
        message: "`{hit}` allocates on a hot path (reached from root `{root}` at depth \
                  {depth}); hoist into caller-provided or pooled scratch, or annotate \
                  `// spp-hot: alloc(<reason>)`",
    },
    Rule {
        id: "h2-panic",
        scope: Scope::Reachable(AuditKind::Hot),
        matcher: Matcher::Custom(panic_path),
        message: "`{hit}` can panic on a hot path (reached from root `{root}` at depth \
                  {depth}); surface the workspace error types or prove the access in a \
                  checked accessor",
    },
    Rule {
        id: "h3-lock",
        scope: Scope::Reachable(AuditKind::Hot),
        matcher: Matcher::Tokens(&BLOCKING_TOKENS),
        message: "`{hit}` blocks on a hot path (reached from root `{root}` at depth \
                  {depth}); hot kernels must stay lock-free — move synchronization to the \
                  batch boundary",
    },
    Rule {
        id: "h4-float-order",
        scope: Scope::Reachable(AuditKind::Hot),
        matcher: Matcher::HashIteration(Some(true)),
        message: "iteration over hash collection `{hit}` in a float-accumulating fn \
                  (reached from root `{root}`); reductions on hot paths must be \
                  index-ordered so replicas agree bit-for-bit",
    },
    // D1 and D5 fire on the same lexical signal; a hit inside a
    // float-accumulating fn is the stricter D5, otherwise D1.
    Rule {
        id: "d1-unordered-iter",
        scope: Scope::Reachable(AuditKind::Det),
        matcher: Matcher::HashIteration(Some(false)),
        message: "order-observing iteration over hash collection `{hit}` (reached from \
                  det root `{root}` at depth {depth}): RandomState order leaks into \
                  results — use an index vector, sorted drain, or BTreeMap",
    },
    Rule {
        id: "d2-unseeded-rng",
        scope: Scope::Reachable(AuditKind::Det),
        matcher: Matcher::Tokens(&RNG_TOKENS),
        message: "`{hit}` draws entropy outside the seeded per-stream discipline \
                  (reached from det root `{root}`); derive the stream via \
                  StdRng::seed_from_u64(batch_stream_seed(..))",
    },
    Rule {
        id: "d3-ambient-read",
        scope: Scope::Reachable(AuditKind::Det),
        matcher: Matcher::Custom(|c| unsanctioned(c, &AMBIENT_TOKENS)),
        message: "`{hit}` reads ambient state (reached from det root `{root}` at depth \
                  {depth}); results must be a function of inputs and seeds only — plumb \
                  the value through config, or annotate a scheduling-only use",
    },
    Rule {
        id: "d4-worker-leak",
        scope: Scope::Reachable(AuditKind::Det),
        matcher: Matcher::Custom(|c| unsanctioned(c, &WORKER_TOKENS)),
        message: "`{hit}` exposes worker count or thread identity (reached from det \
                  root `{root}`); such values may schedule work but must never select or \
                  shape results — annotate if this use is scheduling-only",
    },
    Rule {
        id: "d5-float-order",
        scope: Scope::Reachable(AuditKind::Det),
        matcher: Matcher::HashIteration(Some(true)),
        message: "float accumulation over hash collection `{hit}` (reached from det \
                  root `{root}`): the reduction order is not a pure function of shapes — \
                  iterate an index-ordered view instead",
    },
];

/// Rule ids of one family, for annotation validation and `--json`
/// counts.
pub fn rule_ids(kind: AuditKind) -> impl Iterator<Item = &'static str> {
    RULES
        .iter()
        .filter(move |r| r.family() == kind)
        .map(|r| r.id)
}

/// L2 scope: the crates that hold or build CSR arrays, minus the
/// checked accessor layer itself.
fn csr_clients(path: &str) -> bool {
    path != "crates/graph/src/csr.rs"
        && (path.starts_with("crates/graph/src")
            || path.starts_with("crates/sampler/src")
            || path.starts_with("crates/core/src")
            || path == "crates/store/src/stream.rs")
}

/// L3 scope: files whose outputs feed deterministic, replica-agreed
/// rankings.
fn order_sensitive(path: &str) -> bool {
    const ORDER_SENSITIVE: [&str; 8] = [
        "crates/core/src/policies.rs",
        "crates/core/src/cache.rs",
        "crates/core/src/reorder.rs",
        "crates/core/src/vip.rs",
        "crates/core/src/vip_general.rs",
        "crates/core/src/vip_partition.rs",
        "crates/core/src/feature_store.rs",
        "crates/partition/src/",
    ];
    ORDER_SENSITIVE.iter().any(|p| path.starts_with(p))
}

/// L5 scope: the VIP modules.
fn vip_modules(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/vip.rs"
            | "crates/core/src/vip_general.rs"
            | "crates/core/src/vip_partition.rs"
    )
}

/// Sanctioned ambient homes for D3/D4: the telemetry crate (its clock
/// and env-gated exporters never flow into results — that is exactly
/// the tracing-on/off half of the §9 contract), the bench harness
/// (reports wall time by trade), and the DES (virtual clock; its tests
/// compare against wall time).
fn unsanctioned(c: &LineCtx, tokens: &[&str]) -> Vec<String> {
    let sanctioned = c.path.starts_with("crates/telemetry/src")
        || c.path.starts_with("crates/bench/")
        || c.path == "crates/comm/src/des.rs";
    if sanctioned {
        Vec::new()
    } else {
        token_hits(c.text, tokens)
    }
}

/// True when `s[idx]` is preceded by an identifier character (so `idx`
/// does not start a standalone token).
fn has_ident_prefix(s: &str, idx: usize) -> bool {
    s[..idx]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Byte offsets of standalone occurrences of `needle` in `hay`: the
/// match must not butt against identifier characters on the sides where
/// the needle itself starts/ends with one (so `.unwrap` matches in
/// `x.unwrap()` but not `x.unwrap_or(..)`).
pub(crate) fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let ident_start = needle
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let ident_end = needle
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let at = from + p;
        let end = at + needle.len();
        let pre_ok = !ident_start || !has_ident_prefix(hay, at);
        let post_ok = !ident_end
            || !hay[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            out.push(at);
        }
        from = end;
    }
    out
}

/// The listed tokens that occur on `t`.
fn token_hits(t: &str, tokens: &[&str]) -> Vec<String> {
    tokens
        .iter()
        .filter(|tok| !token_positions(t, tok).is_empty())
        .map(|tok| tok.to_string())
        .collect()
}

/// L2 (and part of H2): raw indexing into a CSR array, directly or
/// through its getter (`row_ptr[` / `row_ptr()[`).
fn csr_index(c: &LineCtx) -> Vec<String> {
    let mut hits = Vec::new();
    for name in CSR_ARRAYS {
        for p in token_positions(c.text, name) {
            let rest = &c.text[p + name.len()..];
            if rest.starts_with('[') || rest.starts_with("()[") {
                hits.push(name.to_string());
            }
        }
    }
    hits
}

/// H2: the panic family, unchecked accessors, and raw CSR indexing
/// (`crates/graph/src/csr.rs` is exempt — it *is* the checked accessor
/// layer).
fn panic_path(c: &LineCtx) -> Vec<String> {
    let mut hits = token_hits(c.text, &PANIC_TOKENS);
    for p in token_positions(c.text, ".unwrap") {
        if c.text[p + 7..].starts_with("()") {
            hits.push(".unwrap()".to_string());
        }
    }
    if c.path != "crates/graph/src/csr.rs" {
        hits.extend(csr_index(c));
    }
    hits
}

/// Names bound to `HashMap`/`HashSet` values anywhere in `file`
/// (declarations, fields, or assignments: `x: HashMap<..>`,
/// `x = HashMap::new()`, …).
fn hash_collection_names(file: &SourceFile) -> Vec<String> {
    let mut hash_names: Vec<String> = Vec::new();
    for line in &file.lines {
        let t = &line.cleaned;
        for ty in ["HashMap", "HashSet"] {
            for p in token_positions(t, ty) {
                // Look left for `name :` or `name =` (skipping
                // `let`/`mut`/`&`/whitespace and generics of `=`-form).
                // Reference-typed bindings (`name: &HashMap`,
                // `name: &mut HashMap`) strip the borrow first.
                let mut before = t[..p].trim_end();
                if let Some(b) = before.strip_suffix("mut") {
                    let b = b.trim_end();
                    if let Some(b) = b.strip_suffix('&') {
                        before = b.trim_end();
                    }
                } else if let Some(b) = before.strip_suffix('&') {
                    before = b.trim_end();
                }
                let before = before
                    .strip_suffix(':')
                    .or_else(|| before.strip_suffix('='))
                    .or_else(|| before.strip_suffix("::<"))
                    .unwrap_or("");
                let name: String = before
                    .trim_end()
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !name.is_empty() && !hash_names.contains(&name) {
                    hash_names.push(name);
                }
            }
        }
    }
    hash_names
}

/// Returns the hash-collection name iterated on `t`, if any: either
/// `name.iter()`-style adapters or a `for .. in [&|&mut ][self.]name`
/// loop header. Construction and keyed lookup stay legal.
fn hash_iteration(t: &str, hash_names: &[String]) -> Option<String> {
    const ITERS: [&str; 5] = [".iter()", ".keys()", ".values()", ".into_iter()", ".drain("];
    for name in hash_names {
        for p in token_positions(t, name) {
            let rest = &t[p + name.len()..];
            let iterated = ITERS.iter().any(|it| rest.starts_with(it));
            // `for .. in [&|&mut ][self.]name`
            let mut pre = t[..p].trim_end();
            for strip in ["self.", "&mut", "&"] {
                pre = pre.strip_suffix(strip).unwrap_or(pre).trim_end();
            }
            let in_for = (pre.ends_with(" in") || pre == "in") && t.contains("for ");
            if iterated || in_for {
                return Some(name.clone());
            }
        }
    }
    None
}

/// L5: probability stores in the VIP modules go through `clamp01`.
///
/// Flags indexed stores (`buf[i] = expr;`) and deref stores
/// (`*slot = expr;`) into probability buffers (see [`is_prob_target`])
/// whose right-hand side is a computed expression not wrapped in
/// `clamp01(..)`. Bare identifiers, field accesses, and numeric
/// literals are allowed (copies of already-clamped values). Stores into
/// non-probability buffers (partition assignments, load counters) are
/// out of scope.
fn unclamped_store(c: &LineCtx) -> Vec<String> {
    let Some((lhs, rhs)) = split_assignment(c.text.trim()) else {
        return Vec::new();
    };
    let indexed_store = lhs.ends_with(']') && lhs.contains('[') && !lhs.contains("..");
    let deref_store = lhs.starts_with('*');
    let rhs = rhs.trim().trim_end_matches(';').trim();
    if (indexed_store || deref_store)
        && is_prob_target(lhs)
        && !rhs.contains("clamp01(")
        && !is_simple_expr(rhs)
    {
        vec![lhs.to_string()]
    } else {
        Vec::new()
    }
}

/// Splits `lhs = rhs` at a plain assignment `=` (not `==`, `<=`, `=>`,
/// compound `+=`, …). Returns `None` for non-assignments.
fn split_assignment(t: &str) -> Option<(&str, &str)> {
    let bytes = t.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'=' {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| bytes[j]);
        let next = bytes.get(i + 1);
        let compound = matches!(
            prev,
            Some(b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^')
        );
        if compound || next == Some(&b'=') || next == Some(&b'>') {
            // Skip the full operator to avoid re-matching its tail.
            continue;
        }
        // `*slot = ..` keeps the `*`; it marks a deref store, not `*=`.
        return Some((t[..i].trim(), &t[i + 1..]));
    }
    None
}

/// True when a store target names a probability buffer. The VIP modules
/// use a small fixed vocabulary for these (`cur`/`prev` hop vectors,
/// `out`/`o` combined values, anything mentioning prob/vip/score/hop);
/// integer bookkeeping (`loads`, `limits`, `assignment`, …) is excluded.
fn is_prob_target(lhs: &str) -> bool {
    let name: String = lhs
        .trim_start_matches('*')
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    let name = name.to_ascii_lowercase();
    matches!(
        name.as_str(),
        "cur" | "prev" | "out" | "o" | "p" | "probs" | "hops"
    ) || ["prob", "vip", "score", "hop"]
        .iter()
        .any(|k| name.contains(k))
}

/// True for identifiers, field paths, numeric literals — values assumed
/// already clamped at their own definition site.
fn is_simple_expr(rhs: &str) -> bool {
    !rhs.is_empty()
        && rhs
            .chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | ':'))
}

/// L8: the `<ident>_relaxed(` *calls* on a cleaned line — definition
/// sites (`fn load_relaxed(`) declare the wrapper surface, they do not
/// use it.
fn relaxed_calls(c: &LineCtx) -> Vec<String> {
    let t = c.text;
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = t[from..].find("_relaxed(") {
        let at = from + p;
        from = at + "_relaxed(".len();
        // Expand left over the identifier to find the token start.
        let start = t[..at]
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map_or(0, |q| q + 1);
        if !t[..start].trim_end().ends_with("fn") {
            out.push(t[start..from].to_string());
        }
    }
    out
}

/// One diagnostic of any gate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`h1-alloc`, ..., or `<family>-annotation` for malformed
    /// / stale annotations).
    pub rule: String,
    /// Qualified name of the offending function (empty for path-scoped
    /// rules and malformed annotations).
    pub func: String,
    /// Root whose reachability surfaced the finding (empty likewise).
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

/// Output of one family's pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Unsuppressed violations plus annotation problems, sorted.
    pub findings: Vec<Finding>,
    /// Escapes that fired, sorted; the baseline inventory.
    pub escapes: Vec<EscapeSite>,
}

/// Innermost fn owning `line_idx` in `file`, if any.
fn line_owner(file: &FileItems, line_idx: usize) -> Option<usize> {
    file.fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.start <= line_idx && line_idx <= f.end)
        .max_by_key(|(_, f)| f.start)
        .map(|(i, _)| i)
}

/// A run of lines checked together: one reached fn, or (lint family)
/// one file.
struct Unit<'a> {
    file: usize,
    func: &'a str,
    root: &'a str,
    depth: usize,
    /// 0-based line indices.
    lines: Vec<usize>,
}

/// Lint-family units: every non-test code line of every file. Tests may
/// unwrap and index freely, and a comment line that only mentions an
/// annotation is not an annotation site.
fn file_units(scanned: &[SourceFile]) -> Vec<Unit<'static>> {
    let code = |l: &crate::scan::LineInfo| !l.in_test && !l.cleaned.trim().is_empty();
    scanned
        .iter()
        .enumerate()
        .map(|(file, sf)| Unit {
            file,
            func: "",
            root: "",
            depth: 0,
            lines: (0..sf.lines.len())
                .filter(|&i| code(&sf.lines[i]))
                .collect(),
        })
        .collect()
}

/// Reachability-family units: the own lines of every reached fn that is
/// not a cold boundary.
fn reached_units<'a>(
    kind: AuditKind,
    files: &'a [FileItems],
    scanned: &[SourceFile],
    graph: &'a CallGraph,
    reach: &'a [Reached],
) -> Vec<Unit<'a>> {
    reach
        .iter()
        .filter(|r| graph.nodes[r.node].item.stop_for(kind).is_none())
        .map(|r| {
            let node = &graph.nodes[r.node];
            let (file, item) = (&files[node.file], &node.item);
            let last = item
                .end
                .min(scanned[node.file].lines.len().saturating_sub(1));
            // Innermost-item attribution: skip lines of nested fns.
            let own =
                |i: &usize| line_owner(file, *i).is_none_or(|o| file.fns[o].start == item.start);
            Unit {
                file: node.file,
                func: &item.qual,
                root: &r.root,
                depth: r.depth,
                lines: (item.start..=last).filter(own).collect(),
            }
        })
        .collect()
}

/// Checks one family's rules over the lines in its scope.
///
/// `files` and `scanned` are parallel (same indices as the graph's
/// `Node::file`); `reach` is the family's traversal (empty for the lint
/// family, which walks every file).
pub fn check(
    kind: AuditKind,
    files: &[FileItems],
    scanned: &[SourceFile],
    graph: &CallGraph,
    reach: &[Reached],
) -> Report {
    let annotation_rule = format!("{}-annotation", kind.prefix());
    let mut findings: Vec<Finding> = Vec::new();
    let mut used_escapes: BTreeSet<(usize, usize)> = BTreeSet::new(); // (file, escape idx)

    // Annotation problems are findings regardless of scope.
    for file in files {
        for (_, line, msg) in file.bad.iter().filter(|(k, ..)| *k == kind) {
            findings.push(Finding {
                path: file.rel_path.clone(),
                line: *line,
                rule: annotation_rule.clone(),
                func: String::new(),
                root: String::new(),
                message: msg.clone(),
            });
        }
    }

    let rules: Vec<&Rule> = RULES.iter().filter(|r| r.family() == kind).collect();
    let units = match kind {
        AuditKind::Lint => file_units(scanned),
        _ => reached_units(kind, files, scanned, graph, reach),
    };

    // Hash-collection names per file, computed once.
    let hash_names: Vec<Vec<String>> = scanned.iter().map(hash_collection_names).collect();
    // Every line walked, with its fn: where an unused escape is stale.
    let mut walked: BTreeMap<(usize, usize), &str> = BTreeMap::new();
    for u in &units {
        let (file, sf) = (&files[u.file], &scanned[u.file]);
        let text = |i: usize| sf.lines[i].cleaned.as_str();
        let accumulates = u
            .lines
            .iter()
            .any(|&i| !token_hits(text(i), &FLOAT_ACC_TOKENS).is_empty());
        for &idx in &u.lines {
            walked.insert((u.file, idx), u.func);
            let ctx = LineCtx {
                path: &file.rel_path,
                text: text(idx),
            };
            for rule in &rules {
                if matches!(rule.scope, Scope::Paths(applies) if !applies(ctx.path)) {
                    continue;
                }
                let hits = match rule.matcher {
                    Matcher::Tokens(tokens) => token_hits(ctx.text, tokens),
                    Matcher::HashIteration(when) if when.is_none_or(|w| w == accumulates) => {
                        hash_iteration(ctx.text, &hash_names[u.file])
                            .into_iter()
                            .collect()
                    }
                    Matcher::HashIteration(_) => Vec::new(),
                    Matcher::Custom(f) => f(&ctx),
                };
                if hits.is_empty() {
                    continue;
                }
                let mut suppressed = false;
                for (ei, e) in file.escapes.iter().enumerate() {
                    if e.kind == kind && e.line == idx + 1 && e.rules.contains(rule.id) {
                        used_escapes.insert((u.file, ei));
                        suppressed = true;
                    }
                }
                if suppressed {
                    continue;
                }
                for hit in hits {
                    findings.push(Finding {
                        path: file.rel_path.clone(),
                        line: idx + 1,
                        rule: rule.id.to_string(),
                        func: u.func.to_string(),
                        root: u.root.to_string(),
                        message: rule
                            .message
                            .replace("{hit}", &hit)
                            .replace("{root}", u.root)
                            .replace("{depth}", &u.depth.to_string()),
                    });
                }
            }
        }
    }

    // Inventory the escapes that fired; one on a walked line that fired
    // nothing is stale.
    let mut escapes: Vec<EscapeSite> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (ei, e) in file.escapes.iter().enumerate() {
            if e.kind != kind {
                continue;
            }
            let rules = e.rules.iter().cloned().collect::<Vec<_>>().join(",");
            if used_escapes.contains(&(fi, ei)) {
                escapes.push(EscapeSite {
                    path: file.rel_path.clone(),
                    line: e.line,
                    rules,
                    reason: e.reason.clone(),
                });
            } else if let Some(func) = walked.get(&(fi, e.line - 1)) {
                findings.push(Finding {
                    path: file.rel_path.clone(),
                    line: e.line,
                    rule: annotation_rule.clone(),
                    func: func.to_string(),
                    root: String::new(),
                    message: format!(
                        "stale escape: `spp-{}: allow({rules})` suppresses nothing on \
                         this line — remove the annotation",
                        kind.prefix()
                    ),
                });
            }
        }
    }

    findings.sort();
    findings.dedup();
    escapes.sort();
    escapes.dedup();
    Report { findings, escapes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;
    use crate::scan::scan_source;
    use AuditKind::{Det, Hot, Lint};

    fn analyze(kind: AuditKind, path: &str, src: &str) -> Report {
        let scanned = vec![scan_source(path, src)];
        let files = vec![parse_items(&scanned[0], src)];
        let graph = CallGraph::build(&files);
        let reach = graph.reach_for(&graph.roots_for(kind), kind);
        check(kind, &files, &scanned, &graph, &reach)
    }

    fn rules_of(rep: &Report) -> Vec<&str> {
        rep.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    const LIB: &str = "crates/a/src/lib.rs";

    /// One firing and one clean case per table row: (rule, path, body
    /// that fires exactly that rule, body that fires nothing). For the
    /// reachability families the body is a root fn's.
    const CASES: [(&str, &str, &str, &str); 13] = [
        (
            "l2-csr-index",
            "crates/sampler/src/sample.rs",
            "fn f(g: &CsrGraph, v: usize) -> &[u32] {\n  &g.col()[g.row_ptr()[v]..g.row_ptr()[v + 1]]\n}",
            "fn f(g: &CsrGraph, v: usize) -> &[u32] {\n  g.neighbors(v)\n}",
        ),
        (
            "l3-unordered-iter",
            "crates/partition/src/simple.rs",
            "fn f() {\n  let seen: HashSet<u32> = HashSet::new();\n  for v in &seen { g(v); }\n}",
            "struct C { slots: HashMap<u32, u32> }\nimpl C {\n  fn slot_of(&self, v: u32) -> Option<u32> { self.slots.get(&v).copied() }\n}",
        ),
        (
            "l5-prob-clamp",
            "crates/core/src/vip.rs",
            "fn f(cur: &mut [f64], u: usize, lm: f64) {\n  cur[u] = 1.0 - lm.exp();\n}",
            "fn f(cur: &mut [f64], o: &mut f64, loads: &mut [u64], u: usize, p: f64, lm: f64) {\n  cur[u] = clamp01(1.0 - lm.exp());\n  cur[u] = p;\n  cur[u] = 0.0;\n  *o = clamp01(1.0 - lm.exp());\n  loads[u] = loads[u].max(3);\n  lm += x;\n}",
        ),
        (
            "l8-relaxed-note",
            "crates/serve/src/overlay.rs",
            "fn f(x: &AtomicU64) {\n  x.fetch_add_relaxed(1);\n}",
            "fn f(x: &AtomicU64) {\n  x.load_relaxed(); // spp-sync: relaxed(monotonic tally)\n  x.load_acquire();\n}\npub fn load_relaxed(&self) -> u64 { 0 }",
        ),
        (
            "h1-alloc",
            LIB,
            "// spp-hot(a.root)\nfn root(v: &mut Vec<u32>) {\n    v.push(1);\n}",
            "// spp-hot(a.root)\nfn root(v: &mut [u32]) {\n    v[0] = Arc::clone(&x).len();\n}",
        ),
        (
            "h2-panic",
            LIB,
            "// spp-hot(a.root)\nfn root(x: Option<u32>) {\n    x.unwrap();\n}",
            "// spp-hot(a.root)\nfn root(x: Option<u32>) {\n    x.unwrap_or(0);\n    x.unwrap_or_default();\n    y.expect_err(1);\n}",
        ),
        (
            "h3-lock",
            LIB,
            "// spp-hot(a.root)\nfn root(m: &Mutex<u32>) {\n    let _g = m.lock();\n}",
            "// spp-hot(a.root)\nfn root(m: &AtomicU64) {\n    m.load_acquire();\n}",
        ),
        (
            "h4-float-order",
            LIB,
            "// spp-hot(a.root)\nfn root(weights: &HashMap<u32, f64>) -> f64 {\n    let mut acc = 0.0;\n    for (_k, w) in weights.iter() {\n        acc += w;\n    }\n    acc\n}",
            "// spp-hot(a.root)\nfn root(weights: &HashMap<u32, f64>) -> usize {\n    weights.iter().count()\n}",
        ),
        (
            "d1-unordered-iter",
            LIB,
            "// spp-det(a.root)\nfn root(m: &mut HashMap<u32, u32>) -> Vec<(u32, u32)> {\n    m.drain().collect()\n}",
            "// spp-det(a.root)\nfn root(m: &HashMap<u32, u32>) -> Option<u32> {\n    m.get(&3).copied()\n}",
        ),
        (
            "d2-unseeded-rng",
            LIB,
            "// spp-det(a.root)\nfn root() -> u64 {\n    let t = thread_rng();\n    0\n}",
            "// spp-det(a.root)\nfn root(seed: u64) -> u64 {\n    let mut r = StdRng::seed_from_u64(seed);\n    0\n}",
        ),
        (
            "d3-ambient-read",
            LIB,
            "// spp-det(a.root)\nfn root() -> Option<String> {\n    std::env::var(\"SPP_X\").ok()\n}",
            "// spp-det(a.root)\nfn root(cfg: &Config) -> Option<String> {\n    cfg.x.clone()\n}",
        ),
        (
            "d4-worker-leak",
            LIB,
            "// spp-det(a.root)\nfn root() -> usize {\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}",
            "// spp-det(a.root)\nfn root(workers: usize) -> usize {\n    workers\n}",
        ),
        (
            "d5-float-order",
            LIB,
            "// spp-det(a.root)\nfn root(w: &HashMap<u32, f64>) -> f64 {\n    let mut acc = 0.0;\n    for (_k, v) in w.iter() {\n        acc += v;\n    }\n    acc\n}",
            "// spp-det(a.root)\nfn root(w: &[f64]) -> f64 {\n    w.iter().sum()\n}",
        ),
    ];

    #[test]
    fn every_rule_row_fires_on_its_case_and_only_there() {
        assert_eq!(CASES.map(|c| c.0), RULES.each_ref().map(|r| r.id));
        for ((id, path, fires, clean), rule) in CASES.into_iter().zip(&RULES) {
            let rep = analyze(rule.family(), path, fires);
            assert_eq!(rules_of(&rep), [id], "{:?}", rep.findings);
            let rep = analyze(rule.family(), path, clean);
            assert!(rep.findings.is_empty(), "{id}: {:?}", rep.findings);
        }
    }

    #[test]
    fn path_scopes_and_sanctioned_homes_bound_the_rules() {
        let fires = |i: usize, path: &str| {
            let (_, _, src, _) = CASES[i];
            !analyze(RULES[i].family(), path, src).findings.is_empty()
        };
        // L2: the checked accessor layer and crates with no CSR arrays
        // are out of scope; the streaming CSR builder is in.
        assert!(!fires(0, "crates/graph/src/csr.rs"));
        assert!(!fires(0, "crates/comm/src/net.rs"));
        assert!(fires(0, "crates/store/src/stream.rs"));
        // L3 and L5 name their files.
        assert!(fires(1, "crates/core/src/policies.rs"));
        assert!(!fires(1, "crates/comm/src/net.rs"));
        assert!(!fires(2, "crates/core/src/cache.rs"));
        // D3: telemetry may read the environment.
        assert!(!fires(10, "crates/telemetry/src/export.rs"));
    }

    #[test]
    fn lint_rules_skip_cfg_test_modules_and_l5_flags_deref_stores() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn t(x: &AtomicU64) { x.load_relaxed(); row_ptr[0]; }\n}";
        assert!(analyze(Lint, "crates/core/src/cache.rs", src)
            .findings
            .is_empty());
        let src = "fn f(o: &mut f64, lm: f64) {\n  *o = 1.0 - lm.exp();\n}";
        let rep = analyze(Lint, "crates/core/src/vip.rs", src);
        assert_eq!(rules_of(&rep), ["l5-prob-clamp"], "{:?}", rep.findings);
    }

    #[test]
    fn lint_escapes_suppress_are_inventoried_and_go_stale() {
        let src = "fn f(x: &AtomicU64, row_ptr: &mut [usize]) {\n  x.load_relaxed(); // spp-sync: relaxed(monotonic tally)\n  // spp-lint: allow(l2-csr-index): construction pass\n  row_ptr[1] += row_ptr[0];\n  x.load_acquire(); // spp-sync: relaxed(the call this justified was rewritten)\n  // spp-lint: allow(l2-csr-index): nothing indexed below\n  let y = 1;\n}\n// prose naming `// spp-sync: relaxed(reason)` above a comment is no site\n// end";
        let rep = analyze(Lint, "crates/graph/src/builder.rs", src);
        let escapes: Vec<_> = rep
            .escapes
            .iter()
            .map(|e| (e.line, e.rules.as_str()))
            .collect();
        assert_eq!(escapes, [(2, "l8-relaxed-note"), (4, "l2-csr-index")]);
        assert_eq!(rules_of(&rep), ["lint-annotation"; 2], "{:?}", rep.findings);
        assert_eq!((rep.findings[0].line, rep.findings[1].line), (5, 7));
        assert!(rep.findings[0]
            .message
            .contains("stale escape: `spp-lint: allow(l8-relaxed-note)`"));
    }

    #[test]
    fn malformed_annotation_is_a_finding_and_suppresses_nothing() {
        let src =
            "fn f(row_ptr: &[usize]) -> usize { row_ptr[0] } // spp-lint: allow(l2-csr-index)";
        let rep = analyze(Lint, "crates/core/src/cache.rs", src);
        assert_eq!(rules_of(&rep), ["l2-csr-index", "lint-annotation"]);
    }

    #[test]
    fn transitive_hit_is_attributed_to_its_fn_and_root() {
        let src = "// spp-hot(a.root)\nfn root() {\n    mid();\n}\nfn mid() {\n    deep();\n}\nfn deep(x: Option<u32>) {\n    x.unwrap();\n}\nfn cold(x: Option<u32>) {\n    x.unwrap();\n    Vec::<u32>::new();\n}\n";
        let rep = analyze(Hot, LIB, src);
        assert_eq!(rules_of(&rep), ["h2-panic"]);
        assert_eq!(rep.findings[0].func, "deep");
        assert_eq!(rep.findings[0].root, "a.root");
        assert!(rep.findings[0].message.contains("`a.root` at depth 2"));
        // The det pass does not see hot roots.
        assert!(analyze(Det, LIB, src).findings.is_empty());
    }

    #[test]
    fn escapes_suppress_and_are_inventoried_per_family() {
        let src = "// spp-hot(a.root)\n// spp-det(a.root)\nfn root(v: &mut Vec<u32>) -> usize {\n    v.push(1);\n    v.push(2); // spp-hot: alloc(amortized append)\n    // spp-det: allow(d4-worker-leak): sizes scratch only, never results\n    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)\n}\n";
        let hot = analyze(Hot, LIB, src);
        assert_eq!(rules_of(&hot), ["h1-alloc"]);
        assert_eq!(hot.findings[0].line, 4);
        assert_eq!(hot.escapes.len(), 1);
        assert_eq!(hot.escapes[0].line, 5);
        let det = analyze(Det, LIB, src);
        assert!(det.findings.is_empty());
        assert_eq!(det.escapes.len(), 1);
        assert_eq!(det.escapes[0].rules, "d4-worker-leak");
    }

    #[test]
    fn stale_escape_in_reached_fn_is_flagged_per_family() {
        let src = "// spp-hot(a.root)\n// spp-det(a.root)\nfn root() {\n    let x = 1; // spp-hot: alloc(nothing here)\n    let _ = x; // spp-det: allow(d3-ambient-read): nothing here\n}\nfn cold() {\n    let y = 2; // spp-hot: alloc(not reached, not checked)\n}\n";
        for (kind, rule, line) in [(Hot, "hot-annotation", 4), (Det, "det-annotation", 5)] {
            let rep = analyze(kind, LIB, src);
            assert_eq!(rules_of(&rep), [rule]);
            assert_eq!(rep.findings[0].line, line);
            assert!(rep.findings[0].message.contains("stale escape"));
        }
    }

    #[test]
    fn stop_boundary_suppresses_checks_per_family() {
        let src = "// spp-hot(a.root)\n// spp-det(a.root)\nfn root() {\n    cold_reg();\n    cold_log();\n}\n// spp-hot: stop(one-time registration)\nfn cold_reg() {\n    Vec::<u32>::new();\n}\n// spp-det: stop(report assembly; off the result path)\nfn cold_log() {\n    let _ = std::time::Instant::now();\n}\n";
        assert!(analyze(Hot, LIB, src).findings.is_empty());
        assert!(analyze(Det, LIB, src).findings.is_empty());
    }
}
