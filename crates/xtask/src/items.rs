//! Function-item and call-site parser for the call-graph analyzers.
//!
//! Works on the *cleaned* per-line view from [`crate::scan`] (comments
//! and literal contents blanked), so brace tracking and identifier
//! extraction never trip over strings or comments. This is still a
//! lexical pass, not a full parse: items are recovered by accumulating
//! the "header" text between block boundaries (`{`, `}`, `;`) and
//! classifying each opened brace as a `fn` body, an `impl` block, or
//! an uninteresting block. That is sufficient for call-graph
//! construction, where over-approximation is acceptable (DESIGN.md
//! §8).
//!
//! Three annotation families share one grammar, read from the *raw*
//! lines (the cleaning pass blanks comments): `spp-hot` for the
//! hot-path rules (H1–H4), `spp-det` for the determinism rules (D1–D5)
//! and `spp-lint` for the path-scoped line rules (L2, L5, L8); see
//! DESIGN.md "Static gates".
//!
//! - `// spp-hot(<name>)` / `// spp-det(<name>)` — declares the next
//!   `fn` item (or the item whose signature shares the line) as a root
//!   named `<name>`;
//! - `// spp-hot: stop(<reason>)` / `// spp-det: stop(<reason>)` —
//!   marks the next `fn` as a cold boundary: traversal records it but
//!   does not check its body or descend into its callees;
//! - `// spp-hot: allow(<rule>[, <rule>]): <reason>` (and the `spp-det`
//!   / `spp-lint` equivalents) — escape for the listed rules on this
//!   line (trailing) or the next line (standalone comment);
//! - `// spp-hot: alloc(<reason>)` / `// spp-sync: relaxed(<reason>)` —
//!   escape shorthand for `h1-alloc` / `l8-relaxed-note`, same line
//!   placement rules.
//!
//! The lint family has no roots or stops: its rules are scoped by path.

use crate::scan::SourceFile;
use std::collections::BTreeSet;

/// Which rule family a gate runs: the hot-path pass (`spp-hot`
/// roots/stops), the determinism pass (`spp-det`), or the path-scoped
/// line rules (`spp-lint`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AuditKind {
    Hot,
    Det,
    Lint,
}

impl AuditKind {
    /// The family's key prefix: `spp-<prefix>` annotations,
    /// `<prefix>_roots` in the report, the `<prefix>-annotation` rule.
    pub fn prefix(self) -> &'static str {
        match self {
            AuditKind::Hot => "hot",
            AuditKind::Det => "det",
            AuditKind::Lint => "lint",
        }
    }

    /// The `cargo xtask` subcommand that runs the pass.
    pub fn command(self) -> &'static str {
        match self {
            AuditKind::Hot => "audit-hotpaths",
            AuditKind::Det => "audit-determinism",
            AuditKind::Lint => "lint",
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee identifier (bare name, e.g. `hop_update` or `probe`).
    pub callee: String,
    /// Path qualifier when the call was `Type::callee(..)` or
    /// `Type::<..>::callee(..)`; `<` for `<Type as Trait>::callee(..)`;
    /// `self` for `self.callee(..)`; else `None`.
    pub recv: Option<String>,
    /// True for `.callee(..)` method syntax.
    pub method: bool,
    /// 1-based line number.
    pub line: usize,
}

/// A parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Display name: `Type::name` inside an `impl` block, else `name`.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based inclusive line range: signature through closing brace.
    pub start: usize,
    pub end: usize,
    /// True when the item lies in a `#[cfg(test)]` region.
    pub in_test: bool,
    /// True when the signature takes `self` (method); used to restrict
    /// `.name(..)` resolution to methods.
    pub has_self: bool,
    /// True unless the item sits directly in an `impl` block (a fn
    /// nested in a method is free); bare `name(..)` calls reach only
    /// free fns.
    pub free: bool,
    /// True for a method of an `impl Trait for Type` block, which
    /// `dyn` and generic dispatch reach from any crate.
    pub trait_impl: bool,
    /// Root names from `// spp-<family>(<name>)`, indexed by family.
    roots: [Option<String>; 3],
    /// Cold-boundary reasons from `// spp-<family>: stop(<reason>)`,
    /// indexed by family.
    stops: [Option<String>; 3],
    /// Call sites extracted from the body (innermost-item attribution:
    /// lines of a nested `fn` belong to the nested item only). A bare
    /// call of one of the fn's parameters, or of a closure parameter
    /// bound on or above its line, is a call of that value and is left
    /// out: no item of its name is what it calls.
    pub calls: Vec<CallSite>,
    /// The signature's parameter names, then each closure parameter as
    /// the body binds it.
    params: Vec<String>,
}

impl FnItem {
    /// The root name this item declares for `kind`, if any.
    pub fn root_for(&self, kind: AuditKind) -> Option<&str> {
        self.roots[kind as usize].as_deref()
    }

    /// The cold-boundary reason this item declares for `kind`, if any.
    pub fn stop_for(&self, kind: AuditKind) -> Option<&str> {
        self.stops[kind as usize].as_deref()
    }
}

/// One escape annotation: `allow(..): ..` or a family's shorthand.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Escape {
    /// Family whose rules the escape may name.
    pub kind: AuditKind,
    /// 1-based line the escape applies to.
    pub line: usize,
    /// Rule ids this escape covers.
    pub rules: BTreeSet<String>,
    /// Mandatory justification.
    pub reason: String,
}

/// Parsed items and annotations for one source file.
#[derive(Debug)]
pub struct FileItems {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Items in source order.
    pub fns: Vec<FnItem>,
    /// Escape annotations of all three families.
    pub escapes: Vec<Escape>,
    /// Malformed annotations: (family, 1-based line, message).
    pub bad: Vec<(AuditKind, usize, String)>,
}

/// Keywords and binding forms that look like calls lexically
/// (`if (..)`, `Some(..)`) but are not function calls we resolve.
/// Uppercase-initial identifiers (tuple-struct/enum constructors) are
/// filtered separately.
const NON_CALL_KEYWORDS: [&str; 18] = [
    "if", "while", "for", "match", "return", "fn", "loop", "move", "in", "as", "let", "else",
    "unsafe", "await", "ref", "mut", "where", "box",
];

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extracts the identifier ending at byte offset `end` (exclusive).
fn ident_before(s: &str, end: usize) -> Option<&str> {
    let mut start = end;
    for (i, c) in s[..end].char_indices().rev() {
        if is_ident_char(c) {
            start = i;
        } else {
            break;
        }
    }
    if start == end {
        None
    } else {
        Some(&s[start..end])
    }
}

/// Parses the impl target type from an accumulated header, e.g.
/// `impl<T: Clone> fmt::Display for Matrix<T>` -> `(Matrix, true)`; the
/// flag says whether the impl is of a trait.
fn impl_target(header: &str) -> Option<(String, bool)> {
    let pos = *crate::rules::token_positions(header, "impl").first()?;
    let mut rest = header[pos + 4..].trim_start();
    // Skip the generic parameter list, tracking <> depth.
    if let Some(stripped) = rest.strip_prefix('<') {
        let mut depth = 1i32;
        let mut cut = stripped.len();
        for (i, c) in stripped.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = stripped[cut.min(stripped.len())..].trim_start();
    }
    // `impl Trait for Type` -> take the type after `for`.
    let for_pos = crate::rules::token_positions(rest, "for").first().copied();
    if let Some(p) = for_pos {
        rest = rest[p + 3..].trim_start();
    }
    // Last path segment of the leading path, stopping at `<`/`{`/space.
    let head: &str = rest
        .split(|c: char| c == '<' || c == '{' || c.is_whitespace())
        .next()
        .unwrap_or("");
    let seg = head.rsplit("::").next().unwrap_or(head);
    let seg: String = seg.chars().filter(|c| is_ident_char(*c)).collect();
    if seg.is_empty() {
        None
    } else {
        Some((seg, for_pos.is_some()))
    }
}

/// The identifiers a parameter list binds: per top-level `,`-separated
/// entry, every identifier of the pattern before its top-level `:`
/// (`mut x`, `&(a, b)`), bar `self`, `_` and binding keywords.
fn pattern_idents(list: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut depth = 0i32;
    let mut in_pattern = true;
    let mut ident = String::new();
    let mut prev = ' ';
    for c in list.chars().chain([',']) {
        if is_ident_char(c) && in_pattern {
            ident.push(c);
            continue;
        }
        let starts_with_digit = ident.chars().next().is_some_and(|c| c.is_numeric());
        if !ident.is_empty()
            && !starts_with_digit
            && !["self", "_", "mut", "ref"].contains(&ident.as_str())
        {
            names.push(std::mem::take(&mut ident));
        }
        ident.clear();
        match c {
            '(' | '[' | '<' => depth += 1,
            '>' if prev == '-' => {}
            ')' | ']' | '>' => depth -= 1,
            ':' if depth == 0 => in_pattern = false,
            ',' if depth == 0 => in_pattern = true,
            _ => {}
        }
        prev = c;
    }
    names
}

/// The parameter names of the fn whose header starts at its `fn`
/// token: the pattern identifiers of the first parenthesized list
/// outside the generic parameters.
fn fn_params(header: &str) -> Vec<String> {
    let mut angle = 0i32;
    let mut prev = ' ';
    for (i, c) in header.char_indices() {
        match c {
            '<' => angle += 1,
            '>' if prev != '-' => angle -= 1,
            '(' if angle == 0 => {
                let mut depth = 0i32;
                for (j, d) in header[i..].char_indices() {
                    match d {
                        '(' => depth += 1,
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                return pattern_idents(&header[i + 1..i + j]);
                            }
                        }
                        _ => {}
                    }
                }
                return Vec::new();
            }
            _ => {}
        }
        prev = c;
    }
    Vec::new()
}

/// The parameter names of the closures a line opens: a `|` that follows
/// `(`, `,`, `=`, `{` or `move` (not an operand, so no bitwise or) and
/// the next `|` delimit a parameter list.
fn closure_params(line: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('|') {
        let before = rest[..open].trim_end();
        let opens = before.ends_with(['(', ',', '=', '{']) || before.ends_with("move");
        let after = &rest[open + 1..];
        let Some(close) = after.find('|') else {
            break;
        };
        if opens {
            names.extend(pattern_idents(&after[..close]));
            rest = &after[close + 1..];
        } else {
            rest = after;
        }
    }
    names
}

/// Extracts `fn <name>` from a header; returns `(name, byte_offset)` of
/// the `fn` token. Headers like `f: fn(u32) -> u32` (fn-pointer types)
/// yield no name and are rejected.
fn fn_name(header: &str) -> Option<(String, usize)> {
    for pos in crate::rules::token_positions(header, "fn") {
        let rest = header[pos + 2..].trim_start();
        let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
        if !name.is_empty() {
            return Some((name, pos));
        }
    }
    None
}

#[derive(Debug)]
enum Ctx {
    /// Index into `fns`.
    Fn(usize),
    /// Target type, and whether the impl is of a trait.
    Impl(String, bool),
    Other,
}

/// Parameters distinguishing the annotation families; the grammar is
/// otherwise identical.
struct MarkerSpec {
    kind: AuditKind,
    /// Whether the family walks the call graph, i.e. whether the root
    /// and `stop(..)` forms are part of its grammar.
    graph: bool,
    /// `(marker, form, rule)`: `// <marker>: <form>(<reason>)` is
    /// shorthand for `allow(<rule>)`.
    shorthand: Option<(&'static str, &'static str, &'static str)>,
}

const SPECS: [MarkerSpec; 3] = [
    MarkerSpec {
        kind: AuditKind::Hot,
        graph: true,
        shorthand: Some(("spp-hot", "alloc", "h1-alloc")),
    },
    MarkerSpec {
        kind: AuditKind::Det,
        graph: true,
        shorthand: None,
    },
    MarkerSpec {
        kind: AuditKind::Lint,
        graph: false,
        shorthand: Some(("spp-sync", "relaxed", "l8-relaxed-note")),
    },
];

/// Text following `<marker>:` on `raw`, if the line carries it.
fn after_colon<'a>(raw: &'a str, marker: &str) -> Option<&'a str> {
    let rest = &raw[raw.find(marker)? + marker.len()..];
    rest.strip_prefix(':').map(str::trim_start)
}

/// A root or stop annotation awaiting its fn: `(0-based line, payload)`.
type Mark = (usize, String);

/// Parses one annotation family from the raw lines into the file's
/// escape and malformed-annotation lists.
///
/// Returns `(roots, stops)`, attached to items later.
fn parse_marker_annotations(
    raw_lines: &[&str],
    spec: &MarkerSpec,
    escapes: &mut Vec<Escape>,
    bad: &mut Vec<(AuditKind, usize, String)>,
) -> (Vec<Mark>, Vec<Mark>) {
    let mut roots = Vec::new();
    let mut stops = Vec::new();
    let kind = spec.kind;
    let m = format!("spp-{}", kind.prefix());
    let mut forms = Vec::new();
    if spec.graph {
        forms.push(format!("`{m}(<name>)`"));
        forms.push(format!("`{m}: stop(<reason>)`"));
    }
    if let Some((sm, form, _)) = spec.shorthand {
        forms.push(format!("`{sm}: {form}(<reason>)`"));
    }
    forms.push(format!("`{m}: allow(<rule>[, <rule>]): <reason>`"));
    let expected = forms.join(", ");
    for (idx, raw) in raw_lines.iter().enumerate() {
        let mut malformed = |msg: &str| {
            bad.push((
                kind,
                idx + 1,
                format!("malformed {m} annotation: {msg}; expected {expected}"),
            ));
        };
        // Line escapes: trailing applies to this line, standalone
        // comment applies to the next.
        let target = if raw.trim_start().starts_with("//") {
            idx + 2
        } else {
            idx + 1
        };
        if let Some((sm, form, rule)) = spec.shorthand {
            let body = after_colon(raw, sm)
                .and_then(|r| r.strip_prefix(form))
                .and_then(|r| r.strip_prefix('('));
            if let Some(body) = body {
                match body.rfind(')').map(|close| body[..close].trim()) {
                    None => malformed(&format!("unclosed {form} reason")),
                    Some("") => malformed(&format!("{form} requires a reason")),
                    Some(reason) => escapes.push(Escape {
                        kind,
                        line: target,
                        rules: [rule.to_string()].into_iter().collect(),
                        reason: reason.to_string(),
                    }),
                }
                continue;
            }
        }
        let Some(pos) = raw.find(&m) else {
            continue;
        };
        let after = &raw[pos + m.len()..];
        if let Some(body) = after.strip_prefix('(').filter(|_| spec.graph) {
            // <marker>(<name>): root declaration.
            let Some(close) = body.find(')') else {
                malformed("unclosed root name");
                continue;
            };
            let name = body[..close].trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| is_ident_char(c) || c == '-' || c == '.')
            {
                malformed("root name must be a dotted identifier");
                continue;
            }
            roots.push((idx, name.to_string()));
            continue;
        }
        let Some(rest) = after.strip_prefix(':') else {
            malformed(&format!("missing `(` or `:` after {m}"));
            continue;
        };
        let rest = rest.trim_start();
        if let Some(body) = rest.strip_prefix("stop(").filter(|_| spec.graph) {
            let Some(close) = body.rfind(')') else {
                malformed("unclosed stop reason");
                continue;
            };
            let reason = body[..close].trim();
            if reason.is_empty() {
                malformed("stop requires a reason");
                continue;
            }
            stops.push((idx, reason.to_string()));
            continue;
        }
        if let Some(body) = rest.strip_prefix("allow(") {
            let Some(close) = body.find(')') else {
                malformed("unclosed allow rule list");
                continue;
            };
            let mut rules = BTreeSet::new();
            let mut unknown = None;
            for r in body[..close].split(',') {
                let r = r.trim().to_ascii_lowercase();
                if r.is_empty() {
                    continue;
                }
                if !crate::rules::rule_ids(kind).any(|id| id == r) {
                    unknown = Some(r.clone());
                }
                rules.insert(r);
            }
            if let Some(u) = unknown {
                malformed(&format!("unknown {} rule `{u}`", kind.prefix()));
                continue;
            }
            let tail = body[close + 1..].trim();
            let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
            if rules.is_empty() || reason.is_empty() {
                malformed("allow requires a rule list and a `: <reason>`");
                continue;
            }
            escapes.push(Escape {
                kind,
                line: target,
                rules,
                reason: reason.to_string(),
            });
            continue;
        }
        malformed(&format!("unknown {m} form"));
    }
    (roots, stops)
}

/// For a turbofish call `name::<..>(`, the offset where `::<` starts,
/// given the offset of `(`; `None` unless `(` closes a `::<..>` list.
fn turbofish_start(s: &str, paren: usize) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0usize;
    for i in (0..paren).rev() {
        match bytes[i] {
            b'>' => depth += 1,
            b'<' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    return s[..i].strip_suffix("::").map(str::len);
                }
            }
            _ if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Extracts call sites from one cleaned line into `out`.
fn calls_on_line(cleaned: &str, lineno: usize, out: &mut Vec<CallSite>) {
    let bytes = cleaned.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' {
            continue;
        }
        // `name::<T>(..)` calls `name`: skip back over the turbofish.
        let end = turbofish_start(cleaned, i).unwrap_or(i);
        let Some(name) = ident_before(cleaned, end) else {
            continue;
        };
        let start = end - name.len();
        // Macro invocations (`panic!(`) and raw identifiers are not
        // workspace calls; the H-rules catch macros lexically.
        let before = cleaned[..start].trim_end();
        if before.ends_with('!') {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name)
            || name.chars().next().is_some_and(|c| c.is_uppercase())
            || name.chars().next().is_some_and(|c| c.is_numeric())
        {
            continue;
        }
        let method = cleaned[..start].ends_with('.');
        let recv = if method {
            ident_before(cleaned, start - 1).filter(|r| *r == "self")
        } else {
            // `Type::<..>::f(..)` names `Type`: skip back over the list.
            let path = cleaned[..start].strip_suffix("::");
            path.and_then(|p| match turbofish_start(p, p.len()) {
                Some(end) => ident_before(p, end),
                None if p.ends_with('>') => Some("<"),
                None => ident_before(p, p.len()),
            })
        };
        out.push(CallSite {
            callee: name.to_string(),
            recv: recv.map(str::to_string),
            method,
            line: lineno,
        });
    }
}

/// Parses function items, call sites, and all annotation families
/// from a scanned file. `src` is the raw source (for comment
/// annotations).
pub fn parse_items(file: &SourceFile, src: &str) -> FileItems {
    let raw_lines: Vec<&str> = src.split('\n').collect();

    let mut fns: Vec<FnItem> = Vec::new();
    let mut stack: Vec<Ctx> = Vec::new();
    // Accumulated header text since the last `{`/`}`/`;`, with a
    // parallel per-byte line map so the `fn` token's line is exact. A
    // `;` inside square brackets (`[T; N]` in a signature) ends nothing.
    let mut header = String::new();
    let mut header_lines: Vec<usize> = Vec::new();
    let mut brackets = 0usize;

    for (idx, line) in file.lines.iter().enumerate() {
        for c in line.cleaned.chars() {
            match c {
                '{' => {
                    let ctx = if let Some((name, fpos)) = fn_name(&header) {
                        let sig_line = header_lines.get(fpos).copied().unwrap_or(idx);
                        let qual = stack
                            .iter()
                            .rev()
                            .find_map(|c| match c {
                                Ctx::Impl(t, _) => Some(format!("{t}::{name}")),
                                _ => None,
                            })
                            .unwrap_or_else(|| name.clone());
                        let has_self = crate::rules::token_positions(&header, "self")
                            .iter()
                            .any(|&p| p > fpos);
                        let trait_impl = match stack.last() {
                            Some(Ctx::Impl(_, t)) => Some(*t),
                            _ => None,
                        };
                        fns.push(FnItem {
                            name,
                            qual,
                            line: sig_line + 1,
                            start: sig_line,
                            end: idx,
                            in_test: file.lines.get(sig_line).is_some_and(|l| l.in_test),
                            has_self,
                            free: trait_impl.is_none(),
                            trait_impl: trait_impl == Some(true),
                            roots: Default::default(),
                            stops: Default::default(),
                            calls: Vec::new(),
                            params: fn_params(&header[fpos..]),
                        });
                        Ctx::Fn(fns.len() - 1)
                    } else if let Some((ty, of_trait)) = impl_target(&header) {
                        Ctx::Impl(ty, of_trait)
                    } else {
                        Ctx::Other
                    };
                    stack.push(ctx);
                    header.clear();
                    header_lines.clear();
                    brackets = 0;
                }
                '}' => {
                    if let Some(Ctx::Fn(i)) = stack.pop() {
                        if let Some(f) = fns.get_mut(i) {
                            f.end = idx;
                        }
                    }
                    header.clear();
                    header_lines.clear();
                    brackets = 0;
                }
                ';' if brackets == 0 => {
                    header.clear();
                    header_lines.clear();
                }
                c => {
                    match c {
                        '[' => brackets += 1,
                        ']' => brackets = brackets.saturating_sub(1),
                        _ => {}
                    }
                    header.push(c);
                    for _ in 0..c.len_utf8() {
                        header_lines.push(idx);
                    }
                }
            }
        }
        header.push('\n');
        header_lines.push(idx);
    }

    // Attach root/stop annotations: each mark binds to the first item
    // whose signature line is >= the mark's line (i.e. the annotation
    // sits directly above the fn or trails its signature).
    let mut escapes = Vec::new();
    let mut bad = Vec::new();
    for spec in &SPECS {
        let (kind, m) = (spec.kind, spec.kind.prefix());
        let (roots, stops) = parse_marker_annotations(&raw_lines, spec, &mut escapes, &mut bad);
        for (mark_line, name) in roots {
            match fns.iter_mut().find(|f| f.start >= mark_line) {
                Some(f) => f.roots[kind as usize] = Some(name),
                None => bad.push((
                    kind,
                    mark_line + 1,
                    format!("spp-{m}({name}) does not precede any fn item"),
                )),
            }
        }
        for (mark_line, reason) in stops {
            match fns.iter_mut().find(|f| f.start >= mark_line) {
                Some(f) => f.stops[kind as usize] = Some(reason),
                None => bad.push((
                    kind,
                    mark_line + 1,
                    format!("spp-{m}: stop(..) does not precede any fn item"),
                )),
            }
        }
    }

    // Call-site extraction with innermost-item attribution: for each
    // line, the owning item is the one with the largest start <= line.
    for idx in 0..file.lines.len() {
        let owner = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.start <= idx && idx <= f.end)
            .max_by_key(|(_, f)| f.start)
            .map(|(i, _)| i);
        let Some(owner) = owner else { continue };
        let mut sites = Vec::new();
        if let Some(line) = file.lines.get(idx) {
            let bound = closure_params(&line.cleaned);
            fns[owner].params.extend(bound);
            calls_on_line(&line.cleaned, idx + 1, &mut sites);
        }
        let params = &fns[owner].params;
        sites.retain(|s| s.method || s.recv.is_some() || !params.contains(&s.callee));
        // Drop the self-reference the signature line produces
        // (`fn name(..)` looks like a call to `name`).
        if idx == fns[owner].start {
            let own = fns[owner].name.clone();
            sites.retain(|s| s.callee != own || s.method || s.recv.is_some());
        }
        fns[owner].calls.extend(sites);
    }

    FileItems {
        rel_path: file.rel_path.clone(),
        fns,
        escapes,
        bad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_source;

    fn parse(src: &str) -> FileItems {
        parse_items(&scan_source("x.rs", src), src)
    }

    #[test]
    fn finds_free_and_impl_fns_with_extents() {
        let src = "fn alpha() {\n    beta();\n}\n\nimpl Gamma {\n    pub fn beta(&self) -> u32 {\n        7\n    }\n}\n";
        let f = parse(src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].name, "alpha");
        assert_eq!(f.fns[0].qual, "alpha");
        assert_eq!((f.fns[0].start, f.fns[0].end), (0, 2));
        assert_eq!(f.fns[1].qual, "Gamma::beta");
        assert!(f.fns[1].has_self);
        assert_eq!((f.fns[1].start, f.fns[1].end), (5, 7));
        assert!(f.fns[0].free && !f.fns[1].free && !f.fns[1].trait_impl);
        let f = parse("impl G {\n    fn m(&self) {\n        fn helper() {}\n    }\n}\n");
        assert!(
            !f.fns[0].free && f.fns[1].free,
            "a fn nested in a method is free"
        );
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let src =
            "impl<T: Clone> fmt::Display for Matrix<T> {\n    fn fmt(&self) -> u32 { 0 }\n}\n";
        let f = parse(src);
        assert_eq!(f.fns[0].qual, "Matrix::fmt");
        assert!(f.fns[0].trait_impl && !f.fns[0].free);
    }

    #[test]
    fn trait_method_declarations_have_no_body_item() {
        let src = "trait T {\n    fn decl(&self) -> u32;\n    fn with_default(&self) -> u32 {\n        1\n    }\n}\n";
        let f = parse(src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "with_default");
    }

    #[test]
    fn call_sites_free_method_and_qualified() {
        let src = "fn f() {\n    helper(1);\n    x.probe(2);\n    Matrix::zeros(3);\n    Vec::new();\n    Some(4);\n    if (a) {}\n    panic!(\"no\");\n    pick::<4>(xs);\n    x.collect::<Vec<u32>>();\n    self.settle(5);\n    Ring::<u32>::with_cap(6);\n    <u64 as Standard>::draw(7);\n}\n";
        let f = parse(src);
        let calls = &f.fns[0].calls;
        let names: Vec<&str> = calls.iter().map(|c| c.callee.as_str()).collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"probe"));
        assert!(names.contains(&"zeros"));
        assert!(names.contains(&"new"));
        assert!(!names.contains(&"if"));
        assert!(!names.contains(&"Some"));
        assert!(!names.contains(&"panic"));
        // Turbofish calls are edges to the fn, not to the type argument.
        assert!(names.contains(&"pick"));
        assert!(calls.iter().any(|c| c.callee == "collect" && c.method));
        let probe = calls.iter().find(|c| c.callee == "probe").unwrap();
        assert!(probe.method && probe.recv.is_none());
        let recv = |name: &str| {
            calls
                .iter()
                .find(|c| c.callee == name)
                .unwrap()
                .recv
                .as_deref()
        };
        assert_eq!(recv("zeros"), Some("Matrix"));
        assert_eq!(recv("settle"), Some("self"));
        assert_eq!(recv("with_cap"), Some("Ring"));
        assert_eq!(recv("draw"), Some("<"));
    }

    #[test]
    fn signature_line_self_reference_is_dropped() {
        let src = "fn fanout(fanout: u32) {\n    other();\n}\n";
        let f = parse(src);
        assert!(f.fns[0].calls.iter().all(|c| c.callee != "fanout"));
    }

    #[test]
    fn calls_of_parameters_are_no_call_sites() {
        let src = "fn f<T: Fn(u32) -> u32>(mut a: T, (b, c): (u8, u8), read: impl Fn() -> u8) {\n    a(1);\n    b(2);\n    c(3);\n    read();\n    let g = move |x: fn() -> u8, (y, z)| x() + y(z);\n    free(4);\n    x.read();\n}\n";
        let f = parse(src);
        let names: Vec<&str> = f.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(names, ["free", "read"]);
    }

    #[test]
    fn nested_fn_owns_its_lines() {
        let src = "fn outer() {\n    fn inner() {\n        leak();\n    }\n    outer_call();\n}\n";
        let f = parse(src);
        let outer = f.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = f.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.calls.iter().any(|c| c.callee == "outer_call"));
        assert!(outer.calls.iter().all(|c| c.callee != "leak"));
        assert!(inner.calls.iter().any(|c| c.callee == "leak"));
    }

    use AuditKind::{Det, Hot, Lint};

    fn escapes(f: &FileItems, kind: AuditKind) -> Vec<&Escape> {
        f.escapes.iter().filter(|e| e.kind == kind).collect()
    }

    fn bad(f: &FileItems, kind: AuditKind) -> Vec<&str> {
        let of_kind = f.bad.iter().filter(|b| b.0 == kind);
        of_kind.map(|b| b.2.as_str()).collect()
    }

    #[test]
    fn hot_root_and_stop_attach_to_next_fn() {
        let src = "// spp-hot(core.hop)\n#[inline]\nfn hop() {}\n\n// spp-hot: stop(cold registration)\nfn metrics() {}\n";
        let f = parse(src);
        assert_eq!(f.fns[0].root_for(Hot), Some("core.hop"));
        assert_eq!(f.fns[1].stop_for(Hot), Some("cold registration"));
        assert!(f.bad.is_empty());
    }

    #[test]
    fn escapes_trailing_and_standalone() {
        let src = "fn f() {\n    v.push(1); // spp-hot: alloc(amortized)\n    // spp-hot: allow(h2-panic, h3-lock): fixture reason\n    x.unwrap();\n}\n";
        let f = parse(src);
        assert_eq!(f.escapes.len(), 2);
        assert_eq!(f.escapes[0].line, 2);
        assert!(f.escapes[0].rules.contains("h1-alloc"));
        assert_eq!(f.escapes[1].line, 4);
        assert!(f.escapes[1].rules.contains("h2-panic"));
        assert!(f.escapes[1].rules.contains("h3-lock"));
        assert_eq!(f.escapes[1].reason, "fixture reason");
    }

    #[test]
    fn malformed_annotations_are_reported() {
        let src = "// spp-hot: allow(h9-bogus): nope\nfn f() {}\n// spp-hot: alloc()\nfn g() {}\n";
        let f = parse(src);
        assert_eq!(f.bad.len(), 2);
        assert!(bad(&f, Hot)[0].contains("unknown hot rule"), "{:?}", f.bad);
    }

    #[test]
    fn det_root_stop_and_escapes_parse_independently_of_hot() {
        let src = "// spp-det(core.vip_scores)\nfn scores() {}\n\n// spp-det: stop(report assembly)\nfn render() {}\n\nfn f() {\n    seed_env(); // spp-det: allow(d3-ambient-read): scheduling knob only\n}\n";
        let f = parse(src);
        assert_eq!(f.fns[0].root_for(Det), Some("core.vip_scores"));
        assert!(f.fns[0].root_for(Hot).is_none());
        assert_eq!(f.fns[1].stop_for(Det), Some("report assembly"));
        assert!(f.fns[1].stop_for(Hot).is_none());
        assert_eq!(f.escapes.len(), 1);
        assert_eq!((f.escapes[0].kind, f.escapes[0].line), (Det, 8));
        assert!(f.escapes[0].rules.contains("d3-ambient-read"));
        assert!(f.bad.is_empty());
    }

    #[test]
    fn det_family_rejects_alloc_shorthand_and_hot_rules() {
        let src = "// spp-det: alloc(nope)\nfn f() {}\n// spp-det: allow(h1-alloc): wrong family\nfn g() {}\n";
        let f = parse(src);
        assert_eq!(f.bad.len(), 2);
        assert!(bad(&f, Det)[1].contains("unknown det rule"));
    }

    #[test]
    fn dual_hot_and_det_annotations_attach_to_one_fn() {
        let src = "// spp-hot(serve.classify)\n// spp-det(serve.classify)\nfn classify() {}\n";
        let f = parse(src);
        assert_eq!(f.fns[0].root_for(Hot), Some("serve.classify"));
        assert_eq!(f.fns[0].root_for(Det), Some("serve.classify"));
    }

    #[test]
    fn lint_family_has_allow_and_the_relaxed_shorthand_but_no_roots() {
        let src = "fn f() {\n    // spp-lint: allow(l2-csr-index, l5-prob-clamp): standalone covers the next line\n    a();\n    x.load_relaxed(); // spp-sync: relaxed(monotonic tally)\n}\n// the `spp-sync` crate name in prose is not an annotation\n// spp-lint(no.roots)\nfn g() {}\n";
        let f = parse(src);
        let e = escapes(&f, Lint);
        assert_eq!(e.len(), 2, "{:?}", f.escapes);
        assert_eq!((e[0].line, e[0].rules.len()), (3, 2));
        assert_eq!((e[1].line, e[1].rules.len()), (4, 1));
        assert!(e[1].rules.contains("l8-relaxed-note"));
        assert_eq!(e[1].reason, "monotonic tally");
        assert_eq!(bad(&f, Lint).len(), 1, "{:?}", f.bad);
        assert!(f.fns[1].root_for(Lint).is_none());
    }

    #[test]
    fn lint_pragma_without_reason_or_rules_and_empty_relaxed_note_are_malformed() {
        let src = "a(); // spp-lint: allow(l2-csr-index)\nb(); // spp-lint: allow(): because\nc(); // spp-lint: allow(l9-bogus): no such rule\nx.load_relaxed(); // spp-sync: relaxed()\n";
        let f = parse(src);
        assert!(f.escapes.is_empty(), "{:?}", f.escapes);
        assert_eq!(bad(&f, Lint).len(), 4, "{:?}", f.bad);
        assert!(bad(&f, Lint)[2].contains("unknown lint rule `l9-bogus`"));
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let src = "fn f(cb: fn(u32) -> u32) {\n    cb(1);\n}\n";
        let f = parse(src);
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "f");
    }

    #[test]
    fn multiline_string_does_not_break_extents() {
        let src =
            "fn f() {\n    let s = \"{ not a brace\n} still string\";\n    g();\n}\nfn h() {}\n";
        let f = parse(src);
        assert_eq!(f.fns.len(), 2);
        assert_eq!((f.fns[0].start, f.fns[0].end), (0, 4));
    }
}
