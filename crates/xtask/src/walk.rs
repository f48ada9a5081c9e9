//! Workspace discovery shared by the gates: the source files they scan
//! and the crate dependency graph the call graph resolves within.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Crate key -> the crate keys its `[dependencies]` name, for every
/// crate whose manifest could be read.
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

/// The crate a workspace-relative path belongs to: its first two
/// components (`crates/tensor`, `shims/rand`), or `src` for the facade.
pub fn crate_key(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some(a), Some(b)) if a == "crates" || a == "shims" => format!("{a}/{b}"),
        (Some(a), _) => a.to_string(),
        _ => String::new(),
    }
}

/// `(name, path)` of each entry in `section` of a manifest; `path` is
/// `None` for an entry without a `path = ".."` (e.g. `x.workspace = true`).
fn manifest_entries<'a>(toml: &'a str, section: &str) -> Vec<(&'a str, Option<&'a str>)> {
    let mut lines = toml.lines().map(str::trim);
    lines.find(|l| *l == section);
    lines
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let name = l.split(['.', '=', ' ']).next().unwrap_or(l);
            let path = l
                .split_once("path = \"")
                .and_then(|(_, r)| r.split('"').next());
            (name, path)
        })
        .collect()
}

/// `dir/rel` with `..` components folded, as a workspace-relative path.
fn join(dir: &str, rel: &str) -> String {
    let mut out: Vec<&str> = dir.split('/').filter(|c| !c.is_empty()).collect();
    for c in rel.split('/') {
        match c {
            ".." => drop(out.pop()),
            "." | "" => {}
            c => out.push(c),
        }
    }
    out.join("/")
}

/// Each crate's `[dependencies]` as crate keys, read from the member
/// manifests (the facade's is the root `Cargo.toml`). A `workspace =
/// true` entry resolves through the root `[workspace.dependencies]`
/// path, so `rand` maps to `shims/rand`; entries with no path in the
/// workspace are external. Crates without a manifest are absent.
pub fn crate_deps(root: &Path) -> CrateDeps {
    let read = |dir: &str| std::fs::read_to_string(root.join(dir).join("Cargo.toml")).ok();
    let root_toml = read("").unwrap_or_default();
    let workspace: BTreeMap<&str, Option<&str>> =
        manifest_entries(&root_toml, "[workspace.dependencies]")
            .into_iter()
            .collect();
    let mut out = CrateDeps::new();
    for dir in std::iter::once(String::new()).chain(members(root).unwrap_or_default()) {
        let Some(toml) = read(&dir) else { continue };
        let deps = manifest_entries(&toml, "[dependencies]")
            .into_iter()
            .filter_map(|(name, path)| match path {
                Some(p) => Some(join(&dir, p)),
                None => workspace.get(name).copied().flatten().map(|p| join("", p)),
            })
            .map(|p| crate_key(&p))
            .collect();
        let key = if dir.is_empty() {
            "src".to_string()
        } else {
            dir
        };
        out.insert(key, deps);
    }
    out
}

/// The workspace-relative member directories (`crates/*`, `shims/*`),
/// sorted.
fn members(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for group in ["crates", "shims"] {
        if root.join(group).is_dir() {
            for e in std::fs::read_dir(root.join(group))? {
                out.push(format!("{group}/{}", e?.file_name().to_string_lossy()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Locates the workspace root: `explicit` wins, else the xtask
/// manifest's grandparent (crates/xtask -> workspace).
pub fn workspace_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(r) = explicit {
        return Some(r);
    }
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    Some(manifest.parent()?.parent()?.to_path_buf())
}

/// Recursively collects `.rs` files under `dir` into `out`.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace-relative analysis targets, deterministically ordered:
/// `src/**` of every `crates/*` member and `shims/*` shim plus the
/// facade crate's `src/`, excluding binary targets (`**/bin/**`) and
/// the xtask itself.
pub fn lint_targets(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    for m in members(root)? {
        if !m.ends_with("/xtask") {
            collect_rs(&root.join(m).join("src"), &mut files)?;
        }
    }
    files.retain(|p| !p.components().any(|c| c.as_os_str() == "bin"));
    Ok(files)
}

/// Reads every target under `root` into `(rel_path, source)` pairs.
pub fn read_targets(root: &Path) -> Result<Vec<(String, String)>, String> {
    let targets = lint_targets(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut out = Vec::with_capacity(targets.len());
    for path in &targets {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, src));
    }
    Ok(out)
}
