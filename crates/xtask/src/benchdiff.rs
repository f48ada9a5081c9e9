//! `cargo xtask bench-diff` — the noise-aware bench regression gate.
//!
//! Compares two sets of `BENCH_*.json` reports (DESIGN.md §15): every
//! numeric leaf is flattened to a dotted metric path
//! (`kernels.matmul_gflops.blocked`), classified by a per-metric policy
//! — better-direction plus a noise tolerance calibrated to how the
//! metric is measured — and gated. Virtual-time metrics (the DES
//! serving/pipeline benches) are deterministic, so they get tight
//! tolerances; wall-clock metrics (GFLOP/s, ns/op) get generous ones;
//! config/header fields are skipped; metrics with no matching policy
//! are reported informationally but never gate. A gated metric that
//! *disappears* between old and new is itself a regression — deleting
//! a bench cannot green the gate.
//!
//! Inputs may be a directory holding `BENCH_*.json` files, a single
//! report, or a baseline bundle (`{"benches": {name: report, ...}}`)
//! as committed at `results/bench_baseline.json`. The same module
//! renders those bundles (`--snapshot`).

use crate::json::{self, Json};
use spp_telemetry::export::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Which direction of change is an improvement for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, GFLOP/s, hit rates).
    HigherBetter,
    /// Smaller is better (latency, bytes, ns/op).
    LowerBetter,
    /// Any drift beyond tolerance is suspect (losses, checksummed
    /// outputs).
    Neutral,
}

/// Gate policy for one metric.
#[derive(Clone, Copy, Debug)]
pub struct Policy {
    /// Better direction.
    pub dir: Direction,
    /// Relative change tolerated before flagging (noise margin).
    pub tol: f64,
}

/// One metric's comparison outcome.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Dotted metric path (`bench.section.metric`).
    pub path: String,
    /// Old value (None: metric is new).
    pub old: Option<f64>,
    /// New value (None: metric was removed).
    pub new: Option<f64>,
    /// Signed relative change `(new - old) / |old|`, when both exist
    /// and old is nonzero.
    pub rel: Option<f64>,
    /// The policy applied (None: informational metric).
    pub policy: Option<Policy>,
    /// Whether this delta fails the gate.
    pub regression: bool,
}

/// Full diff outcome.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared (or added/removed) metric, path order.
    pub deltas: Vec<Delta>,
    /// Gated metrics checked.
    pub gated: usize,
}

impl DiffReport {
    /// Deltas failing the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.regression)
    }

    /// Whether the gate passes.
    pub fn pass(&self) -> bool {
        self.deltas.iter().all(|d| !d.regression)
    }
}

/// Header/config keys that are not metrics at any nesting depth.
const CONFIG_KEYS: &[&str] = &[
    "schema_version",
    "bench",
    "git_commit",
    "pool_workers",
    "sweep_strategy",
    "shape",
    "reps",
    "repeats",
    "iters",
    "scale",
    "seed",
    "requests",
    "skew",
    "machines",
    "alpha_total",
    "min_speedup",
    "available_parallelism",
    "workers",
    "fanouts",
    "partitions",
    "vertices",
    "edges",
    "train_vertices",
    "seeds_per_partition",
    "clients",
    "epochs",
    "train_epochs",
    "sim_rounds",
    "cache_rows_total",
    "overlay_rows",
    "quant_static_rows",
    "quant_overlay_rows",
    "burstiness",
    "windows",
    // Out-of-core store geometry (spp-store): page size/shape and
    // streaming chunk sizes are configuration, not outcomes — and
    // `page_bytes` must never fall through to the `bytes` gate below.
    "dim",
    "page_rows",
    "page_bytes",
    "num_pages",
    "chunk_edges",
    // Quantile-sketch internals: the p50/p99/p999 leaves carry the
    // behavior; raw bucket vectors would add thousands of brittle
    // per-bucket gates.
    "buckets",
];

/// Returns the gate policy for `path` (already lowercased, starting
/// with `<bench>.`), or `None` for informational-only metrics.
#[must_use]
pub fn policy_for(path: &str) -> Option<Policy> {
    let p = |dir, tol| Some(Policy { dir, tol });
    // Virtual-time benches: every number is a pure function of the
    // seed/config (DESIGN.md §11), so the tolerance only absorbs float
    // rendering, not measurement noise.
    let virtual_time = path.starts_with("serving.") || path.starts_with("pipeline_trace.");
    if virtual_time {
        if path.contains("loss") {
            return p(Direction::Neutral, 0.001);
        }
        if path.contains("hit_rate") || path.contains("throughput") || path.contains("completed") {
            return p(Direction::HigherBetter, 0.02);
        }
        if path.contains("latency")
            || path.contains("_ms")
            || path.contains("makespan")
            || path.contains("bytes")
            || path.contains("rejected")
            || path.contains("evictions")
            || path.contains("fetches")
            || path.contains("_p50")
            || path.contains("_p99")
            || path.contains("_p999")
        {
            return p(Direction::LowerBetter, 0.02);
        }
        return None;
    }
    // Out-of-core store benches (`io_bench`): page/byte traffic is a
    // deterministic function of the seeded sample stream and the page
    // geometry, so the tolerance only absorbs float rendering. Checked
    // before the wall-clock rules so `bytes_read` never hits the noisy
    // generic `bytes` gate.
    if path.starts_with("io.") {
        if path.contains("locality_gain") {
            return p(Direction::HigherBetter, 0.02);
        }
        if path.contains("bytes") || path.contains("fault") || path.contains("pages") {
            return p(Direction::LowerBetter, 0.02);
        }
        if path.contains("secs") || path.contains("_ms") {
            return p(Direction::LowerBetter, 0.35);
        }
        return None;
    }
    // Wall-clock metrics, from steadiest to noisiest.
    if path.contains("gflops") {
        return p(Direction::HigherBetter, 0.12);
    }
    if path.contains("wire_bytes") || path.ends_with("bytes") {
        return p(Direction::LowerBetter, 0.01);
    }
    if path.ends_with(".pass") {
        return p(Direction::HigherBetter, 0.0);
    }
    if path.contains("_ns") && !path.contains("budget") {
        return p(Direction::LowerBetter, 0.5);
    }
    if path.contains("per_s") || path.contains("per_sec") || path.contains("throughput") {
        return p(Direction::HigherBetter, 0.35);
    }
    if path.contains("speedup") {
        return p(Direction::HigherBetter, 0.35);
    }
    if path.contains("secs") || path.contains("_ms") || path.contains("latency") {
        return p(Direction::LowerBetter, 0.35);
    }
    if path.contains("hit_rate") {
        return p(Direction::HigherBetter, 0.05);
    }
    None
}

/// Flattens every numeric (and boolean, as 0/1) leaf of `v` into
/// `out`, prefixing object keys with dots and array elements with
/// their index. Config keys are skipped at any depth.
fn flatten(prefix: &str, v: &Json, out: &mut BTreeMap<String, f64>) {
    match v {
        Json::Num(n) => {
            out.insert(prefix.to_string(), *n);
        }
        Json::Bool(b) => {
            out.insert(prefix.to_string(), f64::from(u8::from(*b)));
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{prefix}.{i}"), item, out);
            }
        }
        Json::Obj(map) => {
            for (k, item) in map {
                if CONFIG_KEYS.contains(&k.as_str()) || k.contains("budget") {
                    continue;
                }
                flatten(&format!("{prefix}.{k}"), item, out);
            }
        }
        Json::Str(_) | Json::Null => {}
    }
}

/// Loads a bench set from `path`: a directory of `BENCH_*.json`, a
/// baseline bundle, or one report. Keys are bench names.
pub fn load_set(path: &Path) -> Result<BTreeMap<String, Json>, String> {
    let mut out = BTreeMap::new();
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect();
        entries.sort();
        if entries.is_empty() {
            return Err(format!("{}: no BENCH_*.json files", path.display()));
        }
        for p in entries {
            let (name, doc) = load_report(&p)?;
            out.insert(name, doc);
        }
        return Ok(out);
    }
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(Json::Obj(benches)) = doc.get("benches") {
        for (name, report) in benches {
            out.insert(name.clone(), report.clone());
        }
        return Ok(out);
    }
    let (name, doc) = name_report(path, doc)?;
    out.insert(name, doc);
    Ok(out)
}

fn load_report(path: &Path) -> Result<(String, Json), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    name_report(path, doc)
}

fn name_report(path: &Path, doc: Json) -> Result<(String, Json), String> {
    let name = doc
        .get("bench")
        .and_then(Json::as_str)
        .map(str::to_string)
        .or_else(|| {
            path.file_stem()
                .and_then(|s| s.to_str())
                .map(|s| s.trim_start_matches("BENCH_").to_string())
        })
        .ok_or_else(|| format!("{}: report has no `bench` field", path.display()))?;
    Ok((name, doc))
}

/// Flattens a whole bench set to `bench.path` → value.
#[must_use]
pub fn flatten_set(set: &BTreeMap<String, Json>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, doc) in set {
        flatten(name, doc, &mut out);
    }
    out
}

/// Diffs two flattened bench sets under the metric policies.
#[must_use]
pub fn diff(old: &BTreeMap<String, f64>, new: &BTreeMap<String, f64>) -> DiffReport {
    let mut rep = DiffReport::default();
    let mut paths: Vec<&String> = old.keys().chain(new.keys()).collect();
    paths.sort();
    paths.dedup();
    for path in paths {
        let ov = old.get(path).copied();
        let nv = new.get(path).copied();
        let pol = policy_for(&path.to_lowercase());
        if pol.is_some() && ov.is_some() {
            rep.gated += 1;
        }
        let (rel, regression) = match (ov, nv, pol) {
            (Some(o), Some(n), pol) => {
                let rel = if o == 0.0 {
                    if n == 0.0 {
                        Some(0.0)
                    } else {
                        None
                    }
                } else {
                    Some((n - o) / o.abs())
                };
                let reg = match (pol, rel) {
                    (Some(p), Some(r)) => match p.dir {
                        Direction::HigherBetter => r < -p.tol,
                        Direction::LowerBetter => r > p.tol,
                        Direction::Neutral => r.abs() > p.tol,
                    },
                    // Gated metric went 0 → nonzero: flag unless higher
                    // is better.
                    (Some(p), None) => p.dir != Direction::HigherBetter,
                    (None, _) => false,
                };
                (rel, reg)
            }
            // A gated metric that vanished is a regression; an added or
            // informational one is not.
            (Some(_), None, pol) => (None, pol.is_some()),
            (None, _, _) => (None, false),
        };
        // Keep the report focused: only carry unchanged metrics when
        // they are gated (so --json consumers can audit coverage).
        if ov == nv && pol.is_none() {
            continue;
        }
        rep.deltas.push(Delta {
            path: path.clone(),
            old: ov,
            new: nv,
            rel,
            policy: pol,
            regression,
        });
    }
    rep
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), fmt_num)
}

fn fmt_rel(d: &Delta) -> String {
    match d.rel {
        Some(r) => format!("{:+.1}%", r * 100.0),
        None => match (d.old, d.new) {
            (Some(_), None) => "removed".to_string(),
            (None, Some(_)) => "new".to_string(),
            _ => "-".to_string(),
        },
    }
}

/// Renders the human-readable diff report.
#[must_use]
pub fn render_text(rep: &DiffReport) -> String {
    let mut out = String::new();
    let regs: Vec<&Delta> = rep.regressions().collect();
    let _ = writeln!(
        out,
        "bench-diff: {} gated metric(s) checked, {} regression(s)",
        rep.gated,
        regs.len()
    );
    for d in &regs {
        let _ = writeln!(
            out,
            "  REGRESSION {}: {} -> {} ({})",
            d.path,
            fmt_opt(d.old),
            fmt_opt(d.new),
            fmt_rel(d)
        );
    }
    let moved: Vec<&Delta> = rep
        .deltas
        .iter()
        .filter(|d| !d.regression && d.old != d.new)
        .collect();
    if !moved.is_empty() {
        let _ = writeln!(out, "  {} non-gating change(s):", moved.len());
        for d in moved.iter().take(20) {
            let kind = if d.policy.is_some() { "ok " } else { "info" };
            let _ = writeln!(
                out,
                "    {kind} {}: {} -> {} ({})",
                d.path,
                fmt_opt(d.old),
                fmt_opt(d.new),
                fmt_rel(d)
            );
        }
        if moved.len() > 20 {
            let _ = writeln!(out, "    ... {} more", moved.len() - 20);
        }
    }
    let _ = writeln!(out, "result: {}", if rep.pass() { "PASS" } else { "FAIL" });
    out
}

/// Renders the machine-readable diff report.
#[must_use]
pub fn render_json(rep: &DiffReport) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"gated\": {},", rep.gated);
    let _ = writeln!(out, "  \"pass\": {},", rep.pass());
    out.push_str("  \"regressions\": [\n");
    let regs: Vec<&Delta> = rep.regressions().collect();
    for (i, d) in regs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"path\": \"{}\", \"old\": {}, \"new\": {}, \"change\": \"{}\"}}",
            d.path,
            fmt_opt(d.old),
            fmt_opt(d.new),
            fmt_rel(d)
        );
        out.push_str(if i + 1 < regs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let changed = rep
        .deltas
        .iter()
        .filter(|d| !d.regression && d.old != d.new)
        .count();
    let _ = writeln!(out, "  \"non_gating_changes\": {changed}");
    out.push_str("}\n");
    out
}

/// Re-renders a parsed JSON value (canonical: object keys sorted,
/// shortest-roundtrip numbers) — used to write baseline bundles.
#[must_use]
pub fn render_value(v: &Json, indent: usize) -> String {
    let pad = "  ".repeat(indent);
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => fmt_num(*n),
        Json::Str(s) => format!("\"{}\"", json_escape(s)),
        Json::Arr(items) => {
            if items.is_empty() {
                return "[]".to_string();
            }
            let inner: Vec<String> = items.iter().map(|i| render_value(i, indent)).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(map) => {
            if map.is_empty() {
                return "{}".to_string();
            }
            let mut out = String::from("{\n");
            for (i, (k, val)) in map.iter().enumerate() {
                let _ = write!(
                    out,
                    "{pad}  \"{}\": {}",
                    json_escape(k),
                    render_value(val, indent + 1)
                );
                out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
            }
            let _ = write!(out, "{pad}}}");
            out
        }
    }
}

/// Renders a bench set as a baseline bundle document.
#[must_use]
pub fn render_bundle(set: &BTreeMap<String, Json>) -> String {
    let mut out = String::from("{\n  \"schema_version\": 1,\n  \"benches\": {\n");
    for (i, (name, doc)) in set.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {}",
            json_escape(name),
            render_value(doc, 2)
        );
        out.push_str(if i + 1 < set.len() { ",\n" } else { "\n" });
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_from(src: &str) -> BTreeMap<String, f64> {
        let doc = json::parse(src).unwrap();
        let name = doc.get("bench").and_then(Json::as_str).unwrap().to_string();
        let mut set = BTreeMap::new();
        set.insert(name, doc);
        flatten_set(&set)
    }

    #[test]
    fn identical_sets_report_zero_regressions() {
        let a = set_from(r#"{"bench": "kernels", "matmul_gflops": {"blocked": 60.0}}"#);
        let rep = diff(&a, &a.clone());
        assert!(rep.pass());
        assert_eq!(rep.regressions().count(), 0);
        assert!(rep.gated >= 1);
    }

    #[test]
    fn gflops_slowdown_beyond_tolerance_is_flagged() {
        let old = set_from(r#"{"bench": "kernels", "matmul_gflops": {"blocked": 60.0}}"#);
        let new = set_from(r#"{"bench": "kernels", "matmul_gflops": {"blocked": 48.0}}"#);
        let rep = diff(&old, &new);
        assert!(!rep.pass());
        let regs: Vec<_> = rep.regressions().collect();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "kernels.matmul_gflops.blocked");
    }

    #[test]
    fn gflops_improvement_and_noise_pass() {
        let old = set_from(r#"{"bench": "kernels", "matmul_gflops": {"blocked": 60.0}}"#);
        for v in ["66.0", "55.0"] {
            let new = set_from(&format!(
                r#"{{"bench": "kernels", "matmul_gflops": {{"blocked": {v}}}}}"#
            ));
            assert!(diff(&old, &new).pass(), "value {v} must pass");
        }
    }

    #[test]
    fn virtual_time_metrics_gate_tightly() {
        let old = set_from(r#"{"bench": "serving", "two_tier": {"p99_latency_ms": 1.0}}"#);
        let ok = set_from(r#"{"bench": "serving", "two_tier": {"p99_latency_ms": 1.01}}"#);
        let bad = set_from(r#"{"bench": "serving", "two_tier": {"p99_latency_ms": 1.05}}"#);
        assert!(diff(&old, &ok).pass());
        assert!(!diff(&old, &bad).pass());
    }

    #[test]
    fn io_metrics_gate_tightly_and_geometry_is_config() {
        let old = set_from(
            r#"{"bench": "io", "page_bytes": 4096, "vip": {"bytes_read_per_epoch": 1000.0, "pages_faulted_per_epoch": 50.0}, "locality_gain": 2.0}"#,
        );
        assert!(
            !old.contains_key("io.page_bytes"),
            "page_bytes must not flatten into a gated metric"
        );
        let worse = set_from(
            r#"{"bench": "io", "page_bytes": 4096, "vip": {"bytes_read_per_epoch": 1100.0, "pages_faulted_per_epoch": 55.0}, "locality_gain": 1.5}"#,
        );
        let rep = diff(&old, &worse);
        assert!(!rep.pass());
        let paths: Vec<&str> = rep.regressions().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"io.vip.bytes_read_per_epoch"), "{paths:?}");
        assert!(
            paths.contains(&"io.vip.pages_faulted_per_epoch"),
            "{paths:?}"
        );
        assert!(paths.contains(&"io.locality_gain"), "{paths:?}");
        // Small float-rendering jitter passes.
        let ok = set_from(
            r#"{"bench": "io", "page_bytes": 4096, "vip": {"bytes_read_per_epoch": 1001.0, "pages_faulted_per_epoch": 50.0}, "locality_gain": 2.0}"#,
        );
        assert!(diff(&old, &ok).pass());
    }

    #[test]
    fn removed_gated_metric_fails_and_config_keys_skip() {
        let old =
            set_from(r#"{"bench": "kernels", "seed": 7, "matmul_gflops": {"blocked": 60.0}}"#);
        let new = set_from(r#"{"bench": "kernels", "seed": 9}"#);
        assert!(
            !old.contains_key("kernels.seed"),
            "config key must not flatten"
        );
        let rep = diff(&old, &new);
        assert!(!rep.pass());
        assert!(rep
            .regressions()
            .any(|d| d.path == "kernels.matmul_gflops.blocked" && d.new.is_none()));
    }

    #[test]
    fn unknown_metrics_are_informational() {
        let old = set_from(r#"{"bench": "kernels", "mystery_units": 10.0}"#);
        let new = set_from(r#"{"bench": "kernels", "mystery_units": 2.0}"#);
        let rep = diff(&old, &new);
        assert!(rep.pass());
        assert_eq!(rep.deltas.len(), 1);
        assert!(rep.deltas[0].policy.is_none());
    }

    #[test]
    fn bundle_roundtrips_through_parser() {
        let doc = json::parse(
            r#"{"bench": "kernels", "matmul_gflops": {"blocked": 61.193}, "pass": true}"#,
        )
        .unwrap();
        let mut set = BTreeMap::new();
        set.insert("kernels".to_string(), doc);
        let bundle = render_bundle(&set);
        let re = json::parse(&bundle).unwrap();
        let back = re.get("benches").unwrap().get("kernels").unwrap();
        assert_eq!(
            back.get("matmul_gflops").unwrap().get("blocked").unwrap(),
            &Json::Num(61.193)
        );
        assert_eq!(back.get("pass").unwrap(), &Json::Bool(true));
    }
}
