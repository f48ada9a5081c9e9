//! `cargo xtask` — workspace maintenance commands.
//!
//! ```text
//! cargo xtask lint [--json] [--root <dir>] [--refresh-baseline]
//! cargo xtask audit-hotpaths [--json] [--root <name>] [--dir <dir>] [--refresh-baseline]
//! cargo xtask audit-determinism [--json] [--root <name>] [--dir <dir>] [--refresh-baseline]
//! cargo xtask check-interleavings [--module <m>]... [--json] [--max-schedules <n>]
//! cargo xtask validate-trace <file> [--stages]
//! ```
//!
//! `lint`, `audit-hotpaths` and `audit-determinism` are the three
//! static gates (DESIGN.md "Static gates"); each runs one family of the
//! rule table in [`spp_xtask::rules`] and exits nonzero on findings or
//! on drift against its baseline under `results/` (stale entries
//! included); `--refresh-baseline` rewrites the snapshot.
//!
//! `lint` runs the path-scoped line rules (L2, L3, L5, L8) over every
//! non-test library line; `--root <dir>` overrides the workspace root
//! (fixture trees in tests).
//!
//! `audit-hotpaths` (rules H1–H4) parses fn items and call sites,
//! builds the intra-workspace call graph, and checks every function
//! reachable from a `// spp-hot(<name>)` root for allocation, panic,
//! blocking, and float-ordering hazards. `audit-determinism` (rules
//! D1–D5) walks the same call graph from `// spp-det(<name>)` roots and
//! checks every reachable function for the source constructs that break
//! the §9 bit-identity contract — unordered hash iteration, unseeded
//! RNG, ambient reads, worker-count or thread-identity leaks, and
//! order-sensitive float reductions. For both, `--root <name>`
//! restricts traversal to one declared root (baseline comparison is
//! skipped for partial views) and `--dir <dir>` overrides the workspace
//! root.
//!
//! Scope for all three: `src/**` of every `crates/*` member and
//! `shims/*` shim plus the facade crate's `src/`, excluding binary
//! targets (`**/bin/**`) and this xtask itself. Tests, benches, and
//! examples are exempt by construction — the invariants gate *library*
//! hot paths.
//!
//! `check-interleavings` rebuilds `spp-check` with
//! `--cfg spp_model_check` (in its own target dir,
//! `target/model-check`, so the instrumented artifacts never pollute
//! the normal build cache) and runs the concurrency model checker over
//! the workspace harnesses; arguments pass through to the checker.
//!
//! `validate-trace` checks a telemetry trace emitted under `SPP_TRACE=1`
//! — Chrome `trace_event` JSON (`trace_*.json`) or the JSONL event
//! stream (`trace_*.jsonl`) — against the exporter schema; `--stages`
//! additionally requires a span for every Appendix-D pipeline stage
//! (the CI telemetry smoke job passes it).

use spp_xtask::baseline::{self, BaselineStatus};
use spp_xtask::callgraph::CallGraph;
use spp_xtask::items::AuditKind;
use spp_xtask::{auditreport, benchdiff, items, json, rules, scan, walk};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\
         commands:\n\
           lint [--json] [--root <dir>] [--refresh-baseline]\n\
                                               run the path-scoped line rules (L2, L3,\n\
                                               L5, L8) and diff results/lint_baseline.json\n\
           audit-hotpaths [--json] [--root <name>] [--dir <dir>] [--refresh-baseline]\n\
                                               run the transitive hot-path analyzer\n\
                                               (H1-H4) from declared spp-hot roots and\n\
                                               diff results/hotpath_baseline.json\n\
           audit-determinism [--json] [--root <name>] [--dir <dir>] [--refresh-baseline]\n\
                                               run the transitive determinism analyzer\n\
                                               (D1-D5) from declared spp-det roots and\n\
                                               diff results/determinism_baseline.json\n\
           check-interleavings [args..]        build spp-check with --cfg spp_model_check\n\
                                               and explore the concurrency harnesses\n\
                                               (args pass through: --module <m>, --json,\n\
                                               --max-schedules <n>, --list)\n\
           validate-trace <file> [--stages] [--attrib]\n\
                                               check an SPP_TRACE output file against\n\
                                               the exporter schema (--stages: require\n\
                                               every Appendix-D pipeline stage;\n\
                                               --attrib: require cache/comm attribution\n\
                                               sections; present ones are always checked)\n\
           bench-diff <old> <new> [--json]     compare bench reports (files, dirs of\n\
                                               BENCH_*.json, or baseline bundles) under\n\
                                               noise-aware per-metric thresholds; exits\n\
                                               nonzero on regression\n\
           bench-diff --snapshot <dir> <out>   bundle a directory of BENCH_*.json into\n\
                                               a baseline file (results/bench_baseline.json)"
    );
    ExitCode::from(2)
}

/// Reports baseline drift to stderr; returns true when the run must
/// fail.
fn report_drift(gate: &str, status: BaselineStatus, refresh_hint: &str) -> bool {
    match status {
        BaselineStatus::Missing | BaselineStatus::Clean => false,
        BaselineStatus::Drift(diffs) => {
            for d in &diffs {
                eprintln!("{gate}: baseline drift: {d}");
            }
            eprintln!(
                "{gate}: baseline out of date ({} difference(s)); review and run \
                 `cargo xtask {refresh_hint}` to refresh",
                diffs.len()
            );
            true
        }
    }
}

/// Runs one of the three static gates (`lint` / `audit-hotpaths` /
/// `audit-determinism`).
fn run_gate(
    kind: AuditKind,
    json_out: bool,
    root_filter: Option<String>,
    dir: Option<PathBuf>,
    refresh: bool,
) -> ExitCode {
    let cmd = kind.command();
    let Some(root) = walk::workspace_root(dir) else {
        eprintln!("{cmd}: cannot determine workspace root");
        return ExitCode::from(2);
    };
    let sources = match walk::read_targets(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{cmd}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut scanned = Vec::with_capacity(sources.len());
    let mut parsed = Vec::with_capacity(sources.len());
    for (rel, src) in &sources {
        let sf = scan::scan_source(rel, src);
        parsed.push(items::parse_items(&sf, src));
        scanned.push(sf);
    }
    let graph = CallGraph::build(&parsed);
    let mut roots = graph.roots_for(kind);
    if let Some(name) = &root_filter {
        roots.retain(|&i| graph.nodes[i].item.root_for(kind) == Some(name.as_str()));
        if roots.is_empty() {
            eprintln!(
                "{cmd}: no {} root named `{name}`; declared roots:",
                kind.prefix()
            );
            for i in graph.roots_for(kind) {
                if let Some(n) = graph.nodes[i].item.root_for(kind) {
                    eprintln!("  {n}");
                }
            }
            return ExitCode::from(2);
        }
    }
    let reach = graph.reach_for(&roots, kind);
    let rep = rules::check(kind, &parsed, &scanned, &graph, &reach);
    let out = auditreport::summarize(kind, &parsed, &graph, &roots, &reach, scanned.len(), rep);
    let rendered_json = auditreport::render_json(&out);
    if json_out {
        print!("{rendered_json}");
    } else {
        print!("{}", auditreport::render_text(&out));
    }
    let clean = out.report.findings.is_empty();
    // Partial traversals (--root) see a subset of escapes/roots, so the
    // full-workspace baseline does not apply.
    let drift = if root_filter.is_some() {
        false
    } else if refresh {
        let path = baseline::baseline_path(&root, kind);
        if let Err(e) = baseline::refresh(&path, &rendered_json) {
            eprintln!("{cmd}: refreshing baseline: {e}");
            return ExitCode::from(2);
        }
        eprintln!("{cmd}: baseline refreshed at {}", path.display());
        false
    } else {
        match baseline::check_audit_baseline(&root, kind, &rendered_json) {
            Ok(status) => report_drift(cmd, status, &format!("{cmd} --refresh-baseline")),
            Err(e) => {
                eprintln!("{cmd}: baseline check: {e}");
                return ExitCode::from(2);
            }
        }
    };
    if clean && !drift {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds `spp-check` with `--cfg spp_model_check` and runs it,
/// forwarding `args` (e.g. `--module`, `--json`, `--max-schedules`).
///
/// The instrumented build gets its own target dir (`target/model-check`)
/// so flipping the cfg never invalidates the normal build cache, and
/// `RUSTFLAGS` is extended rather than replaced so caller-provided
/// flags survive.
fn run_check_interleavings(args: &[String]) -> ExitCode {
    let Some(root) = walk::workspace_root(None) else {
        eprintln!("check-interleavings: cannot determine workspace root");
        return ExitCode::from(2);
    };
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.contains("spp_model_check") {
        if !rustflags.is_empty() {
            rustflags.push(' ');
        }
        rustflags.push_str("--cfg spp_model_check");
    }
    let status = std::process::Command::new(cargo)
        .current_dir(&root)
        .env("RUSTFLAGS", rustflags)
        .env("CARGO_TARGET_DIR", root.join("target/model-check"))
        .args(["run", "--release", "-p", "spp-check", "--"])
        .args(args)
        .status();
    match status {
        Ok(s) => match s.code() {
            Some(c) => ExitCode::from(c.clamp(0, 255) as u8),
            None => {
                eprintln!("check-interleavings: spp-check terminated by signal");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("check-interleavings: spawning cargo: {e}");
            ExitCode::from(2)
        }
    }
}

/// Validates one Chrome `trace_event` document. Returns the set of
/// complete-event ("X") names seen.
fn check_chrome_trace(doc: &json::Json) -> Result<Vec<String>, String> {
    let events = doc
        .get("traceEvents")
        .and_then(json::Json::as_arr)
        .ok_or("top-level object must have a `traceEvents` array")?;
    if events.is_empty() {
        return Err("traceEvents is empty — was the recorder enabled?".to_string());
    }
    let mut names = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string `ph`"))?;
        let name = e
            .get("name")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("event {i}: missing string `name`"))?;
        e.get("pid")
            .and_then(json::Json::as_num)
            .ok_or_else(|| format!("event {i} ({name}): missing numeric `pid`"))?;
        match ph {
            "X" => {
                // Metadata events (process_name) may omit `tid`; real
                // spans must carry one.
                for key in ["tid", "ts", "dur"] {
                    let v = e
                        .get(key)
                        .and_then(json::Json::as_num)
                        .ok_or_else(|| format!("event {i} ({name}): missing numeric `{key}`"))?;
                    if v < 0.0 {
                        return Err(format!("event {i} ({name}): negative `{key}`"));
                    }
                }
                names.push(name.to_string());
            }
            "M" => {}
            other => return Err(format!("event {i} ({name}): unknown phase `{other}`")),
        }
    }
    Ok(names)
}

/// Validates a JSONL event stream (one object per line). Returns the
/// event names seen.
fn check_jsonl_trace(src: &str) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let name = v
            .get("name")
            .and_then(json::Json::as_str)
            .ok_or_else(|| format!("line {}: missing string `name`", lineno + 1))?;
        for key in ["tid", "start_ns", "dur_ns", "depth"] {
            v.get(key)
                .and_then(json::Json::as_num)
                .ok_or_else(|| format!("line {}: missing numeric `{key}`", lineno + 1))?;
        }
        if v.get("sim").is_none() {
            return Err(format!("line {}: missing `sim` flag", lineno + 1));
        }
        names.push(name.to_string());
    }
    if names.is_empty() {
        return Err("no events — was the recorder enabled?".to_string());
    }
    Ok(names)
}

/// Validates one `CacheReport` object of the trace's attribution
/// section: tier counters present, tier hits partitioning `lookups`,
/// and the latency sketch's bucket counts consistent with its total.
fn check_cache_report(i: usize, c: &json::Json) -> Result<(), String> {
    let label = c.get("label").and_then(json::Json::as_str).unwrap_or("?");
    let ctx = |msg: &str| format!("attrib.cache[{i}] ({label}): {msg}");
    let lookups = c
        .get("lookups")
        .and_then(json::Json::as_num)
        .ok_or_else(|| ctx("missing numeric `lookups`"))?;
    c.get("scheme")
        .and_then(json::Json::as_str)
        .ok_or_else(|| ctx("missing string `scheme`"))?;
    let tiers = c
        .get("tiers")
        .and_then(json::Json::as_arr)
        .ok_or_else(|| ctx("missing `tiers` array"))?;
    let mut hit_sum = 0.0;
    for (t, tier) in tiers.iter().enumerate() {
        tier.get("tier")
            .and_then(json::Json::as_str)
            .ok_or_else(|| ctx(&format!("tier {t}: missing string `tier`")))?;
        for key in ["hits", "misses", "evictions", "insertions", "bytes"] {
            let v = tier
                .get(key)
                .and_then(json::Json::as_num)
                .ok_or_else(|| ctx(&format!("tier {t}: missing numeric `{key}`")))?;
            if v < 0.0 {
                return Err(ctx(&format!("tier {t}: negative `{key}`")));
            }
        }
        hit_sum += tier.get("hits").and_then(json::Json::as_num).unwrap_or(0.0);
    }
    // Counters are integers riding in f64 JSON numbers: compare exactly
    // in the integer domain, not within a float margin.
    if hit_sum as u64 != lookups as u64 {
        return Err(ctx(&format!(
            "tier hits sum to {hit_sum} but lookups is {lookups} (must partition)"
        )));
    }
    let sketch = c
        .get("latency_ns")
        .ok_or_else(|| ctx("missing `latency_ns` sketch"))?;
    let count = sketch
        .get("count")
        .and_then(json::Json::as_num)
        .ok_or_else(|| ctx("latency_ns: missing numeric `count`"))?;
    let buckets = sketch
        .get("buckets")
        .and_then(json::Json::as_arr)
        .ok_or_else(|| ctx("latency_ns: missing `buckets` array"))?;
    let mut bucket_sum = 0.0;
    for (b, pair) in buckets.iter().enumerate() {
        let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
            ctx(&format!(
                "latency_ns: bucket {b} is not an [index, count] pair"
            ))
        })?;
        bucket_sum += pair[1]
            .as_num()
            .ok_or_else(|| ctx(&format!("latency_ns: bucket {b}: non-numeric count")))?;
    }
    if bucket_sum as u64 != count as u64 {
        return Err(ctx(&format!(
            "latency_ns: bucket counts sum to {bucket_sum} but count is {count}"
        )));
    }
    Ok(())
}

/// Validates one `CommReport` object: every window's byte matrix must
/// be square (`machines` rows of `machines` numeric columns).
fn check_comm_report(i: usize, c: &json::Json) -> Result<(), String> {
    let label = c.get("label").and_then(json::Json::as_str).unwrap_or("?");
    let ctx = |msg: &str| format!("attrib.comm[{i}] ({label}): {msg}");
    let machines = c
        .get("machines")
        .and_then(json::Json::as_num)
        .ok_or_else(|| ctx("missing numeric `machines`"))?;
    if machines < 1.0 || machines.fract() != 0.0 {
        return Err(ctx("`machines` must be a positive integer"));
    }
    let k = machines as usize;
    let windows = c
        .get("windows")
        .and_then(json::Json::as_arr)
        .ok_or_else(|| ctx("missing `windows` array"))?;
    for (w, win) in windows.iter().enumerate() {
        let rows = win
            .get("bytes")
            .and_then(json::Json::as_arr)
            .ok_or_else(|| ctx(&format!("window {w}: missing `bytes` matrix")))?;
        if rows.len() != k {
            return Err(ctx(&format!(
                "window {w}: matrix has {} rows, expected {k} (must be square)",
                rows.len()
            )));
        }
        for (r, row) in rows.iter().enumerate() {
            let cols = row
                .as_arr()
                .ok_or_else(|| ctx(&format!("window {w}: row {r} is not an array")))?;
            if cols.len() != k {
                return Err(ctx(&format!(
                    "window {w}: row {r} has {} columns, expected {k} (must be square)",
                    cols.len()
                )));
            }
            for (cix, cell) in cols.iter().enumerate() {
                let v = cell
                    .as_num()
                    .ok_or_else(|| ctx(&format!("window {w}: cell [{r}][{cix}] is not numeric")))?;
                if v < 0.0 {
                    return Err(ctx(&format!("window {w}: negative cell [{r}][{cix}]")));
                }
            }
        }
    }
    Ok(())
}

/// Validates one `StoreReport` object: page counters present,
/// `pages_read == pages_faulted + pages_hit`, and bytes consistent
/// with the page size (`bytes_read == pages_faulted × page_bytes`).
fn check_store_report(i: usize, c: &json::Json) -> Result<(), String> {
    let label = c.get("label").and_then(json::Json::as_str).unwrap_or("?");
    let ctx = |msg: &str| format!("attrib.store[{i}] ({label}): {msg}");
    for key in ["backend", "scheme"] {
        c.get(key)
            .and_then(json::Json::as_str)
            .ok_or_else(|| ctx(&format!("missing string `{key}`")))?;
    }
    let num = |key: &str| -> Result<u64, String> {
        let v = c
            .get(key)
            .and_then(json::Json::as_num)
            .ok_or_else(|| ctx(&format!("missing numeric `{key}`")))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(ctx(&format!("`{key}` must be a non-negative integer")));
        }
        Ok(v as u64)
    };
    let page_rows = num("page_rows")?;
    let page_bytes = num("page_bytes")?;
    let pages_read = num("pages_read")?;
    let pages_faulted = num("pages_faulted")?;
    let pages_hit = num("pages_hit")?;
    let bytes_read = num("bytes_read")?;
    if page_rows == 0 || page_bytes == 0 {
        return Err(ctx("page geometry must be positive"));
    }
    if pages_faulted > pages_read {
        return Err(ctx(&format!(
            "pages_faulted {pages_faulted} exceeds pages_read {pages_read}"
        )));
    }
    if pages_faulted + pages_hit != pages_read {
        return Err(ctx(&format!(
            "pages_faulted {pages_faulted} + pages_hit {pages_hit} != pages_read {pages_read}"
        )));
    }
    if bytes_read != pages_faulted * page_bytes {
        return Err(ctx(&format!(
            "bytes_read {bytes_read} != pages_faulted {pages_faulted} × page_bytes {page_bytes}"
        )));
    }
    Ok(())
}

/// Validates the trace's top-level `attrib` section. With
/// `require = true`, a missing section (or one with no cache reports)
/// is an error; otherwise only a present section is checked.
fn check_attrib(doc: &json::Json, require: bool) -> Result<usize, String> {
    let Some(attrib) = doc.get("attrib") else {
        if require {
            return Err("missing top-level `attrib` section (was attribution published?)".into());
        }
        return Ok(0);
    };
    let caches = attrib
        .get("cache")
        .and_then(json::Json::as_arr)
        .ok_or("attrib: missing `cache` array")?;
    let comms = attrib
        .get("comm")
        .and_then(json::Json::as_arr)
        .ok_or("attrib: missing `comm` array")?;
    // `store` arrived after `cache`/`comm`; tolerate traces from older
    // binaries that omit it.
    let stores = attrib
        .get("store")
        .and_then(json::Json::as_arr)
        .unwrap_or(&[]);
    if require && caches.is_empty() && comms.is_empty() && stores.is_empty() {
        return Err("attrib section is empty (was attribution published?)".into());
    }
    for (i, c) in caches.iter().enumerate() {
        check_cache_report(i, c)?;
    }
    for (i, c) in comms.iter().enumerate() {
        check_comm_report(i, c)?;
    }
    for (i, c) in stores.iter().enumerate() {
        check_store_report(i, c)?;
    }
    Ok(caches.len() + comms.len() + stores.len())
}

fn run_bench_diff(old: &Path, new: &Path, json_out: bool) -> ExitCode {
    let load =
        |p: &Path| -> Result<_, String> { Ok(benchdiff::flatten_set(&benchdiff::load_set(p)?)) };
    let (old_set, new_set) = match (load(old), load(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = benchdiff::diff(&old_set, &new_set);
    if json_out {
        print!("{}", benchdiff::render_json(&rep));
    } else {
        print!("{}", benchdiff::render_text(&rep));
    }
    if rep.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_bench_snapshot(dir: &Path, out: &Path) -> ExitCode {
    let set = match benchdiff::load_set(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let bundle = benchdiff::render_bundle(&set);
    if let Err(e) = std::fs::write(out, &bundle) {
        eprintln!("bench-diff: writing {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!(
        "bench-diff: wrote baseline bundle with {} bench(es) to {}",
        set.len(),
        out.display()
    );
    ExitCode::SUCCESS
}

fn run_validate_trace(path: &Path, require_stages: bool, require_attrib: bool) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("validate-trace: reading {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let jsonl = path.extension().is_some_and(|e| e == "jsonl");
    let mut attrib_reports = 0usize;
    let names = if jsonl {
        if require_attrib {
            eprintln!(
                "validate-trace: {}: --attrib applies to Chrome traces (the JSONL \
                 stream carries no attribution section)",
                path.display()
            );
            return ExitCode::from(2);
        }
        check_jsonl_trace(&src)
    } else {
        json::parse(&src)
            .map_err(|e| format!("not valid JSON: {e}"))
            .and_then(|doc| {
                attrib_reports = check_attrib(&doc, require_attrib)?;
                check_chrome_trace(&doc)
            })
    };
    let names = match names {
        Ok(n) => n,
        Err(e) => {
            eprintln!("validate-trace: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    if require_stages {
        let missing: Vec<&str> = spp_telemetry::stage::PipelineStage::ALL
            .iter()
            .map(|s| s.short())
            .filter(|s| !names.iter().any(|n| n == s))
            .collect();
        if !missing.is_empty() {
            eprintln!(
                "validate-trace: {}: missing pipeline stage spans: {}",
                path.display(),
                missing.join(", ")
            );
            return ExitCode::FAILURE;
        }
    }
    println!(
        "validate-trace: {}: ok ({} events{}{})",
        path.display(),
        names.len(),
        if require_stages {
            ", all pipeline stages present"
        } else {
            ""
        },
        if attrib_reports > 0 {
            format!(", {attrib_reports} attribution report(s) valid")
        } else {
            String::new()
        }
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "lint" | "audit-hotpaths" | "audit-determinism" => {
            let kind = match cmd.as_str() {
                "lint" => AuditKind::Lint,
                "audit-hotpaths" => AuditKind::Hot,
                _ => AuditKind::Det,
            };
            let mut json = false;
            let mut root_filter = None;
            let mut dir = None;
            let mut refresh = false;
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                // `lint` has no roots to filter by: its `--root` is the
                // tree to scan, what the audits call `--dir`.
                match (a.as_str(), kind) {
                    ("--json", _) => json = true,
                    ("--refresh-baseline", _) => refresh = true,
                    ("--root", AuditKind::Hot | AuditKind::Det) => match it.next() {
                        Some(r) => root_filter = Some(r.clone()),
                        None => return usage(),
                    },
                    ("--root", AuditKind::Lint) | ("--dir", AuditKind::Hot | AuditKind::Det) => {
                        match it.next() {
                            Some(d) => dir = Some(PathBuf::from(d)),
                            None => return usage(),
                        }
                    }
                    _ => return usage(),
                }
            }
            run_gate(kind, json, root_filter, dir, refresh)
        }
        "check-interleavings" => run_check_interleavings(&args[1..]),
        "validate-trace" => {
            let mut file = None;
            let mut stages = false;
            let mut attrib = false;
            for a in args.iter().skip(1) {
                match a.as_str() {
                    "--stages" => stages = true,
                    "--attrib" => attrib = true,
                    _ if file.is_none() && !a.starts_with('-') => file = Some(PathBuf::from(a)),
                    _ => return usage(),
                }
            }
            let Some(file) = file else { return usage() };
            run_validate_trace(&file, stages, attrib)
        }
        "bench-diff" => {
            let mut json_out = false;
            let mut snapshot = false;
            let mut paths: Vec<PathBuf> = Vec::new();
            for a in args.iter().skip(1) {
                match a.as_str() {
                    "--json" => json_out = true,
                    "--snapshot" => snapshot = true,
                    _ if !a.starts_with('-') => paths.push(PathBuf::from(a)),
                    _ => return usage(),
                }
            }
            if paths.len() != 2 {
                return usage();
            }
            if snapshot {
                run_bench_snapshot(&paths[0], &paths[1])
            } else {
                run_bench_diff(&paths[0], &paths[1], json_out)
            }
        }
        _ => usage(),
    }
}
