//! `cargo xtask` — workspace maintenance commands.
//!
//! ```text
//! cargo xtask lint [--json] [--dir <dir>] [--refresh-baseline]
//! cargo xtask audit-hotpaths [--json] [--root <name>] [--dir <dir>] [--refresh-baseline]
//! cargo xtask audit-determinism [--json] [--root <name>] [--dir <dir>] [--refresh-baseline]
//! cargo xtask check-interleavings [--module <m>]... [--json] [--max-schedules <n>]
//! cargo xtask validate-trace <file> [--stages] [--attrib]
//! ```
//!
//! `lint`, `audit-hotpaths` and `audit-determinism` are the three
//! static gates (DESIGN.md "Static gates"); each runs one family of the
//! rule table in [`spp_xtask::rules`] and exits nonzero on findings or
//! when its `--json` document differs by any byte from its baseline
//! under `results/`; `--refresh-baseline` rewrites the snapshot. For
//! all three, `--dir <dir>` overrides the workspace root (fixture trees
//! in tests).
//!
//! `lint` runs the path-scoped line rules (L2, L5, L8) over every
//! non-test library line.
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
//! skipped for partial views).
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

use spp_telemetry::json::{self, Json};
use spp_telemetry::Attrib;
use spp_xtask::baseline::{self, BaselineStatus};
use spp_xtask::callgraph::CallGraph;
use spp_xtask::items::AuditKind;
use spp_xtask::{auditreport, items, rules, scan, walk};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <command>\n\
         commands:\n\
           lint [--json] [--dir <dir>] [--refresh-baseline]\n\
                                               run the path-scoped line rules (L2, L5,\n\
                                               L8) and diff results/lint_baseline.json\n\
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
                                               sections; present ones are always checked)"
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
                "{gate}: baseline out of date; review and run `cargo xtask {refresh_hint}` \
                 to refresh"
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
    let graph = CallGraph::build(&parsed, &walk::crate_deps(&root));
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
fn check_chrome_trace(doc: &Json) -> Result<Vec<String>, String> {
    let events = doc
        .arr_field("traceEvents")
        .map_err(|_| "top-level object must have a `traceEvents` array")?;
    if events.is_empty() {
        return Err("traceEvents is empty — was the recorder enabled?".to_string());
    }
    let mut names = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let name = e.str_field("name").map_err(|m| format!("event {i}: {m}"))?;
        let ctx = |m: &str| format!("event {i} ({name}): {m}");
        let num = |key: &str| match e.field(key) {
            Some(Json::Num(n)) if n.starts_with('-') => Err(ctx(&format!("negative `{key}`"))),
            Some(Json::Num(_)) => Ok(()),
            _ => Err(ctx(&format!("missing numeric `{key}`"))),
        };
        num("pid")?;
        match e.str_field("ph").map_err(|m| ctx(&m))? {
            // Metadata events (process_name) may omit `tid`; real spans
            // must carry one.
            "X" => {
                for key in ["tid", "ts", "dur"] {
                    num(key)?;
                }
                names.push(name.to_string());
            }
            "M" => {}
            other => return Err(ctx(&format!("unknown phase `{other}`"))),
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
        let ctx = |m: String| format!("line {}: {m}", lineno + 1);
        let v = json::parse(line).map_err(ctx)?;
        for key in ["tid", "start_ns", "dur_ns", "depth"] {
            v.uint_field::<u64>(key).map_err(ctx)?;
        }
        if v.field("sim").is_none() {
            return Err(ctx("missing `sim` flag".to_string()));
        }
        names.push(v.str_field("name").map_err(ctx)?.to_string());
    }
    if names.is_empty() {
        return Err("no events — was the recorder enabled?".to_string());
    }
    Ok(names)
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
                // A present section is always decoded, which checks
                // every report; --attrib also requires a non-empty one.
                let section = doc.field("attrib").map(Attrib::from_json).transpose()?;
                attrib_reports = section.as_ref().map_or(0, Attrib::report_count);
                if require_attrib && attrib_reports == 0 {
                    let what = section.map_or("missing top-level `attrib`", |_| "empty attrib");
                    return Err(format!("{what} section (was attribution published?)"));
                }
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
                // `lint` has no roots to filter by.
                match (a.as_str(), kind) {
                    ("--json", _) => json = true,
                    ("--refresh-baseline", _) => refresh = true,
                    ("--root", AuditKind::Hot | AuditKind::Det) => match it.next() {
                        Some(r) => root_filter = Some(r.clone()),
                        None => return usage(),
                    },
                    ("--dir", _) => match it.next() {
                        Some(d) => dir = Some(PathBuf::from(d)),
                        None => return usage(),
                    },
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
        _ => usage(),
    }
}
