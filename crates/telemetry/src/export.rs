//! Exporters: end-of-run summary table, JSONL event stream, and Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` or Perfetto).
//!
//! The Chrome trace places wall-clock spans on process 1 (one row per
//! recording thread) and simulated-time spans on process 2 (one row per
//! DES resource track), so real and virtual time never share a
//! timeline. Both files render through [`crate::json`]; `cargo xtask
//! validate-trace` checks them against this schema in CI.

use crate::json::Json;
use crate::metrics::{self, MetricsSnapshot};
use crate::span::{self, Event};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Reads the `SPP_TRACE` environment knob (set and not `"0"` ⇒ on) and
/// enables recording accordingly. Returns whether tracing is on.
pub fn init_from_env() -> bool {
    let on = std::env::var("SPP_TRACE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if on {
        metrics::set_enabled(true);
    }
    on
}

/// Renders the human-readable end-of-run summary: every registered
/// counter, gauge, and histogram (count/mean/p50/p95/max), merged
/// across shards, in registration order.
pub fn summary() -> String {
    let snap: MetricsSnapshot = metrics::snapshot();
    let mut out = String::new();
    out.push_str("== telemetry summary ==\n");
    let width = snap
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(snap.gauges.iter().map(|(n, _)| n.len()))
        .chain(snap.histograms.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(0)
        .max(8);
    if !snap.counters.is_empty() {
        out.push_str("-- counters --\n");
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "  {name:<width$}  {v:>14}");
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("-- gauges (last / max) --\n");
        for (name, g) in &snap.gauges {
            let _ = writeln!(out, "  {name:<width$}  {:>14} / {}", g.value, g.max);
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("-- histograms (count / mean / p50 / p99 / p999 / max) --\n");
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>10} / {:>12.1} / {:>10} / {:>10} / {:>10} / {:>10}",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max
            );
        }
    }
    let dropped = span::dropped_events();
    if dropped > 0 {
        let _ = writeln!(out, "  (ring buffer overwrote {dropped} events)");
    }
    out
}

fn chrome_event(ev: &Event) -> Json {
    Json::obj([
        ("name", ev.name.as_ref().into()),
        ("cat", if ev.sim { "sim" } else { "wall" }.into()),
        ("ph", "X".into()),
        ("pid", (if ev.sim { 2u64 } else { 1 }).into()),
        ("tid", ev.tid.into()),
        ("ts", Json::fixed(ev.start_ns as f64 / 1000.0, 3)),
        ("dur", Json::fixed(ev.dur_ns as f64 / 1000.0, 3)),
        ("args", Json::obj([("depth", u64::from(ev.depth).into())])),
    ])
}

/// A metadata event naming process `pid` (or its thread `tid`).
fn chrome_meta(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Json {
    let mut fields = vec![
        ("name", name.into()),
        ("ph", "M".into()),
        ("pid", pid.into()),
    ];
    fields.extend(tid.map(|t| ("tid", t.into())));
    fields.push(("args", Json::obj([("name", value.into())])));
    Json::obj(fields)
}

/// Renders the event log as Chrome `trace_event` JSON. Wall spans live
/// on pid 1 (µs since the clock anchor), simulated spans on pid 2 (µs
/// of virtual time).
pub fn chrome_trace_json() -> String {
    let mut events = vec![
        chrome_meta("process_name", 1, None, "wall clock"),
        chrome_meta("process_name", 2, None, "simulated (DES virtual time)"),
    ];
    span::with_log(|l| {
        for (tid, name) in &l.threads {
            events.push(chrome_meta("thread_name", 1, Some(*tid), name));
        }
        for (i, name) in l.sim_tracks.iter().enumerate() {
            events.push(chrome_meta("thread_name", 2, Some(i as u64), name));
        }
        events.extend(l.events.iter().map(chrome_event));
    });
    let mut fields = vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".into()),
    ];
    // Published attribution reports ride along as a top-level section
    // (`cargo xtask validate-trace --attrib` checks it). Chrome/Perfetto
    // ignore unknown top-level keys.
    fields.extend(crate::attrib::attrib_json().map(|a| ("attrib", a)));
    Json::obj(fields).to_string()
}

/// Renders the event log as JSON Lines, one event object per line.
pub fn events_jsonl() -> String {
    let mut out = String::new();
    span::with_log(|l| {
        for ev in &l.events {
            let line = Json::obj([
                ("name", ev.name.as_ref().into()),
                ("sim", ev.sim.into()),
                ("tid", ev.tid.into()),
                ("start_ns", ev.start_ns.into()),
                ("dur_ns", ev.dur_ns.into()),
                ("depth", u64::from(ev.depth).into()),
            ]);
            let _ = writeln!(out, "{line}");
        }
    });
    out
}

/// Writes `trace_<label>.json` (Chrome format) and `trace_<label>.jsonl`
/// (event stream) under `dir`, creating it if needed. Returns the paths
/// written.
pub fn write_trace_files(dir: &Path, label: &str) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let chrome = dir.join(format!("trace_{label}.json"));
    std::fs::write(&chrome, chrome_trace_json())?;
    let jsonl = dir.join(format!("trace_{label}.jsonl"));
    std::fs::write(&jsonl, events_jsonl())?;
    Ok(vec![chrome, jsonl])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{set_enabled, test_lock};

    #[test]
    fn chrome_trace_is_wellformed_and_escaped() {
        let _g = test_lock();
        set_enabled(true);
        let track = span::sim_track("export-test-track");
        span::record_sim_span(track, "export.\"quoted\"\nname", 0.001, 0.002);
        {
            let _s = crate::span!("export.test.wall");
        }
        set_enabled(false);
        let json = chrome_trace_json();
        // Raw control characters must never appear inside the JSON.
        assert!(!json.bytes().any(|b| b < 0x20));
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(doc.str_field("displayTimeUnit"), Ok("ms"));
        let events = doc.arr_field("traceEvents").unwrap();
        let named = |n: &str| events.iter().find(|e| e.str_field("name") == Ok(n));
        let sim = named("export.\"quoted\"\nname").unwrap();
        assert_eq!(sim.str_field("ph"), Ok("X"));
        assert_eq!(sim.field("ts"), Some(&Json::Num("1000.000".into())));
        assert!(named("export.test.wall").is_some());
        assert!(events.iter().any(|e| e.str_field("ph") == Ok("M")));
    }

    #[test]
    fn chrome_trace_embeds_published_attribution() {
        let _g = test_lock();
        crate::attrib::publish_cache_report(crate::attrib::CacheReport {
            label: "export-attrib-test".into(),
            scheme: "f32".into(),
            ..crate::attrib::CacheReport::default()
        });
        let json = chrome_trace_json();
        let doc = crate::json::parse(&json).unwrap();
        let cache = doc.field("attrib").unwrap().arr_field("cache").unwrap();
        assert_eq!(cache[0].str_field("label"), Ok("export-attrib-test"));
        crate::attrib::reset_attrib();
    }

    #[test]
    fn summary_lists_all_metric_kinds() {
        let _g = test_lock();
        set_enabled(true);
        metrics::counter("export.test.counter").add(7);
        metrics::gauge("export.test.gauge").set(3);
        metrics::histogram("export.test.hist").observe(100);
        set_enabled(false);
        let s = summary();
        assert!(s.contains("export.test.counter"));
        assert!(s.contains("export.test.gauge"));
        assert!(s.contains("export.test.hist"));
    }

    #[test]
    fn jsonl_has_one_object_per_line() {
        let _g = test_lock();
        set_enabled(true);
        {
            let _s = crate::span!("export.test.jsonl");
        }
        set_enabled(false);
        let text = events_jsonl();
        assert!(text.lines().count() >= 1);
        for line in text.lines() {
            let ev = crate::json::parse(line).unwrap();
            assert!(ev.str_field("name").is_ok(), "{line}");
            assert!(ev.uint_field::<u64>("start_ns").is_ok(), "{line}");
        }
    }
}
