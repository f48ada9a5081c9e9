//! Exporters: end-of-run summary table, JSONL event stream, and Chrome
//! `trace_event` JSON (loadable in `chrome://tracing` or Perfetto).
//!
//! The Chrome trace places wall-clock spans on process 1 (one row per
//! recording thread) and simulated-time spans on process 2 (one row per
//! DES resource track), so real and virtual time never share a
//! timeline. All JSON is built by hand — the workspace has no serde —
//! with full string escaping; `cargo xtask validate-trace` checks the
//! emitted files against this schema in CI.

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

/// Escapes `s` for inclusion in a JSON string literal (the workspace's
/// one escaper: bench, check and xtask reports call it too).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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

fn push_chrome_event(out: &mut String, ev: &Event) {
    let pid = if ev.sim { 2 } else { 1 };
    let ts = ev.start_ns as f64 / 1000.0;
    let dur = ev.dur_ns as f64 / 1000.0;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
         \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"depth\":{}}}}}",
        json_escape(&ev.name),
        if ev.sim { "sim" } else { "wall" },
        ev.tid,
        ev.depth
    );
}

/// Renders the event log as Chrome `trace_event` JSON. Wall spans live
/// on pid 1 (µs since the clock anchor), simulated spans on pid 2 (µs
/// of virtual time).
pub fn chrome_trace_json() -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let meta = |out: &mut String,
                first: &mut bool,
                name: &str,
                pid: u64,
                tid: Option<u64>,
                value: &str| {
        if !*first {
            out.push(',');
        }
        *first = false;
        let tid_field = tid.map(|t| format!(",\"tid\":{t}")).unwrap_or_default();
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid}{tid_field},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(value)
        );
    };
    meta(&mut out, &mut first, "process_name", 1, None, "wall clock");
    meta(
        &mut out,
        &mut first,
        "process_name",
        2,
        None,
        "simulated (DES virtual time)",
    );
    span::with_log(|l| {
        for (tid, name) in &l.threads {
            meta(&mut out, &mut first, "thread_name", 1, Some(*tid), name);
        }
        for (i, name) in l.sim_tracks.iter().enumerate() {
            meta(&mut out, &mut first, "thread_name", 2, Some(i as u64), name);
        }
        for ev in &l.events {
            if !first {
                out.push(',');
            }
            first = false;
            push_chrome_event(&mut out, ev);
        }
    });
    out.push_str("],\"displayTimeUnit\":\"ms\"");
    // Published attribution reports ride along as a top-level section
    // (already canonical JSON; `cargo xtask validate-trace --attrib`
    // checks it). Chrome/Perfetto ignore unknown top-level keys.
    if let Some(attrib) = crate::attrib::attrib_json() {
        let _ = write!(out, ",\"attrib\":{attrib}");
    }
    out.push('}');
    out
}

/// Renders the event log as JSON Lines, one event object per line.
pub fn events_jsonl() -> String {
    let mut out = String::new();
    span::with_log(|l| {
        for ev in &l.events {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"sim\":{},\"tid\":{},\"start_ns\":{},\
                 \"dur_ns\":{},\"depth\":{}}}",
                json_escape(&ev.name),
                ev.sim,
                ev.tid,
                ev.start_ns,
                ev.dur_ns,
                ev.depth
            );
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
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.ends_with('}'));
        assert!(json.contains("\\\"quoted\\\"\\nname"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("export.test.wall"));
        // Raw control characters must never appear inside the JSON.
        assert!(!json.bytes().any(|b| b < 0x20));
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
        assert!(json.contains("\"attrib\":{\"cache\": ["), "{json}");
        assert!(json.contains("\"label\": \"export-attrib-test\""), "{json}");
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
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"name\":"));
            assert!(line.contains("\"start_ns\":"));
        }
    }
}
