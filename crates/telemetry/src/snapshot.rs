//! Live run snapshots: an `spp-top`-style periodic text dashboard.
//!
//! Long bench and serving runs are opaque between start and final
//! summary; this module makes them inspectable in flight. Setting
//! `SPP_SNAPSHOT=<secs>` (see [`crate::export::init_from_env`]) starts
//! one detached observer thread that, every `<secs>` seconds, takes a
//! [`crate::metrics::snapshot`], diffs it against the previous tick,
//! and prints a compact dashboard to stderr: counter totals with
//! per-second rates over the window, gauge last/max, and histogram
//! count/p50/p99/p999/max (sketch-resolution quantiles since the
//! registry shares the [`crate::sketch`] bucket layout).
//!
//! The renderer itself ([`render_dashboard`]) is a pure function of two
//! snapshots, so it is unit-testable and usable directly — harnesses
//! that want an on-demand dashboard call
//! `render_dashboard(prev.as_ref(), &metrics::snapshot(), dt)` without
//! starting the thread. The observer thread only ever *reads* telemetry
//! (snapshot + render + eprint); it never writes metrics and never
//! joins the computation, so it cannot perturb the §9 determinism
//! contract any more than telemetry itself does.

use crate::metrics::{self, MetricsSnapshot};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Set once the observer thread has been spawned (one per process).
static STARTED: OnceLock<()> = OnceLock::new();

/// Renders the dashboard for the window between `prev` and `cur`
/// (`elapsed_secs` apart). With `prev = None` the rates column shows
/// the whole-run average assuming `elapsed_secs` since start.
#[must_use]
pub fn render_dashboard(
    prev: Option<&MetricsSnapshot>,
    cur: &MetricsSnapshot,
    elapsed_secs: f64,
) -> String {
    let dt = if elapsed_secs > 0.0 {
        elapsed_secs
    } else {
        1.0
    };
    let prev_counter = |name: &str| -> u64 {
        prev.and_then(|p| p.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
            .unwrap_or(0)
    };
    let prev_hist_count = |name: &str| -> u64 {
        prev.and_then(|p| {
            p.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count)
        })
        .unwrap_or(0)
    };
    let width = cur
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(cur.gauges.iter().map(|(n, _)| n.len()))
        .chain(cur.histograms.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(8)
        .max(8);
    let mut out = String::new();
    let _ = writeln!(out, "== spp-top (window {dt:.1}s) ==");
    if !cur.counters.is_empty() {
        out.push_str("-- counters (total / rate per s) --\n");
        for (name, v) in &cur.counters {
            let delta = v.saturating_sub(prev_counter(name));
            let _ = writeln!(
                out,
                "  {name:<width$}  {v:>14}  {:>12.1}/s",
                delta as f64 / dt
            );
        }
    }
    if !cur.gauges.is_empty() {
        out.push_str("-- gauges (last / max) --\n");
        for (name, g) in &cur.gauges {
            let _ = writeln!(out, "  {name:<width$}  {:>14} / {}", g.value, g.max);
        }
    }
    if !cur.histograms.is_empty() {
        out.push_str("-- histograms (count / new / p50 / p99 / p999 / max) --\n");
        for (name, h) in &cur.histograms {
            let fresh = h.count.saturating_sub(prev_hist_count(name));
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>10} / {:>8} / {:>10} / {:>10} / {:>10} / {:>10}",
                h.count,
                fresh,
                h.quantile(0.5),
                h.quantile(0.99),
                h.quantile(0.999),
                h.max
            );
        }
    }
    out
}

/// Starts the periodic snapshot thread (at most one per process).
/// Returns whether this call started it. Periods are clamped to at
/// least 10 ms so a typo cannot busy-spin the observer.
pub fn start_snapshotter(period_secs: f64) -> bool {
    if !period_secs.is_finite() || period_secs <= 0.0 {
        return false;
    }
    if STARTED.set(()).is_err() {
        return false;
    }
    let period = std::time::Duration::from_secs_f64(period_secs.max(0.01));
    // A detached observer is the point: it must outlive no one and own
    // nothing. Bounded to one thread by the STARTED flag above, it only
    // reads (snapshot + render + eprint) and exits with the process.
    #[allow(
        clippy::disallowed_methods,
        reason = "one read-only observer thread gated by the STARTED flag; not a data-parallel fan-out, so the pool's worker budget does not apply"
    )]
    std::thread::spawn(move || {
        let mut prev: Option<MetricsSnapshot> = None;
        let mut last_ns = crate::span::clock_ns();
        loop {
            std::thread::sleep(period);
            if !metrics::enabled() {
                continue;
            }
            let now_ns = crate::span::clock_ns();
            let dt = (now_ns.saturating_sub(last_ns)) as f64 / 1e9;
            last_ns = now_ns;
            let cur = metrics::snapshot();
            eprint!("{}", render_dashboard(prev.as_ref(), &cur, dt));
            prev = Some(cur);
        }
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{GaugeValue, HistogramSnapshot};

    fn snap(counter: u64, hist_count: u64) -> MetricsSnapshot {
        let mut h = HistogramSnapshot::default();
        h.buckets[crate::metrics::bucket_of(100)] = hist_count;
        h.count = hist_count;
        h.sum = 100 * hist_count;
        h.max = 100;
        MetricsSnapshot {
            counters: vec![("test.dash.counter".to_string(), counter)],
            gauges: vec![(
                "test.dash.gauge".to_string(),
                GaugeValue { value: 3, max: 9 },
            )],
            histograms: vec![("test.dash.hist".to_string(), h)],
        }
    }

    #[test]
    fn dashboard_rates_are_window_deltas() {
        let prev = snap(100, 10);
        let cur = snap(350, 30);
        let s = render_dashboard(Some(&prev), &cur, 5.0);
        assert!(s.contains("spp-top"), "{s}");
        // (350 - 100) / 5s = 50/s.
        assert!(s.contains("50.0/s"), "{s}");
        // Gauge last/max and histogram fresh-count column.
        assert!(s.contains("3 / 9"), "{s}");
        assert!(s.contains("20 /"), "{s}");
    }

    #[test]
    fn dashboard_without_prev_uses_totals() {
        let cur = snap(200, 4);
        let s = render_dashboard(None, &cur, 2.0);
        assert!(s.contains("100.0/s"), "{s}");
        // Sketch-resolution quantile of the 100-valued samples: exact
        // bucket floor for a two-wide sub-bucket.
        assert!(
            s.contains(&format!(
                "{}",
                crate::metrics::bucket_floor(crate::metrics::bucket_of(100))
            )),
            "{s}"
        );
    }

    #[test]
    fn zero_elapsed_does_not_divide_by_zero() {
        let cur = snap(5, 0);
        let s = render_dashboard(None, &cur, 0.0);
        assert!(s.contains("5.0/s"), "{s}");
    }
}
