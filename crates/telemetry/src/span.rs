//! Scoped spans with monotonic timing, parent/child nesting, and a
//! bounded event ring buffer.
//!
//! A span is a guard: `let _g = span!("core.vip.sweep");` opens it and
//! dropping the guard closes it, recording (a) the duration into an
//! auto-registered histogram of the same name and (b) an [`Event`] into
//! the global ring buffer for the trace exporters. Nesting depth is
//! tracked per thread so exporters can reconstruct the parent/child
//! relationship without span ids.
//!
//! All wall-clock reads go through [`clock_ns`] — nanoseconds since a
//! process-wide anchor — which is the workspace's single sanctioned
//! `Instant` site outside `spp-bench` and the DES virtual clock
//! (clippy.toml bans `Instant::now`).
//!
//! Simulated time: the DES pipeline models run in *virtual* seconds.
//! [`record_sim_span`] records those on named sim tracks; exporters
//! place them on a separate trace process so wall and virtual time are
//! never mixed on one timeline.

use crate::metrics::{enabled, histogram, Histogram};
use spp_sync::{AtomicU64, Mutex};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

/// Ring-buffer capacity; older events are overwritten (and counted as
/// dropped) once the log is full.
pub const EVENT_CAPACITY: usize = 1 << 16;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first telemetry clock read of the
/// process. The workspace's single wall-clock entry point (clippy.toml
/// bans `Instant::now` everywhere else).
#[inline]
#[allow(
    clippy::disallowed_methods,
    reason = "this is the process clock clippy.toml sends every other crate to: the one anchor all span timestamps share"
)]
pub fn clock_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One closed span (or simulated-span) occurrence.
#[derive(Clone, Debug)]
pub struct Event {
    /// Span name (`crate.component.stage`).
    pub name: Cow<'static, str>,
    /// Wall spans: telemetry thread id. Sim spans: sim track id.
    pub tid: u64,
    /// Start in ns — since the clock anchor (wall) or virtual t=0 (sim).
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Nesting depth on its thread when opened (0 = top level).
    pub depth: u16,
    /// True when recorded via [`record_sim_span`] (virtual time).
    pub sim: bool,
}

#[derive(Default)]
pub(crate) struct EventLog {
    pub(crate) events: VecDeque<Event>,
    pub(crate) dropped: u64,
    /// `(tid, thread name)` for every thread that recorded a span.
    pub(crate) threads: Vec<(u64, String)>,
    /// Sim track names; the track id is the index.
    pub(crate) sim_tracks: Vec<String>,
}

fn log() -> &'static Mutex<EventLog> {
    static LOG: OnceLock<Mutex<EventLog>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(EventLog::default()))
}

pub(crate) fn with_log<R>(f: impl FnOnce(&EventLog) -> R) -> R {
    f(&log().lock())
}

/// Clears the event ring buffer (thread/track registries persist).
pub fn reset_events() {
    let mut l = log().lock();
    l.events.clear();
    l.dropped = 0;
}

/// Events dropped to ring-buffer overwrite so far.
pub fn dropped_events() -> u64 {
    log().lock().dropped
}

/// Clones the current event log, oldest first. Harnesses use this to
/// fold closed spans into per-stage [`crate::sketch::QuantileSketch`]es
/// after a run; bounded by [`EVENT_CAPACITY`], so at most one ring of
/// events is copied.
#[must_use]
pub fn events_snapshot() -> Vec<Event> {
    log().lock().events.iter().cloned().collect()
}

fn push(ev: Event) {
    let mut l = log().lock();
    if l.events.len() >= EVENT_CAPACITY {
        l.events.pop_front();
        l.dropped += 1;
    }
    l.events.push_back(ev);
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn register_tid() -> u64 {
    let tid = NEXT_TID.fetch_add_relaxed(1); // spp-sync: relaxed(unique-id allocation; RMW uniqueness needs no ordering)
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{tid}"));
    log().lock().threads.push((tid, name));
    tid
}

thread_local! {
    static TID: u64 = register_tid();
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// Guard for an open span; the span closes when this drops. Prefer the
/// [`crate::span!`] macro at call sites.
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    tid: u64,
    depth: u16,
    hist: Histogram,
    active: bool,
}

/// Opens a span named `name`. Inert (no clock read, no allocation) while
/// telemetry is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            start_ns: 0,
            tid: 0,
            depth: 0,
            hist: Histogram::dead(),
            active: false,
        };
    }
    let tid = TID.try_with(|t| *t).unwrap_or(0);
    let depth = DEPTH
        .try_with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        })
        .unwrap_or(0);
    SpanGuard {
        name,
        start_ns: clock_ns(),
        tid,
        depth,
        hist: histogram(name),
        active: true,
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur = clock_ns().saturating_sub(self.start_ns);
        let _ = DEPTH.try_with(|d| d.set(d.get().saturating_sub(1)));
        if enabled() {
            self.hist.observe(dur);
            push(Event {
                name: Cow::Borrowed(self.name),
                tid: self.tid,
                start_ns: self.start_ns,
                dur_ns: dur,
                depth: self.depth,
                sim: false,
            });
        }
    }
}

/// Registers (or looks up) a simulated-time track — e.g. one per DES
/// resource (`cpu0`, `nic1`) — returning its track id.
pub fn sim_track(name: &str) -> u64 {
    let mut l = log().lock();
    if let Some(i) = l.sim_tracks.iter().position(|n| n == name) {
        return i as u64;
    }
    l.sim_tracks.push(name.to_string());
    (l.sim_tracks.len() - 1) as u64
}

/// Records a span in *virtual* time (seconds) on a sim track. No-op
/// while telemetry is disabled.
pub fn record_sim_span(track: u64, name: impl Into<Cow<'static, str>>, start_s: f64, dur_s: f64) {
    if !enabled() {
        return;
    }
    push(Event {
        name: name.into(),
        tid: track,
        start_ns: (start_s.max(0.0) * 1e9) as u64,
        dur_ns: (dur_s.max(0.0) * 1e9) as u64,
        depth: 0,
        sim: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{set_enabled, test_lock};

    #[test]
    fn disabled_span_records_nothing() {
        let _g = test_lock();
        set_enabled(false);
        let before = with_log(|l| l.events.len());
        {
            let _g = crate::span!("test.span.disabled");
        }
        assert_eq!(with_log(|l| l.events.len()), before);
    }

    #[test]
    fn nested_spans_carry_depth() {
        let _g = test_lock();
        set_enabled(true);
        {
            let _outer = crate::span!("test.span.outer");
            let _inner = crate::span!("test.span.inner");
        }
        set_enabled(false);
        let (outer_depth, inner_depth) = with_log(|l| {
            let find = |n: &str| l.events.iter().rev().find(|e| e.name == n).map(|e| e.depth);
            (find("test.span.outer"), find("test.span.inner"))
        });
        // Same thread: inner must sit one level below outer.
        let outer = outer_depth.unwrap_or(u16::MAX);
        let inner = inner_depth.unwrap_or(0);
        assert!(inner > outer, "inner {inner} vs outer {outer}");
        // The span histogram recorded the duration too.
        assert!(histogram("test.span.outer").snapshot().count >= 1);
    }

    #[test]
    fn sim_spans_use_virtual_time() {
        let _g = test_lock();
        set_enabled(true);
        let t = sim_track("test-sim-track");
        assert_eq!(t, sim_track("test-sim-track"));
        record_sim_span(t, "test.sim.span", 1.5, 0.25);
        set_enabled(false);
        let ev = with_log(|l| {
            l.events
                .iter()
                .rev()
                .find(|e| e.name == "test.sim.span")
                .cloned()
        });
        let ev = ev.unwrap_or(Event {
            name: Cow::Borrowed(""),
            tid: 0,
            start_ns: 0,
            dur_ns: 0,
            depth: 0,
            sim: false,
        });
        assert!(ev.sim);
        assert_eq!(ev.start_ns, 1_500_000_000);
        assert_eq!(ev.dur_ns, 250_000_000);
    }
}
