//! In-memory spans around the harness's calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, pass, batch}` plus the
//! allocations counted between its open and close. Spans are kept in
//! memory and written as JSON lines when the benchmark ends. A span's
//! self time is its duration minus the part its children cover, so the
//! self times of one pass's spans sum to that pass's wall time.

use crate::alloc;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of every traced pass.
pub const PASS: &str = "pass";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub pass: u32,
    pub batch: u32,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals over all spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

impl Agg {
    pub fn us_per_call(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64 / 1e3, self.count as f64)
    }

    /// Like [`Agg::us_per_call`] without the time child spans cover.
    pub fn self_us_per_call(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64 / 1e3, self.count as f64)
    }

    pub fn ms_per_call(&self) -> f64 {
        self.us_per_call() / 1e3
    }

    pub fn allocs_per_call(&self) -> f64 {
        crate::stats::ratio(self.allocs as f64, self.count as f64)
    }

    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    pass: u32,
}

pub struct Tracer {
    epoch: Instant,
    /// Off: `span` and `pass` only run their bodies and `count` does
    /// nothing — the same harness-driven pass without the recorder.
    recording: Cell<bool>,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            recording: Cell::new(true),
            inner: RefCell::new(Inner {
                spans: Vec::with_capacity(1 << 16),
                open: Vec::new(),
                counts: BTreeMap::new(),
                pass: 0,
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.set(on);
    }

    /// Runs `body` as one traced pass: a root [`PASS`] span with
    /// allocation counting on. Returns the body's result and the pass
    /// wall time in seconds.
    pub fn pass<R>(&self, pass: u32, body: impl FnOnce() -> R) -> (R, f64) {
        self.inner.borrow_mut().pass = pass;
        alloc::set_counting(self.recording.get());
        let t0 = Instant::now();
        let r = self.span(PASS, 0, body);
        let secs = t0.elapsed().as_secs_f64();
        alloc::set_counting(false);
        (r, secs)
    }

    /// Runs `body` inside a span. Spans nest: `body` may open more.
    pub fn span<R>(&self, name: &'static str, batch: usize, body: impl FnOnce() -> R) -> R {
        if !self.recording.get() {
            return body();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let (parent, pass) = (inner.open.last().copied(), inner.pass);
            let (allocs, alloc_bytes) = alloc::counted();
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                pass,
                batch: batch as u32,
                allocs,
                alloc_bytes,
            });
            inner.open.push(id);
            id
        };
        // Clock reads sit innermost so a span covers as little of the
        // recorder's own bookkeeping as possible.
        let start = self.now_ns();
        let r = body();
        let end = self.now_ns();
        let (allocs, alloc_bytes) = alloc::counted();
        let mut inner = self.inner.borrow_mut();
        inner.open.pop();
        let s = &mut inner.spans[id];
        s.start_ns = start;
        s.end_ns = end;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = alloc_bytes - s.alloc_bytes;
        r
    }

    /// Adds `n` to a named count (rows, edges, probes, ...), recorded at
    /// the same boundary as the span that did the work.
    pub fn count(&self, name: &'static str, n: usize) {
        if !self.recording.get() {
            return;
        }
        *self.inner.borrow_mut().counts.entry(name).or_insert(0) += n as u64;
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.inner.borrow().counts.get(name).copied().unwrap_or(0) as f64
    }

    /// Per-name totals over every recorded span.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        aggregate(&self.inner.borrow().spans)
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggregate().get(name).copied().unwrap_or_default()
    }

    /// Seconds of span time below the pass roots, summed over all traced
    /// passes: what the stages account for of the passes' wall time.
    pub fn stage_sum_s(&self) -> f64 {
        let root = self.agg(PASS);
        (root.total_ns - root.self_ns) as f64 / 1e9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.inner.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"pass\": {}, \"batch\": {}, \"allocs\": {}, \
                 \"alloc_bytes\": {}}}",
                s.name, s.start_ns, s.end_ns, s.pass, s.batch, s.allocs, s.alloc_bytes
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.duration_ns();
        a.self_ns += self_ns;
        a.allocs += s.allocs;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            batch: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(PASS, 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("b", 30, 45, Some(1)),
            span("c", 60, 95, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![15, 25, 10, 15, 35]);
        // Self times partition the root's wall time.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let agg = aggregate(&spans);
        assert_eq!(agg["b"].count, 2);
        assert_eq!(agg["b"].total_ns, 25);
        assert_eq!(agg["a"].self_ns, 25);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let tr = Tracer::new();
        let ((), secs) = tr.pass(3, || {
            tr.span("outer", 7, || {
                tr.span("inner", 7, || std::hint::black_box(vec![1u8; 64]));
            });
            tr.count("rows", 5);
            tr.count("rows", 2);
        });
        assert!(secs > 0.0);
        assert_eq!(tr.counted("rows"), 7.0);
        let inner = tr.inner.borrow();
        let names: Vec<_> = inner.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, [PASS, "outer", "inner"]);
        assert_eq!(inner.spans[2].parent, Some(1));
        assert_eq!(inner.spans[1].parent, Some(0));
        assert_eq!(inner.spans[0].parent, None);
        assert!(inner.spans.iter().all(|s| s.pass == 3));
        assert_eq!(inner.spans[2].batch, 7);
        assert!(inner.spans[2].allocs >= 1);
        assert!(inner.spans[0].end_ns >= inner.spans[1].end_ns);
    }

    #[test]
    fn recorder_off_runs_bodies_only() {
        let tr = Tracer::new();
        tr.set_recording(false);
        let (v, secs) = tr.pass(0, || tr.span("x", 0, || 7));
        tr.count("rows", 3);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.inner.borrow().spans.is_empty());
        assert_eq!(tr.counted("rows"), 0.0);
    }
}
