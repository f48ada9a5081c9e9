//! Attribution layer: structured cache and communication accounting.
//!
//! Counters tell you *how much*; attribution tells you *where*. This
//! module defines the two structured report types the perf benches and
//! trace exporters share (DESIGN.md §15):
//!
//! - [`CacheReport`] — per-tier cache accounting for one configuration:
//!   hits / misses / evictions / insertions / bytes for every tier
//!   (static VIP cache, LRU overlay, remote fetch), tagged with the
//!   quantization scheme in effect and carrying a latency
//!   [`QuantileSketch`].
//! - [`CommReport`] — a windowed communication-matrix view: one square
//!   `machines × machines` byte matrix per window (an epoch of
//!   training, a slice of serving virtual time), `matrix[src][dst]` =
//!   bytes sent from machine `src` to machine `dst` in that window.
//!
//! Reports are built from *deterministic* per-run accounting (never
//! from racy counter snapshots), so their canonical JSON renderings are
//! bit-identical across runs and worker counts. Harnesses embed the
//! JSON in `BENCH_*.json` and [`publish`] them into a global registry
//! that the Chrome-trace exporter appends as a top-level `attrib`
//! section — `cargo xtask validate-trace` checks both against this
//! schema.

use crate::export::json_escape;
use crate::sketch::QuantileSketch;
use spp_sync::Mutex;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Accounting for one cache tier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Tier name (`static`, `overlay`, `remote`).
    pub tier: String,
    /// Lookups this tier answered.
    pub hits: u64,
    /// Lookups this tier saw but could not answer.
    pub misses: u64,
    /// Entries evicted from this tier.
    pub evictions: u64,
    /// Entries admitted into this tier.
    pub insertions: u64,
    /// Bytes served by (or, for `remote`, transferred through) this
    /// tier.
    pub bytes: u64,
}

impl TierStats {
    /// A named tier with all counters zero.
    #[must_use]
    pub fn named(tier: &str) -> Self {
        Self {
            tier: tier.to_string(),
            ..Self::default()
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"tier\": \"{}\", \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"insertions\": {}, \"bytes\": {}}}",
            json_escape(&self.tier),
            self.hits,
            self.misses,
            self.evictions,
            self.insertions,
            self.bytes
        )
    }
}

/// Per-tier cache accounting for one run/configuration.
///
/// Invariant (checked by `cargo xtask validate-trace`): the tier hit
/// counts partition the lookups — `Σ tiers[i].hits == lookups`. The
/// `remote` tier counts every fetch as a hit (the network always
/// answers), so the invariant holds for the usual
/// static → overlay → remote probe order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Which run/configuration this report describes.
    pub label: String,
    /// Quantization scheme of the cached/wire rows (`f32`, `f16`, `i8`).
    pub scheme: String,
    /// Non-local lookups classified against the tiers.
    pub lookups: u64,
    /// Local accesses that never consulted a cache.
    pub local: u64,
    /// Per-tier counters, in probe order.
    pub tiers: Vec<TierStats>,
    /// End-to-end latency sketch (nanoseconds).
    pub latency_ns: QuantileSketch,
}

impl CacheReport {
    /// Canonical JSON rendering (single object, tiers in probe order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\": \"{}\", \"scheme\": \"{}\", \"lookups\": {}, \"local\": {}, \
             \"tiers\": [",
            json_escape(&self.label),
            json_escape(&self.scheme),
            self.lookups,
            self.local
        );
        for (i, t) in self.tiers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&t.to_json());
        }
        let _ = write!(out, "], \"latency_ns\": {}}}", self.latency_ns.to_json());
        out
    }
}

/// One window of a communication matrix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommWindow {
    /// Window label (`epoch0`, `t0.25`, ...).
    pub label: String,
    /// Row-major `machines × machines` byte matrix:
    /// `bytes[src * machines + dst]`.
    pub bytes: Vec<u64>,
}

/// A windowed communication-matrix view for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommReport {
    /// Which run/configuration this report describes.
    pub label: String,
    /// Machine count `k`; every window matrix is `k × k`.
    pub machines: usize,
    /// Windows in time order.
    pub windows: Vec<CommWindow>,
}

impl CommReport {
    /// A report with `windows` empty `machines × machines` windows
    /// labelled by `label_fn(window index)`.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero.
    #[must_use]
    pub fn with_windows(
        label: &str,
        machines: usize,
        windows: usize,
        label_fn: impl Fn(usize) -> String,
    ) -> Self {
        assert!(machines > 0, "comm matrix needs at least one machine");
        Self {
            label: label.to_string(),
            machines,
            windows: (0..windows)
                .map(|w| CommWindow {
                    label: label_fn(w),
                    bytes: vec![0; machines * machines],
                })
                .collect(),
        }
    }

    /// Adds `bytes` sent `src → dst` in window `w`. Out-of-range
    /// indices are ignored (attribution must never take the run down).
    pub fn record(&mut self, w: usize, src: usize, dst: usize, bytes: u64) {
        if src >= self.machines || dst >= self.machines {
            return;
        }
        if let Some(win) = self.windows.get_mut(w) {
            if let Some(cell) = win.bytes.get_mut(src * self.machines + dst) {
                *cell += bytes;
            }
        }
    }

    /// Total bytes across all windows and machine pairs.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.bytes.iter().sum::<u64>())
            .sum()
    }

    /// Canonical JSON rendering; each window's matrix is emitted as
    /// `machines` rows of `machines` columns (square by construction).
    #[must_use]
    pub fn to_json(&self) -> String {
        let k = self.machines;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"label\": \"{}\", \"machines\": {k}, \"total_bytes\": {}, \"windows\": [",
            json_escape(&self.label),
            self.total_bytes()
        );
        for (wi, w) in self.windows.iter().enumerate() {
            if wi > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"label\": \"{}\", \"bytes\": [",
                json_escape(&w.label)
            );
            for row in 0..k {
                if row > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                for col in 0..k {
                    if col > 0 {
                        out.push_str(", ");
                    }
                    let cell = w.bytes.get(row * k + col).copied().unwrap_or(0);
                    let _ = write!(out, "{cell}");
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// Page-level accounting for one out-of-core feature store
/// (`spp-store`) over one run/configuration.
///
/// Invariants (checked by `cargo xtask validate-trace`):
/// `pages_read == pages_faulted + pages_hit` and
/// `bytes_read == pages_faulted × page_bytes` — a fault loads exactly
/// one page, a hit touches resident bytes only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Which run/configuration this report describes.
    pub label: String,
    /// Backend name (`inram`, `mmap`).
    pub backend: String,
    /// On-disk row precision (`f32`, `f16`, `i8`).
    pub scheme: String,
    /// Rows per page.
    pub page_rows: u64,
    /// Bytes per page.
    pub page_bytes: u64,
    /// Page touches (one per row read).
    pub pages_read: u64,
    /// Touches that missed residency and loaded the page.
    pub pages_faulted: u64,
    /// Touches answered by an already-resident page.
    pub pages_hit: u64,
    /// Bytes loaded from the backing file (faults × page size).
    pub bytes_read: u64,
}

impl StoreReport {
    /// Canonical JSON rendering (single object).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"label\": \"{}\", \"backend\": \"{}\", \"scheme\": \"{}\", \
             \"page_rows\": {}, \"page_bytes\": {}, \"pages_read\": {}, \
             \"pages_faulted\": {}, \"pages_hit\": {}, \"bytes_read\": {}}}",
            json_escape(&self.label),
            json_escape(&self.backend),
            json_escape(&self.scheme),
            self.page_rows,
            self.page_bytes,
            self.pages_read,
            self.pages_faulted,
            self.pages_hit,
            self.bytes_read
        )
    }
}

/// Published attribution reports awaiting export.
#[derive(Default)]
struct AttribRegistry {
    caches: Vec<CacheReport>,
    comms: Vec<CommReport>,
    stores: Vec<StoreReport>,
}

fn registry() -> &'static Mutex<AttribRegistry> {
    static REG: OnceLock<Mutex<AttribRegistry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(AttribRegistry::default()))
}

/// Publishes a cache report for the trace exporters. A later report
/// with the same label replaces the earlier one (re-runs in one
/// process export their final state once).
pub fn publish_cache_report(report: CacheReport) {
    let mut reg = registry().lock();
    if let Some(slot) = reg.caches.iter_mut().find(|c| c.label == report.label) {
        *slot = report;
    } else {
        reg.caches.push(report);
    }
}

/// Publishes a comm report for the trace exporters (same replace-by-
/// label semantics as [`publish_cache_report`]).
pub fn publish_comm_report(report: CommReport) {
    let mut reg = registry().lock();
    if let Some(slot) = reg.comms.iter_mut().find(|c| c.label == report.label) {
        *slot = report;
    } else {
        reg.comms.push(report);
    }
}

/// Publishes a store report for the trace exporters (same replace-by-
/// label semantics as [`publish_cache_report`]).
pub fn publish_store_report(report: StoreReport) {
    let mut reg = registry().lock();
    if let Some(slot) = reg.stores.iter_mut().find(|c| c.label == report.label) {
        *slot = report;
    } else {
        reg.stores.push(report);
    }
}

/// Clears every published report (tests and multi-run harnesses).
pub fn reset_attrib() {
    let mut reg = registry().lock();
    reg.caches.clear();
    reg.comms.clear();
    reg.stores.clear();
}

/// Renders the published reports as the trace exporter's `attrib`
/// section, or `None` when nothing was published.
#[must_use]
pub fn attrib_json() -> Option<String> {
    let reg = registry().lock();
    if reg.caches.is_empty() && reg.comms.is_empty() && reg.stores.is_empty() {
        return None;
    }
    let mut out = String::from("{\"cache\": [");
    for (i, c) in reg.caches.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&c.to_json());
    }
    out.push_str("], \"comm\": [");
    for (i, c) in reg.comms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&c.to_json());
    }
    out.push_str("], \"store\": [");
    for (i, c) in reg.stores.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&c.to_json());
    }
    out.push_str("]}");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_report_json_partitions_lookups() {
        let mut r = CacheReport {
            label: "demo".into(),
            scheme: "f16".into(),
            lookups: 10,
            local: 3,
            ..CacheReport::default()
        };
        let mut s = TierStats::named("static");
        s.hits = 6;
        s.misses = 4;
        let mut o = TierStats::named("overlay");
        o.hits = 3;
        o.misses = 1;
        let mut f = TierStats::named("remote");
        f.hits = 1;
        f.bytes = 64;
        r.tiers = vec![s, o, f];
        r.latency_ns.observe(100);
        let total: u64 = r.tiers.iter().map(|t| t.hits).sum();
        assert_eq!(total, r.lookups);
        let j = r.to_json();
        assert!(j.contains("\"scheme\": \"f16\""), "{j}");
        assert!(j.contains("\"tier\": \"overlay\""), "{j}");
        assert!(j.contains("\"latency_ns\": {\"count\": 1"), "{j}");
    }

    #[test]
    fn comm_report_records_and_renders_square_matrix() {
        let mut r = CommReport::with_windows("train", 3, 2, |w| format!("epoch{w}"));
        r.record(0, 0, 1, 100);
        r.record(0, 0, 1, 20);
        r.record(1, 2, 0, 7);
        r.record(5, 0, 0, 999); // out-of-range window: ignored
        r.record(0, 9, 0, 999); // out-of-range machine: ignored
        assert_eq!(r.total_bytes(), 127);
        let j = r.to_json();
        assert!(j.contains("\"machines\": 3"), "{j}");
        assert!(
            j.contains("{\"label\": \"epoch0\", \"bytes\": [[0, 120, 0], [0, 0, 0], [0, 0, 0]]}"),
            "{j}"
        );
        assert!(j.contains("[[0, 0, 0], [0, 0, 0], [7, 0, 0]]"), "{j}");
    }

    #[test]
    fn store_report_json_and_invariants() {
        let r = StoreReport {
            label: "vip".into(),
            backend: "mmap".into(),
            scheme: "f16".into(),
            page_rows: 64,
            page_bytes: 4096,
            pages_read: 100,
            pages_faulted: 30,
            pages_hit: 70,
            bytes_read: 30 * 4096,
        };
        assert_eq!(r.pages_read, r.pages_faulted + r.pages_hit);
        assert_eq!(r.bytes_read, r.pages_faulted * r.page_bytes);
        let j = r.to_json();
        assert!(j.contains("\"backend\": \"mmap\""), "{j}");
        assert!(j.contains("\"pages_faulted\": 30"), "{j}");
        assert!(j.contains("\"bytes_read\": 122880"), "{j}");
    }

    #[test]
    fn every_report_escapes_its_strings() {
        // A quote or backslash spliced in raw would end the JSON string
        // early and invalidate the trace's `attrib` section.
        let raw = r#"q"b\s"#;
        let esc = r#""q\"b\\s""#;
        let mut tier = TierStats::named(raw);
        tier.hits = 1;
        let cache = CacheReport {
            label: raw.into(),
            scheme: raw.into(),
            tiers: vec![tier],
            ..CacheReport::default()
        };
        let comm = CommReport::with_windows(raw, 1, 1, |_| raw.into());
        let store = StoreReport {
            label: raw.into(),
            backend: raw.into(),
            scheme: raw.into(),
            ..StoreReport::default()
        };
        for (j, strings) in [
            (cache.to_json(), 3),
            (comm.to_json(), 2),
            (store.to_json(), 3),
        ] {
            assert_eq!(j.matches(esc).count(), strings, "{j}");
            assert!(!j.contains(&format!("\"{raw}\"")), "{j}");
        }
    }

    #[test]
    fn store_reports_flow_through_registry() {
        let _g = crate::metrics::test_lock();
        reset_attrib();
        publish_store_report(StoreReport {
            label: "s".into(),
            pages_read: 1,
            ..StoreReport::default()
        });
        publish_store_report(StoreReport {
            label: "s".into(),
            pages_read: 5,
            ..StoreReport::default()
        });
        let j = attrib_json().unwrap_or_default();
        assert!(j.contains("\"store\": [{"), "{j}");
        assert!(j.contains("\"pages_read\": 5"), "{j}");
        assert!(!j.contains("\"pages_read\": 1"), "{j}");
        reset_attrib();
        assert!(attrib_json().is_none());
    }

    #[test]
    fn publish_replaces_by_label() {
        // The registry is process-global; serialize with the other
        // tests that publish/reset (export tests share this lock).
        let _g = crate::metrics::test_lock();
        reset_attrib();
        assert!(attrib_json().is_none());
        publish_cache_report(CacheReport {
            label: "a".into(),
            lookups: 1,
            ..CacheReport::default()
        });
        publish_cache_report(CacheReport {
            label: "a".into(),
            lookups: 2,
            ..CacheReport::default()
        });
        publish_comm_report(CommReport::with_windows("c", 2, 1, |_| "w".into()));
        let j = attrib_json().unwrap_or_default();
        assert!(j.contains("\"lookups\": 2"), "{j}");
        assert!(!j.contains("\"lookups\": 1"), "{j}");
        assert!(j.contains("\"machines\": 2"), "{j}");
        reset_attrib();
        assert!(attrib_json().is_none());
    }
}
