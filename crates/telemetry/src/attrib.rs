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
//! bit-identical across runs and worker counts. Harnesses [`publish`]
//! them into a global registry that the Chrome-trace exporter appends
//! as a top-level `attrib` section. Each report owns both directions of
//! its format: `to_json` writes it and `from_json` reads it back, and
//! `check` states its invariant; `cargo xtask validate-trace` decodes
//! the section with [`Attrib::from_json`].
//!
//! [`publish`]: publish_cache_report

use crate::json::Json;
use crate::sketch::QuantileSketch;
use spp_sync::Mutex;
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

    fn to_json(&self) -> Json {
        Json::obj([
            ("tier", self.tier.as_str().into()),
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
            ("evictions", self.evictions.into()),
            ("insertions", self.insertions.into()),
            ("bytes", self.bytes.into()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            tier: v.str_field("tier")?.to_string(),
            hits: v.uint_field("hits")?,
            misses: v.uint_field("misses")?,
            evictions: v.uint_field("evictions")?,
            insertions: v.uint_field("insertions")?,
            bytes: v.uint_field("bytes")?,
        })
    }
}

/// Per-tier cache accounting for one run/configuration.
///
/// Invariant ([`CacheReport::check`]): the tier hit counts partition
/// the lookups — `Σ tiers[i].hits == lookups`. The `remote` tier counts
/// every fetch as a hit (the network always answers), so the invariant
/// holds for the usual static → overlay → remote probe order.
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
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.as_str().into()),
            ("scheme", self.scheme.as_str().into()),
            ("lookups", self.lookups.into()),
            ("local", self.local.into()),
            ("tiers", self.tiers.iter().map(TierStats::to_json).collect()),
            ("latency_ns", self.latency_ns.to_json()),
        ])
    }

    /// Reads back what [`Self::to_json`] wrote, which must pass
    /// [`Self::check`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let tiers = v
            .arr_field("tiers")?
            .iter()
            .enumerate()
            .map(|(t, tier)| TierStats::from_json(tier).map_err(|e| format!("tier {t}: {e}")))
            .collect::<Result<_, _>>()?;
        let sketch = v.field("latency_ns").ok_or("missing `latency_ns` sketch")?;
        let r = Self {
            label: v.str_field("label")?.to_string(),
            scheme: v.str_field("scheme")?.to_string(),
            lookups: v.uint_field("lookups")?,
            local: v.uint_field("local")?,
            tiers,
            latency_ns: QuantileSketch::from_json(sketch)
                .map_err(|e| format!("latency_ns: {e}"))?,
        };
        r.check().map(|()| r)
    }

    /// The tier hits partition the lookups.
    pub fn check(&self) -> Result<(), String> {
        let hits: u128 = self.tiers.iter().map(|t| u128::from(t.hits)).sum();
        let lookups = self.lookups;
        if hits == u128::from(lookups) {
            return Ok(());
        }
        Err(format!(
            "tier hits sum to {hits} but lookups is {lookups} (must partition)"
        ))
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
    /// `machines` rows of `machines` columns (square by construction),
    /// after the `total_bytes` they sum to.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let k = self.machines;
        let cell = |w: &CommWindow, i: usize| w.bytes.get(i).copied().unwrap_or(0).into();
        let window = |w: &CommWindow| {
            let rows = (0..k).map(|r| (r * k..(r + 1) * k).map(|i| cell(w, i)).collect());
            Json::obj([
                ("label", w.label.as_str().into()),
                ("bytes", rows.collect()),
            ])
        };
        Json::obj([
            ("label", self.label.as_str().into()),
            ("machines", k.into()),
            ("total_bytes", self.total_bytes().into()),
            ("windows", self.windows.iter().map(window).collect()),
        ])
    }

    /// Reads back what [`Self::to_json`] wrote: every window matrix
    /// `machines × machines`, `total_bytes` their sum.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let k: usize = v.uint_field("machines")?;
        let window = |(w, win): (usize, &Json)| -> Result<CommWindow, String> {
            let rows = win.arr_field("bytes")?;
            let row_cells = rows
                .iter()
                .filter_map(Json::as_arr)
                .filter(|c| c.len() == k);
            match row_cells
                .flatten()
                .map(Json::as_uint)
                .collect::<Option<Vec<u64>>>()
            {
                Some(bytes) if rows.len() == k && bytes.len() == k * k => Ok(CommWindow {
                    label: win.str_field("label")?.to_string(),
                    bytes,
                }),
                _ => Err(format!(
                    "window {w}: not a {k} × {k} integer matrix (must be square)"
                )),
            }
        };
        let windows: Vec<CommWindow> = v
            .arr_field("windows")?
            .iter()
            .enumerate()
            .map(window)
            .collect::<Result<_, _>>()?;
        let total: u64 = v.uint_field("total_bytes")?;
        let sum: u128 = windows
            .iter()
            .flat_map(|w| &w.bytes)
            .map(|&b| u128::from(b))
            .sum();
        if k == 0 {
            return Err("`machines` must be positive".to_string());
        }
        if u128::from(total) != sum {
            return Err(format!("total_bytes {total} != matrix sum {sum}"));
        }
        Ok(Self {
            label: v.str_field("label")?.to_string(),
            machines: k,
            windows,
        })
    }
}

/// Page-level accounting for one out-of-core feature store
/// (`spp-store`) over one run/configuration.
///
/// Invariants ([`StoreReport::check`]): the page geometry is positive,
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
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.as_str().into()),
            ("backend", self.backend.as_str().into()),
            ("scheme", self.scheme.as_str().into()),
            ("page_rows", self.page_rows.into()),
            ("page_bytes", self.page_bytes.into()),
            ("pages_read", self.pages_read.into()),
            ("pages_faulted", self.pages_faulted.into()),
            ("pages_hit", self.pages_hit.into()),
            ("bytes_read", self.bytes_read.into()),
        ])
    }

    /// Reads back what [`Self::to_json`] wrote, which must pass
    /// [`Self::check`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let r = Self {
            label: v.str_field("label")?.to_string(),
            backend: v.str_field("backend")?.to_string(),
            scheme: v.str_field("scheme")?.to_string(),
            page_rows: v.uint_field("page_rows")?,
            page_bytes: v.uint_field("page_bytes")?,
            pages_read: v.uint_field("pages_read")?,
            pages_faulted: v.uint_field("pages_faulted")?,
            pages_hit: v.uint_field("pages_hit")?,
            bytes_read: v.uint_field("bytes_read")?,
        };
        r.check().map(|()| r)
    }

    /// The invariants in the type's docs.
    pub fn check(&self) -> Result<(), String> {
        let (faulted, hit, read) = (self.pages_faulted, self.pages_hit, self.pages_read);
        let (page, bytes) = (self.page_bytes, self.bytes_read);
        if self.page_rows == 0 || page == 0 {
            return Err("page geometry must be positive".to_string());
        }
        if u128::from(faulted) + u128::from(hit) != u128::from(read) {
            return Err(format!(
                "pages_faulted {faulted} + pages_hit {hit} != pages_read {read}"
            ));
        }
        if u128::from(bytes) != u128::from(faulted) * u128::from(page) {
            return Err(format!(
                "bytes_read {bytes} != pages_faulted {faulted} × page_bytes {page}"
            ));
        }
        Ok(())
    }
}

/// A trace's `attrib` section: the published reports of each kind, in
/// publication order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Attrib {
    /// Cache reports.
    pub cache: Vec<CacheReport>,
    /// Communication-matrix reports.
    pub comm: Vec<CommReport>,
    /// Feature-store page reports.
    pub store: Vec<StoreReport>,
}

impl Attrib {
    /// Reports in the section, all kinds together.
    #[must_use]
    pub fn report_count(&self) -> usize {
        self.cache.len() + self.comm.len() + self.store.len()
    }

    /// The section's JSON: one array per report kind.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "cache",
                self.cache.iter().map(CacheReport::to_json).collect(),
            ),
            ("comm", self.comm.iter().map(CommReport::to_json).collect()),
            (
                "store",
                self.store.iter().map(StoreReport::to_json).collect(),
            ),
        ])
    }

    /// Decodes a section, each report with its own `from_json`; errors
    /// read `attrib.<kind>[<i>] (<label>): <reason>`.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        fn each<T>(
            v: &Json,
            kind: &str,
            decode: fn(&Json) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let items = match (v.arr_field(kind), kind) {
                (Ok(items), _) => items,
                // Traces from before store reports have no `store` array.
                (Err(_), "store") => &[],
                (Err(e), _) => return Err(format!("attrib: {e}")),
            };
            let decode_one = |(i, item): (usize, &Json)| {
                decode(item).map_err(|e| {
                    let label = item.str_field("label").unwrap_or("?");
                    format!("attrib.{kind}[{i}] ({label}): {e}")
                })
            };
            items.iter().enumerate().map(decode_one).collect()
        }
        Ok(Self {
            cache: each(v, "cache", CacheReport::from_json)?,
            comm: each(v, "comm", CommReport::from_json)?,
            store: each(v, "store", StoreReport::from_json)?,
        })
    }
}

fn registry() -> &'static Mutex<Attrib> {
    static REG: OnceLock<Mutex<Attrib>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Attrib::default()))
}

/// Puts `report` in the slot of the report labelled like it, or last.
fn replace_by_label<T>(list: &mut Vec<T>, report: T, label: impl Fn(&T) -> &str) {
    match list.iter_mut().find(|c| label(c) == label(&report)) {
        Some(slot) => *slot = report,
        None => list.push(report),
    }
}

/// Publishes a cache report for the trace exporters. A later report
/// with the same label replaces the earlier one (re-runs in one
/// process export their final state once).
pub fn publish_cache_report(report: CacheReport) {
    replace_by_label(&mut registry().lock().cache, report, |r| &r.label);
}

/// Publishes a comm report for the trace exporters (same replace-by-
/// label semantics as [`publish_cache_report`]).
pub fn publish_comm_report(report: CommReport) {
    replace_by_label(&mut registry().lock().comm, report, |r| &r.label);
}

/// Publishes a store report for the trace exporters (same replace-by-
/// label semantics as [`publish_cache_report`]).
pub fn publish_store_report(report: StoreReport) {
    replace_by_label(&mut registry().lock().store, report, |r| &r.label);
}

/// Clears every published report (tests and multi-run harnesses).
pub fn reset_attrib() {
    *registry().lock() = Attrib::default();
}

/// Renders the published reports as the trace exporter's `attrib`
/// section, or `None` when nothing was published.
#[must_use]
pub fn attrib_json() -> Option<Json> {
    let reg = registry().lock();
    (reg.report_count() > 0).then(|| reg.to_json())
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
        let j = r.to_json().to_string();
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
        let j = r.to_json().to_string();
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
        let j = r.to_json().to_string();
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
            (cache.to_json().to_string(), 3),
            (comm.to_json().to_string(), 2),
            (store.to_json().to_string(), 3),
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
        let j = attrib_json().map(|j| j.to_string()).unwrap_or_default();
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
        let j = attrib_json().map(|j| j.to_string()).unwrap_or_default();
        assert!(j.contains("\"lookups\": 2"), "{j}");
        assert!(!j.contains("\"lookups\": 1"), "{j}");
        assert!(j.contains("\"machines\": 2"), "{j}");
        reset_attrib();
        assert!(attrib_json().is_none());
    }

    #[test]
    fn decoders_reject_what_check_and_the_format_forbid() {
        let mut comm = CommReport::with_windows("c", 2, 1, |_| "w".into());
        comm.record(0, 1, 0, 128);
        let mut doc = comm.to_json();
        assert_eq!(CommReport::from_json(&doc), Ok(comm));
        if let Json::Obj(fields) = &mut doc {
            fields[2].1 = Json::from(999u64);
        }
        assert_eq!(
            CommReport::from_json(&doc),
            Err("total_bytes 999 != matrix sum 128".to_string())
        );

        let mut store = StoreReport {
            label: "s".into(),
            page_rows: 64,
            page_bytes: 4096,
            pages_read: 100,
            pages_faulted: 30,
            pages_hit: 70,
            bytes_read: 30 * 4096,
            ..StoreReport::default()
        };
        assert_eq!(store.check(), Ok(()));
        store.pages_hit = 69;
        assert!(store.check().unwrap_err().contains("!= pages_read 100"));
        store.pages_hit = 70;
        store.bytes_read = 999;
        assert!(store
            .check()
            .unwrap_err()
            .contains("bytes_read 999 != pages_faulted 30"));

        let cache = CacheReport {
            lookups: 2,
            tiers: vec![TierStats::named("static")],
            ..CacheReport::default()
        };
        assert!(cache.check().unwrap_err().contains("must partition"));
        let section = Attrib {
            cache: vec![cache],
            ..Attrib::default()
        };
        let err = Attrib::from_json(&section.to_json()).unwrap_err();
        assert!(
            err.starts_with("attrib.cache[0] (): tier hits sum to 0"),
            "{err}"
        );
    }
}
