//! Global metrics registry: named counters, gauges, and log2-bucket
//! histograms with a lock-free hot path.
//!
//! Registration (`counter("name")` etc.) takes a mutex and deduplicates
//! by name; the returned handle is a plain index, `Copy`, and cheap to
//! cache in a `OnceLock`. Recording goes through a thread-local *shard*
//! of relaxed atomics — no lock, no contention with other threads — and
//! [`snapshot`] merges all shards in registration index order, so the
//! merged totals are independent of thread scheduling. Shards are pooled
//! on a free list: when a scoped pool worker exits, its shard index is
//! recycled by the next thread rather than growing the table (counts are
//! cumulative, so reuse cannot lose or double-count events).
//!
//! Capacity overflow (more names than the fixed tables hold) degrades to
//! dead no-op handles instead of failing — telemetry must never take the
//! computation down (the workspace's no-panic denies).

use spp_sync::{AtomicBool, AtomicU64, Mutex};
use std::sync::{Arc, OnceLock};

/// Maximum distinct counters (comm byte matrices need k² of them).
pub const MAX_COUNTERS: usize = 256;
/// Maximum distinct gauges.
pub const MAX_GAUGES: usize = 64;
/// Maximum distinct histograms (spans auto-register one per name).
pub const MAX_HISTOGRAMS: usize = 96;
/// Buckets per histogram. Since the sketch layer (DESIGN.md §15) the
/// registry histograms share the [`crate::sketch`] bucket layout —
/// exact unit buckets below 16, then 16 linear sub-buckets per octave —
/// so snapshot quantiles carry the sketch's fixed relative-error bound
/// ([`crate::sketch::REL_ERROR`]) instead of log2 resolution.
pub const HISTOGRAM_BUCKETS: usize = crate::sketch::NUM_BUCKETS;

/// Index marking a dead (no-op) handle.
const DEAD: usize = usize::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Handles returned after a name-table overflow (observable via
/// [`dropped_handles`] and the `telemetry.dropped_handles` synthetic
/// counter in [`snapshot`]), so silent degradation is at least visible.
static DROPPED_HANDLES: AtomicU64 = AtomicU64::new(0);

/// Whether telemetry recording is on. One relaxed load — this is the
/// entire disabled-path cost of every recording call.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load_relaxed() // spp-sync: relaxed(independent on/off flag; readers need no ordering with recorded data)
}

/// Turns recording on or off. [`crate::export::init_from_env`] calls
/// this from the `SPP_TRACE` environment knob; tests may toggle it
/// directly.
pub fn set_enabled(on: bool) {
    ENABLED.store_relaxed(on); // spp-sync: relaxed(independent on/off flag; publishes no other data)
}

/// How many metric registrations have returned dead handles because a
/// name table was full.
pub fn dropped_handles() -> u64 {
    DROPPED_HANDLES.load_relaxed() // spp-sync: relaxed(monotonic tally; no ordering dependents)
}

/// One thread's slice of every metric, all relaxed atomics.
struct Shard {
    counters: Box<[AtomicU64]>,
    hist_counts: Box<[AtomicU64]>,
    hist_n: Box<[AtomicU64]>,
    hist_sum: Box<[AtomicU64]>,
    hist_max: Box<[AtomicU64]>,
}

fn zeroes(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Shard {
    fn new() -> Self {
        Self {
            counters: zeroes(MAX_COUNTERS),
            hist_counts: zeroes(MAX_HISTOGRAMS * HISTOGRAM_BUCKETS),
            hist_n: zeroes(MAX_HISTOGRAMS),
            hist_sum: zeroes(MAX_HISTOGRAMS),
            hist_max: zeroes(MAX_HISTOGRAMS),
        }
    }
}

struct GaugeSlot {
    value: AtomicU64,
    max: AtomicU64,
}

#[derive(Default)]
struct Names {
    counters: Vec<String>,
    gauges: Vec<String>,
    histograms: Vec<String>,
}

#[derive(Default)]
struct ShardTable {
    shards: Vec<Arc<Shard>>,
    free: Vec<usize>,
}

struct Registry {
    names: Mutex<Names>,
    shards: Mutex<ShardTable>,
    gauges: Box<[GaugeSlot]>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        names: Mutex::new(Names::default()),
        shards: Mutex::new(ShardTable::default()),
        gauges: (0..MAX_GAUGES)
            .map(|_| GaugeSlot {
                value: AtomicU64::new(0),
                max: AtomicU64::new(0),
            })
            .collect(),
    })
}

/// The calling thread's shard plus its table index (returned to the
/// free list on thread exit).
struct ShardHandle {
    shard: Arc<Shard>,
    index: usize,
}

impl ShardHandle {
    fn acquire() -> Self {
        let mut table = registry().shards.lock();
        // Reuse the *smallest* free index, not the most recently freed:
        // shard assignment becomes a pure function of acquire/release
        // order, which the model checker needs for decision replay (and
        // it costs nothing — the free list is tiny).
        let free_pos = table
            .free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &idx)| idx)
            .map(|(pos, _)| pos);
        if let Some(pos) = free_pos {
            let index = table.free.swap_remove(pos);
            let shard = Arc::clone(&table.shards[index]);
            Self { shard, index }
        } else {
            let shard = Arc::new(Shard::new());
            table.shards.push(Arc::clone(&shard));
            let index = table.shards.len() - 1;
            Self { shard, index }
        }
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        registry().shards.lock().free.push(self.index);
    }
}

thread_local! {
    static SHARD: ShardHandle = ShardHandle::acquire();
}

fn register(names: &mut Vec<String>, cap: usize, name: &str) -> usize {
    if let Some(i) = names.iter().position(|n| n == name) {
        return i;
    }
    if names.len() >= cap {
        DROPPED_HANDLES.fetch_add_relaxed(1); // spp-sync: relaxed(monotonic tally; no ordering dependents)
        return DEAD;
    }
    names.push(name.to_string());
    names.len() - 1
}

/// A monotonically increasing event count.
#[derive(Clone, Copy, Debug)]
pub struct Counter(usize);

/// Registers (or looks up) the counter named `name`.
pub fn counter(name: &str) -> Counter {
    let mut names = registry().names.lock();
    Counter(register(&mut names.counters, MAX_COUNTERS, name))
}

impl Counter {
    /// Adds `v`. No-op (one relaxed load) while telemetry is disabled.
    #[inline]
    pub fn add(&self, v: u64) {
        if !enabled() || self.0 == DEAD {
            return;
        }
        let i = self.0;
        // try_with: silently drop events arriving during TLS teardown.
        let _ = SHARD.try_with(|s| s.shard.counters[i].fetch_add_relaxed(v)); // spp-sync: relaxed(per-thread shard; merges sum all shards, no cross-shard ordering)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current merged total across all shards (live and recycled).
    pub fn value(&self) -> u64 {
        if self.0 == DEAD {
            return 0;
        }
        let table = registry().shards.lock();
        table
            .shards
            .iter()
            .map(|s| s.counters[self.0].load_relaxed()) // spp-sync: relaxed(statistical merge; counts are monotonic, staleness only under-reports)
            .sum()
    }
}

/// A last-written value with a high-water mark. Gauges write a single
/// global slot (set is a point-in-time observation, not an accumulation,
/// so sharding would have nothing to merge).
#[derive(Clone, Copy, Debug)]
pub struct Gauge(usize);

/// Registers (or looks up) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut names = registry().names.lock();
    Gauge(register(&mut names.gauges, MAX_GAUGES, name))
}

impl Gauge {
    /// Records the current value (and raises the high-water mark).
    #[inline]
    pub fn set(&self, v: u64) {
        if !enabled() || self.0 == DEAD {
            return;
        }
        let slot = &registry().gauges[self.0];
        slot.value.store_relaxed(v); // spp-sync: relaxed(point-in-time observation; last-writer-wins is the semantics)
        slot.max.fetch_max_relaxed(v); // spp-sync: relaxed(monotonic high-water mark; RMW cannot lose updates)
    }
}

/// A fixed-bucket log2 histogram of `u64` samples (latencies in ns,
/// sizes in rows/bytes — unit is the caller's convention, named in the
/// metric).
#[derive(Clone, Copy, Debug)]
pub struct Histogram(usize);

/// Registers (or looks up) the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    let mut names = registry().names.lock();
    Histogram(register(&mut names.histograms, MAX_HISTOGRAMS, name))
}

impl Histogram {
    /// An inert handle that records nothing (used by disabled spans).
    pub(crate) fn dead() -> Self {
        Histogram(DEAD)
    }

    /// Records one sample. No-op while telemetry is disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() || self.0 == DEAD {
            return;
        }
        let h = self.0;
        let b = bucket_of(v);
        let _ = SHARD.try_with(|s| {
            let sh = &s.shard;
            sh.hist_counts[h * HISTOGRAM_BUCKETS + b].fetch_add_relaxed(1); // spp-sync: relaxed(per-thread shard; merge tolerates field skew)
            sh.hist_n[h].fetch_add_relaxed(1); // spp-sync: relaxed(per-thread shard; merge tolerates field skew)
            sh.hist_sum[h].fetch_add_relaxed(v); // spp-sync: relaxed(per-thread shard; merge tolerates field skew)
            sh.hist_max[h].fetch_max_relaxed(v); // spp-sync: relaxed(monotonic high-water mark; RMW cannot lose updates)
        });
    }

    /// Starts a timer that records elapsed nanoseconds into this
    /// histogram when dropped. Inert while disabled.
    #[inline]
    pub fn time(&self) -> HistTimer {
        HistTimer {
            hist: *self,
            start: (enabled() && self.0 != DEAD).then(crate::span::clock_ns),
        }
    }

    /// Merged snapshot across all shards.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        if self.0 == DEAD {
            return snap;
        }
        let table = registry().shards.lock();
        merge_histogram(&table, self.0, &mut snap);
        snap
    }
}

/// Guard returned by [`Histogram::time`].
#[must_use = "the timer records when the guard is dropped"]
pub struct HistTimer {
    hist: Histogram,
    start: Option<u64>,
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist
                .observe(crate::span::clock_ns().saturating_sub(start));
        }
    }
}

/// Bucket index for sample `v` (the shared sketch layout; see
/// [`crate::sketch::sketch_bucket_of`]).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    crate::sketch::sketch_bucket_of(v)
}

/// Smallest sample landing in bucket `b` (inverse of [`bucket_of`]).
#[inline]
pub fn bucket_floor(b: usize) -> u64 {
    crate::sketch::sketch_bucket_floor(b)
}

/// Merged state of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower edge of the bucket holding the `q`-quantile observation
    /// (0 when empty). Resolution is the log2 bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(b);
            }
        }
        bucket_floor(HISTOGRAM_BUCKETS - 1)
    }
}

/// A gauge's merged state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeValue {
    /// Last value written.
    pub value: u64,
    /// High-water mark.
    pub max: u64,
}

/// Point-in-time merged view of every registered metric, in
/// registration index order.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, merged total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, GaugeValue)>,
    /// `(name, merged histogram)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

fn merge_histogram(table: &ShardTable, h: usize, snap: &mut HistogramSnapshot) {
    for s in &table.shards {
        let counts = &s.hist_counts[h * HISTOGRAM_BUCKETS..(h + 1) * HISTOGRAM_BUCKETS];
        for (bucket, c) in snap.buckets.iter_mut().zip(counts) {
            *bucket += c.load_relaxed(); // spp-sync: relaxed(statistical merge)
        }
        snap.count += s.hist_n[h].load_relaxed(); // spp-sync: relaxed(statistical merge; staleness only under-reports)
        snap.sum += s.hist_sum[h].load_relaxed(); // spp-sync: relaxed(statistical merge; staleness only under-reports)
        snap.max = snap.max.max(s.hist_max[h].load_relaxed()); // spp-sync: relaxed(statistical merge; staleness only under-reports)
    }
}

/// Merges every shard (in table index order) into one snapshot.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let names = reg.names.lock();
    let table = reg.shards.lock();
    let mut counters: Vec<(String, u64)> = names
        .counters
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let total: u64 = table
                .shards
                .iter()
                .map(|s| s.counters[i].load_relaxed()) // spp-sync: relaxed(statistical merge; staleness only under-reports)
                .sum();
            (name.clone(), total)
        })
        .collect();
    // Surface registration overflow in exports without consuming a
    // (possibly exhausted) counter slot.
    let dropped = dropped_handles();
    if dropped > 0 {
        counters.push(("telemetry.dropped_handles".to_string(), dropped));
    }
    let gauges = names
        .gauges
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let slot = &reg.gauges[i];
            (
                name.clone(),
                GaugeValue {
                    value: slot.value.load_relaxed(), // spp-sync: relaxed(point-in-time observation)
                    max: slot.max.load_relaxed(), // spp-sync: relaxed(monotonic high-water mark)
                },
            )
        })
        .collect();
    let histograms = names
        .histograms
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut snap = HistogramSnapshot::default();
            merge_histogram(&table, i, &mut snap);
            (name.clone(), snap)
        })
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Serializes tests that toggle the global enabled flag or inspect the
/// shard table — they would race under the parallel test runner.
#[cfg(test)]
pub(crate) fn test_lock() -> spp_sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_follow_the_sketch_layout() {
        // Exact below 16, then 16 linear sub-buckets per octave.
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
        }
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(17), 17);
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(33), 32); // two-wide sub-buckets in [32, 64)
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // floor/bucket round-trip: floor(b) is the smallest v in b.
        for b in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_floor(b)), b);
            assert_eq!(bucket_of(bucket_floor(b) - 1), b - 1);
        }
    }

    #[test]
    fn counter_roundtrip_and_dedupe() {
        let _g = test_lock();
        set_enabled(true);
        let a = counter("test.metrics.counter_roundtrip");
        let b = counter("test.metrics.counter_roundtrip");
        let before = a.value();
        a.add(3);
        b.inc();
        assert_eq!(a.value(), before + 4);
        set_enabled(false);
        a.inc(); // disabled: must not record
        assert_eq!(a.value(), before + 4);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "telemetry sits below spp-pool; the test needs threads of its own to merge shards from"
    )]
    fn histogram_merges_across_threads() {
        let _g = test_lock();
        set_enabled(true);
        let h = histogram("test.metrics.hist_merge");
        let base = h.snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for v in [0u64, 1, 7, 1000] {
                        h.observe(v);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count - base.count, 16);
        assert_eq!(snap.sum - base.sum, 4 * (1 + 7 + 1000));
        assert_eq!(snap.max.max(base.max), snap.max);
        assert_eq!(snap.buckets[bucket_of(7)] - base.buckets[bucket_of(7)], 4);
        set_enabled(false);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the test needs short-lived threads that exit, which the pool's persistent helpers never do"
    )]
    fn shard_indices_are_recycled() {
        let _g = test_lock();
        set_enabled(true);
        let c = counter("test.metrics.shard_recycle");
        let shards_before = registry().shards.lock().shards.len();
        for _ in 0..8 {
            std::thread::scope(|s| {
                s.spawn(|| c.inc());
            });
        }
        let shards_after = registry().shards.lock().shards.len();
        // Sequential short-lived threads reuse freed shard slots instead
        // of growing the table once per thread.
        assert!(
            shards_after <= shards_before + 2,
            "{shards_before} -> {shards_after}"
        );
        set_enabled(false);
    }

    #[test]
    fn quantiles_track_bucket_floors() {
        let mut snap = HistogramSnapshot::default();
        // 50 samples of 8 (bucket 4), 50 samples of 64 (bucket 7).
        snap.buckets[bucket_of(8)] = 50;
        snap.buckets[bucket_of(64)] = 50;
        snap.count = 100;
        snap.sum = 50 * 8 + 50 * 64;
        snap.max = 64;
        assert_eq!(snap.quantile(0.25), bucket_floor(bucket_of(8)));
        assert_eq!(snap.quantile(0.95), bucket_floor(bucket_of(64)));
        assert!((snap.mean() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_returns_dead_handles() {
        // Dead handles record nothing and never panic.
        let dead = Histogram::dead();
        dead.observe(5);
        assert_eq!(dead.snapshot().count, 0);
    }

    #[test]
    fn overflow_is_counted_as_dropped_handles() {
        let _g = test_lock();
        // Exercise the mechanism against a local name table so the
        // global registries stay usable for other tests.
        let mut names = vec!["a".to_string(), "b".to_string()];
        let before = dropped_handles();
        assert_eq!(register(&mut names, 2, "a"), 0); // dedup: no drop
        assert_eq!(register(&mut names, 2, "c"), DEAD);
        assert_eq!(register(&mut names, 2, "d"), DEAD);
        assert!(dropped_handles() >= before + 2);
        // Snapshots surface the tally as a synthetic counter.
        let snap = snapshot();
        let entry = snap
            .counters
            .iter()
            .find(|(n, _)| n == "telemetry.dropped_handles");
        assert!(entry.is_some_and(|(_, v)| *v >= 2), "{:?}", snap.counters);
    }
}
