//! Per-page residency tracking: the deterministic stand-in for the OS
//! page cache.
//!
//! Without a vendored mmap we cannot observe real major faults, and
//! even with one the OS eviction policy would make fault counts
//! machine-dependent — useless for the §9 determinism contract and the
//! bench regression gate. Instead the tracker models an epoch-scoped
//! resident set: every page carries an epoch stamp, [`PageTracker::begin_epoch`]
//! bumps the global epoch (dropping the whole resident set, i.e. a cold
//! cache each epoch), and the *first* touch of a page per epoch is a
//! fault while repeat touches are hits. That is exactly the quantity
//! the VIP reordering optimizes — distinct pages touched per epoch —
//! and it is bit-reproducible across machines and thread schedules.
//!
//! Concurrency: `fetch_max_relaxed` on the stamp serializes racing
//! first-touches — exactly one thread observes `prev < epoch` — so
//! fault totals are exact under any interleaving, not just quiescence.

use crate::format::StoreMeta;
use crate::StoreStats;
use spp_sync::AtomicU64;
use spp_telemetry::metrics::{counter, Counter};

/// Tracks page touches for one store backend and feeds the `store.*`
/// telemetry counters (`store.pages.read`, `store.pages.fault`,
/// `store.pages.hit`, `store.bytes.read`).
pub struct PageTracker {
    /// Current epoch; stamps equal to this value mean "resident".
    epoch: AtomicU64,
    /// Per-page epoch stamps; 0 means never touched (epochs start at 1).
    stamps: Vec<AtomicU64>,
    pages_read: AtomicU64,
    pages_faulted: AtomicU64,
    page_bytes: u64,
    // Counter handles are registered once here: `counter(name)` takes the
    // registry mutex, which must stay out of the row-read hot path.
    c_read: Counter,
    c_fault: Counter,
    c_hit: Counter,
    c_bytes: Counter,
}

impl PageTracker {
    /// A tracker for a store with `meta`'s page geometry. All pages
    /// start non-resident.
    pub fn new(meta: &StoreMeta) -> Self {
        Self {
            epoch: AtomicU64::new(1),
            stamps: (0..meta.num_pages()).map(|_| AtomicU64::new(0)).collect(),
            pages_read: AtomicU64::new(0),
            pages_faulted: AtomicU64::new(0),
            page_bytes: meta.page_bytes() as u64,
            c_read: counter("store.pages.read"),
            c_fault: counter("store.pages.fault"),
            c_hit: counter("store.pages.hit"),
            c_bytes: counter("store.bytes.read"),
        }
    }

    /// Records one read touching `page`. Returns `true` when the touch
    /// was a fault (first touch this epoch).
    #[inline]
    pub fn record(&self, page: usize) -> bool {
        self.record_rows(page, 1)
    }

    /// Records `n ≥ 1` row reads that all touch `page` — the batched
    /// form the page-run walker uses: one stamp update and one add per
    /// tally however many rows the page serves. Totals equal `n` calls
    /// of [`PageTracker::record`]: at most the first touch of the epoch
    /// faults, the other `n − 1` (or all `n`) are hits. Returns `true`
    /// when the page faulted.
    // spp-hot(store.page_touch)
    #[inline]
    pub fn record_rows(&self, page: usize, n: u64) -> bool {
        let epoch = self.epoch.load_relaxed(); // spp-sync: relaxed(epoch only advances between quiesced epochs; any recent value yields valid counts)
        self.pages_read.fetch_add_relaxed(n); // spp-sync: relaxed(monotonic tally; no ordering dependents)
        self.c_read.add(n);
        let prev = self.stamps[page].fetch_max_relaxed(epoch); // spp-sync: relaxed(fetch_max serializes racing first-touches; exactly one caller sees prev < epoch)
        let fault = prev < epoch;
        if fault {
            self.pages_faulted.fetch_add_relaxed(1); // spp-sync: relaxed(monotonic tally; no ordering dependents)
            self.c_fault.inc();
            self.c_bytes.add(self.page_bytes);
        }
        self.c_hit.add(n - u64::from(fault));
        fault
    }

    /// Advances to the next epoch, invalidating the modeled resident
    /// set. Call between epochs, not concurrently with reads.
    pub fn begin_epoch(&self) {
        self.epoch.fetch_add_relaxed(1); // spp-sync: relaxed(called at epoch boundaries when readers are quiesced)
    }

    /// Cumulative totals since construction (per-epoch figures are the
    /// caller's deltas between snapshots).
    pub fn stats(&self) -> StoreStats {
        let read = self.pages_read.load_relaxed(); // spp-sync: relaxed(snapshot of monotonic tally)
        let faulted = self.pages_faulted.load_relaxed(); // spp-sync: relaxed(snapshot of monotonic tally)
        StoreStats {
            pages_read: read,
            pages_faulted: faulted,
            pages_hit: read - faulted,
            bytes_read: faulted * self.page_bytes,
        }
    }

    /// Bytes per page, as charged to `bytes_read` on each fault.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spp_graph::QuantScheme;

    fn tracker(pages: usize) -> PageTracker {
        // page_rows=1, dim=1, f32 → page_bytes = 4, num_pages = rows.
        PageTracker::new(&StoreMeta::new(QuantScheme::F32, pages, 1, 1))
    }

    #[test]
    fn first_touch_faults_repeat_hits() {
        let t = tracker(4);
        assert!(t.record(2));
        assert!(!t.record(2));
        assert!(t.record(0));
        let s = t.stats();
        assert_eq!(s.pages_read, 3);
        assert_eq!(s.pages_faulted, 2);
        assert_eq!(s.pages_hit, 1);
        assert_eq!(s.bytes_read, 8);
    }

    #[test]
    fn epoch_boundary_drops_residency() {
        let t = tracker(2);
        assert!(t.record(1));
        assert!(!t.record(1));
        t.begin_epoch();
        assert!(t.record(1), "new epoch must re-fault");
        assert_eq!(t.stats().pages_faulted, 2);
    }

    /// Seeded page multiset with duplicates.
    fn page_multiset(seed: u64, len: usize, pages: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..pages)).collect()
    }

    /// Charges `touches` the way the page-run walker does: sorted, one
    /// `record_rows` per distinct page.
    fn record_batched(t: &PageTracker, touches: &[usize]) {
        let mut sorted = touches.to_vec();
        sorted.sort_unstable();
        for group in sorted.chunk_by(|a, b| a == b) {
            t.record_rows(group[0], group.len() as u64);
        }
    }

    #[test]
    fn batched_accounting_equals_per_row_accounting() {
        for seed in 0..16u64 {
            let (per_row, batched) = (tracker(24), tracker(24));
            for epoch in 0..2u64 {
                let touches = page_multiset(seed * 2 + epoch, 300, 24);
                for &p in &touches {
                    per_row.record(p);
                }
                // Several batches per epoch, so pages repeat across calls.
                for batch in touches.chunks(70) {
                    record_batched(&batched, batch);
                }
                assert_eq!(
                    per_row.stats(),
                    batched.stats(),
                    "seed {seed} epoch {epoch}"
                );
                per_row.begin_epoch();
                batched.begin_epoch();
            }
        }
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the test races eight scoped threads on one tracker; a 2-worker pool would run most shares inline"
    )]
    fn batched_accounting_equals_per_row_accounting_across_8_threads() {
        let (per_row, batched) = (tracker(32), tracker(32));
        for epoch in 0..2u64 {
            let shares: Vec<Vec<usize>> = (0..8)
                .map(|w| page_multiset(epoch * 8 + w, 500, 32))
                .collect();
            std::thread::scope(|s| {
                for share in &shares {
                    let (per_row, batched) = (&per_row, &batched);
                    s.spawn(move || {
                        for &p in share {
                            per_row.record(p);
                        }
                        for batch in share.chunks(90) {
                            record_batched(batched, batch);
                        }
                    });
                }
            });
            let st = batched.stats();
            assert_eq!(per_row.stats(), st, "epoch {epoch}");
            assert_eq!(st.pages_read, (epoch + 1) * 8 * 500);
            assert_eq!(
                st.pages_faulted,
                (epoch + 1) * 32,
                "every page once per epoch"
            );
            per_row.begin_epoch();
            batched.begin_epoch();
        }
    }

    #[test]
    fn concurrent_first_touch_counts_one_fault() {
        use std::sync::Arc;
        let t = Arc::new(tracker(1));
        #[allow(
            clippy::disallowed_methods,
            reason = "the test races eight free-running threads on one page; pool workers would serialize the first touch"
        )]
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        t.record(0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = t.stats();
        assert_eq!(s.pages_read, 800);
        assert_eq!(s.pages_faulted, 1);
    }
}
