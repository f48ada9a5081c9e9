//! The dynamic second cache tier: an LRU overlay that learns request
//! skew online.
//!
//! The static tier (`spp_core::StaticCache`) is pinned — built offline
//! from VIP rankings, never evicted at serving time. The overlay sits
//! on top and caches *remote-fetched* feature rows, evicting in strict
//! least-recently-used order. Division of labor (BGL-style): the static
//! tier captures the probability mass the VIP analysis predicts, the
//! overlay captures the request skew the offline ranking cannot see.
//!
//! Concurrency contract: [`DynamicOverlay::probe`] is read-only (hit and
//! miss tallies are relaxed atomics) and safe to call from the worker
//! pool's probe of a batch's remote residue; all mutation —
//! [`DynamicOverlay::touch`], [`DynamicOverlay::insert`] — takes
//! `&mut self` and happens on the
//! control thread in deterministic batch order. Eviction order is
//! therefore a pure function of the operation sequence, never of timing.

use spp_graph::{QuantScheme, QuantizedFeatures, VertexId};
use spp_sync::AtomicU64;
use std::collections::HashMap;

/// Linked-list sentinel ("no slot").
const NONE: u32 = u32::MAX;

/// Counter snapshot for one overlay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverlayCounters {
    /// Probes that found the vertex.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Rows admitted (insertions of new vertices).
    pub insertions: u64,
}

impl OverlayCounters {
    /// Total probes (`hits + misses` by construction).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// What an [`DynamicOverlay::insert`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// New entry stored in a free slot.
    Inserted,
    /// Vertex was already cached; its recency was refreshed.
    Refreshed,
    /// New entry stored after evicting the returned LRU vertex.
    Evicted(VertexId),
    /// Overlay has zero capacity; nothing stored.
    Disabled,
}

/// A fixed-capacity LRU cache of remote feature rows.
#[derive(Debug)]
pub struct DynamicOverlay {
    capacity: usize,
    slot_of: HashMap<VertexId, u32>,
    /// Slot -> vertex for occupied slots.
    vertex_of: Vec<VertexId>,
    /// Feature rows, aligned with slots (capacity × dim); optionally
    /// quantized (DESIGN.md §14) so equal RAM holds ~2× (`f16`) or ~4×
    /// (`i8`) the rows.
    feats: QuantizedFeatures,
    /// Intrusive MRU..LRU list over slots.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: u64,
    insertions: u64,
}

impl DynamicOverlay {
    /// An overlay holding up to `capacity` rows of dimension `dim`.
    /// Capacity zero disables the tier (probes always miss).
    pub fn new(capacity: usize, dim: usize) -> Self {
        Self::with_scheme(capacity, dim, QuantScheme::F32)
    }

    /// [`DynamicOverlay::new`] with an explicit row storage scheme.
    /// `F32` reproduces the seed behavior bit-for-bit; `F16`/`I8` rows
    /// are encoded on insert and decoded on read. Recency, eviction
    /// order, and counters are storage-independent, so a quantized
    /// overlay keeps the deterministic-eviction contract unchanged.
    pub fn with_scheme(capacity: usize, dim: usize, scheme: QuantScheme) -> Self {
        Self {
            capacity,
            slot_of: HashMap::with_capacity(capacity),
            vertex_of: Vec::with_capacity(capacity),
            feats: QuantizedFeatures::with_rows(capacity, dim, scheme),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NONE,
            tail: NONE,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: 0,
            insertions: 0,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.feats.dim()
    }

    /// Read-only lookup, counting a hit or miss (relaxed atomics — safe
    /// under concurrent pool access; tallies are exact because every
    /// probe increments exactly one counter).
    // spp-hot(overlay.probe)
    #[inline]
    pub fn probe(&self, v: VertexId) -> Option<u32> {
        match self.slot_of.get(&v) {
            Some(&s) => {
                self.hits.fetch_add_relaxed(1); // spp-sync: relaxed(exactness comes from the RMW; readers need no ordering with cache state)
                Some(s)
            }
            None => {
                self.misses.fetch_add_relaxed(1); // spp-sync: relaxed(exactness comes from the RMW; readers need no ordering with cache state)
                None
            }
        }
    }

    /// Lookup without touching the counters (the server counts each
    /// lookup once, in `probe`; this is for tests and replays).
    #[inline]
    pub fn peek(&self, v: VertexId) -> Option<u32> {
        self.slot_of.get(&v).copied()
    }

    /// Row storage scheme.
    pub fn scheme(&self) -> QuantScheme {
        self.feats.scheme()
    }

    /// Feature bytes the row storage occupies (codes plus codebook).
    pub fn memory_bytes(&self) -> usize {
        self.feats.memory_bytes()
    }

    /// Decodes the cached feature row in `slot` into `out`
    /// (allocation-free; a plain row copy under the `F32` scheme).
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong dimension.
    pub fn read_row_into(&self, slot: u32, out: &mut [f32]) {
        self.feats.read_row_into(slot as usize, out);
    }

    /// The cached feature row in `slot`, decoded into a fresh buffer
    /// (test/debug convenience; hot paths use
    /// [`DynamicOverlay::read_row_into`]).
    // spp-hot: stop(test/debug convenience; serving decodes via read_row_into, linked to hot gathers only by name overlap with the matrix `row` accessors)
    pub fn row(&self, slot: u32) -> Vec<f32> {
        let mut out = vec![0.0; self.feats.dim()];
        self.feats.read_row_into(slot as usize, &mut out);
        out
    }

    /// Marks `v` most-recently-used (no-op if absent).
    pub fn touch(&mut self, v: VertexId) {
        if let Some(&slot) = self.slot_of.get(&v) {
            self.detach(slot);
            self.push_front(slot);
        }
    }

    /// Admits `row` for `v`, evicting the LRU entry if full. Existing
    /// entries are refreshed, not duplicated.
    ///
    /// # Panics
    ///
    /// Panics if `row` has the wrong dimension.
    pub fn insert(&mut self, v: VertexId, row: &[f32]) -> InsertOutcome {
        assert_eq!(row.len(), self.feats.dim(), "feature dim mismatch");
        if self.capacity == 0 {
            return InsertOutcome::Disabled;
        }
        if let Some(&slot) = self.slot_of.get(&v) {
            self.detach(slot);
            self.push_front(slot);
            return InsertOutcome::Refreshed;
        }
        let (slot, outcome) = if self.vertex_of.len() < self.capacity {
            // Fresh slot.
            let slot = self.vertex_of.len() as u32;
            self.vertex_of.push(v);
            self.prev.push(NONE);
            self.next.push(NONE);
            (slot, InsertOutcome::Inserted)
        } else {
            // Evict the LRU tail and reuse its slot.
            let slot = self.tail;
            debug_assert_ne!(slot, NONE, "full overlay must have a tail");
            let old = self.vertex_of[slot as usize];
            self.slot_of.remove(&old);
            self.detach(slot);
            self.vertex_of[slot as usize] = v;
            self.evictions += 1;
            (slot, InsertOutcome::Evicted(old))
        };
        self.slot_of.insert(v, slot);
        self.feats.set_row(slot as usize, row);
        self.push_front(slot);
        self.insertions += 1;
        outcome
    }

    /// Counter snapshot.
    pub fn counters(&self) -> OverlayCounters {
        OverlayCounters {
            hits: self.hits.load_relaxed(), // spp-sync: relaxed(statistical snapshot; tallies are monotonic)
            misses: self.misses.load_relaxed(), // spp-sync: relaxed(statistical snapshot; tallies are monotonic)
            evictions: self.evictions,
            insertions: self.insertions,
        }
    }

    /// Cached vertices from most- to least-recently used (test/debug
    /// visibility into the eviction order).
    pub fn members_mru_order(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.slot_of.len());
        let mut s = self.head;
        while s != NONE {
            out.push(self.vertex_of[s as usize]);
            s = self.next[s as usize];
        }
        out
    }

    /// Unlinks `slot` from the recency list.
    fn detach(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NONE {
            if self.head == slot {
                self.head = n;
            }
        } else {
            self.next[p as usize] = n;
        }
        if n == NONE {
            if self.tail == slot {
                self.tail = p;
            }
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[slot as usize] = NONE;
        self.next[slot as usize] = NONE;
    }

    /// Links `slot` at the MRU head.
    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NONE;
        self.next[slot as usize] = self.head;
        if self.head != NONE {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: VertexId, dim: usize) -> Vec<f32> {
        vec![v as f32; dim]
    }

    #[test]
    fn insert_probe_roundtrip() {
        let mut o = DynamicOverlay::new(2, 3);
        assert_eq!(o.insert(7, &row(7, 3)), InsertOutcome::Inserted);
        let slot = o.probe(7).unwrap();
        assert_eq!(o.row(slot), &[7.0, 7.0, 7.0]);
        assert!(o.probe(8).is_none());
        let c = o.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
        assert_eq!(c.lookups(), 2);
    }

    #[test]
    fn evicts_in_lru_order() {
        let mut o = DynamicOverlay::new(2, 1);
        o.insert(1, &row(1, 1));
        o.insert(2, &row(2, 1));
        // Touch 1 -> 2 becomes LRU.
        o.touch(1);
        assert_eq!(o.insert(3, &row(3, 1)), InsertOutcome::Evicted(2));
        assert_eq!(o.members_mru_order(), vec![3, 1]);
        assert_eq!(o.insert(4, &row(4, 1)), InsertOutcome::Evicted(1));
        assert_eq!(o.counters().evictions, 2);
        // Evicted rows really are gone; survivors keep their features.
        assert!(o.peek(1).is_none());
        assert_eq!(o.row(o.peek(3).unwrap()), &[3.0]);
    }

    #[test]
    fn reinsert_refreshes_recency_without_duplication() {
        let mut o = DynamicOverlay::new(2, 1);
        o.insert(1, &row(1, 1));
        o.insert(2, &row(2, 1));
        assert_eq!(o.insert(1, &row(1, 1)), InsertOutcome::Refreshed);
        assert_eq!(o.len(), 2);
        assert_eq!(o.insert(3, &row(3, 1)), InsertOutcome::Evicted(2));
    }

    #[test]
    fn zero_capacity_disables_tier() {
        let mut o = DynamicOverlay::new(0, 4);
        assert_eq!(o.insert(1, &row(1, 4)), InsertOutcome::Disabled);
        assert!(o.probe(1).is_none());
        assert_eq!(o.counters().misses, 1);
        assert_eq!(o.len(), 0);
    }

    #[test]
    fn peek_does_not_count() {
        let mut o = DynamicOverlay::new(2, 1);
        o.insert(5, &row(5, 1));
        assert!(o.peek(5).is_some());
        assert!(o.peek(6).is_none());
        assert_eq!(o.counters().lookups(), 0);
    }

    #[test]
    fn quantized_overlay_evicts_identically_and_rows_stay_close() {
        // Same operation sequence on f32 and f16 overlays: recency and
        // eviction decisions must be identical (storage-independent);
        // row payloads agree within the f16 error bound.
        let ops: Vec<VertexId> = vec![1, 2, 3, 1, 4, 2, 5, 3, 1, 6];
        let mut exact = DynamicOverlay::new(3, 4);
        let mut lossy = DynamicOverlay::with_scheme(3, 4, QuantScheme::F16);
        assert_eq!(lossy.scheme(), QuantScheme::F16);
        assert_eq!(lossy.memory_bytes(), exact.memory_bytes() / 2);
        for &v in &ops {
            let payload: Vec<f32> = (0..4).map(|i| v as f32 / 3.0 + i as f32 / 7.0).collect();
            let a = exact.insert(v, &payload);
            let b = lossy.insert(v, &payload);
            assert_eq!(a, b, "outcome diverged at v={v}");
        }
        assert_eq!(exact.members_mru_order(), lossy.members_mru_order());
        assert_eq!(exact.counters().evictions, lossy.counters().evictions);
        for &v in &exact.members_mru_order() {
            let ra = exact.row(exact.peek(v).unwrap());
            let rb = lossy.row(lossy.peek(v).unwrap());
            for (a, b) in ra.iter().zip(&rb) {
                assert!((a - b).abs() <= a.abs().max(1.0) * 2.0f32.powi(-11));
            }
        }
    }

    #[test]
    fn touch_of_absent_vertex_is_noop() {
        let mut o = DynamicOverlay::new(2, 1);
        o.insert(1, &row(1, 1));
        o.touch(99);
        assert_eq!(o.members_mru_order(), vec![1]);
    }
}
