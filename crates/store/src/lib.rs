//! `spp-store` — out-of-core paged feature store and streaming CSR
//! builder (DESIGN.md §16).
//!
//! Every crate so far keeps graph + features in RAM (`spp_graph::Dataset`),
//! which caps experiments at ~1000×-reduced scale. This crate lifts the
//! feature matrix onto disk behind the [`FeatureStore`] trait — the one
//! interface the trainer, the deployment builder, the partitioned
//! per-machine store and the inference server read feature rows
//! through. Its backends:
//!
//! * `spp_graph::FeatureMatrix` — the resident f32 matrix, no paging,
//!   no tracking; what every consumer reads by default.
//! * [`InRamStore`] — pages held in one resident byte buffer (the
//!   upper-bound baseline, and the reference for bit-identity tests).
//! * [`MmapStore`] — pages read on demand from `pages.bin` via
//!   positioned reads (`read_exact_at`), with an epoch-scoped
//!   [`tracker::PageTracker`] modeling residency deterministically.
//!
//! Both paged backends decode through the same codecs ([`format::decode_row`]),
//! so they are bitwise-identical per scheme by construction; tests pin
//! it anyway. [`StoreBuilder`] writes stores deterministically —
//! independent of chunk size and worker count — and
//! [`StreamingCsrBuilder`] assembles multi-million-vertex CSR graphs
//! from edge streams in bounded memory (sorted spill runs + k-way
//! merge), bitwise-equal to `spp_graph::GraphBuilder`.
//!
//! Page locality is where the source paper's VIP ordering pays off
//! out-of-core: `spp_graph::PagedPermutation` reorders rows by VIP
//! score at store-build time so hot vertices share hot pages, and the
//! `io_bench` bin measures the resulting drop in pages-faulted and
//! bytes-read per epoch versus a random order at equal page size.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp
    )
)]

pub mod builder;
pub mod format;
pub mod inram;
pub mod mmap;
mod runs;
pub mod stream;
pub mod tracker;

pub use builder::StoreBuilder;
pub use format::{StoreError, StoreMeta};
pub use inram::InRamStore;
pub use mmap::MmapStore;
pub use stream::StreamingCsrBuilder;

use spp_graph::{FeatureMatrix, Permutation, QuantScheme, VertexId};
use std::cell::RefCell;

/// Cumulative page-touch totals for one store (see
/// [`tracker::PageTracker`]); per-epoch figures are deltas between
/// snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Row reads that touched a page (one per requested row, whether
    /// read singly or through a batched `gather_into`).
    pub pages_read: u64,
    /// Page touches that missed the epoch's modeled resident set.
    pub pages_faulted: u64,
    /// Page touches served from the modeled resident set.
    pub pages_hit: u64,
    /// Bytes transferred from backing storage (`pages_faulted × page_bytes`).
    pub bytes_read: u64,
}

impl StoreStats {
    /// Component-wise `self - earlier`: the activity between two
    /// snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not a prior snapshot of the same store
    /// (any component would underflow).
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        let sub = |a: u64, b: u64| {
            assert!(b <= a, "stats snapshot order inverted");
            a - b
        };
        StoreStats {
            pages_read: sub(self.pages_read, earlier.pages_read),
            pages_faulted: sub(self.pages_faulted, earlier.pages_faulted),
            pages_hit: sub(self.pages_hit, earlier.pages_hit),
            bytes_read: sub(self.bytes_read, earlier.bytes_read),
        }
    }

    /// Component-wise sum: accumulates per-epoch deltas into a total.
    #[must_use]
    pub fn merged(&self, other: &StoreStats) -> StoreStats {
        StoreStats {
            pages_read: self.pages_read + other.pages_read,
            pages_faulted: self.pages_faulted + other.pages_faulted,
            pages_hit: self.pages_hit + other.pages_hit,
            bytes_read: self.bytes_read + other.bytes_read,
        }
    }
}

/// Random access to feature rows, independent of where the bytes live.
///
/// Implementations decode into caller buffers without allocating, so
/// batch gathers can reuse one output slot (the hot-path contract pinned
/// by the `store.read_row.*` / `store.gather.mmap` hot-path roots and
/// the alloc-count test).
pub trait FeatureStore: Send + Sync {
    /// Number of feature rows.
    fn num_rows(&self) -> usize;

    /// Feature dimension.
    fn dim(&self) -> usize;

    /// Row storage scheme.
    fn scheme(&self) -> QuantScheme;

    /// Decodes row `v` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `out.len() != self.dim()`.
    fn read_row_into(&self, v: VertexId, out: &mut [f32]);

    /// Decodes rows `ids` into `out`, row `i` of `out` = row `ids[i]` —
    /// the read primitive: every batch consumer (the default
    /// [`FeatureStore::gather`], trainer batch preparation, `io_bench`)
    /// goes through it, and this default body is the workspace's one
    /// per-row gather loop. Paged backends override it with page-run
    /// reads ([`MmapStore`]: one positioned read per run of adjacent
    /// touched pages) whose [`StoreStats`] are exactly those of the
    /// per-row loop. An empty `ids` is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != ids.len() × dim` ("gather output length
    /// mismatch") or any id is out of range.
    fn gather_into(&self, ids: &[VertexId], out: &mut [f32]) {
        let dim = self.dim();
        assert_eq!(out.len(), ids.len() * dim, "gather output length mismatch");
        for (&v, row) in ids.iter().zip(out.chunks_exact_mut(dim)) {
            self.read_row_into(v, row);
        }
    }

    /// Gathers `ids` into a dense matrix (row `i` = row `ids[i]`).
    fn gather(&self, ids: &[VertexId]) -> FeatureMatrix {
        let mut flat = vec![0.0f32; ids.len() * self.dim()];
        self.gather_into(ids, &mut flat);
        FeatureMatrix::from_flat(flat, self.dim())
    }

    /// Starts a new access epoch (drops the modeled resident set).
    /// No-op for backends without residency tracking.
    fn begin_epoch(&self) {}

    /// Cumulative page-touch totals. All-zero for backends without
    /// residency tracking.
    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }
}

/// A plain in-RAM matrix is the resident backend: full-precision rows,
/// no paging, no tracking. Consumers default to it and swap in a paged
/// store through the same `&dyn FeatureStore`, so there is one code
/// path whichever backend serves the rows.
impl FeatureStore for FeatureMatrix {
    fn num_rows(&self) -> usize {
        FeatureMatrix::num_rows(self)
    }

    fn dim(&self) -> usize {
        FeatureMatrix::dim(self)
    }

    fn scheme(&self) -> QuantScheme {
        QuantScheme::F32
    }

    fn read_row_into(&self, v: VertexId, out: &mut [f32]) {
        out.copy_from_slice(self.row(v));
    }
}

/// View of a store whose rows were written in a permuted order,
/// re-addressed by the caller's original vertex ids.
///
/// A store built with a reordering permutation holds original row
/// `perm.to_old(s)` at physical slot `s`. Wrapping it in
/// `PermutedStore::new(store, perm)` makes `read_row_into(v)` fetch
/// physical slot `perm.to_new(v)`, so
/// callers keep using original ids while the on-disk layout carries the
/// locality of the permuted order.
pub struct PermutedStore<'a> {
    inner: &'a dyn FeatureStore,
    perm: &'a Permutation,
}

thread_local! {
    /// Per-thread physical-id list of the [`PermutedStore`] gather in
    /// flight, grown once to the largest batch.
    static MAPPED_IDS: RefCell<Vec<VertexId>> = const { RefCell::new(Vec::new()) };
}

impl<'a> PermutedStore<'a> {
    /// Wraps `inner` (built in `perm`'s new-id order) for access by
    /// old ids.
    ///
    /// # Panics
    ///
    /// Panics if the permutation length differs from the store's rows.
    pub fn new(inner: &'a dyn FeatureStore, perm: &'a Permutation) -> Self {
        assert_eq!(
            perm.len(),
            inner.num_rows(),
            "permutation length must match store rows"
        );
        Self { inner, perm }
    }
}

impl FeatureStore for PermutedStore<'_> {
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn scheme(&self) -> QuantScheme {
        self.inner.scheme()
    }

    // spp-hot(store.read_row.permuted)
    fn read_row_into(&self, v: VertexId, out: &mut [f32]) {
        self.inner.read_row_into(self.perm.to_new(v), out);
    }

    /// Maps the whole id list once and forwards it, so a reordered
    /// paged store keeps its page-run reads.
    // spp-hot(store.gather.permuted)
    fn gather_into(&self, ids: &[VertexId], out: &mut [f32]) {
        // Taken out of the cell while in use, so a nested view's gather
        // on this thread finds an (empty) buffer instead of a live borrow.
        let mut mapped = MAPPED_IDS.take();
        mapped.clear();
        let rows = self.perm.len();
        let physical = ids.iter().map(|&v| {
            assert!((v as usize) < rows, "row {v} out of range");
            self.perm.to_new(v)
        });
        mapped.extend(physical); // spp-hot: alloc(thread-local, grown once)
        self.inner.gather_into(&mapped, out);
        MAPPED_IDS.set(mapped);
    }

    fn begin_epoch(&self) {
        self.inner.begin_epoch();
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix_is_a_store() {
        let m = FeatureMatrix::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2);
        let s: &dyn FeatureStore = &m;
        assert_eq!(s.num_rows(), 3);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.scheme(), QuantScheme::F32);
        let mut out = [0.0f32; 2];
        s.read_row_into(1, &mut out);
        assert_eq!(out, [3.0, 4.0]);
        let g = s.gather(&[2, 0]);
        assert_eq!(g.as_flat(), &[5.0, 6.0, 1.0, 2.0]);
        assert_eq!(s.stats(), StoreStats::default());
    }

    #[test]
    fn permuted_store_round_trips_original_ids() {
        // Original rows 0..4; store laid out in reversed order.
        let orig = FeatureMatrix::from_flat((0..8).map(|v| v as f32).collect(), 2);
        let perm = Permutation::from_order(vec![3, 2, 1, 0]); // new s holds old order[s]
        let mut laid_out = FeatureMatrix::zeros(4, 2);
        for s in 0..4u32 {
            laid_out
                .row_mut(s)
                .copy_from_slice(orig.row(perm.to_old(s)));
        }
        let view = PermutedStore::new(&laid_out, &perm);
        for v in 0..4u32 {
            let mut out = [0.0f32; 2];
            view.read_row_into(v, &mut out);
            assert_eq!(out, orig.row(v), "row {v}");
        }
    }

    #[test]
    fn stats_since_subtracts() {
        let a = StoreStats {
            pages_read: 10,
            pages_faulted: 4,
            pages_hit: 6,
            bytes_read: 64,
        };
        let b = StoreStats {
            pages_read: 25,
            pages_faulted: 5,
            pages_hit: 20,
            bytes_read: 80,
        };
        let d = b.since(&a);
        assert_eq!(d.pages_read, 15);
        assert_eq!(d.pages_faulted, 1);
        assert_eq!(d.pages_hit, 14);
        assert_eq!(d.bytes_read, 16);
    }
}
