//! Out-of-core backend: rows fetched from `pages.bin` with positioned
//! reads.
//!
//! The container vendors no mmap shim, so "Mmap" here means the same
//! access pattern an mmap would produce — on-demand page-granular
//! fetches from a file that is never resident as a whole — implemented
//! with `FileExt::read_exact_at` (which takes `&self`, so concurrent
//! pool workers read without locks). Residency is modeled by the
//! deterministic epoch tracker instead of the OS page cache (see
//! [`crate::tracker`] for why).
//!
//! Reads are batch-granular, through one *page-run walker*: a gather
//! sorts its `(physical row, output index)` pairs by row and walks them
//! in runs of adjacent touched pages, issuing **one positioned read per
//! run** (first to last requested row of the run) instead of one per
//! row, and hands every row's bytes from the run buffer to a sink. A
//! sampled minibatch touches most pages of a hot region, so a batch of
//! tens of thousands of rows costs a few hundred syscalls. One walker,
//! two sinks: [`FeatureStore::gather_into`] decodes each row straight
//! into the caller's output, and [`FeatureStore::gather_encoded_into`]
//! copies its stored bytes for a reader that decodes them where it uses
//! them — the same reads and the same [`StoreStats`]. The trait's
//! `read_row_into` is the one-id case of the decoding walk, so there is
//! no per-row path beside the per-batch one.
//!
//! Accounting invariant: the tracker is charged once per distinct page
//! of a run with the number of requested rows on it
//! ([`PageTracker::record_rows`]), which yields exactly the
//! [`StoreStats`] that one [`PageTracker::record`] per row would —
//! coalescing changes how bytes are fetched, never what the residency
//! model reports.
//!
//! The sort is `sort_unstable` over keys that are unique by
//! construction (the output index is part of the key), so the walk
//! order — and with it every read and tracker call — is a pure function
//! of the ids. The key and run buffers are thread-local and grown once
//! per thread, so after warmup a gather of either kind performs zero
//! heap allocations — pinned by the `alloc` integration test and the
//! `store.gather.mmap` hot roots.
//!
//! Unhappy path: the payload size is validated at `open`; if the file
//! shrinks or becomes unreadable afterwards, the first affected run
//! panics with its offset and length — a gather never returns rows it
//! could not read.

use crate::format::{self, StoreMeta};
use crate::tracker::PageTracker;
use crate::{FeatureStore, StoreStats};
use spp_graph::quant::decode_row;
use spp_graph::{QuantScheme, VertexId};
use std::cell::RefCell;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Upper bound on the bytes one run spans (64 default-size pages): long
/// enough to amortize a positioned read, short enough that the run
/// buffer stays cache-resident while its rows decode. A page larger
/// than this is still read whole-run, one page at a time.
const RUN_BYTES: usize = 256 << 10;

struct Scratch {
    /// `row << 32 | output index`, sorted per gather.
    keys: Vec<u64>,
    /// Encoded bytes of the current run.
    run: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            keys: Vec::new(),
            run: Vec::new(),
        })
    };
}

/// Paged feature rows left on disk and fetched per read.
pub struct MmapStore {
    meta: StoreMeta,
    file: File,
    tracker: PageTracker,
}

impl MmapStore {
    /// Opens a store directory (see [`crate::StoreBuilder`]) without
    /// loading the payload.
    ///
    /// # Errors
    ///
    /// Returns [`format::StoreError`] on I/O failure, a bad header, or
    /// a payload whose size disagrees with the header.
    pub fn open(dir: &Path) -> Result<Self, format::StoreError> {
        let meta = StoreMeta::load(dir)?;
        let file = File::open(StoreMeta::pages_path(dir))?;
        let len = file.metadata()?.len();
        if len != meta.payload_bytes() as u64 {
            return Err(format::StoreError::Corrupt(format!(
                "pages.bin is {len} bytes, header implies {}",
                meta.payload_bytes()
            )));
        }
        let tracker = PageTracker::new(&meta);
        Ok(Self {
            meta,
            file,
            tracker,
        })
    }

    /// Store geometry.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// The page-run walker: reads the rows `ids` names (module docs)
    /// and hands each one's stored bytes to `sink` with its index in
    /// `ids`, charging the tracker per page as each run is cut.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range (before any read or charge) or a
    /// run's positioned read fails.
    fn walk(&self, ids: &[VertexId], mut sink: impl FnMut(usize, &[u8])) {
        let meta = &self.meta;
        assert!(ids.len() <= u32::MAX as usize, "gather batch too large");
        SCRATCH.with(|cell| {
            let Scratch { keys, run } = &mut *cell.borrow_mut();
            keys.clear();
            let pairs = ids.iter().enumerate();
            keys.extend(pairs.map(|(i, &v)| (u64::from(v) << 32) | i as u64)); // spp-hot: alloc(thread-local, grown once)
            keys.sort_unstable();
            if let Some(&last) = keys.last() {
                let v = (last >> 32) as usize;
                assert!(v < meta.rows, "row {v} out of range");
            }
            let row_bytes = meta.row_bytes();
            let max_pages = (RUN_BYTES / meta.page_bytes()).max(1);
            let mut rest = keys.as_slice();
            while let Some(&first) = rest.first() {
                let first_row = (first >> 32) as usize;
                let first_page = meta.page_of(first_row);
                // Extend the run while the next row sits on the current or
                // the adjacent page, charging each page as it completes.
                let (mut page, mut on_page, mut len) = (first_page, 0u64, 0usize);
                for &k in rest {
                    let p = meta.page_of((k >> 32) as usize);
                    if p != page {
                        if p > page + 1 || p - first_page >= max_pages {
                            break;
                        }
                        self.tracker.record_rows(page, on_page);
                        (page, on_page) = (p, 0);
                    }
                    on_page += 1;
                    len += 1;
                }
                self.tracker.record_rows(page, on_page);
                let (this, tail) = rest.split_at(len);
                rest = tail;

                let last_row = (this[len - 1] >> 32) as usize;
                let off = meta.row_offset(first_row);
                let span = meta.row_offset(last_row) + row_bytes - off;
                // Only ever grown, so steady-state runs reuse it.
                if run.len() < span {
                    run.resize(span, 0); // spp-hot: alloc(thread-local, grown only past its longest run so far; a run spans at most max(RUN_BYTES, one page))
                }
                let bytes = &mut run[..span];
                let read = self.file.read_exact_at(bytes, off as u64);
                assert!(
                    read.is_ok(),
                    "store payload read of {span} bytes at offset {off} failed: {read:?}"
                );
                for &k in this {
                    let (row, i) = ((k >> 32) as usize, (k & 0xffff_ffff) as usize);
                    let at = meta.row_offset(row) - off;
                    sink(i, &bytes[at..at + row_bytes]);
                }
            }
        });
    }
}

impl FeatureStore for MmapStore {
    fn num_rows(&self) -> usize {
        self.meta.rows
    }

    fn dim(&self) -> usize {
        self.meta.dim
    }

    fn scheme(&self) -> QuantScheme {
        self.meta.scheme
    }

    /// # Panics
    ///
    /// Panics if any id is out of range ("row {v} out of range") or
    /// `out.len() != ids.len() × dim` (both before any read is issued or
    /// any page charged), or if a run's positioned read fails (the
    /// payload size was validated at open, so a failure here means the
    /// file changed underneath us).
    // spp-hot(store.gather.mmap)
    fn gather_into(&self, ids: &[VertexId], out: &mut [f32]) {
        let (scheme, dim) = (self.meta.scheme, self.meta.dim);
        assert_eq!(out.len(), ids.len() * dim, "gather output length mismatch");
        self.walk(ids, |i, bytes| {
            decode_row(scheme, bytes, &mut out[i * dim..(i + 1) * dim]);
        });
    }

    /// The same page-run walk as [`FeatureStore::gather_into`], with the
    /// same reads and [`StoreStats`], copying each row's bytes instead
    /// of decoding them.
    ///
    /// # Panics
    ///
    /// As [`FeatureStore::gather_into`], with `out.len() != ids.len() ×
    /// row_bytes` the length mismatch ("encoded gather output length
    /// mismatch").
    // spp-hot(store.gather.mmap)
    fn gather_encoded_into(&self, ids: &[VertexId], out: &mut [u8]) {
        let row_bytes = self.meta.row_bytes();
        assert_eq!(
            out.len(),
            ids.len() * row_bytes,
            "encoded gather output length mismatch"
        );
        self.walk(ids, |i, bytes| {
            out[i * row_bytes..(i + 1) * row_bytes].copy_from_slice(bytes);
        });
    }

    fn begin_epoch(&self) {
        self.tracker.begin_epoch();
    }

    fn stats(&self) -> StoreStats {
        self.tracker.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreBuilder;
    use spp_graph::FeatureMatrix;

    #[test]
    fn tracking_counts_page_touches() {
        // f32 row = 16 bytes; page 32 bytes → 2 rows/page.
        let m = FeatureMatrix::from_flat((0..32).map(|i| i as f32 * 0.5).collect(), 4);
        let dir = std::env::temp_dir().join(format!("spp_store_track_{}", std::process::id()));
        StoreBuilder::new(QuantScheme::F32)
            .page_bytes(32)
            .build_from_matrix(&dir, &m, None)
            .unwrap();
        let s = MmapStore::open(&dir).unwrap();
        assert_eq!(s.meta().page_rows, 2);
        let mut out = vec![0.0f32; 4];
        s.read_row_into(0, &mut out); // fault page 0
        s.read_row_into(1, &mut out); // hit page 0
        s.read_row_into(7, &mut out); // fault page 3
        assert_eq!(out.as_slice(), m.row(7));
        let st = s.stats();
        assert_eq!(st.pages_read, 3);
        assert_eq!(st.pages_faulted, 2);
        assert_eq!(st.pages_hit, 1);
        assert_eq!(st.bytes_read, 64);
        s.begin_epoch();
        s.read_row_into(0, &mut out); // re-fault after epoch
        assert_eq!(s.stats().pages_faulted, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
