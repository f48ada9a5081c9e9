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
//! Reads are batch-granular: [`FeatureStore::gather_into`] hands the
//! whole id list to the page-run walker ([`crate::runs`]), which issues
//! **one positioned read per run of adjacent touched pages** (first to
//! last requested row of the run) instead of one per row, and decodes
//! every row from the run buffer straight into the caller's output. A
//! sampled minibatch touches most pages of a hot region, so a batch of
//! tens of thousands of rows costs a few hundred syscalls.
//! `read_row_into` is the one-id case of the same walk. Tracker totals
//! are exactly those of per-row reads (the walker's accounting
//! invariant).
//!
//! The walker's key and run buffers are thread-local and grown once per
//! thread, so after warmup a gather performs zero heap allocations —
//! pinned by the `alloc` integration test and the `store.gather.mmap` /
//! `store.read_row.mmap` hot roots.
//!
//! Unhappy path: the payload size is validated at `open`; if the file
//! shrinks or becomes unreadable afterwards, the first affected run
//! panics with its offset and length — a gather never returns rows it
//! could not read.

use crate::format::{self, StoreMeta};
use crate::runs::{gather_runs, Payload};
use crate::tracker::PageTracker;
use crate::{FeatureStore, StoreStats};
use spp_graph::{QuantScheme, VertexId};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

impl Payload for File {
    fn run_bytes<'a>(&'a self, off: usize, len: usize, buf: &'a mut Vec<u8>) -> &'a [u8] {
        // Thread-local and only ever grown, so steady-state runs reuse it.
        if buf.len() < len {
            buf.resize(len, 0);
        }
        let read = self.read_exact_at(&mut buf[..len], off as u64);
        assert!(
            read.is_ok(),
            "store payload read of {len} bytes at offset {off} failed: {read:?}"
        );
        &buf[..len]
    }
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
    /// Panics if `v` is out of range, `out.len() != dim`, or the
    /// positioned read fails (the payload size was validated at open,
    /// so a failure here means the file changed underneath us).
    // spp-hot(store.read_row.mmap)
    fn read_row_into(&self, v: VertexId, out: &mut [f32]) {
        self.gather_into(&[v], out);
    }

    /// # Panics
    ///
    /// Panics if any id is out of range or `out.len() != ids.len() × dim`
    /// (both before any read is issued), or if a run's positioned read
    /// fails.
    // spp-hot(store.gather.mmap)
    fn gather_into(&self, ids: &[VertexId], out: &mut [f32]) {
        gather_runs(&self.meta, &self.tracker, &self.file, ids, out);
    }

    fn begin_epoch(&self) {
        self.tracker.begin_epoch();
    }

    fn stats(&self) -> StoreStats {
        self.tracker.stats()
    }
}
