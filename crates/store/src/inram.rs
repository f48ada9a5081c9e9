//! In-RAM paged backend: the whole `pages.bin` payload resident in one
//! byte buffer.
//!
//! This is the upper-bound baseline for the out-of-core experiments
//! (every page touch is tracked, but reads never hit the filesystem)
//! and the reference backend for the Mmap bit-identity tests — both
//! go through the same page-run walker ([`crate::runs`]) and
//! [`format::decode_row`] over the identical page layout; a run here is
//! a borrowed slice of the resident payload instead of a read.

use crate::format::{self, StoreMeta};
use crate::runs::{gather_runs, Payload};
use crate::tracker::PageTracker;
use crate::{FeatureStore, StoreStats};
use spp_graph::{FeatureMatrix, QuantScheme, VertexId};
use std::path::Path;

/// Paged feature rows held fully in RAM.
pub struct InRamStore {
    meta: StoreMeta,
    pages: Vec<u8>,
    tracker: PageTracker,
}

impl InRamStore {
    /// Opens a store directory (see [`crate::StoreBuilder`]) and loads
    /// the entire payload.
    ///
    /// # Errors
    ///
    /// Returns [`format::StoreError`] on I/O failure, a bad header, or
    /// a payload whose size disagrees with the header.
    pub fn open(dir: &Path) -> Result<Self, format::StoreError> {
        let meta = StoreMeta::load(dir)?;
        let pages = std::fs::read(StoreMeta::pages_path(dir))?;
        if pages.len() != meta.payload_bytes() {
            return Err(format::StoreError::Corrupt(format!(
                "pages.bin is {} bytes, header implies {}",
                pages.len(),
                meta.payload_bytes()
            )));
        }
        Ok(Self::from_pages(meta, pages))
    }

    /// Encodes a dense matrix directly into a resident store (no disk
    /// round trip) — handy for tests and small experiments.
    pub fn from_matrix(feats: &FeatureMatrix, scheme: QuantScheme, page_bytes: usize) -> Self {
        let meta = StoreMeta::new(scheme, feats.num_rows(), feats.dim(), page_bytes);
        let mut pages = vec![0u8; meta.payload_bytes()];
        let row_bytes = meta.row_bytes();
        for v in 0..meta.rows {
            let off = meta.row_offset(v);
            format::encode_row(
                scheme,
                feats.row(v as VertexId),
                &mut pages[off..off + row_bytes],
            );
        }
        Self::from_pages(meta, pages)
    }

    fn from_pages(meta: StoreMeta, pages: Vec<u8>) -> Self {
        let tracker = PageTracker::new(&meta);
        Self {
            meta,
            pages,
            tracker,
        }
    }

    /// Store geometry.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }
}

impl Payload for [u8] {
    fn run_bytes<'a>(&'a self, off: usize, len: usize, _buf: &'a mut Vec<u8>) -> &'a [u8] {
        &self[off..off + len]
    }
}

impl FeatureStore for InRamStore {
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
    /// Panics if `v` is out of range or `out.len() != dim`.
    // spp-hot(store.read_row.inram)
    fn read_row_into(&self, v: VertexId, out: &mut [f32]) {
        self.gather_into(&[v], out);
    }

    /// # Panics
    ///
    /// Panics if any id is out of range or `out.len() != ids.len() × dim`.
    fn gather_into(&self, ids: &[VertexId], out: &mut [f32]) {
        gather_runs(&self.meta, &self.tracker, self.pages.as_slice(), ids, out);
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

    fn matrix(rows: usize, dim: usize) -> FeatureMatrix {
        FeatureMatrix::from_flat(
            (0..rows * dim)
                .map(|i| ((i as f32) * 0.719).sin() * 3.0)
                .collect(),
            dim,
        )
    }

    #[test]
    fn from_matrix_round_trips_f32() {
        let m = matrix(9, 5);
        let s = InRamStore::from_matrix(&m, QuantScheme::F32, 64);
        let mut out = vec![0.0f32; 5];
        for v in 0..9u32 {
            s.read_row_into(v, &mut out);
            assert_eq!(out.as_slice(), m.row(v), "row {v}");
        }
    }

    #[test]
    fn tracking_counts_page_touches() {
        let m = matrix(8, 4); // f32 row = 16 bytes; page 32 bytes → 2 rows/page
        let s = InRamStore::from_matrix(&m, QuantScheme::F32, 32);
        assert_eq!(s.meta().page_rows, 2);
        let mut out = vec![0.0f32; 4];
        s.read_row_into(0, &mut out); // fault page 0
        s.read_row_into(1, &mut out); // hit page 0
        s.read_row_into(7, &mut out); // fault page 3
        let st = s.stats();
        assert_eq!(st.pages_read, 3);
        assert_eq!(st.pages_faulted, 2);
        assert_eq!(st.pages_hit, 1);
        assert_eq!(st.bytes_read, 64);
        s.begin_epoch();
        s.read_row_into(0, &mut out); // re-fault after epoch
        assert_eq!(s.stats().pages_faulted, 3);
    }
}
