//! Deterministic store writer.
//!
//! [`StoreBuilder`] lays rows out page by page into a store directory
//! (`header.bin` + `pages.bin`, see [`crate::format`]). Rows are pulled
//! from a streaming `fill` callback so a build never needs the full
//! matrix in RAM — this is what lets `experiments io_locality` write
//! multi-million-row stores in bounded memory.
//!
//! Determinism contract (§9 extended to disk artifacts): the bytes on
//! disk are a pure function of `(scheme, page_bytes, rows, dim, fill)`.
//! `chunk_rows` only controls how many encoded rows are staged between
//! `write` calls; the byte stream is identical for every chunk size and
//! is written by one thread, so worker count cannot enter at all. A
//! store build at chunk size 1 and chunk size 10 000 produces
//! byte-identical files — pinned by `builds_are_chunk_size_invariant`.

use crate::format::{StoreError, StoreMeta, PAGES_FILE};
use spp_graph::quant::encode_row;
use spp_graph::{FeatureMatrix, Permutation, QuantScheme, VertexId};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Default page-size target in bytes (one common 4 KiB OS page).
pub const DEFAULT_PAGE_BYTES: usize = 4096;
/// Default number of rows staged in RAM between writes.
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Writes paged feature stores to disk (see [`crate::format`] for the
/// layout).
#[derive(Clone, Copy, Debug)]
pub struct StoreBuilder {
    scheme: QuantScheme,
    page_bytes: usize,
    chunk_rows: usize,
}

impl StoreBuilder {
    /// A builder for `scheme` with default page / chunk sizes.
    pub fn new(scheme: QuantScheme) -> Self {
        Self {
            scheme,
            page_bytes: DEFAULT_PAGE_BYTES,
            chunk_rows: DEFAULT_CHUNK_ROWS,
        }
    }

    /// Sets the page-size target in bytes (pages hold as many whole rows
    /// as fit; at least one).
    pub fn page_bytes(mut self, page_bytes: usize) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        self.page_bytes = page_bytes;
        self
    }

    /// Sets how many encoded rows are staged in RAM between writes.
    /// Affects build memory only, never the bytes produced.
    pub fn chunk_rows(mut self, chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunk size must be positive");
        self.chunk_rows = chunk_rows;
        self
    }

    /// Builds a store of `rows × dim` features under `dir`, pulling row
    /// `v` (store order) from `fill(v, &mut row_buf)`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on any filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    // spp-det(store.build)
    pub fn build_with(
        &self,
        dir: &Path,
        rows: usize,
        dim: usize,
        mut fill: impl FnMut(usize, &mut [f32]),
    ) -> Result<StoreMeta, StoreError> {
        let meta = StoreMeta::new(self.scheme, rows, dim, self.page_bytes);
        std::fs::create_dir_all(dir)?;
        meta.save(dir)?;
        let row_bytes = meta.row_bytes();
        let mut w = BufWriter::new(File::create(dir.join(PAGES_FILE))?);
        let mut row = vec![0.0f32; dim];
        // Staged encode buffer: chunk_rows encoded rows, flushed whenever
        // full. The concatenation of flushes is the same byte stream for
        // every chunk size.
        let mut staged = Vec::with_capacity(self.chunk_rows * row_bytes);
        for v in 0..rows {
            fill(v, &mut row);
            let start = staged.len();
            staged.resize(start + row_bytes, 0);
            encode_row(self.scheme, &row, &mut staged[start..]);
            if staged.len() >= self.chunk_rows * row_bytes {
                w.write_all(&staged)?;
                staged.clear();
            }
        }
        w.write_all(&staged)?;
        // Zero-pad the tail of the last page so the payload length always
        // equals num_pages × page_bytes.
        let pad = meta.payload_bytes() - rows * row_bytes;
        w.write_all(&vec![0u8; pad])?;
        w.flush()?;
        Ok(meta)
    }

    /// Builds a store from a dense matrix. With `perm`, physical slot
    /// `s` holds original row `perm.to_old(s)` (the VIP page-locality
    /// reorder); read it back through original ids via
    /// [`crate::PermutedStore`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on any filesystem failure.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is given and its length differs from the matrix
    /// rows.
    pub fn build_from_matrix(
        &self,
        dir: &Path,
        feats: &FeatureMatrix,
        perm: Option<&Permutation>,
    ) -> Result<StoreMeta, StoreError> {
        if let Some(p) = perm {
            assert_eq!(p.len(), feats.num_rows(), "permutation length mismatch");
        }
        self.build_with(dir, feats.num_rows(), feats.dim(), |s, out| {
            let old = match perm {
                Some(p) => p.to_old(s as VertexId),
                None => s as VertexId,
            };
            out.copy_from_slice(feats.row(old));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeatureStore, MmapStore};

    fn matrix(rows: usize, dim: usize) -> FeatureMatrix {
        FeatureMatrix::from_flat(
            (0..rows * dim)
                .map(|i| ((i as f32) * 0.437).cos() * 4.0 - 0.5)
                .collect(),
            dim,
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("spp_store_{}_{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn builds_are_chunk_size_invariant() {
        let m = matrix(103, 7);
        for scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
            let mut payloads = Vec::new();
            for chunk in [1usize, 3, 64, 10_000] {
                let dir = tmp(&format!("chunk{chunk}"));
                StoreBuilder::new(scheme)
                    .page_bytes(256)
                    .chunk_rows(chunk)
                    .build_from_matrix(&dir, &m, None)
                    .unwrap();
                payloads.push((
                    std::fs::read(dir.join(crate::format::HEADER_FILE)).unwrap(),
                    std::fs::read(dir.join(PAGES_FILE)).unwrap(),
                ));
                std::fs::remove_dir_all(&dir).ok();
            }
            for p in &payloads[1..] {
                assert_eq!(p, &payloads[0], "chunk size changed bytes ({scheme:?})");
            }
        }
    }

    #[test]
    fn built_store_round_trips() {
        let m = matrix(50, 9);
        let dir = tmp("roundtrip");
        StoreBuilder::new(QuantScheme::F32)
            .page_bytes(128)
            .build_from_matrix(&dir, &m, None)
            .unwrap();
        let s = MmapStore::open(&dir).unwrap();
        let mut out = vec![0.0f32; 9];
        for v in 0..50u32 {
            s.read_row_into(v, &mut out);
            assert_eq!(out.as_slice(), m.row(v), "row {v}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permuted_build_places_old_rows_at_new_slots() {
        let m = matrix(6, 3);
        let perm = Permutation::from_order(vec![5, 4, 3, 2, 1, 0]);
        let dir = tmp("permbuild");
        StoreBuilder::new(QuantScheme::F32)
            .page_bytes(64)
            .build_from_matrix(&dir, &m, Some(&perm))
            .unwrap();
        let s = MmapStore::open(&dir).unwrap();
        let mut out = vec![0.0f32; 3];
        for slot in 0..6u32 {
            s.read_row_into(slot, &mut out);
            assert_eq!(out.as_slice(), m.row(perm.to_old(slot)), "slot {slot}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_fill_never_needs_a_matrix() {
        let dir = tmp("streamfill");
        let meta = StoreBuilder::new(QuantScheme::F16)
            .page_bytes(512)
            .build_with(&dir, 500, 4, |v, out| {
                // Integers below 2048 are exactly representable in binary16.
                for (j, o) in out.iter_mut().enumerate() {
                    *o = (v * 4 + j) as f32;
                }
            })
            .unwrap();
        assert_eq!(meta.rows, 500);
        let s = MmapStore::open(&dir).unwrap();
        let mut out = vec![0.0f32; 4];
        s.read_row_into(499, &mut out);
        assert_eq!(out, [1996.0, 1997.0, 1998.0, 1999.0]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
