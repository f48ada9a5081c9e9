//! Streaming CSR construction in bounded memory.
//!
//! [`spp_graph::GraphBuilder`] keeps every pending edge in one `Vec`,
//! which caps graph size at available RAM (the multi-million-vertex
//! generators of `experiments io_locality` would need gigabytes). The streaming builder
//! is the classic external-sort pipeline instead:
//!
//! 1. edges accumulate in a bounded chunk buffer (`chunk_edges` pairs);
//! 2. each full chunk is sorted, deduplicated, and spilled to a run file
//!    (`run_<i>.bin`, one little-endian `u64` key per edge,
//!    `key = src << 32 | dst`, so byte order ≡ `(src, dst)` order);
//! 3. `finish()` k-way-merges the runs with a min-heap, dropping
//!    duplicate keys across runs, and emits CSR arrays directly from the
//!    globally sorted stream.
//!
//! The result is **bitwise-equal** to `GraphBuilder::build()` on the
//! same edge multiset: both reduce to the globally `(src, dst)`-sorted,
//! deduplicated, self-loop-free edge list (GraphBuilder gets there via
//! counting sort by source + per-row sort/dedup). The equivalence is
//! pinned in `crates/store/tests/props.rs`: across all four
//! [`spp_graph::generate::GraphFamily`] variants and chunk sizes by the
//! `streaming_csr_matches_in_ram_builder` proptest, and for the
//! `io_locality` citation graph by `citation_graph_streams_bit_identically`.
//!
//! Peak memory is `chunk_edges × 8` bytes for the chunk buffer plus one
//! small read buffer per run and the output CSR itself — independent of
//! the total edge count.

use crate::format::StoreError;
use spp_graph::{CsrGraph, VertexId};
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Default chunk size: 4M edges ≈ 32 MiB of buffered pairs.
pub const DEFAULT_CHUNK_EDGES: usize = 4 << 20;

/// Builds a [`CsrGraph`] from an edge stream using sorted spill runs and
/// a k-way merge, in memory bounded by the chunk size.
pub struct StreamingCsrBuilder {
    n: usize,
    spill_dir: PathBuf,
    chunk_edges: usize,
    buf: Vec<u64>,
    /// `(path, edges_in_run)` for each spilled run.
    runs: Vec<(PathBuf, u64)>,
}

impl StreamingCsrBuilder {
    /// A builder for `n` vertices spilling runs under `spill_dir` (the
    /// directory is created on first spill and the run files are removed
    /// by [`Self::finish`]).
    pub fn new(n: usize, spill_dir: &Path) -> Self {
        Self {
            n,
            spill_dir: spill_dir.to_path_buf(),
            chunk_edges: DEFAULT_CHUNK_EDGES,
            buf: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Sets the chunk size in edges (the memory bound). The built graph
    /// is bitwise-identical for every chunk size.
    pub fn chunk_edges(mut self, chunk_edges: usize) -> Self {
        assert!(chunk_edges > 0, "chunk size must be positive");
        self.chunk_edges = chunk_edges;
        self
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `src -> dst`. Self-loops are dropped
    /// immediately (matching `GraphBuilder::build`'s retain pass).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if spilling a full chunk fails.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) -> Result<(), StoreError> {
        assert!(
            (src as usize) < self.n && (dst as usize) < self.n,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.n
        );
        if src == dst {
            return Ok(());
        }
        self.buf.push(((src as u64) << 32) | dst as u64);
        if self.buf.len() >= self.chunk_edges {
            self.spill()?;
        }
        Ok(())
    }

    /// Adds both directions of an undirected edge.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if spilling a full chunk fails.
    pub fn add_undirected_edge(&mut self, a: VertexId, b: VertexId) -> Result<(), StoreError> {
        self.add_edge(a, b)?;
        self.add_edge(b, a)
    }

    fn spill(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        self.buf.dedup();
        std::fs::create_dir_all(&self.spill_dir)?;
        let path = self.spill_dir.join(format!("run_{}.bin", self.runs.len()));
        let mut w = BufWriter::new(File::create(&path)?);
        for &key in &self.buf {
            w.write_all(&key.to_le_bytes())?;
        }
        w.flush()?;
        self.runs.push((path, self.buf.len() as u64));
        self.buf.clear();
        Ok(())
    }

    /// Merges all runs into the final CSR graph and removes the run
    /// files. Equivalent to `GraphBuilder::build()` on the same edges.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on any filesystem failure.
    pub fn finish(mut self) -> Result<CsrGraph, StoreError> {
        self.spill()?;
        let mut readers: Vec<RunReader> = Vec::with_capacity(self.runs.len());
        for (path, edges) in &self.runs {
            readers.push(RunReader::open(path, *edges)?);
        }
        // Min-heap over (key, run). Keys within a run are strictly
        // increasing, so equal keys across runs are adjacent in pop
        // order and collapse via the `last` check.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, r) in readers.iter_mut().enumerate() {
            if let Some(key) = r.next_key()? {
                heap.push(std::cmp::Reverse((key, i)));
            }
        }
        let mut row_ptr = vec![0usize; self.n + 1];
        let mut col: Vec<VertexId> = Vec::new();
        let mut last: Option<u64> = None;
        while let Some(std::cmp::Reverse((key, run))) = heap.pop() {
            if last != Some(key) {
                last = Some(key);
                let src = (key >> 32) as usize;
                // spp-lint: allow(l2-csr-index): building this CSR's own offsets from the sorted stream, not traversing a graph
                row_ptr[src + 1] += 1;
                col.push(key as u32 as VertexId);
            }
            if let Some(next) = readers[run].next_key()? {
                heap.push(std::cmp::Reverse((next, run)));
            }
        }
        for v in 0..self.n {
            // spp-lint: allow(l2-csr-index): prefix sum over the degree counts accumulated above, same construction pass
            row_ptr[v + 1] += row_ptr[v];
        }
        for (path, _) in &self.runs {
            std::fs::remove_file(path).ok();
        }
        Ok(CsrGraph::from_raw_parts(row_ptr, col))
    }
}

/// Sequential reader over one spilled run.
struct RunReader {
    r: BufReader<File>,
    remaining: u64,
}

impl RunReader {
    fn open(path: &Path, edges: u64) -> Result<Self, StoreError> {
        Ok(Self {
            r: BufReader::with_capacity(64 << 10, File::open(path)?),
            remaining: edges,
        })
    }

    fn next_key(&mut self) -> Result<Option<u64>, StoreError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b)?;
        Ok(Some(u64::from_le_bytes(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::GraphBuilder;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spp_spill_{}_{}", name, std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn matches_graph_builder_on_small_input() {
        let edges = [(0u32, 1u32), (1, 0), (0, 1), (2, 2), (3, 1), (1, 3), (0, 3)];
        let mut gb = GraphBuilder::new(4);
        let dir = tmp("small");
        let mut sb = StreamingCsrBuilder::new(4, &dir).chunk_edges(2);
        for &(s, d) in &edges {
            gb.add_edge(s, d);
            sb.add_edge(s, d).unwrap();
        }
        assert_eq!(sb.finish().unwrap(), gb.build());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_stream_builds_empty_graph() {
        let dir = tmp("empty");
        let g = StreamingCsrBuilder::new(5, &dir).finish().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn chunk_size_does_not_change_graph() {
        let edges: Vec<(u32, u32)> = (0..500u32)
            .map(|i| ((i * 7919 % 97), (i * 104729 % 97)))
            .collect();
        let mut want = None;
        for chunk in [1usize, 7, 64, 100_000] {
            let dir = tmp(&format!("chunk{chunk}"));
            let mut sb = StreamingCsrBuilder::new(97, &dir).chunk_edges(chunk);
            for &(s, d) in &edges {
                sb.add_edge(s, d).unwrap();
            }
            let g = sb.finish().unwrap();
            match &want {
                None => want = Some(g),
                Some(w) => assert_eq!(&g, w, "chunk {chunk}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn run_files_are_cleaned_up() {
        let dir = tmp("cleanup");
        let mut sb = StreamingCsrBuilder::new(10, &dir).chunk_edges(2);
        for i in 0..9u32 {
            sb.add_edge(i % 10, (i + 1) % 10).unwrap();
        }
        sb.finish().unwrap();
        let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftovers, 0, "run files must be removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let dir = tmp("oob");
        let mut sb = StreamingCsrBuilder::new(2, &dir);
        sb.add_edge(0, 2).unwrap();
    }
}
