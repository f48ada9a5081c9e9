//! Incremental construction of [`CsrGraph`]s from edge lists.

use crate::{CsrGraph, VertexId};

/// Accumulates edges and produces a clean [`CsrGraph`]:
/// self-loops removed, duplicate edges removed, neighbor lists sorted.
///
/// # Example
///
/// ```
/// use spp_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(0, 1); // duplicate, dropped
/// b.add_edge(1, 1); // self-loop, dropped
/// let g = b.build();
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with pre-allocated capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Self {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `src -> dst`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            (src as usize) < self.n && (dst as usize) < self.n,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.n
        );
        self.edges.push((src, dst));
    }

    /// Adds both directions of an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_undirected_edge(&mut self, a: VertexId, b: VertexId) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Builds the CSR graph, deduplicating edges, removing self-loops, and
    /// sorting neighbor lists.
    // spp-det(graph.csr_build)
    pub fn build(mut self) -> CsrGraph {
        self.edges.retain(|&(s, d)| s != d);
        // Counting sort by source for O(m) bucketing, then per-row sort+dedup.
        let n = self.n;
        let mut deg = vec![0usize; n];
        for &(s, _) in &self.edges {
            deg[s as usize] += 1;
        }
        let mut row_ptr = vec![0usize; n + 1];
        for v in 0..n {
            // spp-lint: allow(l2-csr-index): building this CSR's own offsets from the counting pass, not traversing a graph
            row_ptr[v + 1] = row_ptr[v] + deg[v];
        }
        let mut col = vec![0 as VertexId; self.edges.len()];
        let mut cursor = row_ptr.clone();
        for &(s, d) in &self.edges {
            col[cursor[s as usize]] = d;
            cursor[s as usize] += 1;
        }
        // Sort and dedup each row, compacting in place: a row's kept
        // entries land at `write <= lo`, behind everything still unread.
        let mut out_row_ptr = vec![0usize; n + 1];
        let mut write = 0usize;
        for v in 0..n {
            // spp-lint: allow(l2-csr-index): compaction over the offsets computed above, same construction pass
            let (lo, hi) = (row_ptr[v], row_ptr[v + 1]);
            col[lo..hi].sort_unstable();
            let mut prev: Option<VertexId> = None;
            for i in lo..hi {
                let u = col[i];
                if prev != Some(u) {
                    col[write] = u;
                    write += 1;
                    prev = Some(u);
                }
            }
            out_row_ptr[v + 1] = write;
        }
        col.truncate(write);
        CsrGraph::from_raw_parts(out_row_ptr, col)
    }
}

impl Extend<(VertexId, VertexId)> for GraphBuilder {
    fn extend<T: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: T) {
        for (s, d) in iter {
            self.add_edge(s, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_sorts() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3);
        b.add_edge(0, 1);
        b.add_edge(0, 3);
        b.add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn removes_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(1, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn extend_adds_edges() {
        let mut b = GraphBuilder::new(3);
        b.extend(vec![(0, 1), (1, 2)]);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }
}
