//! Compressed-sparse-row graph representation.

use crate::VertexId;

/// An immutable directed graph in compressed-sparse-row form.
///
/// For undirected graphs every edge is stored in both directions; use
/// [`CsrGraph::is_symmetric`] to check. Neighbor lists are sorted by
/// vertex id and free of duplicates and self-loops (the [`crate::GraphBuilder`]
/// enforces this).
///
/// # Example
///
/// ```
/// use spp_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_undirected_edge(0, 1);
/// b.add_undirected_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    row_ptr: Vec<usize>,
    col: Vec<VertexId>,
}

impl CsrGraph {
    /// Creates a graph directly from CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are inconsistent: `row_ptr` must be
    /// non-decreasing, start at 0, end at `col.len()`, and every column
    /// index must be `< row_ptr.len() - 1`.
    pub fn from_raw_parts(row_ptr: Vec<usize>, col: Vec<VertexId>) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr must have at least one entry");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert_eq!(
            row_ptr.last().copied().unwrap_or(0),
            col.len(),
            "row_ptr must end at col.len()"
        );
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be non-decreasing"
        );
        let n = row_ptr.len() - 1;
        assert!(
            col.iter().all(|&c| (c as usize) < n),
            "column index out of range"
        );
        Self { row_ptr, col }
    }

    /// Creates an empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            row_ptr: vec![0; n + 1],
            col: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges (an undirected edge counts twice).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }

    /// Out-neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.col[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// The edge-index range of `v`'s out-edges: `neighbors(v)` is
    /// `col()[neighbor_range(v)]`, and any edge-aligned side array (edge
    /// weights, transition probabilities) slices with the same range.
    #[inline]
    pub fn neighbor_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.row_ptr[v]..self.row_ptr[v + 1]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// The raw row-pointer array (length `num_vertices() + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw column-index array (length `num_edges()`).
    #[inline]
    pub fn col(&self) -> &[VertexId] {
        &self.col
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as VertexId).map(|v| v as VertexId)
    }

    /// Iterates over all directed edges `(src, dst)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            self.neighbors(v as VertexId)
                .iter()
                .map(move |&u| (v as VertexId, u))
        })
    }

    /// Returns true if `u` is an out-neighbor of `v` (binary search).
    pub fn has_edge(&self, v: VertexId, u: VertexId) -> bool {
        self.neighbors(v).binary_search(&u).is_ok()
    }

    /// Returns the transpose (reverse all edges). For a symmetric graph this
    /// is equal to the graph itself.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut in_deg = vec![0usize; n];
        for &c in &self.col {
            in_deg[c as usize] += 1;
        }
        let mut row_ptr = vec![0usize; n + 1];
        for v in 0..n {
            row_ptr[v + 1] = row_ptr[v] + in_deg[v];
        }
        let mut cursor = row_ptr.clone();
        let mut col = vec![0 as VertexId; self.col.len()];
        for (src, dst) in self.edges() {
            let d = dst as usize;
            col[cursor[d]] = src;
            cursor[d] += 1;
        }
        // Neighbor lists constructed by a forward edge sweep are already
        // sorted by source, so each transposed list is sorted.
        CsrGraph { row_ptr, col }
    }

    /// Returns true if for every edge `(v, u)` the edge `(u, v)` also exists.
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(v, u)| self.has_edge(u, v))
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Mean out-degree.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Memory footprint of the CSR arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col.len() * std::mem::size_of::<VertexId>()
    }

    /// Number of connected components (treating edges as undirected).
    pub fn num_components(&self) -> usize {
        let n = self.num_vertices();
        let mut seen = vec![false; n];
        let mut comps = 0;
        let mut stack = Vec::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            comps += 1;
            seen[s] = true;
            stack.push(s as VertexId);
            while let Some(v) = stack.pop() {
                for &u in self.neighbors(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
        }
        comps
    }
}

impl std::fmt::Display for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CsrGraph {{ vertices: {}, edges: {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(1, 2);
        b.add_undirected_edge(2, 0);
        b.build()
    }

    #[test]
    fn raw_parts_roundtrip() {
        let g = triangle();
        let g2 = CsrGraph::from_raw_parts(g.row_ptr().to_vec(), g.col().to_vec());
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn raw_parts_rejects_bad_col() {
        CsrGraph::from_raw_parts(vec![0, 1], vec![5]);
    }

    #[test]
    #[should_panic(expected = "row_ptr must end at col.len()")]
    fn raw_parts_rejects_bad_rowptr() {
        CsrGraph::from_raw_parts(vec![0, 2], vec![0]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.num_components(), 5);
    }

    #[test]
    fn triangle_properties() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_symmetric());
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.num_components(), 1);
        assert_eq!(g.mean_degree(), 2.0);
    }

    #[test]
    fn transpose_of_directed_edge() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build();
        let t = g.transpose();
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn symmetric_graph_equals_transpose() {
        let g = triangle();
        assert_eq!(g.transpose(), g);
    }

    #[test]
    fn edges_iterator_counts() {
        let g = triangle();
        assert_eq!(g.edges().count(), 6);
        assert!(g.edges().all(|(v, u)| v != u));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", triangle()).is_empty());
    }
}
