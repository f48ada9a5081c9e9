//! Vertex permutations for graph/dataset reordering.

use crate::{CsrGraph, VertexId};

/// A bijection on vertex ids, stored as `new_id = forward[old_id]`.
///
/// SALIENT++ reorders graphs so that vertices of the same partition are
/// contiguous and, within a partition, sorted by descending VIP value
/// (paper §4.1). The permutation type carries the mapping in both
/// directions so features, labels, and splits can be relabeled
/// consistently with the graph.
///
/// # Example
///
/// ```
/// use spp_graph::Permutation;
///
/// let p = Permutation::from_forward(vec![2, 0, 1]); // old 0 -> new 2, ...
/// assert_eq!(p.to_new(0), 2);
/// assert_eq!(p.to_old(2), 0);
/// assert_eq!(p.inverse().to_new(2), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    forward: Vec<VertexId>,
    backward: Vec<VertexId>,
}

impl Permutation {
    /// Identity permutation on `n` vertices.
    pub fn identity(n: usize) -> Self {
        let forward: Vec<VertexId> = (0..n as VertexId).collect();
        Self {
            backward: forward.clone(),
            forward,
        }
    }

    /// Builds a permutation from a forward map (`forward[old] = new`).
    ///
    /// # Panics
    ///
    /// Panics if `forward` is not a bijection on `0..forward.len()`.
    pub fn from_forward(forward: Vec<VertexId>) -> Self {
        let n = forward.len();
        let mut backward = vec![VertexId::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            let new = new as usize;
            assert!(new < n, "permutation target {new} out of range");
            assert!(
                backward[new] == VertexId::MAX,
                "duplicate permutation target {new}"
            );
            backward[new] = old as VertexId;
        }
        Self { forward, backward }
    }

    /// Builds a permutation that places vertices in the order given by
    /// `order` (i.e. `order[i]` becomes vertex `i`).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a bijection.
    pub fn from_order(order: Vec<VertexId>) -> Self {
        let p = Self::from_forward(order);
        p.inverse()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True if the permutation is over zero vertices.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Maps an old vertex id to its new id.
    #[inline]
    pub fn to_new(&self, old: VertexId) -> VertexId {
        self.forward[old as usize]
    }

    /// Maps a new vertex id back to its old id.
    #[inline]
    pub fn to_old(&self, new: VertexId) -> VertexId {
        self.backward[new as usize]
    }

    /// The forward map as a slice (`forward[old] = new`).
    pub fn forward(&self) -> &[VertexId] {
        &self.forward
    }

    /// The backward map as a slice (`backward[new] = old`).
    pub fn backward(&self) -> &[VertexId] {
        &self.backward
    }

    /// Returns the inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation {
            forward: self.backward.clone(),
            backward: self.forward.clone(),
        }
    }

    /// Applies the permutation to a graph, relabeling all vertices.
    pub fn apply_to_graph(&self, g: &CsrGraph) -> CsrGraph {
        assert_eq!(g.num_vertices(), self.len(), "size mismatch");
        let n = g.num_vertices();
        let mut row_ptr = vec![0usize; n + 1];
        for new in 0..n {
            let old = self.backward[new];
            // spp-lint: allow(l2-csr-index): building the permuted graph's offsets via the checked degree accessor
            row_ptr[new + 1] = row_ptr[new] + g.degree(old);
        }
        let mut col = Vec::with_capacity(g.num_edges());
        for new in 0..n {
            let old = self.backward[new];
            let start = col.len();
            col.extend(g.neighbors(old).iter().map(|&u| self.forward[u as usize]));
            col[start..].sort_unstable();
        }
        CsrGraph::from_raw_parts(row_ptr, col)
    }

    /// Applies the permutation to a per-vertex value array.
    pub fn apply_to_values<T: Clone>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "size mismatch");
        (0..self.len())
            .map(|new| values[self.backward[new] as usize].clone())
            .collect()
    }

    /// Relabels a list of vertex ids in place.
    pub fn relabel(&self, ids: &mut [VertexId]) {
        for id in ids {
            *id = self.forward[*id as usize];
        }
    }
}

/// A vertex permutation with page structure: rows placed in score order
/// and grouped into fixed-size pages.
///
/// Out-of-core, the paper's VIP ordering becomes a *page locality*
/// optimization: sorting rows by descending VIP score before writing a
/// paged store (`spp-store`) concentrates the frequently sampled
/// vertices onto the first few pages, so an epoch touches far fewer
/// distinct pages than a scattered layout at the same page size. This
/// type couples the ordering [`Permutation`] with the page geometry it
/// was built for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PagedPermutation {
    perm: Permutation,
    page_rows: usize,
}

impl PagedPermutation {
    /// Orders vertices by descending `scores` (ties broken by ascending
    /// id, via `total_cmp`, so the order is a pure function of the
    /// scores — no float-equality hazards) into pages of `page_rows`.
    ///
    /// # Panics
    ///
    /// Panics if `page_rows` is zero.
    pub fn from_scores(scores: &[f64], page_rows: usize) -> Self {
        assert!(page_rows > 0, "page_rows must be positive");
        let mut order: Vec<VertexId> = (0..scores.len() as VertexId).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .total_cmp(&scores[a as usize])
                .then(a.cmp(&b))
        });
        Self {
            perm: Permutation::from_order(order),
            page_rows,
        }
    }

    /// The underlying ordering permutation (`to_new` maps an original id
    /// to its physical row slot).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Page that holds the (reordered) slot of original vertex `old`.
    #[inline]
    pub fn page_of(&self, old: VertexId) -> usize {
        self.perm.to_new(old) as usize / self.page_rows
    }

    /// Number of pages (`ceil(len / page_rows)`).
    pub fn num_pages(&self) -> usize {
        self.perm.len().div_ceil(self.page_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn identity_maps_to_self() {
        let p = Permutation::identity(4);
        for v in 0..4 {
            assert_eq!(p.to_new(v), v);
            assert_eq!(p.to_old(v), v);
        }
    }

    #[test]
    fn forward_backward_consistency() {
        let p = Permutation::from_forward(vec![2, 0, 3, 1]);
        for old in 0..4 {
            assert_eq!(p.to_old(p.to_new(old)), old);
        }
    }

    #[test]
    fn from_order_places_in_order() {
        // We want vertex 3 first, then 1, then 0, then 2.
        let p = Permutation::from_order(vec![3, 1, 0, 2]);
        assert_eq!(p.to_new(3), 0);
        assert_eq!(p.to_new(1), 1);
        assert_eq!(p.to_new(0), 2);
        assert_eq!(p.to_new(2), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate permutation target")]
    fn rejects_non_bijection() {
        Permutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    fn graph_relabeling_preserves_structure() {
        let mut b = GraphBuilder::new(4);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(1, 2);
        b.add_undirected_edge(2, 3);
        let g = b.build();
        let p = Permutation::from_forward(vec![3, 2, 1, 0]);
        let g2 = p.apply_to_graph(&g);
        assert_eq!(g2.num_edges(), g.num_edges());
        // old edge (0,1) is now (3,2)
        assert!(g2.has_edge(3, 2));
        assert!(g2.has_edge(2, 1));
        assert!(g2.has_edge(1, 0));
        assert!(!g2.has_edge(3, 0));
        // Degrees follow the relabeling.
        for old in 0..4u32 {
            assert_eq!(g.degree(old), g2.degree(p.to_new(old)));
        }
    }

    #[test]
    fn values_follow_permutation() {
        let p = Permutation::from_forward(vec![1, 2, 0]);
        let vals = vec!["a", "b", "c"];
        assert_eq!(p.apply_to_values(&vals), vec!["c", "a", "b"]);
    }

    #[test]
    fn relabel_ids() {
        let p = Permutation::from_forward(vec![1, 2, 0]);
        let mut ids = vec![0, 2];
        p.relabel(&mut ids);
        assert_eq!(ids, vec![1, 0]);
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Permutation::from_forward(vec![2, 0, 3, 1]);
        let q = p.inverse();
        for v in 0..4 {
            assert_eq!(q.to_new(p.to_new(v)), v);
        }
    }

    #[test]
    fn paged_permutation_orders_by_descending_score() {
        let scores = [0.1, 0.9, 0.5, 0.9, 0.0];
        let p = PagedPermutation::from_scores(&scores, 2);
        // Descending score, ties by ascending id: 1, 3, 2, 0, 4.
        assert_eq!(p.permutation().to_new(1), 0);
        assert_eq!(p.permutation().to_new(3), 1);
        assert_eq!(p.permutation().to_new(2), 2);
        assert_eq!(p.permutation().to_new(0), 3);
        assert_eq!(p.permutation().to_new(4), 4);
        assert_eq!(p.page_rows(), 2);
        assert_eq!(p.num_pages(), 3);
        // The two hottest vertices share page 0.
        assert_eq!(p.page_of(1), 0);
        assert_eq!(p.page_of(3), 0);
        assert_eq!(p.page_of(4), 2);
    }

    #[test]
    fn paged_permutation_handles_nan_scores_deterministically() {
        // total_cmp sorts NaN above +inf in descending order; the point
        // is only that the result is a valid, reproducible bijection.
        let scores = [f64::NAN, 1.0, f64::NAN, 0.5];
        let a = PagedPermutation::from_scores(&scores, 2);
        let b = PagedPermutation::from_scores(&scores, 2);
        assert_eq!(a, b);
        let mut slots: Vec<u32> = (0..4).map(|v| a.permutation().to_new(v)).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![0, 1, 2, 3]);
    }
}
