//! Partition quality metrics.

use crate::weights::NUM_CONSTRAINTS;
use crate::{Partitioning, VertexWeights};
use spp_graph::{CsrGraph, VertexId};

/// Number of *undirected* edges crossing partition boundaries.
///
/// Each cut edge appears twice in a symmetric CSR; this counts it once.
pub fn edge_cut(graph: &CsrGraph, part: &Partitioning) -> usize {
    assert_eq!(graph.num_vertices(), part.num_vertices(), "size mismatch");
    let cut_directed: usize = graph
        .edges()
        .filter(|&(v, u)| part.part_of(v) != part.part_of(u))
        .count();
    cut_directed / 2
}

/// Fraction of (undirected) edges that are cut.
pub fn edge_cut_fraction(graph: &CsrGraph, part: &Partitioning) -> f64 {
    if graph.num_edges() == 0 {
        return 0.0;
    }
    edge_cut(graph, part) as f64 / (graph.num_edges() as f64 / 2.0)
}

/// Per-constraint imbalance: `max_k(weight_k) / (total / K)` for each of
/// the [`NUM_CONSTRAINTS`] constraints. 1.0 is perfectly balanced; METIS
/// typically targets ≤ 1.05 or so. Constraints with zero total weight
/// report 1.0.
pub fn imbalance(part: &Partitioning, weights: &VertexWeights) -> [f64; NUM_CONSTRAINTS] {
    assert_eq!(part.num_vertices(), weights.len(), "size mismatch");
    let k = part.num_parts();
    let mut per_part = vec![[0u64; NUM_CONSTRAINTS]; k];
    for v in 0..part.num_vertices() {
        let p = part.part_of(v as VertexId) as usize;
        let w = weights.of(v as VertexId);
        for c in 0..NUM_CONSTRAINTS {
            per_part[p][c] += w[c];
        }
    }
    let totals = weights.totals();
    let mut out = [1.0f64; NUM_CONSTRAINTS];
    for c in 0..NUM_CONSTRAINTS {
        if totals[c] == 0 {
            continue;
        }
        let target = totals[c] as f64 / k as f64;
        let maxw = per_part.iter().map(|w| w[c]).max().unwrap_or(0) as f64;
        out[c] = maxw / target;
    }
    out
}

/// For each part, the set of *remote* vertices adjacent to it (its 1-hop
/// halo) — the vertices the "1-hop" caching baseline replicates.
pub fn one_hop_halos(graph: &CsrGraph, part: &Partitioning) -> Vec<Vec<VertexId>> {
    let k = part.num_parts();
    let mut halos: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for (v, u) in graph.edges() {
        let pv = part.part_of(v);
        if pv != part.part_of(u) {
            halos[pv as usize].push(u);
        }
    }
    for h in &mut halos {
        h.sort_unstable();
        h.dedup();
    }
    halos
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::generate::ring_with_chords;
    use spp_graph::GraphBuilder;

    #[test]
    fn edge_cut_counts_undirected_once() {
        // Path 0-1-2-3, split {0,1} | {2,3}: exactly one cut edge.
        let mut b = GraphBuilder::new(4);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(1, 2);
        b.add_undirected_edge(2, 3);
        let g = b.build();
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        assert_eq!(edge_cut(&g, &p), 1);
        assert!((edge_cut_fraction(&g, &p) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_balance_reports_one() {
        let g = ring_with_chords(8, 1);
        let w = VertexWeights::uniform(&g);
        let p = Partitioning::new(vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let imb = imbalance(&p, &w);
        assert!((imb[0] - 1.0).abs() < 1e-12);
        // Zero-total constraints (train/val) report 1.0.
        assert_eq!(imb[1], 1.0);
        assert_eq!(imb[2], 1.0);
    }

    #[test]
    fn imbalance_detects_skew() {
        let g = ring_with_chords(8, 1);
        let w = VertexWeights::uniform(&g);
        let p = Partitioning::new(vec![0, 0, 0, 0, 0, 0, 1, 1], 2);
        let imb = imbalance(&p, &w);
        assert!((imb[0] - 1.5).abs() < 1e-12); // 6 / (8/2)
    }

    #[test]
    fn halo_of_path_partition() {
        let mut b = GraphBuilder::new(4);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(1, 2);
        b.add_undirected_edge(2, 3);
        let g = b.build();
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        let halos = one_hop_halos(&g, &p);
        assert_eq!(halos[0], vec![2]);
        assert_eq!(halos[1], vec![1]);
    }
}
