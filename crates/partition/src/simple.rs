//! Baseline partitioners: random, hash, contiguous block, and streaming
//! linear-deterministic-greedy (LDG).

use crate::{Partitioning, VertexWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_graph::{CsrGraph, VertexId};

/// Assigns vertices to parts uniformly at random (seeded).
// spp-det(partition.random)
pub fn random_partition(n: usize, k: usize, seed: u64) -> Partitioning {
    assert!(k > 0, "need at least one part");
    let mut rng = StdRng::seed_from_u64(seed);
    Partitioning::new((0..n).map(|_| rng.gen_range(0..k) as u32).collect(), k)
}

/// Assigns vertex `v` to part `hash(v) % k` — the stateless scheme many
/// distributed systems default to.
// spp-det(partition.hash)
pub fn hash_partition(n: usize, k: usize) -> Partitioning {
    assert!(k > 0, "need at least one part");
    let h = |v: usize| ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % k;
    Partitioning::new((0..n).map(|v| h(v) as u32).collect(), k)
}

/// Assigns contiguous id ranges to parts. With id-contiguous community
/// structure (e.g. the planted-partition generator) this is a strong
/// "oracle-structure" partitioner; on arbitrary orderings it is weak.
// spp-det(partition.block)
pub fn block_partition(n: usize, k: usize) -> Partitioning {
    assert!(k > 0, "need at least one part");
    Partitioning::new((0..n).map(|v| ((v * k) / n.max(1)) as u32).collect(), k)
}

/// Streaming linear-deterministic-greedy (LDG) partitioner: processes
/// vertices in id order, placing each in the part with the most neighbors
/// already placed, damped by a capacity penalty `(1 - size/capacity)`.
// spp-det(partition.ldg)
pub fn ldg_partition(graph: &CsrGraph, k: usize, weights: &VertexWeights) -> Partitioning {
    assert!(k > 0, "need at least one part");
    let n = graph.num_vertices();
    let capacity = (weights.totals()[0] as f64 / k as f64) * 1.1 + 1.0;
    let mut assignment = vec![u32::MAX; n];
    let mut load = vec![0u64; k];
    let mut neigh_count = vec![0usize; k];
    for v in 0..n as VertexId {
        neigh_count.iter_mut().for_each(|c| *c = 0);
        for &u in graph.neighbors(v) {
            let p = assignment[u as usize];
            if p != u32::MAX {
                neigh_count[p as usize] += 1;
            }
        }
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..k {
            let damp = 1.0 - load[p] as f64 / capacity;
            let score = neigh_count[p] as f64 * damp.max(0.0) + damp * 1e-6; // tie-break toward emptier parts
            if score > best_score {
                best_score = score;
                best = p;
            }
        }
        assignment[v as usize] = best as u32;
        load[best] += weights.of(v)[0];
    }
    Partitioning::new(assignment, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use spp_graph::generate::GeneratorConfig;

    #[test]
    fn random_is_roughly_balanced() {
        let p = random_partition(10_000, 4, 1);
        let sizes = p.sizes();
        for s in sizes {
            assert!(s > 2_000 && s < 3_000);
        }
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_partition(100, 3), hash_partition(100, 3));
    }

    #[test]
    fn block_partition_contiguous() {
        let p = block_partition(10, 2);
        assert_eq!(p.assignment(), &[0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn ldg_beats_random_on_community_graph() {
        let g = GeneratorConfig::planted_partition(800, 4800, 4, 0.9)
            .seed(2)
            .build();
        let w = VertexWeights::uniform(&g);
        let ldg = ldg_partition(&g, 4, &w);
        let rnd = random_partition(800, 4, 2);
        let cut_ldg = metrics::edge_cut_fraction(&g, &ldg);
        let cut_rnd = metrics::edge_cut_fraction(&g, &rnd);
        assert!(
            cut_ldg < cut_rnd,
            "LDG ({cut_ldg:.3}) should beat random ({cut_rnd:.3})"
        );
    }

    #[test]
    fn ldg_respects_capacity_loosely() {
        let g = GeneratorConfig::erdos_renyi(1000, 4000).seed(3).build();
        let w = VertexWeights::uniform(&g);
        let p = ldg_partition(&g, 4, &w);
        for s in p.sizes() {
            assert!(s <= 350, "part size {s} exceeds damped capacity");
        }
    }
}
