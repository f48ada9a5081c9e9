//! Layer-wise sampling (FastGCN/LADIES-style, paper §2.3).
//!
//! Instead of each vertex sampling its own neighbors (node-wise),
//! layer-wise sampling pools the neighbors of *all* current vertices and
//! samples a fixed per-layer budget from the union. The paper's analytic
//! VIP model does not cover this scheme ("The VIP model for node-wise
//! sampling derived in this section does not apply to other sampling
//! schemes"), while its empirical ("sim.") caching policy applies to any
//! scheme — the `experiments layerwise_vip` row ranks caches both ways
//! under this sampler.

use crate::{HopAdj, Mfg, VertexIndexer};
use rand::Rng;
use spp_graph::{CsrGraph, VertexId};

/// Layer-wise sampler with per-hop node budgets.
///
/// The produced [`Mfg`] keeps the node-wise MFG contract (seeds first,
/// cumulative prefixes, per-hop CSR adjacency), so the same GNN layers
/// consume it; a target with no sampled neighbors aggregates to zero.
///
/// # Example
///
/// ```
/// use spp_graph::generate::complete;
/// use spp_sampler::layerwise::LayerWiseSampler;
/// use rand::SeedableRng;
///
/// let g = complete(30);
/// let s = LayerWiseSampler::new(&g, vec![8, 4]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mfg = s.sample(&[0, 1], &mut rng);
/// assert!(mfg.validate().is_ok());
/// // At most `budget` fresh vertices join per hop.
/// assert!(mfg.sizes[1] - mfg.sizes[0] <= 8);
/// assert!(mfg.sizes[2] - mfg.sizes[1] <= 4);
/// ```
#[derive(Debug)]
pub struct LayerWiseSampler<'g> {
    graph: &'g CsrGraph,
    budgets: Vec<usize>,
}

impl<'g> LayerWiseSampler<'g> {
    /// Creates a sampler with the given per-hop budgets (hop 1 first).
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty or contains zero.
    pub fn new(graph: &'g CsrGraph, budgets: Vec<usize>) -> Self {
        assert!(!budgets.is_empty(), "need at least one hop budget");
        assert!(budgets.iter().all(|&b| b > 0), "budgets must be positive");
        Self { graph, budgets }
    }

    /// Number of hops.
    pub fn num_hops(&self) -> usize {
        self.budgets.len()
    }

    /// Samples the layer-wise expanded neighborhood of `seeds`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate seeds.
    pub fn sample<R: Rng>(&self, seeds: &[VertexId], rng: &mut R) -> Mfg {
        let mut indexer =
            VertexIndexer::with_capacity(seeds.len() + self.budgets.iter().sum::<usize>() + 16);
        for (i, &s) in seeds.iter().enumerate() {
            indexer.insert(s);
            assert_eq!(indexer.len(), i + 1, "duplicate seed {s} in minibatch");
        }
        let mut sizes = vec![seeds.len()];
        let mut hops = Vec::with_capacity(self.budgets.len());

        for &budget in &self.budgets {
            let num_targets = sizes.last().copied().unwrap_or(0);
            // Union of all targets' neighbors (global ids, deduplicated).
            let mut union = VertexIndexer::with_capacity(num_targets * 8);
            for t in 0..num_targets {
                let v = indexer.nodes()[t];
                for &u in self.graph.neighbors(v) {
                    union.insert(u);
                }
            }
            let mut pool: Vec<VertexId> = union.into_nodes();
            // Sample `budget` distinct vertices from the union via partial
            // Fisher–Yates.
            let take = budget.min(pool.len());
            for i in 0..take {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            let sampled = &pool[..take];
            // A membership set over the sampled layer for adjacency builds.
            let mut layer = VertexIndexer::with_capacity(take * 2);
            for &u in sampled {
                layer.insert(u);
            }
            // Register sampled vertices in the MFG node list.
            for &u in sampled {
                indexer.insert(u);
            }
            // Adjacency: target t keeps its true neighbors that fall in
            // the sampled layer.
            let mut row_ptr = vec![0usize];
            let mut col: Vec<u32> = Vec::new();
            for t in 0..num_targets {
                let v = indexer.nodes()[t];
                for &u in self.graph.neighbors(v) {
                    if layer.get(u).is_none() {
                        continue;
                    }
                    debug_assert!(indexer.get(u).is_some(), "sampled vertex registered");
                    if let Some(local) = indexer.get(u) {
                        col.push(local);
                    }
                }
                row_ptr.push(col.len());
            }
            let num_sources = indexer.len();
            hops.push(HopAdj {
                num_targets,
                num_sources,
                row_ptr,
                col,
            });
            sizes.push(num_sources);
        }

        Mfg {
            nodes: indexer.into_nodes(),
            sizes,
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spp_graph::generate::{complete, ring_with_chords, GeneratorConfig};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn mfg_valid_and_budgeted() {
        let g = GeneratorConfig::erdos_renyi(200, 1500).seed(1).build();
        let s = LayerWiseSampler::new(&g, vec![20, 10]);
        let mfg = s.sample(&[0, 5, 9], &mut rng(2));
        mfg.validate().unwrap();
        assert!(mfg.sizes[1] - mfg.sizes[0] <= 20);
        assert!(mfg.sizes[2] - mfg.sizes[1] <= 10);
    }

    #[test]
    fn adjacency_edges_are_real() {
        let g = ring_with_chords(64, 5);
        let s = LayerWiseSampler::new(&g, vec![12]);
        let mfg = s.sample(&[3, 17], &mut rng(3));
        let adj = mfg.layer_adj(1);
        for t in 0..adj.num_targets {
            let v = mfg.nodes[t];
            for &local in adj.neighbors(t) {
                assert!(g.has_edge(v, mfg.nodes[local as usize]));
            }
        }
    }

    #[test]
    fn shared_layer_across_targets() {
        // In layer-wise sampling all targets draw from one sampled layer:
        // the distinct new vertices per hop are bounded by the budget no
        // matter how many targets there are (unlike node-wise fanout).
        let g = complete(100);
        let s = LayerWiseSampler::new(&g, vec![5]);
        let seeds: Vec<u32> = (0..30).collect();
        let mfg = s.sample(&seeds, &mut rng(4));
        assert!(mfg.num_nodes() <= 35, "nodes {}", mfg.num_nodes());
    }

    #[test]
    fn small_union_takes_everything() {
        let g = ring_with_chords(8, 1);
        let s = LayerWiseSampler::new(&g, vec![100]);
        let mfg = s.sample(&[0], &mut rng(5));
        // Vertex 0's whole neighborhood {1, 7} is sampled.
        assert_eq!(mfg.layer_adj(1).neighbors(0).len(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = GeneratorConfig::rmat(128, 1000).seed(6).build();
        let s = LayerWiseSampler::new(&g, vec![10, 10]);
        let a = s.sample(&[1, 2, 3], &mut rng(7));
        let b = s.sample(&[1, 2, 3], &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate seed")]
    fn duplicate_seeds_rejected() {
        let g = complete(5);
        LayerWiseSampler::new(&g, vec![2]).sample(&[1, 1], &mut rng(8));
    }
}
