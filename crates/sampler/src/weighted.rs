//! Non-uniform (weighted) node-wise sampling.
//!
//! GraphSAGE samples neighbors uniformly, but the paper's Proposition 1
//! "applies to any initial sampling and hop-wise transition probability
//! function for node-wise sampling", with non-uniform models
//! "accommodated via the corresponding transition probability matrix".
//! This module provides the sampling side of that generality: each edge
//! carries a weight, and every hop samples up to `fanout` *distinct*
//! neighbors by successive weighted draws without replacement.

use crate::sample::expand;
use crate::{Fanouts, Mfg};
use rand::Rng;
use spp_graph::{CsrGraph, VertexId};

/// Per-edge sampling weights aligned with a graph's CSR edge order.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeWeights {
    weights: Vec<f32>,
}

impl EdgeWeights {
    /// Uniform weights (reduces weighted sampling to the uniform case).
    pub fn uniform(graph: &CsrGraph) -> Self {
        Self {
            weights: vec![1.0; graph.num_edges()],
        }
    }

    /// Derives weights from a per-vertex attractiveness score: the weight
    /// of edge `(v, u)` is `score[u]`. Models samplers biased toward
    /// high-importance neighbors (e.g. degree- or VIP-biased sampling).
    ///
    /// # Panics
    ///
    /// Panics if `score.len() != graph.num_vertices()` or any score is
    /// not positive and finite.
    pub fn from_target_scores(graph: &CsrGraph, score: &[f32]) -> Self {
        assert_eq!(score.len(), graph.num_vertices(), "one score per vertex");
        assert!(
            score.iter().all(|s| s.is_finite() && *s > 0.0),
            "scores must be positive and finite"
        );
        let weights = graph.col().iter().map(|&u| score[u as usize]).collect();
        Self { weights }
    }

    /// The weights of `v`'s out-edges, aligned with `graph.neighbors(v)`.
    pub fn of(&self, graph: &CsrGraph, v: VertexId) -> &[f32] {
        &self.weights[graph.neighbor_range(v)]
    }

    /// The transition probability `t(u, v)` that `v` includes `u` among
    /// `fanout` weighted draws without replacement — approximated by the
    /// complement of the independent-miss product
    /// `1 - (1 - w_u/W)^fanout`, which is exact for fanout 1 and an upper
    /// bound that stays within a few percent of the true
    /// without-replacement probability for the small fanouts GNNs use.
    /// This is the matrix entry the generalized VIP model consumes.
    pub fn transition_probability(
        &self,
        graph: &CsrGraph,
        v: VertexId,
        u: VertexId,
        fanout: usize,
    ) -> f64 {
        let neigh = graph.neighbors(v);
        if neigh.len() <= fanout {
            return if neigh.contains(&u) { 1.0 } else { 0.0 };
        }
        let ws = self.of(graph, v);
        let total: f64 = ws.iter().map(|&w| w as f64).sum();
        match neigh.binary_search(&u) {
            Ok(i) => {
                let p1 = ws[i] as f64 / total;
                1.0 - (1.0 - p1).powi(fanout as i32)
            }
            Err(_) => 0.0,
        }
    }
}

/// Node-wise sampler drawing neighbors proportionally to edge weights,
/// without replacement.
///
/// # Example
///
/// ```
/// use spp_graph::generate::complete;
/// use spp_sampler::weighted::{EdgeWeights, WeightedNodeWiseSampler};
/// use spp_sampler::Fanouts;
/// use rand::SeedableRng;
///
/// let g = complete(10);
/// let w = EdgeWeights::uniform(&g);
/// let s = WeightedNodeWiseSampler::new(&g, &w, Fanouts::new(vec![3]));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mfg = s.sample(&[0], &mut rng);
/// assert_eq!(mfg.layer_adj(1).neighbors(0).len(), 3);
/// ```
#[derive(Debug)]
pub struct WeightedNodeWiseSampler<'g> {
    graph: &'g CsrGraph,
    weights: &'g EdgeWeights,
    fanouts: Fanouts,
}

impl<'g> WeightedNodeWiseSampler<'g> {
    /// Creates a weighted sampler.
    pub fn new(graph: &'g CsrGraph, weights: &'g EdgeWeights, fanouts: Fanouts) -> Self {
        Self {
            graph,
            weights,
            fanouts,
        }
    }

    /// The configured fanouts.
    pub fn fanouts(&self) -> &Fanouts {
        &self.fanouts
    }

    /// Samples the expanded neighborhood of `seeds` (same MFG contract as
    /// the uniform sampler).
    ///
    /// # Panics
    ///
    /// Panics on duplicate seeds.
    pub fn sample<R: Rng>(&self, seeds: &[VertexId], rng: &mut R) -> Mfg {
        expand(
            &self.fanouts,
            self.graph.num_vertices(),
            seeds,
            |v, fanout, out| {
                self.sample_weighted(v, fanout, rng, out);
            },
        )
    }

    /// Weighted draws without replacement via repeated inverse-CDF over
    /// the remaining mass (A-Res would be asymptotically better; degrees
    /// here are small enough that the simple scheme wins).
    fn sample_weighted<R: Rng>(
        &self,
        v: VertexId,
        fanout: usize,
        rng: &mut R,
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        let neigh = self.graph.neighbors(v);
        if neigh.len() <= fanout {
            out.extend_from_slice(neigh);
            return;
        }
        let ws = self.weights.of(self.graph, v);
        let mut remaining: Vec<f64> = ws.iter().map(|&w| w as f64).collect();
        let mut total: f64 = remaining.iter().sum();
        for _ in 0..fanout {
            let mut x = rng.gen::<f64>() * total;
            let mut pick = remaining.len() - 1;
            for (i, &w) in remaining.iter().enumerate() {
                if w <= 0.0 {
                    continue;
                }
                if x < w {
                    pick = i;
                    break;
                }
                x -= w;
            }
            out.push(neigh[pick]);
            total -= remaining[pick];
            remaining[pick] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spp_graph::generate::{complete, star};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_weights_behave_like_uniform_sampler() {
        let g = complete(20);
        let w = EdgeWeights::uniform(&g);
        let s = WeightedNodeWiseSampler::new(&g, &w, Fanouts::new(vec![4, 2]));
        let mfg = s.sample(&[0, 3], &mut rng(1));
        mfg.validate().unwrap();
        assert_eq!(mfg.num_seeds(), 2);
        for (h, adj) in mfg.hops.iter().enumerate() {
            let f = s.fanouts().hop(h + 1);
            for t in 0..adj.num_targets {
                assert!(adj.neighbors(t).len() <= f);
            }
        }
    }

    #[test]
    fn heavy_weights_are_sampled_more_often() {
        // Vertex 0's neighbors 1..=10; neighbor 1 has 50x the weight.
        let g = complete(11);
        let mut score = vec![1.0f32; 11];
        score[1] = 50.0;
        let w = EdgeWeights::from_target_scores(&g, &score);
        let s = WeightedNodeWiseSampler::new(&g, &w, Fanouts::new(vec![2]));
        let mut r = rng(2);
        let mut count1 = 0;
        let trials = 500;
        for _ in 0..trials {
            let mfg = s.sample(&[0], &mut r);
            if mfg.nodes.contains(&1) {
                count1 += 1;
            }
        }
        assert!(
            count1 > (trials * 85) / 100,
            "heavy neighbor sampled only {count1}/{trials}"
        );
    }

    #[test]
    fn draws_are_distinct() {
        let g = complete(30);
        let w = EdgeWeights::uniform(&g);
        let s = WeightedNodeWiseSampler::new(&g, &w, Fanouts::new(vec![10]));
        let mfg = s.sample(&[0], &mut rng(3));
        let adj = mfg.layer_adj(1);
        let mut picked: Vec<u32> = adj.neighbors(0).to_vec();
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 10);
    }

    #[test]
    fn low_degree_takes_everything() {
        let g = star(6);
        let w = EdgeWeights::uniform(&g);
        let s = WeightedNodeWiseSampler::new(&g, &w, Fanouts::new(vec![10]));
        let mfg = s.sample(&[0], &mut rng(4));
        assert_eq!(mfg.num_nodes(), 6);
    }

    #[test]
    fn transition_probability_extremes() {
        let g = complete(5);
        let w = EdgeWeights::uniform(&g);
        // fanout >= degree: certain.
        assert_eq!(w.transition_probability(&g, 0, 1, 10), 1.0);
        // non-neighbor: zero.
        assert_eq!(w.transition_probability(&g, 0, 0, 2), 0.0);
        // fanout 1 uniform over 4 neighbors: 1/4.
        let p = w.transition_probability(&g, 0, 1, 1);
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn transition_probability_tracks_weights() {
        let g = complete(5);
        let mut score = vec![1.0f32; 5];
        score[1] = 3.0;
        let w = EdgeWeights::from_target_scores(&g, &score);
        // From vertex 0: neighbor weights [3,1,1,1] (vertices 1..4).
        let p_heavy = w.transition_probability(&g, 0, 1, 1);
        let p_light = w.transition_probability(&g, 0, 2, 1);
        assert!((p_heavy - 0.5).abs() < 1e-12);
        assert!((p_light - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scores must be positive")]
    fn rejects_nonpositive_weights() {
        let g = complete(3);
        EdgeWeights::from_target_scores(&g, &[1.0, 0.0, 1.0]);
    }
}
