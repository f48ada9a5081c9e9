//! Static caching policies compared in the paper's Figure 2.
//!
//! Every policy produces, for one partition, a ranking of the *remote*
//! vertices in descending priority; a cache of replication factor α then
//! keeps the top `αN/K` (see [`crate::cache`]). Rankings are computed per
//! partition (paper footnote 1), not from a single global score.

use crate::vip::VipModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_graph::{CsrGraph, VertexId};
use spp_partition::Partitioning;
use spp_sampler::{Fanouts, MinibatchIter, NodeWiseSampler};

/// Which caching policy to use for ranking remote vertices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// No caching at all (the communication upper bound).
    None,
    /// "deg.": degree ranking over remote vertices reachable within L hops
    /// of the partition's training set (Lin et al., 2020 / PaGraph).
    Degree,
    /// "1-hop": the partition's 1-hop halo, ranked by degree within it.
    OneHopHalo,
    /// "wPR": 5 iterations of weighted reverse PageRank with damping 0.85,
    /// seeded at the partition's training vertices (Min et al., 2021).
    WeightedReversePagerank,
    /// "#paths": number of paths of length ≤ L from any local training
    /// vertex.
    NumPaths,
    /// "sim.": empirical VIP estimates from counting accesses over a small
    /// number of simulated sampling epochs (Yang et al., 2022 / GNNLab).
    Simulation,
    /// "VIP": the analytic model of Proposition 1.
    VipAnalytic,
    /// "oracle": retrospective ranking by the actual access counts of the
    /// measured run (communication lower bound).
    Oracle,
}

impl CachePolicy {
    /// All policies, in the order Figure 2 lists them.
    pub const ALL: [CachePolicy; 8] = [
        CachePolicy::None,
        CachePolicy::Degree,
        CachePolicy::OneHopHalo,
        CachePolicy::WeightedReversePagerank,
        CachePolicy::NumPaths,
        CachePolicy::Simulation,
        CachePolicy::VipAnalytic,
        CachePolicy::Oracle,
    ];

    /// The short label used in the paper's figure.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::None => "none",
            CachePolicy::Degree => "deg.",
            CachePolicy::OneHopHalo => "1-hop",
            CachePolicy::WeightedReversePagerank => "wPR",
            CachePolicy::NumPaths => "#paths",
            CachePolicy::Simulation => "sim.",
            CachePolicy::VipAnalytic => "VIP",
            CachePolicy::Oracle => "oracle",
        }
    }
}

/// The one remote-ranking rule: the vertices outside `part` with a
/// positive score, by descending score, ties by id. Zero-score vertices
/// were never predicted (or measured) to be touched, so they are not
/// ranked.
pub fn rank_remote(partitioning: &Partitioning, part: u32, scores: &[f64]) -> Vec<VertexId> {
    let mut remote: Vec<VertexId> = (0..scores.len() as VertexId)
        .filter(|&v| partitioning.part_of(v) != part && scores[v as usize] > 0.0)
        .collect();
    remote.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then(a.cmp(&b))
    });
    remote
}

/// Everything a policy needs to rank one partition's remote vertices.
///
/// # Example
///
/// ```
/// use spp_core::policies::{CachePolicy, PolicyContext};
/// use spp_graph::generate::GeneratorConfig;
/// use spp_partition::simple::block_partition;
/// use spp_sampler::Fanouts;
///
/// let g = GeneratorConfig::erdos_renyi(60, 300).seed(2).build();
/// let part = block_partition(60, 2);
/// let train: Vec<u32> = (0..10).collect();
/// let ctx = PolicyContext {
///     graph: &g,
///     partitioning: &part,
///     part: 0,
///     local_train: &train,
///     fanouts: Fanouts::new(vec![3, 3]),
///     batch_size: 4,
///     seed: 1,
///     oracle_counts: &[],
/// };
/// let ranking = ctx.rank(CachePolicy::VipAnalytic);
/// // Only partition 1's vertices can be cached by partition 0.
/// assert!(ranking.iter().all(|&v| part.part_of(v) == 1));
/// ```
#[derive(Clone, Debug)]
pub struct PolicyContext<'a> {
    /// The full (symmetric) graph.
    pub graph: &'a CsrGraph,
    /// The partitioning.
    pub partitioning: &'a Partitioning,
    /// The partition this ranking is for.
    pub part: u32,
    /// This partition's training vertices.
    pub local_train: &'a [VertexId],
    /// Sampling fanouts.
    pub fanouts: Fanouts,
    /// Minibatch size.
    pub batch_size: usize,
    /// Seed for stochastic policies (simulation).
    pub seed: u64,
    /// For [`CachePolicy::Oracle`]: measured per-vertex access counts of
    /// the evaluation run itself (empty otherwise).
    pub oracle_counts: &'a [u64],
}

impl PolicyContext<'_> {
    /// Ranks this partition's remote vertices in descending cache
    /// priority under `policy`. [`CachePolicy::None`] returns an empty
    /// ranking.
    pub fn rank(&self, policy: CachePolicy) -> Vec<VertexId> {
        match policy {
            CachePolicy::None => Vec::new(),
            CachePolicy::Degree => self.rank_by_scores(&self.degree_reachable_scores()),
            CachePolicy::OneHopHalo => self.rank_by_scores(&self.one_hop_scores()),
            CachePolicy::WeightedReversePagerank => self.rank_by_scores(&self.wpr_scores(5, 0.85)),
            CachePolicy::NumPaths => self.rank_by_scores(&self.num_paths_scores()),
            CachePolicy::Simulation => self.rank_by_scores(&self.simulation_scores(2)),
            CachePolicy::VipAnalytic => self.rank_by_scores(&self.vip_scores()),
            CachePolicy::Oracle => {
                assert_eq!(
                    self.oracle_counts.len(),
                    self.graph.num_vertices(),
                    "oracle requires measured access counts"
                );
                let scores: Vec<f64> = self.oracle_counts.iter().map(|&c| c as f64).collect();
                self.rank_by_scores(&scores)
            }
        }
    }

    /// [`rank_remote`] over this partition's remote vertices.
    pub fn rank_by_scores(&self, scores: &[f64]) -> Vec<VertexId> {
        assert_eq!(
            scores.len(),
            self.graph.num_vertices(),
            "score size mismatch"
        );
        rank_remote(self.partitioning, self.part, scores)
    }

    /// Analytic VIP scores for this partition.
    pub fn vip_scores(&self) -> Vec<f64> {
        VipModel::new(self.fanouts.clone(), self.batch_size).scores(self.graph, self.local_train)
    }

    /// Degree scores masked to vertices reachable within L hops of the
    /// local training set.
    pub fn degree_reachable_scores(&self) -> Vec<f64> {
        let reach = self.reachable_within(self.fanouts.num_hops());
        (0..self.graph.num_vertices())
            .map(|v| {
                if reach[v] {
                    self.graph.degree(v as VertexId) as f64
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Degree scores masked to the partition's 1-hop halo.
    pub fn one_hop_scores(&self) -> Vec<f64> {
        let n = self.graph.num_vertices();
        let mut in_halo = vec![false; n];
        for v in 0..n as VertexId {
            if self.partitioning.part_of(v) != self.part {
                continue;
            }
            for &u in self.graph.neighbors(v) {
                if self.partitioning.part_of(u) != self.part {
                    in_halo[u as usize] = true;
                }
            }
        }
        (0..n)
            .map(|v| {
                if in_halo[v] {
                    // Rank within the halo by degree; +1 keeps degree-0
                    // halo members above the zero-score cutoff.
                    self.graph.degree(v as VertexId) as f64 + 1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Weighted reverse-PageRank scores: `iters` power iterations of
    /// `x ← (1-d)·s + d·Aᵀ D⁻¹ x` seeded at the local training set.
    pub fn wpr_scores(&self, iters: usize, damping: f64) -> Vec<f64> {
        let n = self.graph.num_vertices();
        let mut seed = vec![0.0f64; n];
        if self.local_train.is_empty() {
            return seed;
        }
        let s0 = 1.0 / self.local_train.len() as f64;
        for &v in self.local_train {
            seed[v as usize] = s0;
        }
        let mut x = seed.clone();
        for _ in 0..iters {
            let mut next = vec![0.0f64; n];
            for v in 0..n as VertexId {
                let xv = x[v as usize];
                if xv == 0.0 {
                    continue;
                }
                let share = damping * xv / self.graph.degree(v).max(1) as f64;
                for &u in self.graph.neighbors(v) {
                    next[u as usize] += share;
                }
            }
            for v in 0..n {
                next[v] += (1.0 - damping) * seed[v];
            }
            x = next;
        }
        x
    }

    /// Path-count scores: Σ_{h=1..L} (number of length-h paths from any
    /// local training vertex), computed by L sparse matrix-vector sweeps.
    pub fn num_paths_scores(&self) -> Vec<f64> {
        let n = self.graph.num_vertices();
        let mut prev = vec![0.0f64; n];
        for &v in self.local_train {
            prev[v as usize] = 1.0;
        }
        let mut total = vec![0.0f64; n];
        for _ in 0..self.fanouts.num_hops() {
            let mut cur = vec![0.0f64; n];
            for v in 0..n as VertexId {
                let pv = prev[v as usize];
                if pv == 0.0 {
                    continue;
                }
                for &u in self.graph.neighbors(v) {
                    cur[u as usize] += pv;
                }
            }
            for v in 0..n {
                total[v] += cur[v];
            }
            // Rescale to dodge overflow on dense graphs; only relative
            // order matters.
            let mx = cur.iter().cloned().fold(0.0f64, f64::max);
            if mx > 1e100 {
                for c in &mut cur {
                    *c /= mx;
                }
            }
            prev = cur;
        }
        total
    }

    /// Empirical VIP estimates: per-vertex access counts over `epochs`
    /// simulated sampling epochs on this partition's minibatch stream.
    pub fn simulation_scores(&self, epochs: usize) -> Vec<f64> {
        let mut counts = vec![0.0f64; self.graph.num_vertices()];
        let sampler = NodeWiseSampler::new(self.graph, self.fanouts.clone());
        let mut rng = StdRng::seed_from_u64(self.seed);
        for e in 0..epochs {
            for batch in MinibatchIter::new(self.local_train, self.batch_size, self.seed, e as u64)
            {
                let mfg = sampler.sample(&batch, &mut rng);
                for &v in &mfg.nodes {
                    counts[v as usize] += 1.0;
                }
            }
        }
        counts
    }

    /// Vertices within `hops` hops of the local training set (BFS).
    fn reachable_within(&self, hops: usize) -> Vec<bool> {
        let n = self.graph.num_vertices();
        let mut dist = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for &v in self.local_train {
            dist[v as usize] = 0;
            queue.push_back(v);
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v as usize];
            if d == hops {
                continue;
            }
            for &u in self.graph.neighbors(v) {
                if dist[u as usize] == usize::MAX {
                    dist[u as usize] = d + 1;
                    queue.push_back(u);
                }
            }
        }
        dist.into_iter().map(|d| d != usize::MAX).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::generate::GeneratorConfig;
    use spp_partition::simple::block_partition;

    fn ctx<'a>(
        graph: &'a CsrGraph,
        partitioning: &'a Partitioning,
        local_train: &'a [VertexId],
    ) -> PolicyContext<'a> {
        PolicyContext {
            graph,
            partitioning,
            part: 0,
            local_train,
            fanouts: Fanouts::new(vec![3, 3]),
            batch_size: 8,
            seed: 11,
            oracle_counts: &[],
        }
    }

    fn test_graph() -> CsrGraph {
        GeneratorConfig::planted_partition(200, 1600, 2, 0.7)
            .seed(6)
            .build()
    }

    #[test]
    fn rankings_contain_only_remote_vertices() {
        let g = test_graph();
        let p = block_partition(200, 2);
        let train: Vec<VertexId> = (0..40).collect();
        let c = ctx(&g, &p, &train);
        for policy in [
            CachePolicy::Degree,
            CachePolicy::OneHopHalo,
            CachePolicy::WeightedReversePagerank,
            CachePolicy::NumPaths,
            CachePolicy::Simulation,
            CachePolicy::VipAnalytic,
        ] {
            let rank = c.rank(policy);
            assert!(
                rank.iter().all(|&v| p.part_of(v) == 1),
                "{policy:?} ranked a local vertex"
            );
            assert!(!rank.is_empty(), "{policy:?} ranked nothing");
            // No duplicates.
            let mut sorted = rank.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), rank.len(), "{policy:?} has duplicates");
        }
    }

    #[test]
    fn none_policy_ranks_nothing() {
        let g = test_graph();
        let p = block_partition(200, 2);
        let train: Vec<VertexId> = (0..40).collect();
        assert!(ctx(&g, &p, &train).rank(CachePolicy::None).is_empty());
    }

    #[test]
    fn vip_ranking_orders_by_score() {
        let g = test_graph();
        let p = block_partition(200, 2);
        let train: Vec<VertexId> = (0..40).collect();
        let c = ctx(&g, &p, &train);
        let scores = c.vip_scores();
        let rank = c.rank(CachePolicy::VipAnalytic);
        for w in rank.windows(2) {
            assert!(scores[w[0] as usize] >= scores[w[1] as usize]);
        }
    }

    #[test]
    fn one_hop_halo_matches_metrics_halo() {
        let g = test_graph();
        let p = block_partition(200, 2);
        let train: Vec<VertexId> = (0..40).collect();
        let c = ctx(&g, &p, &train);
        let mut rank = c.rank(CachePolicy::OneHopHalo);
        rank.sort_unstable();
        let halos = spp_partition::metrics::one_hop_halos(&g, &p);
        assert_eq!(rank, halos[0]);
    }

    #[test]
    fn oracle_requires_counts() {
        let g = test_graph();
        let p = block_partition(200, 2);
        let train: Vec<VertexId> = (0..40).collect();
        let counts = vec![3u64; 200];
        let mut c = ctx(&g, &p, &train);
        c.oracle_counts = &counts;
        let rank = c.rank(CachePolicy::Oracle);
        assert_eq!(rank.len(), 100); // all remote vertices accessed
    }

    #[test]
    #[should_panic(expected = "oracle requires measured access counts")]
    fn oracle_panics_without_counts() {
        let g = test_graph();
        let p = block_partition(200, 2);
        let train: Vec<VertexId> = (0..40).collect();
        ctx(&g, &p, &train).rank(CachePolicy::Oracle);
    }

    #[test]
    fn simulation_counts_scale_with_epochs() {
        let g = test_graph();
        let p = block_partition(200, 2);
        let train: Vec<VertexId> = (0..40).collect();
        let c = ctx(&g, &p, &train);
        let s1: f64 = c.simulation_scores(1).iter().sum();
        let s4: f64 = c.simulation_scores(4).iter().sum();
        assert!(s4 > 2.0 * s1);
    }

    #[test]
    fn wpr_mass_stays_near_train_set() {
        let g = test_graph();
        let p = block_partition(200, 2);
        let train: Vec<VertexId> = (0..40).collect();
        let c = ctx(&g, &p, &train);
        let x = c.wpr_scores(5, 0.85);
        let train_mass: f64 = train.iter().map(|&v| x[v as usize]).sum();
        let total: f64 = x.iter().sum();
        assert!(train_mass > 0.1 * total);
    }

    #[test]
    fn num_paths_zero_beyond_l_hops() {
        // Path graph: train at one end, L=2 → vertices >2 hops away score 0.
        let mut b = spp_graph::GraphBuilder::new(6);
        for v in 0..5u32 {
            b.add_undirected_edge(v, v + 1);
        }
        let g = b.build();
        let p = block_partition(6, 2);
        let train = vec![0u32];
        let c = ctx(&g, &p, &train);
        let s = c.num_paths_scores();
        assert!(s[1] > 0.0 && s[2] > 0.0);
        assert_eq!(s[4], 0.0);
        assert_eq!(s[5], 0.0);
    }
}
