//! Counting remote feature volume under a partitioning and a cache
//! ranking: what Figure 2 and the partitioning ablations measure.

use spp_bench::datasets::PAPERS;
use spp_core::policies::{CachePolicy, PolicyContext};
use spp_core::{CacheBuilder, StaticCache};
use spp_graph::{Dataset, VertexId};
use spp_partition::Partitioning;
use spp_runtime::AccessCounts;
use spp_sampler::Fanouts;

/// Training vertices of each part.
pub fn train_by_part(ds: &Dataset, part: &Partitioning) -> Vec<Vec<VertexId>> {
    let mut train = vec![Vec::new(); part.num_parts()];
    for &v in &ds.split.train {
        train[part.part_of(v) as usize].push(v);
    }
    train
}

/// One partitioned, measured papers-sim run: everything a cache ranking
/// is built from and judged against.
pub struct Measured<'a> {
    pub ds: &'a Dataset,
    pub part: &'a Partitioning,
    pub train: &'a [Vec<VertexId>],
    pub fanouts: &'a Fanouts,
    pub counts: &'a AccessCounts,
}

impl Measured<'_> {
    /// Every part's remote vertices ranked by `policy` (the oracle ranks
    /// by the measured counts themselves).
    pub fn rankings(&self, policy: CachePolicy, seed: u64) -> Vec<Vec<VertexId>> {
        let rank = |p: usize| {
            if policy == CachePolicy::Oracle {
                return self.counts.oracle_ranking(self.part, p);
            }
            PolicyContext {
                graph: &self.ds.graph,
                partitioning: self.part,
                part: p as u32,
                local_train: &self.train[p],
                fanouts: self.fanouts.clone(),
                batch_size: PAPERS.batch,
                seed,
                oracle_counts: &[],
            }
            .rank(policy)
        };
        (0..self.part.num_parts()).map(rank).collect()
    }

    /// Per-epoch remote volume with each part caching the head of its
    /// ranking at replication factor `alpha`.
    pub fn cached_volume(&self, rankings: &[Vec<VertexId>], alpha: f64) -> f64 {
        let builder = CacheBuilder::new(alpha, self.ds.num_vertices(), self.part.num_parts());
        let caches: Vec<StaticCache> = rankings.iter().map(|r| builder.build(r)).collect();
        self.counts.total_volume(self.part, &caches)
    }
}
