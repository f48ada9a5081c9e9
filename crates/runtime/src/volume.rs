//! Communication-volume measurement (the Figure 2 experiment).
//!
//! Runs real node-wise sampling over the per-partition minibatch streams
//! and counts, for every machine, how often each vertex appears in its
//! sampled neighborhoods. Given those counts, the per-epoch remote
//! communication volume of *any* static cache is a cheap sum — so one
//! measurement pass evaluates every policy and every replication factor,
//! exactly like the paper's simulation harness. The counts also provide
//! the retrospective "oracle" ranking (the communication lower bound).

use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_core::StaticCache;
use spp_graph::{CsrGraph, VertexId};
use spp_partition::Partitioning;
use spp_sampler::{Fanouts, MinibatchIter, NodeWiseSampler};

/// Per-machine, per-vertex sampled-access counts over some number of
/// measured epochs (original vertex-id space).
///
/// # Example
///
/// ```
/// use spp_graph::generate::GeneratorConfig;
/// use spp_partition::simple::block_partition;
/// use spp_runtime::AccessCounts;
/// use spp_sampler::Fanouts;
///
/// let g = GeneratorConfig::erdos_renyi(100, 500).seed(1).build();
/// let part = block_partition(100, 2);
/// let train = vec![vec![0, 1, 2, 3], vec![50, 51, 52, 53]];
/// let counts = AccessCounts::measure(&g, &train, &Fanouts::new(vec![3, 3]), 2, 1, 7);
/// assert!(counts.no_cache_volume(&part) > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct AccessCounts {
    /// `counts[k][v]` = number of times vertex `v` appeared in machine
    /// `k`'s sampled neighborhoods.
    pub counts: Vec<Vec<u64>>,
    /// Number of measured epochs.
    pub epochs: usize,
}

impl AccessCounts {
    /// Measures access counts by sampling `epochs` epochs of every
    /// machine's minibatch stream.
    pub fn measure(
        graph: &CsrGraph,
        train_of_part: &[Vec<VertexId>],
        fanouts: &Fanouts,
        batch_size: usize,
        epochs: usize,
        seed: u64,
    ) -> Self {
        let n = graph.num_vertices();
        // Machines sample independent streams; run one thread per machine
        // (shared-memory parallel batch preparation, as in SALIENT).
        let measure_one = |k: usize, train: &[VertexId]| {
            let sampler = NodeWiseSampler::new(graph, fanouts.clone());
            let mut rng = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37));
            let mut c = vec![0u64; n];
            for e in 0..epochs {
                for batch in MinibatchIter::new(train, batch_size, seed ^ k as u64, e as u64) {
                    let mfg = sampler.sample(&batch, &mut rng);
                    for &v in &mfg.nodes {
                        c[v as usize] += 1;
                    }
                }
            }
            c
        };
        // Pool jobs, never one unbounded thread per machine.
        let counts = crate::pool::WorkerPool::global()
            .run_jobs(train_of_part.len(), |k| measure_one(k, &train_of_part[k]));
        Self { counts, epochs }
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.counts.len()
    }

    /// Average per-epoch remote communication volume (in vertices) for
    /// machine `k` under `cache`: accesses to vertices that are neither
    /// local nor cached.
    pub fn machine_volume(
        &self,
        partitioning: &Partitioning,
        k: usize,
        cache: &StaticCache,
    ) -> f64 {
        let total: u64 = self.counts[k]
            .iter()
            .enumerate()
            .filter(|&(v, _)| {
                partitioning.part_of(v as VertexId) != k as u32 && !cache.contains(v as VertexId)
            })
            .map(|(_, &c)| c)
            .sum();
        total as f64 / self.epochs.max(1) as f64
    }

    /// Total average per-epoch remote volume across machines under the
    /// given per-machine caches.
    pub fn total_volume(&self, partitioning: &Partitioning, caches: &[StaticCache]) -> f64 {
        assert_eq!(caches.len(), self.num_machines(), "one cache per machine");
        (0..self.num_machines())
            .map(|k| self.machine_volume(partitioning, k, &caches[k]))
            .sum()
    }

    /// Remote volume with no caching (Figure 2's upper bound).
    pub fn no_cache_volume(&self, partitioning: &Partitioning) -> f64 {
        let empty: Vec<StaticCache> = (0..self.num_machines())
            .map(|_| StaticCache::empty())
            .collect();
        self.total_volume(partitioning, &empty)
    }

    /// The oracle ranking for machine `k`: remote vertices by descending
    /// measured access count (ties by id). Prefix caches of this ranking
    /// are communication-optimal for the measured run.
    pub fn oracle_ranking(&self, partitioning: &Partitioning, k: usize) -> Vec<VertexId> {
        let mut remote: Vec<VertexId> = (0..self.counts[k].len() as VertexId)
            .filter(|&v| partitioning.part_of(v) != k as u32 && self.counts[k][v as usize] > 0)
            .collect();
        remote.sort_by(|&a, &b| {
            self.counts[k][b as usize]
                .cmp(&self.counts[k][a as usize])
                .then(a.cmp(&b))
        });
        remote
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::generate::GeneratorConfig;
    use spp_partition::simple::block_partition;

    fn fixture() -> (CsrGraph, Partitioning, Vec<Vec<VertexId>>) {
        let g = GeneratorConfig::planted_partition(300, 2400, 2, 0.8)
            .seed(1)
            .build();
        let p = block_partition(300, 2);
        let train = vec![(0..60).collect(), (150..210).collect()];
        (g, p, train)
    }

    #[test]
    fn counts_cover_seeds() {
        let (g, _, train) = fixture();
        let ac = AccessCounts::measure(&g, &train, &Fanouts::new(vec![3, 3]), 16, 2, 5);
        // Every train vertex is a seed at least once per epoch.
        for (k, t) in train.iter().enumerate() {
            for &v in t {
                assert!(ac.counts[k][v as usize] >= 2, "seed {v} undercounted");
            }
        }
    }

    #[test]
    fn caching_reduces_volume_monotonically() {
        let (g, p, train) = fixture();
        let ac = AccessCounts::measure(&g, &train, &Fanouts::new(vec![5, 5]), 16, 2, 6);
        let none = ac.no_cache_volume(&p);
        assert!(none > 0.0);
        // Cache the oracle prefix of growing size: volume must shrink.
        let mut prev = none;
        for cap in [10usize, 40, 80] {
            let caches: Vec<StaticCache> = (0..2)
                .map(|k| {
                    let r = ac.oracle_ranking(&p, k);
                    StaticCache::from_members(&r[..cap.min(r.len())])
                })
                .collect();
            let vol = ac.total_volume(&p, &caches);
            assert!(vol <= prev + 1e-9, "volume must not grow with cache size");
            prev = vol;
        }
    }

    #[test]
    fn oracle_beats_or_ties_reverse_oracle() {
        let (g, p, train) = fixture();
        let ac = AccessCounts::measure(&g, &train, &Fanouts::new(vec![5, 5]), 16, 2, 7);
        let cap = 30;
        let oracle: Vec<StaticCache> = (0..2)
            .map(|k| {
                let r = ac.oracle_ranking(&p, k);
                StaticCache::from_members(&r[..cap.min(r.len())])
            })
            .collect();
        let anti: Vec<StaticCache> = (0..2)
            .map(|k| {
                let mut r = ac.oracle_ranking(&p, k);
                r.reverse();
                StaticCache::from_members(&r[..cap.min(r.len())])
            })
            .collect();
        assert!(ac.total_volume(&p, &oracle) <= ac.total_volume(&p, &anti));
    }

    #[test]
    fn volume_is_per_epoch_average() {
        let (g, p, train) = fixture();
        let a1 = AccessCounts::measure(&g, &train, &Fanouts::new(vec![3]), 16, 1, 8);
        let a4 = AccessCounts::measure(&g, &train, &Fanouts::new(vec![3]), 16, 4, 8);
        let v1 = a1.no_cache_volume(&p);
        let v4 = a4.no_cache_volume(&p);
        // Averages should be comparable (within 30%), not 4× apart.
        assert!(v4 < v1 * 1.3 && v4 > v1 * 0.7, "v1={v1} v4={v4}");
    }
}
