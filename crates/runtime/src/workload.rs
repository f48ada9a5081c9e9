//! Measured per-batch workload quantities shared by the timing
//! simulations ([`crate::systems`]).

use crate::setup::DistributedSetup;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_sampler::{MinibatchIter, NodeWiseSampler};

/// Per-round, per-machine workload quantities measured from real sampling
/// against the deployment's feature stores.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Sampled MFG edges (drives sampling cost).
    pub edges: usize,
    /// Rows already resident on GPU (no slice, no transfer).
    pub local_gpu: usize,
    /// Input rows feeding each GNN layer (drives FLOPs).
    pub layer_rows: Vec<usize>,
    /// Local rows in host memory (sliced + H2D).
    pub local_cpu: usize,
    /// Remote rows served by the local cache (host memory; H2D only).
    pub cached: usize,
    /// Rows fetched over the network.
    pub remote_total: usize,
    /// Remote rows per owning machine.
    pub remote_per_owner: Vec<usize>,
}

/// Samples one epoch of minibatches from each machine's seed stream —
/// its training split, or e.g. validation/test vertices for inference
/// epochs — and measures the per-batch quantities. With
/// `full_replication` the plan is overridden: every vertex is local,
/// split across GPU/CPU by the setup's β.
pub fn measure_streams(
    setup: &DistributedSetup,
    full_replication: bool,
    epoch: u64,
    streams: &[Vec<spp_graph::VertexId>],
) -> Vec<Vec<BatchStats>> {
    assert_eq!(
        streams.len(),
        setup.num_machines(),
        "one stream per machine"
    );
    let k = setup.num_machines();
    let fanouts = &setup.config.fanouts;
    let graph = &setup.dataset.graph;
    let measure_machine = |m: usize| {
        let sampler = NodeWiseSampler::new(graph, fanouts.clone());
        let mut rng = StdRng::seed_from_u64(setup.config.seed ^ (m as u64) ^ (epoch << 17));
        MinibatchIter::new(
            &streams[m],
            setup.config.batch_size,
            setup.config.seed ^ m as u64,
            epoch,
        )
        .map(|batch| {
            let mfg = sampler.sample(&batch, &mut rng);
            let layer_rows = mfg.layer_rows();
            if full_replication {
                let nodes = mfg.num_nodes();
                let gpu = (nodes as f64 * setup.config.beta).round() as usize;
                BatchStats {
                    edges: mfg.num_edges(),
                    layer_rows,
                    local_gpu: gpu,
                    local_cpu: nodes - gpu,
                    cached: 0,
                    remote_total: 0,
                    remote_per_owner: vec![0; k],
                }
            } else {
                let plan = setup.stores[m].plan(&mfg.nodes);
                BatchStats {
                    edges: mfg.num_edges(),
                    layer_rows,
                    local_gpu: plan.local_gpu.len(),
                    local_cpu: plan.local_cpu.len(),
                    cached: plan.cached.len(),
                    remote_total: plan.num_remote(),
                    remote_per_owner: plan.remote.iter().map(Vec::len).collect(),
                }
            }
        })
        .collect::<Vec<BatchStats>>()
    };
    // Machines sample independent streams; pool jobs, never one
    // unbounded thread per machine (SALIENT's shared-memory parallel
    // batch preparation, on the bounded worker budget).
    crate::pool::WorkerPool::global().run_jobs(k, measure_machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::SetupConfig;
    use spp_core::policies::CachePolicy;
    use spp_graph::dataset::SyntheticSpec;
    use spp_sampler::Fanouts;

    fn setup() -> DistributedSetup {
        let ds = SyntheticSpec::new("w", 600, 8.0, 8, 4)
            .split_fractions(0.2, 0.05, 0.05)
            .seed(1)
            .build();
        DistributedSetup::build(
            &ds,
            SetupConfig {
                num_machines: 2,
                fanouts: Fanouts::new(vec![4, 3]),
                batch_size: 16,
                policy: CachePolicy::VipAnalytic,
                alpha: 0.2,
                beta: 0.5,
                vip_reorder: true,
                seed: 2,
                ..SetupConfig::default()
            },
        )
    }

    #[test]
    fn partitioned_counts_are_consistent() {
        let s = setup();
        let stats = measure_streams(&s, false, 0, &s.local_train);
        assert_eq!(stats.len(), 2);
        for machine in &stats {
            for b in machine {
                let total = b.local_gpu + b.local_cpu + b.cached + b.remote_total;
                // Total classified = MFG nodes = layer input rows at depth L.
                assert_eq!(total, b.layer_rows[0]);
                assert_eq!(b.remote_per_owner.iter().sum::<usize>(), b.remote_total);
                assert!(b.layer_rows.windows(2).all(|w| w[0] >= w[1]));
            }
        }
    }

    #[test]
    fn full_replication_has_no_remote() {
        let s = setup();
        let stats = measure_streams(&s, true, 0, &s.local_train);
        for machine in &stats {
            for b in machine {
                assert_eq!(b.remote_total, 0);
                assert_eq!(b.cached, 0);
                // Beta = 0.5 splits locals roughly in half.
                let total = b.local_gpu + b.local_cpu;
                assert!(b.local_gpu.abs_diff(b.local_cpu) <= 1);
                assert_eq!(total, b.layer_rows[0]);
            }
        }
    }

    #[test]
    fn deterministic_per_epoch() {
        let s = setup();
        let a = measure_streams(&s, false, 3, &s.local_train);
        let b = measure_streams(&s, false, 3, &s.local_train);
        assert_eq!(a.len(), b.len());
        for (ma, mb) in a.iter().zip(&b) {
            for (x, y) in ma.iter().zip(mb) {
                assert_eq!(x.edges, y.edges);
                assert_eq!(x.remote_total, y.remote_total);
            }
        }
    }
}
