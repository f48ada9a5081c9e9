//! Standard experiment datasets and the Table-3 workloads built on them.
//!
//! The stand-ins ([`spp_graph::dataset::papers_sim`] etc.) keep the
//! paper's train/val/test skew (papers100M is ~99% unlabeled) and serve both the
//! communication-volume experiments (Figure 2) and the timing sweeps.
//! At 1/1000 scale the paper's 1.1% train fraction with its batch size
//! would leave ~4 distributed rounds per epoch — pipeline fill, not
//! throughput — so each [`Workload`] carries a per-machine batch size
//! scaled down to keep ≥ 20 rounds per simulated epoch (recorded in
//! EXPERIMENTS.md, Table 3).

use spp_graph::dataset::{mag240_sim, papers_sim, products_sim};
use spp_graph::Dataset;

/// One benchmark of the paper's evaluation: a stand-in data set with the
/// Table-3 architecture trained on it and the deployment Figure 4 runs
/// it at. Every sweep in `experiments` varies (K, α, β, policy, system)
/// around these.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Short label the figures print (`products`, `papers`, `mag240`).
    pub name: &'static str,
    /// Builds the stand-in at `(scale, seed)`.
    pub build: fn(f64, u64) -> Dataset,
    /// Training fanouts (one per GraphSAGE layer).
    pub fanouts: &'static [usize],
    /// Hidden width.
    pub hidden: usize,
    /// Per-machine minibatch size (scaled; see the module doc).
    pub batch: usize,
    /// Partition count of the paper's headline run (Figure 4).
    pub machines: usize,
    /// Replication factor α the paper uses at that partition count.
    pub alpha: f64,
}

/// `ogbn-products`: 3-layer, hidden 256, 4 partitions at α = 0.16.
pub const PRODUCTS: Workload = Workload {
    name: "products",
    build: products_sim,
    fanouts: &[15, 10, 5],
    hidden: 256,
    batch: 16,
    machines: 4,
    alpha: 0.16,
};

/// `ogbn-papers100M`: 3-layer, hidden 256, 8 partitions at α = 0.32.
pub const PAPERS: Workload = Workload {
    name: "papers",
    build: papers_sim,
    fanouts: &[15, 10, 5],
    hidden: 256,
    batch: 8,
    machines: 8,
    alpha: 0.32,
};

/// `mag240c`: 2-layer, hidden 1024, fanouts (25,15), 16 partitions at
/// α = 0.32.
pub const MAG240: Workload = Workload {
    name: "mag240",
    build: mag240_sim,
    fanouts: &[25, 15],
    hidden: 1024,
    batch: 4,
    machines: 16,
    alpha: 0.32,
};

/// The three workloads in the paper's order.
pub const WORKLOADS: [&Workload; 3] = [&PRODUCTS, &PAPERS, &MAG240];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shapes() {
        for (w, dim) in WORKLOADS.iter().zip([50, 64, 384]) {
            assert_eq!((w.build)(0.02, 1).features.dim(), dim, "{}", w.name);
        }
        let q = (PAPERS.build)(0.02, 1);
        assert!(q.split.train.len() * 50 < q.num_vertices());
    }

    #[test]
    fn workloads_match_table3() {
        for w in WORKLOADS {
            assert_eq!(w.fanouts.len(), if w.hidden == 1024 { 2 } else { 3 });
            assert!((w.build)(0.02, 1).name.starts_with(w.name));
        }
    }
}
