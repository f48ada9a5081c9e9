//! Standard experiment datasets and the Table-3 workloads built on them.
//!
//! The stand-ins (`papers_sim` etc.) keep the paper's train/val/test
//! skew (papers100M is ~99% unlabeled) and serve both the
//! communication-volume experiments (Figure 2) and the timing sweeps.
//! At 1/1000 scale the paper's 1.1% train fraction with its batch size
//! would leave ~4 distributed rounds per epoch — pipeline fill, not
//! throughput — so each [`Workload`] carries a per-machine batch size
//! scaled down to keep ≥ 20 rounds per simulated epoch (recorded in
//! EXPERIMENTS.md, Table 3).

use spp_graph::dataset::SyntheticSpec;
use spp_graph::Dataset;

/// Scaled stand-in for `ogbn-products` (paper: 2.4M vertices, avg degree
/// 51, 100 features, 8.2%/1.6%/90% split).
pub fn products_sim(scale: f64, seed: u64) -> Dataset {
    let n = ((24_000.0 * scale) as usize).max(512);
    SyntheticSpec::new("products-sim", n, 51.0, 50, 16)
        .split_fractions(0.082, 0.016, 0.9)
        .homophily(0.9)
        .degree_tail(1.3)
        .seed(seed)
        .build()
}

/// Scaled stand-in for `ogbn-papers100M` (paper: 111M vertices, avg
/// degree 29, 128 features, 1.1%/0.11%/0.19% split).
pub fn papers_sim(scale: f64, seed: u64) -> Dataset {
    let n = ((110_000.0 * scale) as usize).max(512);
    SyntheticSpec::new("papers-sim", n, 29.0, 64, 32)
        .split_fractions(0.011, 0.0011, 0.0019)
        .homophily(0.93)
        .degree_tail(1.2)
        .seed(seed)
        .build()
}

/// Scaled stand-in for `mag240c` (paper: 121M vertices, avg degree 21.5,
/// 768 features — 6× papers' dimension).
pub fn mag240_sim(scale: f64, seed: u64) -> Dataset {
    let n = ((60_000.0 * scale) as usize).max(512);
    SyntheticSpec::new("mag240-sim", n, 21.5, 384, 32)
        .split_fractions(0.009, 0.0011, 0.0007)
        .homophily(0.93)
        .degree_tail(1.2)
        .seed(seed)
        .build()
}

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
        let p = products_sim(0.05, 1);
        assert_eq!(p.features.dim(), 50);
        let q = papers_sim(0.02, 1);
        assert_eq!(q.features.dim(), 64);
        assert!(q.split.train.len() * 50 < q.num_vertices());
        let m = mag240_sim(0.02, 1);
        assert_eq!(m.features.dim(), 384);
    }

    #[test]
    fn workloads_match_table3() {
        for w in WORKLOADS {
            assert_eq!(w.fanouts.len(), if w.hidden == 1024 { 2 } else { 3 });
            assert!((w.build)(0.02, 1).name.starts_with(w.name));
        }
    }
}
