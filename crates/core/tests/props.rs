//! Property-based tests for VIP analysis, caching, and the feature store.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use proptest::prelude::*;
use spp_core::feature_store::{FeatureLocation, PartitionedFeatureStore};
use spp_core::{CacheBuilder, ReorderedLayout, StaticCache, SweepStrategy, VipModel};
use spp_graph::generate::GeneratorConfig;
use spp_graph::{FeatureMatrix, QuantScheme, VertexId};
use spp_partition::simple::block_partition;
use spp_pool::WorkerPool;
use spp_sampler::Fanouts;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vip_values_are_probabilities(
        n in 8usize..128,
        m in 1usize..500,
        f1 in 1usize..10,
        f2 in 1usize..10,
        batch in 1usize..16,
        train_len in 1usize..32,
        seed in 0u64..500,
    ) {
        let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
        let train: Vec<VertexId> = (0..train_len.min(n) as u32).collect();
        let p = VipModel::new(Fanouts::new(vec![f1, f2]), batch).scores(&g, &train);
        prop_assert_eq!(p.len(), n);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x) && x.is_finite()));
    }

    #[test]
    fn vip_monotone_in_fanout(
        n in 16usize..96,
        m in 10usize..400,
        f in 1usize..6,
        seed in 0u64..200,
    ) {
        let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
        let train: Vec<VertexId> = (0..(n / 4).max(1) as u32).collect();
        let small = VipModel::new(Fanouts::new(vec![f, f]), 4).scores(&g, &train);
        let large = VipModel::new(Fanouts::new(vec![f + 2, f + 2]), 4).scores(&g, &train);
        for (s, l) in small.iter().zip(&large) {
            prop_assert!(l >= &(s - 1e-12));
        }
    }

    #[test]
    fn vip_hop_scores_are_probabilities(
        n in 8usize..96,
        m in 1usize..400,
        f1 in 1usize..8,
        f2 in 1usize..8,
        batch in 1usize..12,
        seed in 0u64..300,
    ) {
        let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
        let train: Vec<VertexId> = (0..(n / 3).max(1) as u32).collect();
        let model = VipModel::new(Fanouts::new(vec![f1, f2]), batch);
        let p0 = model.initial_probabilities(n, &train);
        for hop in model.hop_scores(&g, &p0) {
            prop_assert_eq!(hop.len(), n);
            prop_assert!(hop.iter().all(|&x| (0.0..=1.0).contains(&x) && x.is_finite()));
        }
    }

    #[test]
    fn vip_monotone_in_batch_size(
        n in 16usize..96,
        m in 10usize..400,
        batch in 1usize..12,
        extra in 1usize..8,
        seed in 0u64..200,
    ) {
        let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
        let train: Vec<VertexId> = (0..(n / 4).max(2) as u32).collect();
        let fanouts = Fanouts::new(vec![3, 3]);
        let small = VipModel::new(fanouts.clone(), batch).scores(&g, &train);
        let large = VipModel::new(fanouts, batch + extra).scores(&g, &train);
        // A larger minibatch can only raise each vertex's chance of
        // appearing in the sampled neighborhood.
        for (s, l) in small.iter().zip(&large) {
            prop_assert!(l >= &(s - 1e-12), "batch monotonicity violated: {s} > {l}");
        }
    }

    #[test]
    fn vip_deterministic_across_shuffled_adjacency(
        n in 8usize..64,
        m in 1usize..300,
        rot in 1usize..977,
        seed in 0u64..200,
    ) {
        // Present the same edge set in a different order; the CSR build
        // canonicalizes (sorted rows, deduped), so VIP scores must be
        // bit-identical — replicas that ingest differently-ordered edge
        // lists must agree on cache rankings.
        let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
        let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let mut b = spp_graph::GraphBuilder::with_capacity(n, edges.len());
        let shift = rot % edges.len().max(1);
        for &(src, dst) in edges[shift..].iter().chain(&edges[..shift]).rev() {
            b.add_edge(src, dst);
        }
        let g2 = b.build();
        prop_assert_eq!(&g, &g2);
        let train: Vec<VertexId> = (0..(n / 3).max(1) as u32).collect();
        let model = VipModel::new(Fanouts::new(vec![4, 2]), 4);
        let p1 = model.scores(&g, &train);
        let p2 = model.scores(&g2, &train);
        // Bit-exact, not approximately equal: the sweep must not depend
        // on input presentation order.
        prop_assert!(p1.iter().zip(&p2).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn hop_zero_probability_only_on_train(
        n in 8usize..64,
        batch in 1usize..8,
        train_len in 1usize..16,
    ) {
        let model = VipModel::new(Fanouts::new(vec![3]), batch);
        let train: Vec<VertexId> = (0..train_len.min(n) as u32).collect();
        let p0 = model.initial_probabilities(n, &train);
        for v in 0..n as u32 {
            if train.contains(&v) {
                prop_assert!(p0[v as usize] > 0.0);
            } else {
                prop_assert_eq!(p0[v as usize], 0.0);
            }
        }
    }

    #[test]
    fn cache_capacity_never_exceeded(
        alpha in 0.0f64..2.0,
        n in 8usize..256,
        k in 1usize..9,
        ranking_len in 0usize..128,
    ) {
        let builder = CacheBuilder::new(alpha, n, k);
        let ranking: Vec<VertexId> = (0..ranking_len as u32).collect();
        let cache = builder.build(&ranking);
        prop_assert!(cache.len() <= builder.capacity());
        prop_assert!(cache.len() <= ranking.len());
        // Members are exactly the top prefix.
        for (i, &v) in cache.members().iter().enumerate() {
            prop_assert_eq!(v as usize, i);
        }
    }

    #[test]
    fn store_locations_partition_all_vertices(
        n in 12usize..96,
        k in 2usize..5,
        beta in 0.0f64..1.0,
        cache_size in 0usize..16,
    ) {
        let part = block_partition(n, k);
        let layout = ReorderedLayout::build(&part, None);
        let feats = FeatureMatrix::zeros(n, 4);
        // Cache the first `cache_size` non-local vertices for machine 0.
        let remote: Vec<VertexId> = (0..n as u32)
            .filter(|&v| !layout.is_local(v, 0))
            .take(cache_size)
            .collect();
        let store = PartitionedFeatureStore::build(
            0,
            &layout,
            &feats,
            beta,
            StaticCache::from_members(&remote),
            QuantScheme::F32,
        );
        let mut counts = [0usize; 4];
        for v in 0..n as u32 {
            match store.locate(v) {
                FeatureLocation::LocalGpu => counts[0] += 1,
                FeatureLocation::LocalCpu => counts[1] += 1,
                FeatureLocation::Cached => counts[2] += 1,
                FeatureLocation::Remote(owner) => {
                    prop_assert_eq!(owner, layout.owner_of(v));
                    prop_assert!(owner != 0);
                    counts[3] += 1;
                }
            }
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), n);
        prop_assert_eq!(counts[0] + counts[1], layout.part_range(0).len());
        prop_assert_eq!(counts[2], remote.len());
        prop_assert_eq!(counts[0], layout.gpu_rows(0, beta));
    }

    #[test]
    fn reorder_is_partition_major_for_any_assignment(
        assignment in prop::collection::vec(0u32..4, 8..64),
    ) {
        let part = spp_partition::Partitioning::new(assignment.clone(), 4);
        let layout = ReorderedLayout::build(&part, None);
        for old in 0..assignment.len() as u32 {
            let new = layout.perm().to_new(old);
            prop_assert_eq!(layout.owner_of(new), part.part_of(old));
        }
        // Offsets consistent with part sizes.
        for p in 0..4u32 {
            prop_assert_eq!(layout.part_range(p).len(), part.members(p).len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The frontier-sparse sweep is an exact evaluation-order-preserving
    /// subset of the dense sweep: for any graph, fanouts, train set, and
    /// worker count, every hop vector matches the serial dense sweep
    /// bit for bit.
    #[test]
    fn frontier_sparse_sweep_matches_dense_bitwise(
        n in 8usize..160,
        m in 1usize..600,
        f1 in 1usize..8,
        f2 in 1usize..8,
        batch in 1usize..16,
        train_len in 1usize..24,
        workers in 1usize..8,
        seed in 0u64..1000,
    ) {
        let g = GeneratorConfig::erdos_renyi(n, m).seed(seed).build();
        let train: Vec<VertexId> = (0..train_len.min(n) as u32).collect();
        let model = VipModel::new(Fanouts::new(vec![f1, f2]), batch);
        let p0 = model.initial_probabilities(n, &train);
        let dense = model.hop_scores_with(
            WorkerPool::serial(), &g, &p0, SweepStrategy::Dense);
        let sparse = model.hop_scores_with(
            WorkerPool::new(workers), &g, &p0, SweepStrategy::FrontierSparse);
        prop_assert_eq!(dense.len(), sparse.len());
        for (a, b) in dense.iter().zip(&sparse) {
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} vs {}", x, y);
            }
        }
    }
}
