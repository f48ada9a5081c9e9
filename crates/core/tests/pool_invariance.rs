//! §9 bit-identity regression: worker count must never change results.
//!
//! `SPP_POOL_WORKERS` is read once per process (see `WorkerPool::global`),
//! so the 1/2/8-worker sweep uses explicit pools — the exact code path the
//! env knob selects — and asserts the full VIP → ranking → cache pipeline
//! is bit-identical at every width. This is the dynamic counterpart of the
//! static `cargo xtask audit-determinism` gate (DESIGN §8).

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use spp_core::{CacheBuilder, SweepStrategy, VipModel};
use spp_graph::generate::GeneratorConfig;
use spp_graph::VertexId;
use spp_pool::WorkerPool;
use spp_sampler::Fanouts;

/// Descending-score ranking with id tiebreak, the order `rank_by_scores`
/// uses (without the remote-vertex filter, irrelevant here).
fn ranking_of(scores: &[f64]) -> Vec<VertexId> {
    let mut ids: Vec<VertexId> = (0..scores.len() as VertexId)
        .filter(|&v| scores[v as usize] > 0.0)
        .collect();
    ids.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then(a.cmp(&b))
    });
    ids
}

#[test]
fn vip_ranking_and_cache_members_identical_across_worker_counts() {
    let n = 400;
    let g = GeneratorConfig::erdos_renyi(n, 2400).seed(17).build();
    let train: Vec<VertexId> = (0..80).collect();
    let model = VipModel::new(Fanouts::new(vec![10, 5]), 8);
    let builder = CacheBuilder::new(0.25, n, 4);

    let base_scores = model.scores_with(WorkerPool::new(1), &g, &train, SweepStrategy::Auto);
    let base_cache = builder.build(&ranking_of(&base_scores));
    assert!(!base_cache.is_empty(), "degenerate fixture: empty cache");

    for workers in [2usize, 8] {
        let scores = model.scores_with(WorkerPool::new(workers), &g, &train, SweepStrategy::Auto);
        for (v, (a, b)) in base_scores.iter().zip(&scores).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "score of vertex {v} diverged at {workers} workers: {a} vs {b}"
            );
        }
        let cache = builder.build(&ranking_of(&scores));
        assert_eq!(
            base_cache.members(),
            cache.members(),
            "cache membership diverged at {workers} workers"
        );
        for v in 0..n as VertexId {
            assert_eq!(base_cache.slot_of(v), cache.slot_of(v), "slot of {v}");
        }
    }
}

#[test]
fn frontier_sparse_and_dense_strategies_agree_at_every_width() {
    let g = GeneratorConfig::erdos_renyi(200, 900).seed(5).build();
    let train: Vec<VertexId> = (0..40).collect();
    let model = VipModel::new(Fanouts::new(vec![6, 4]), 4);
    let dense = model.scores_with(WorkerPool::new(1), &g, &train, SweepStrategy::Dense);
    for workers in [1usize, 2, 8] {
        for strategy in [SweepStrategy::Dense, SweepStrategy::FrontierSparse] {
            let p = model.scores_with(WorkerPool::new(workers), &g, &train, strategy);
            assert!(dense
                .iter()
                .zip(&p)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
