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

use spp_core::{CacheBuilder, VipModel};
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

    let base_scores = model.scores_with(WorkerPool::new(1), &g, &train);
    let base_cache = builder.build(&ranking_of(&base_scores));
    assert!(!base_cache.is_empty(), "degenerate fixture: empty cache");

    for workers in [2usize, 8] {
        let scores = model.scores_with(WorkerPool::new(workers), &g, &train);
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

/// FNV-1a over the bit patterns of a sequence of probability vectors.
fn fingerprint<'a>(vectors: impl IntoIterator<Item = &'a Vec<f64>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vectors {
        for x in v {
            for byte in x.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Pins the uniform-law VIP scores to the bit: the model compared with
/// itself (above) cannot catch a change in how `t_h(u, v)` is evaluated,
/// e.g. `f / d(v)` in place of `f * (1 / d(v))`, which moves the last ulp.
#[test]
fn uniform_vip_scores_pinned_to_the_bit() {
    const EXPECTED: u64 = 0xd03a_eabf_32e1_6e6f;
    let g = GeneratorConfig::rmat(4096, 40_000).seed(7).build();
    let model = VipModel::new(Fanouts::new(vec![10, 5, 3]), 32);
    let train: Vec<VertexId> = (0..4096).step_by(8).collect();
    let parts: Vec<Vec<VertexId>> = (0..4u32)
        .map(|k| (0..4096).filter(|v| v % 4 == k).step_by(16).collect())
        .collect();
    for workers in [1usize, 2] {
        let pool = WorkerPool::new(workers);
        let scores = model.scores_with(pool, &g, &train);
        let per_part = model.partition_scores_with(pool, &g, &parts);
        let got = fingerprint(std::iter::once(&scores).chain(&per_part));
        assert_eq!(got, EXPECTED, "fingerprint {got:016x} at {workers} workers");
    }
}
