//! Beyond uniform GraphSAGE sampling: the paper's Proposition 1 applies
//! to *any* node-wise transition probabilities. This example biases the
//! sampler toward high-degree neighbors, runs the VIP model under the
//! matching weighted transition law, and shows that the resulting cache
//! ranking outperforms the uniform-law ranking under the biased workload.
//!
//! Run with: `cargo run --release --example weighted_sampling`

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use salientpp::prelude::*;
use salientpp::runtime::pool::WorkerPool;
use spp_sampler::weighted::{EdgeWeights, WeightedNodeWiseSampler};

fn main() {
    let ds = papers_sim(0.2, 11);
    let n = ds.num_vertices();
    let fanouts = Fanouts::new(vec![10, 5]);
    let batch = 8usize;
    let k = 4usize;

    // Degree-biased sampling: neighbors are drawn proportionally to
    // sqrt(degree) — a common importance-sampling heuristic.
    let score: Vec<f32> = (0..n as u32)
        .map(|v| (ds.graph.degree(v).max(1) as f32).sqrt())
        .collect();
    let weights = EdgeWeights::from_target_scores(&ds.graph, &score);

    // Partition and split the training stream.
    let cfg = SetupConfig {
        num_machines: k,
        fanouts: fanouts.clone(),
        batch_size: batch,
        ..SetupConfig::default()
    };
    let (part, train) = DistributedSetup::partition(&ds, &cfg);

    // Measure real access counts under the *biased* sampler.
    let sampler = WeightedNodeWiseSampler::new(&ds.graph, &weights, fanouts.clone());
    let mut counts = vec![vec![0u64; n]; k];
    for (m, t) in train.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(17 ^ m as u64);
        for e in 0..2u64 {
            for b in MinibatchIter::new(t, batch, 17 ^ m as u64, e) {
                let mfg = sampler.sample(&b, &mut rng);
                for &v in &mfg.nodes {
                    counts[m][v as usize] += 1;
                }
            }
        }
    }

    // Rank remote vertices by the VIP model under (a) the uniform law and
    // (b) the true weighted transition law.
    let model = VipModel::new(fanouts.clone(), batch);
    let volume = |rankings: &[Vec<VertexId>], alpha: f64| -> f64 {
        let builder = CacheBuilder::new(alpha, n, k);
        (0..k)
            .map(|m| {
                let cache = builder.build(&rankings[m]);
                counts[m]
                    .iter()
                    .enumerate()
                    .filter(|&(v, _)| {
                        part.part_of(v as VertexId) != m as u32 && !cache.contains(v as VertexId)
                    })
                    .map(|(_, &c)| c as f64)
                    .sum::<f64>()
                    / 2.0
            })
            .sum()
    };
    let rank = |scores: Vec<Vec<f64>>| -> Vec<Vec<VertexId>> {
        scores
            .iter()
            .enumerate()
            .map(|(m, s)| {
                let mut remote: Vec<VertexId> = (0..n as u32)
                    .filter(|&v| part.part_of(v) != m as u32 && s[v as usize] > 0.0)
                    .collect();
                remote.sort_by(|&a, &b| {
                    s[b as usize]
                        .partial_cmp(&s[a as usize])
                        .unwrap()
                        .then(a.cmp(&b))
                });
                remote
            })
            .collect()
    };

    let uniform_ranks = rank(model.partition_scores(&ds.graph, &train));
    let pool = WorkerPool::global();
    let weighted_ranks = rank(model.partition_scores_with_law(pool, &ds.graph, &weights, &train));

    println!(
        "degree-biased sampling on {} ({} vertices, {k} machines)\n",
        ds.name, n
    );
    println!(
        "{:<26} {:>12} {:>12}",
        "cache ranking model", "a=0.10", "a=0.30"
    );
    for (name, ranks) in [
        ("uniform-law VIP", &uniform_ranks),
        ("weighted-law VIP", &weighted_ranks),
    ] {
        println!(
            "{:<26} {:>12.0} {:>12.0}",
            name,
            volume(ranks, 0.10),
            volume(ranks, 0.30)
        );
    }
    println!("\n(remote vertices/epoch under the biased sampler; lower is better —");
    println!(" modeling the actual transition probabilities should win)");
}
