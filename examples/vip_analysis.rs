//! A close look at the paper's core object: Proposition 1's vertex
//! inclusion probabilities. Computes hop-wise and combined VIP values on
//! a small citation graph, shows their decay with hop distance and their
//! concentration on hubs, then builds a cache from the ranking and
//! verifies its hit rate against real sampling.
//!
//! Run with: `cargo run --release --example vip_analysis`

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use rand::SeedableRng;
use salientpp::prelude::*;

fn main() {
    let ds = papers_sim(0.1, 7);
    let n = ds.num_vertices();
    let fanouts = Fanouts::new(vec![15, 10, 5]);
    let batch = 8usize;
    let train = &ds.split.train;

    // Hop-wise VIP vectors: p[h](u) per Proposition 1.
    let model = VipModel::new(fanouts.clone(), batch);
    let p0 = model.initial_probabilities(n, train);
    let hops = model.hop_scores(&ds.graph, &p0);
    let p = VipModel::combine(&hops);

    println!("{} ({} vertices, {} training)\n", ds.name, n, train.len());
    println!("hop-wise VIP mass (sum of p[h] over all vertices):");
    for (h, hv) in hops.iter().enumerate() {
        let mass: f64 = hv.iter().sum();
        let touched = hv.iter().filter(|&&x| x > 1e-9).count();
        println!(
            "  hop {}: mass {:8.1}, vertices with p>0: {:6}, max p {:.4}",
            h + 1,
            mass,
            touched,
            hv.iter().cloned().fold(0.0, f64::max)
        );
    }

    // Concentration: share of total VIP mass in the top-ranked vertices.
    let mut ranked: Vec<usize> = (0..n).collect();
    ranked.sort_by(|&a, &b| p[b].partial_cmp(&p[a]).unwrap());
    let total: f64 = p.iter().sum();
    println!("\nVIP mass concentration:");
    for frac in [0.001, 0.01, 0.05, 0.2] {
        let take = ((n as f64 * frac) as usize).max(1);
        let mass: f64 = ranked[..take].iter().map(|&v| p[v]).sum();
        println!(
            "  top {:5.1}% of vertices hold {:4.1}% of expected accesses",
            frac * 100.0,
            100.0 * mass / total
        );
    }

    // The top-VIP vertices are hubs: compare degree of top-20 vs median.
    let med = {
        let mut d: Vec<usize> = (0..n as u32).map(|v| ds.graph.degree(v)).collect();
        d.sort_unstable();
        d[n / 2]
    };
    let top_deg: f64 = ranked[..20]
        .iter()
        .map(|&v| ds.graph.degree(v as u32) as f64)
        .sum::<f64>()
        / 20.0;
    println!("\nmean degree of top-20 VIP vertices: {top_deg:.0} (graph median {med})");

    // Build a cache from the ranking and measure its hit rate on real
    // sampled neighborhoods.
    let cache_size = n / 20; // 5% of the graph
    let cache = StaticCache::from_members(
        &ranked[..cache_size]
            .iter()
            .map(|&v| v as VertexId)
            .collect::<Vec<_>>(),
    );
    let sampler = NodeWiseSampler::new(&ds.graph, fanouts);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let (mut hits, mut accesses) = (0u64, 0u64);
    for b in MinibatchIter::new(train, batch, 5, 0) {
        let mfg = sampler.sample(&b, &mut rng);
        for &v in &mfg.nodes {
            accesses += 1;
            if cache.contains(v) {
                hits += 1;
            }
        }
    }
    println!(
        "\ncaching the top 5% by VIP captures {:.1}% of one epoch's {} accesses",
        100.0 * hits as f64 / accesses as f64,
        accesses
    );
}
