//! Compare the paper's caching policies on remote communication volume
//! (a miniature of Figure 2): degree, 1-hop halo, weighted reverse
//! PageRank, #paths, simulation, analytic VIP, and the oracle.
//!
//! Run with: `cargo run --release --example caching_policies`

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use salientpp::prelude::*;
use spp_core::policies::PolicyContext;

fn main() {
    let ds = papers_sim(0.1, 3);
    let k = 4usize;
    let fanouts = Fanouts::new(vec![15, 10, 5]);
    let batch_size = 32usize;

    // Partition with train/val/edge balancing, like the paper.
    let cfg = SetupConfig {
        num_machines: k,
        fanouts: fanouts.clone(),
        batch_size,
        ..SetupConfig::default()
    };
    let (partitioning, train_of_part) = DistributedSetup::partition(&ds, &cfg);
    println!(
        "dataset {}: {} vertices; {}-way partition, edge cut {:.1}%",
        ds.name,
        ds.num_vertices(),
        k,
        100.0 * spp_partition::metrics::edge_cut_fraction(&ds.graph, &partitioning)
    );

    // One measurement pass prices every policy & alpha.
    let counts = AccessCounts::measure(&ds.graph, &train_of_part, &fanouts, batch_size, 2, 9);
    let no_cache = counts.no_cache_volume(&partitioning);
    println!("no caching: {no_cache:.0} remote vertices/epoch\n");

    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "policy", "a=0.05", "a=0.20", "a=0.50"
    );
    for policy in [
        CachePolicy::Degree,
        CachePolicy::OneHopHalo,
        CachePolicy::WeightedReversePagerank,
        CachePolicy::NumPaths,
        CachePolicy::Simulation,
        CachePolicy::VipAnalytic,
        CachePolicy::Oracle,
    ] {
        let rankings: Vec<Vec<VertexId>> = (0..k as u32)
            .map(|p| {
                if policy == CachePolicy::Oracle {
                    counts.oracle_ranking(&partitioning, p as usize)
                } else {
                    PolicyContext {
                        graph: &ds.graph,
                        partitioning: &partitioning,
                        part: p,
                        local_train: &train_of_part[p as usize],
                        fanouts: fanouts.clone(),
                        batch_size,
                        seed: 17,
                        oracle_counts: &[],
                    }
                    .rank(policy)
                }
            })
            .collect();
        let mut row = format!("{:<8}", policy.label());
        for alpha in [0.05, 0.20, 0.50] {
            let builder = CacheBuilder::new(alpha, ds.num_vertices(), k);
            let caches: Vec<StaticCache> = rankings.iter().map(|r| builder.build(r)).collect();
            let vol = counts.total_volume(&partitioning, &caches);
            row.push_str(&format!(" {:>9.0}", vol));
        }
        println!("{row}");
    }
    println!("\n(lower is better; oracle is the lower bound, VIP should be within a few % of it)");
}
