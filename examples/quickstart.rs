//! Quickstart: train a GraphSAGE model on a synthetic dataset, then build
//! a distributed deployment with VIP caching and inspect what it does.
//!
//! Run with: `cargo run --release --example quickstart`

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use salientpp::prelude::*;
use spp_gnn::TrainConfig;

fn main() {
    // 1. A products-like synthetic dataset (scaled way down so this runs
    //    in seconds).
    let ds = products_sim(0.1, 42);
    println!(
        "dataset {}: {} vertices, {} edges, {} features, {} classes",
        ds.name,
        ds.graph.num_vertices(),
        ds.graph.num_edges() / 2,
        ds.features.dim(),
        ds.num_classes
    );

    // 2. Single-machine training with node-wise sampling (the SALIENT
    //    baseline configuration, scaled).
    let cfg = TrainConfig {
        hidden_dim: 32,
        fanouts: Fanouts::new(vec![10, 5]),
        eval_fanouts: Fanouts::new(vec![15, 10]),
        batch_size: 64,
        lr: 0.005,
        epochs: 4,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(&ds, cfg);
    let report = trainer.train();
    for e in &report.epochs {
        println!(
            "epoch {}: loss {:.4} ({} batches)",
            e.epoch, e.loss, e.batches
        );
    }
    println!(
        "val accuracy {:.3}, test accuracy {:.3}",
        report.val_accuracy, report.test_accuracy
    );

    // 3. A 4-machine distributed deployment: METIS-style partitioning,
    //    VIP analysis, two-level reordering, and remote-feature caching.
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: 4,
            fanouts: Fanouts::new(vec![10, 5]),
            batch_size: 64,
            policy: CachePolicy::VipAnalytic,
            alpha: 0.16,
            beta: 0.5,
            vip_reorder: true,
            seed: 1,
            ..SetupConfig::default()
        },
    );
    println!(
        "\n4-machine deployment: memory = {:.2}x unreplicated features (1 + alpha = {:.2})",
        setup.memory_multiple(),
        1.0 + setup.config.alpha
    );
    for (k, store) in setup.stores.iter().enumerate() {
        println!(
            "machine {k}: {} local vertices ({} on GPU), {} cached remote",
            setup.layout.part_range(k as u32).len(),
            store.gpu_rows(),
            store.cache().len()
        );
    }

    // 4. What does caching buy? Count the remote fetches of one epoch.
    let (_, train_of_part) = DistributedSetup::partition(&ds, &setup.config);
    let counts = AccessCounts::measure(
        &ds.graph,
        &train_of_part,
        &Fanouts::new(vec![10, 5]),
        64,
        1,
        7,
    );
    let part = &setup.partitioning;
    let no_cache = counts.no_cache_volume(part);
    let cached: Vec<StaticCache> = (0..4)
        .map(|k| {
            // Rebuild the same VIP caches in original-id space for counting.
            let members: Vec<VertexId> = setup.stores[k]
                .cache()
                .members()
                .iter()
                .map(|&v| setup.layout.perm().to_old(v))
                .collect();
            StaticCache::from_members(&members)
        })
        .collect();
    let with_cache = counts.total_volume(part, &cached);
    println!(
        "\nper-epoch remote fetches: {:.0} without cache, {:.0} with VIP cache ({:.1}x less)",
        no_cache,
        with_cache,
        no_cache / with_cache.max(1.0)
    );
}
