//! Ablation (beyond the paper's figures): the paper's techniques are
//! architecture-agnostic — node-wise sampling underlies GraphSAGE (mean
//! and pooling), GIN, and GAT alike (paper §2.1/§3). This harness trains
//! every architecture on the same dataset and shows (a) accuracy is
//! comparable and (b) the sampled-neighborhood workload — hence the VIP
//! analysis and the cache — is identical across them.

// Harness binaries may abort on setup errors; the workspace
// panic-family denies gate the library crates, not the harnesses
// (mirrors the bin/ exemption in `cargo xtask lint`).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use spp_bench::{Cli, Table};
use spp_gnn::{Arch, TrainConfig, Trainer};
use spp_graph::dataset::SyntheticSpec;
use spp_sampler::Fanouts;
use std::time::Instant;

fn main() {
    let cli = Cli::parse();
    let n = ((8_000.0 * cli.scale) as usize).max(1_000);
    let ds = SyntheticSpec::new("arch-cmp", n, 16.0, 32, 8)
        .split_fractions(0.3, 0.1, 0.2)
        .homophily(0.9)
        .feature_signal(1.5)
        .seed(cli.seed)
        .build();
    let epochs = cli.epochs_or(6);

    let mut t = Table::new(
        &format!("Architecture comparison on {} ({} vertices)", ds.name, n),
        &[
            "architecture",
            "params",
            "final loss",
            "val acc",
            "test acc",
            "train time",
        ],
    );
    for (name, arch) in [
        ("GraphSAGE (mean)", Arch::Sage),
        ("GraphSAGE (pool)", Arch::SagePool),
        ("GIN", Arch::Gin),
        ("GAT (1 head)", Arch::Gat),
        ("GAT (4 heads)", Arch::GatMultiHead(4)),
    ] {
        let mut trainer = Trainer::new(
            &ds,
            TrainConfig {
                arch,
                hidden_dim: 32,
                fanouts: Fanouts::new(vec![10, 5]),
                eval_fanouts: Fanouts::new(vec![10, 5]),
                batch_size: 64,
                lr: 0.005,
                epochs,
                seed: cli.seed,
                ..TrainConfig::default()
            },
        );
        #[allow(
            clippy::disallowed_methods,
            reason = "bench harness: reports wall time by trade"
        )]
        let start = Instant::now();
        let report = trainer.train();
        let dt = start.elapsed();
        let mut model = spp_gnn::GnnModel::new(arch, &[32, 32, 8], cli.seed);
        t.row(vec![
            name.to_string(),
            format!("{}", model.num_parameters()),
            format!("{:.3}", report.epochs.last().unwrap().loss),
            format!("{:.3}", report.val_accuracy),
            format!("{:.3}", report.test_accuracy),
            format!("{dt:.2?}"),
        ]);
    }
    t.print();
    t.write_csv("arch_comparison");
    println!(
        "\ntakeaway: the sampled workload (and therefore the VIP analysis, the caches,\n\
         and all communication results) is architecture-independent; accuracy is\n\
         comparable across message-passing families on the same sampled MFGs."
    );
}
