//! VIP-analytic vs VIP-simulation caching on a bandwidth-throttled
//! network (a miniature of the paper's Figure 9): on slow links, higher
//! replication factors are needed, and the analytic policy's better tail
//! ranking starts to matter.
//!
//! Run with: `cargo run --release --example slow_network`

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use salientpp::comm::NetworkModel;
use salientpp::prelude::*;

fn main() {
    let ds = mag240_sim(0.05, 8);
    let k = 4usize;
    let fanouts = Fanouts::new(vec![15, 10]);
    let h = 64usize;

    // Throttle the 25 Gbps link down to 2 Gbps with a token-bucket
    // filter, as the paper does with Linux tc/TBF.
    let slow = CostModel::default().with_network(NetworkModel::aws_25gbps().with_tbf_gbps(2.0));

    println!(
        "dataset {} ({} features) on {k} machines, 2 Gbps network",
        ds.name,
        ds.features.dim()
    );
    println!(
        "{:<8} {:>14} {:>14}",
        "alpha", "VIP-analytic", "VIP-simulation"
    );
    for alpha in [0.0, 0.08, 0.16, 0.32, 0.64] {
        let mut times = Vec::new();
        for policy in [CachePolicy::VipAnalytic, CachePolicy::Simulation] {
            let setup = DistributedSetup::build(
                &ds,
                SetupConfig {
                    num_machines: k,
                    fanouts: fanouts.clone(),
                    batch_size: 32,
                    policy: if alpha == 0.0 {
                        CachePolicy::None
                    } else {
                        policy
                    },
                    alpha,
                    beta: 0.1,
                    vip_reorder: true,
                    seed: 4,
                    ..SetupConfig::default()
                },
            );
            let t = EpochSim::new(&setup, slow, SystemSpec::pipelined(h)).simulate_epoch(0);
            times.push(t.makespan);
        }
        println!(
            "{:<8} {:>12.1} ms {:>12.1} ms",
            alpha,
            times[0] * 1e3,
            times[1] * 1e3
        );
    }
    println!("\n(as alpha grows the analytic ranking should stay at or below the empirical one)");
}
