//! Each machine thread of the distributed engine computes on its own
//! share of the worker budget (`WorkerPool::global().split(k)`), as each
//! process of a real data-parallel run has its own cores. With K = 2
//! machines on a 2-worker pool each share is one worker, so no machine
//! opens a region on the shared helpers, and none of its regions can
//! find them held by the other machine and fall back to running inline.
//! The golden run must also reproduce the engine's fingerprint
//! (`f16_wire_training_matches_golden_fingerprint`): the budget decides
//! where work runs, never what it computes. Every region of that tiny
//! shape is worth one job, so none of them could reach the helpers on
//! any budget; a second, wider run has regions of several jobs, which
//! the machines would contend for if they computed on the whole pool.
//!
//! The test sizes the global pool, so it is the only one in its binary.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use spp_core::policies::CachePolicy;
use spp_graph::dataset::{Dataset, SyntheticSpec};
use spp_graph::QuantScheme;
use spp_runtime::pool::WorkerPool;
use spp_runtime::{
    DistTrainConfig, DistributedSetup, DistributedTrainReport as Report, DistributedTrainer,
    SetupConfig,
};
use spp_sampler::Fanouts;
use spp_telemetry as tel;

/// A two-machine setup over `ds`, caching at `alpha`.
fn setup(ds: &Dataset, fanouts: Vec<usize>, alpha: f64) -> DistributedSetup {
    DistributedSetup::build(
        ds,
        SetupConfig {
            num_machines: 2,
            fanouts: Fanouts::new(fanouts),
            batch_size: 32,
            policy: CachePolicy::VipAnalytic,
            alpha,
            beta: 0.5,
            vip_reorder: true,
            seed: 12,
            ..SetupConfig::default()
        },
    )
}

/// Trains with telemetry on; returns the report and how many regions
/// were opened and how many of them ran inline meanwhile.
fn train_counted(setup: &DistributedSetup, cfg: DistTrainConfig) -> (Report, u64, u64) {
    let (regions, inline) = (
        tel::counter("pool.regions"),
        tel::counter("pool.inline_regions"),
    );
    tel::set_enabled(true);
    let (regions_before, inline_before) = (regions.value(), inline.value());
    let (report, _) = DistributedTrainer::new(setup, cfg).train();
    let (regions_after, inline_after) = (regions.value(), inline.value());
    tel::set_enabled(false);
    (
        report,
        regions_after - regions_before,
        inline_after - inline_before,
    )
}

fn loss_bits(report: &Report) -> Vec<u64> {
    report.epoch_losses.iter().map(|l| l.to_bits()).collect()
}

#[test]
fn machine_threads_compute_on_their_share() {
    // Read once, at the pool's first use, which is the first setup below.
    std::env::set_var("SPP_POOL_WORKERS", "2");
    assert_eq!(WorkerPool::global().workers(), 2);

    let ds = SyntheticSpec::new("t", 800, 10.0, 12, 4)
        .split_fractions(0.4, 0.1, 0.1)
        .feature_signal(2.0)
        .homophily(0.9)
        .seed(11)
        .build();
    let cfg = DistTrainConfig {
        epochs: 2,
        wire_scheme: QuantScheme::F16,
        ..DistTrainConfig::default()
    };
    let (report, regions, inline) = train_counted(&setup(&ds, vec![5, 5], 0.05), cfg);
    assert!(regions > 0, "no region was recorded");
    assert_eq!(inline, 0, "a region ran inline behind another's");
    assert_eq!(
        loss_bits(&report),
        [4612668619112631501u64, 4603128347361280000]
    );
    assert_eq!(report.remote_fetches, 593);
    assert_eq!(report.comm.total_bytes(), 109_884);

    let wide = SyntheticSpec::new("w", 1200, 10.0, 64, 4)
        .split_fractions(0.2, 0.05, 0.05)
        .seed(13)
        .build();
    let cfg = DistTrainConfig {
        hidden_dim: 128,
        epochs: 1,
        ..DistTrainConfig::default()
    };
    let (report, regions, inline) = train_counted(&setup(&wide, vec![10, 10], 0.1), cfg);
    assert!(regions > 0, "no region was recorded");
    assert_eq!(inline, 0, "a machine's region ran inline behind another's");
    // Captured on the engine before its machines had their own budget.
    assert_eq!(loss_bits(&report), [4603609291666489344u64]);
    assert_eq!(report.remote_fetches, 717);
    assert_eq!(report.comm.total_bytes(), 747_700);
}
