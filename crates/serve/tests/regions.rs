//! A serving run is one pool region: the whole request loop produces
//! into one lane, so `pool.regions` grows by one per `run` call, not by
//! one per batch. Telemetry is process-global, so this test owns its
//! test binary.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use spp_gnn::{Arch, GnnModel};
use spp_graph::dataset::SyntheticSpec;
use spp_pool::WorkerPool;
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::Fanouts;
use spp_serve::{generate_open_loop, InferenceServer, ServeConfig, TraceConfig};
use spp_telemetry as tel;

#[test]
fn one_pool_region_per_serving_run() {
    let ds = SyntheticSpec::new("serve-regions", 400, 8.0, 8, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(11)
        .build();
    // Small enough that no kernel of the forward pass opens a region.
    let model = GnnModel::new(Arch::Sage, &[8, 16, 4], 5);
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: 2,
            fanouts: Fanouts::new(vec![4, 3]),
            alpha: 0.1,
            ..SetupConfig::default()
        },
    );
    let trace = generate_open_loop(&TraceConfig {
        num_requests: 300,
        num_vertices: 400,
        arrival_rate: 2000.0,
        skew: 3.0,
        burstiness: 0.3,
        seed: 17,
    });
    let server = |workers: usize| {
        let cfg = ServeConfig {
            max_batch_size: 8,
            max_delay: 0.01,
            queue_capacity: 64,
            overlay_capacity: 24,
            fanouts: Fanouts::new(vec![4, 3]),
            seed: 3,
            pool: WorkerPool::new(workers),
            ..ServeConfig::default()
        };
        InferenceServer::new(&setup, &model, 0, cfg)
    };

    tel::set_enabled(true);
    let regions = tel::counter("pool.regions");
    let caller = tel::counter("serve.lane.caller_forwards");
    let helper = tel::counter("serve.lane.helper_forwards");
    for workers in [1, 2] {
        let before = (regions.value(), caller.value() + helper.value());
        let batches = server(workers).run(&trace).batches.len() as u64;
        let opened = regions.value() - before.0;
        let forwards = caller.value() + helper.value() - before.1;
        assert!(batches > 10, "{workers} workers: only {batches} batches");
        assert_eq!(opened, 1, "{workers} workers: {batches} batches");
        // Every batch's forward pass ran once, on one side of the lane.
        assert_eq!(forwards, batches, "{workers} workers");
    }
    tel::set_enabled(false);
}
