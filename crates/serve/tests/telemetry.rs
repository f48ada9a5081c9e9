//! A number that appears in two outputs is derived once: under a
//! quantized wire, the `serve.net.bytes` telemetry counter and
//! `ServeReport.cache.bytes_fetched` bill the same fetched wire bytes.
//! Telemetry is process-global, so this test owns its test binary.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use spp_gnn::{Arch, GnnModel};
use spp_graph::dataset::SyntheticSpec;
use spp_graph::QuantScheme;
use spp_pool::WorkerPool;
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::Fanouts;
use spp_serve::{generate_open_loop, InferenceServer, ServeConfig, TraceConfig};
use spp_telemetry as tel;

#[test]
fn net_bytes_counter_equals_report_bytes_fetched_under_f16_wire() {
    let ds = SyntheticSpec::new("serve-test", 400, 8.0, 8, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(11)
        .build();
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
    let cfg = ServeConfig {
        max_batch_size: 8,
        max_delay: 0.01,
        queue_capacity: 64,
        overlay_capacity: 24,
        wire_scheme: QuantScheme::F16,
        fanouts: Fanouts::new(vec![4, 3]),
        seed: 3,
        pool: WorkerPool::new(2),
        ..ServeConfig::default()
    };
    let trace = generate_open_loop(&TraceConfig {
        num_requests: 300,
        num_vertices: 400,
        arrival_rate: 2000.0,
        skew: 3.0,
        burstiness: 0.3,
        seed: 17,
    });

    tel::set_enabled(true);
    let net_bytes = tel::counter("serve.net.bytes");
    let before = net_bytes.value();
    let report = InferenceServer::new(&setup, &model, 0, cfg).run(&trace);
    let billed = net_bytes.value() - before;
    tel::set_enabled(false);

    assert!(report.cache.bytes_fetched > 0, "trace must fetch remotely");
    assert_eq!(billed, report.cache.bytes_fetched);
    // f16 rows: 2 bytes per element, not the 4 the counter used to bill.
    assert_eq!(report.cache.bytes_fetched, report.cache.misses * 8 * 2);
}
