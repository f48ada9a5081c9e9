//! Integration tests for the timing simulation's qualitative shapes —
//! the claims behind Table 1 and Figures 4–8 must hold for any seed.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use salientpp::prelude::*;
use salientpp::telemetry::PipelineStage;

fn dataset(seed: u64) -> Dataset {
    SyntheticSpec::new("shape", 12_000, 16.0, 32, 16)
        .split_fractions(0.03, 0.003, 0.005)
        .homophily(0.93)
        .degree_tail(1.2)
        .seed(seed)
        .build()
}

fn setup(ds: &Dataset, k: usize, alpha: f64, beta: f64) -> DistributedSetup {
    DistributedSetup::build(
        ds,
        SetupConfig {
            num_machines: k,
            fanouts: Fanouts::new(vec![10, 5]),
            batch_size: 8,
            policy: if alpha > 0.0 {
                CachePolicy::VipAnalytic
            } else {
                CachePolicy::None
            },
            alpha,
            beta,
            vip_reorder: true,
            seed: 3,
            ..SetupConfig::default()
        },
    )
}

#[test]
fn table1_ladder_holds_across_seeds() {
    let cost = CostModel::mini_calibrated();
    for seed in [1u64, 9] {
        let ds = dataset(seed);
        let bare = setup(&ds, 4, 0.0, 0.0);
        let cached = setup(&ds, 4, 0.4, 0.0);
        let full = EpochSim::new(&bare, cost, SystemSpec::salient(64)).simulate_epoch(0);
        let part = EpochSim::new(&bare, cost, SystemSpec::partitioned(64)).simulate_epoch(0);
        let pipe = EpochSim::new(&bare, cost, SystemSpec::pipelined(64)).simulate_epoch(0);
        let spp = EpochSim::new(&cached, cost, SystemSpec::pipelined(64)).simulate_epoch(0);
        assert!(
            part.makespan > 1.5 * full.makespan,
            "partitioning must hurt"
        );
        assert!(pipe.makespan < part.makespan, "pipelining must help");
        assert!(spp.makespan < pipe.makespan, "caching must help further");
        assert!(
            spp.makespan < 1.5 * full.makespan,
            "SALIENT++ must approach full replication: {} vs {}",
            spp.makespan,
            full.makespan
        );
    }
}

#[test]
fn epoch_time_decreases_with_alpha() {
    let ds = dataset(2);
    let cost = CostModel::mini_calibrated();
    let mut prev = f64::INFINITY;
    for alpha in [0.0, 0.2, 0.6] {
        let s = setup(&ds, 4, alpha, 0.0);
        let t = EpochSim::new(&s, cost, SystemSpec::pipelined(64)).mean_epoch_time(2);
        assert!(t <= prev * 1.02, "alpha={alpha}: {t} vs prev {prev}");
        prev = t;
    }
}

#[test]
fn distdgl_baseline_is_much_slower() {
    let ds = dataset(4);
    let cost = CostModel::mini_calibrated();
    let bare = setup(&ds, 4, 0.0, 0.1);
    let cached = setup(&ds, 4, 0.4, 0.1);
    let spp = EpochSim::new(&cached, cost, SystemSpec::pipelined(64)).simulate_epoch(0);
    let dgl = EpochSim::new(&bare, cost, SystemSpec::distdgl(64)).simulate_epoch(0);
    assert!(
        dgl.makespan > 4.0 * spp.makespan,
        "DistDGL-like {} vs SALIENT++ {}",
        dgl.makespan,
        spp.makespan
    );
}

#[test]
fn slow_network_amplifies_caching_benefit() {
    let ds = dataset(5);
    let fast = CostModel::mini_calibrated();
    let slow = CostModel::mini_calibrated()
        .with_network(salientpp::comm::NetworkModel::new(2.5e9 / 8.0, 50e-6).with_tbf_gbps(0.5));
    let bare = setup(&ds, 4, 0.0, 0.1);
    let cached = setup(&ds, 4, 0.4, 0.1);
    let gain_fast = EpochSim::new(&bare, fast, SystemSpec::pipelined(64))
        .simulate_epoch(0)
        .makespan
        / EpochSim::new(&cached, fast, SystemSpec::pipelined(64))
            .simulate_epoch(0)
            .makespan;
    let gain_slow = EpochSim::new(&bare, slow, SystemSpec::pipelined(64))
        .simulate_epoch(0)
        .makespan
        / EpochSim::new(&cached, slow, SystemSpec::pipelined(64))
            .simulate_epoch(0)
            .makespan;
    assert!(
        gain_slow > gain_fast,
        "caching should matter more on slow networks: {gain_slow:.2} vs {gain_fast:.2}"
    );
}

#[test]
fn memory_multiple_tracks_alpha() {
    let ds = dataset(6);
    for alpha in [0.0, 0.25, 0.5] {
        let s = setup(&ds, 4, alpha, 0.0);
        let m = s.memory_multiple();
        assert!(
            m <= 1.0 + alpha + 1e-9 && m >= 1.0,
            "alpha={alpha}: memory multiple {m}"
        );
    }
}

#[test]
fn gpu_prefix_reduces_h2d_busy_time() {
    // Wide features so transfer bytes dominate the per-transfer fixed
    // cost; remote/cached rows still ride through host memory, so the
    // GPU prefix can only remove the local-CPU share.
    let ds = SyntheticSpec::new("shape-wide", 12_000, 16.0, 256, 16)
        .split_fractions(0.03, 0.003, 0.005)
        .homophily(0.93)
        .degree_tail(1.2)
        .seed(7)
        .build();
    let cost = CostModel::mini_calibrated();
    let lo = setup(&ds, 4, 0.2, 0.0);
    let hi = setup(&ds, 4, 0.2, 0.9);
    let h_lo = EpochSim::new(&lo, cost, SystemSpec::pipelined(64))
        .simulate_epoch(0)
        .busy
        .get(PipelineStage::H2d);
    let h_hi = EpochSim::new(&hi, cost, SystemSpec::pipelined(64))
        .simulate_epoch(0)
        .busy
        .get(PipelineStage::H2d);
    assert!(
        h_hi < h_lo * 0.8,
        "90% GPU residency must cut H2D: {h_lo} -> {h_hi}"
    );
}
