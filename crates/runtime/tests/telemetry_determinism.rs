//! Determinism guard for telemetry: turning the recorder on must not
//! change any computed result (DESIGN.md §9 bit-identity, §10
//! constraint 2). Recording only writes to metric shards and the event
//! ring — nothing flows back into the computation — so VIP partition
//! scores and trainer losses must be bit-identical with tracing on and
//! off, and so must the Appendix-D epoch simulation, which replays its
//! task trace into the event log only while telemetry is on.
//! `SPP_TRACE=1` routes through the same `set_enabled` switch these
//! tests toggle (`init_from_env`), so this pins the env-knob path too.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use spp_core::policies::CachePolicy;
use spp_core::VipModel;
use spp_graph::dataset::{Dataset, SyntheticSpec};
use spp_graph::VertexId;
use spp_runtime::pool::WorkerPool;
use spp_runtime::{
    CostModel, DistTrainConfig, DistributedSetup, DistributedTrainer, EpochSim, SetupConfig,
    SystemSpec,
};
use spp_sampler::Fanouts;
use spp_telemetry as tel;
use std::sync::{Mutex, MutexGuard};

/// The recorder switch is process-wide: tests that toggle it take turns.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny_ds() -> Dataset {
    SyntheticSpec::new("t", 600, 10.0, 8, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(7)
        .build()
}

/// Per-partition VIP scores over a 3-way split of the training set,
/// on a multi-worker pool (the path the caching policy exercises).
fn vip_scores(ds: &Dataset) -> Vec<Vec<f64>> {
    let parts: Vec<Vec<VertexId>> = (0..3)
        .map(|m| {
            ds.split
                .train
                .iter()
                .copied()
                .filter(|v| (*v as usize) % 3 == m)
                .collect()
        })
        .collect();
    VipModel::new(Fanouts::new(vec![4, 3]), 16).partition_scores_with(
        WorkerPool::new(4),
        &ds.graph,
        &parts,
    )
}

/// A 3-machine cached deployment.
fn setup(ds: &Dataset) -> DistributedSetup {
    DistributedSetup::build(
        ds,
        SetupConfig {
            num_machines: 3,
            fanouts: Fanouts::new(vec![4, 3]),
            batch_size: 16,
            policy: CachePolicy::VipAnalytic,
            alpha: 0.2,
            beta: 0.5,
            ..SetupConfig::default()
        },
    )
}

/// A short distributed-training run; returns per-epoch mean losses and
/// the run's communication matrix.
fn train_run(ds: &Dataset) -> (Vec<f64>, tel::CommReport) {
    let setup = setup(ds);
    let trainer = DistributedTrainer::new(
        &setup,
        DistTrainConfig {
            hidden_dim: 8,
            epochs: 2,
            seed: 1,
            ..DistTrainConfig::default()
        },
    );
    let report = trainer.train().0;
    (report.epoch_losses, report.comm)
}

fn bits2(m: &[Vec<f64>]) -> Vec<Vec<u64>> {
    m.iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn tracing_on_and_off_are_bit_identical() {
    let _lock = telemetry_lock();
    let ds = tiny_ds();

    tel::set_enabled(false);
    let scores_off = vip_scores(&ds);
    let (losses_off, comm_off) = train_run(&ds);

    tel::set_enabled(true);
    let scores_on = vip_scores(&ds);
    let (losses_on, comm) = train_run(&ds);
    tel::set_enabled(false);

    // The traced run recorded the comm volume, and each per-pair counter
    // is derived from the report, not tallied a second time: it equals
    // the report's total for that pair over every window.
    assert_eq!(
        comm_off, comm,
        "comm matrix changed when tracing was enabled"
    );
    assert!(comm.total_bytes() > 0, "traced run moved no bytes");
    let k = comm.machines;
    let counters = tel::snapshot().counters;
    for src in 0..k {
        for dst in 0..k {
            let name = format!("comm.bytes.m{src}_to_m{dst}");
            let counted = counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            let pair: u64 = comm.windows.iter().map(|w| w.bytes[src * k + dst]).sum();
            assert_eq!(counted, Some(pair), "{name}");
        }
    }

    assert_eq!(
        bits2(&scores_off),
        bits2(&scores_on),
        "VIP partition scores changed when tracing was enabled"
    );
    let off: Vec<u64> = losses_off.iter().map(|l| l.to_bits()).collect();
    let on: Vec<u64> = losses_on.iter().map(|l| l.to_bits()).collect();
    assert_eq!(off, on, "trainer losses changed when tracing was enabled");
}

#[test]
fn appendix_d_replay_records_every_stage_and_changes_nothing() {
    let _lock = telemetry_lock();
    let setup = setup(&tiny_ds());
    let cost = CostModel::mini_calibrated();
    let sim = EpochSim::new(&setup, cost, SystemSpec::pipelined(8));
    // Every field of the result: makespan, rounds, startup, busy,
    // resources, and the (replayed, so empty) trace. `{:?}` prints each
    // f64 in its shortest round-tripping form: equal text, equal bits.
    tel::set_enabled(false);
    let off = format!("{:?}", sim.simulate_appendix_d_epoch(0));
    tel::set_enabled(true);
    tel::span::reset_events();
    let on = format!("{:?}", sim.simulate_appendix_d_epoch(0));
    let events = tel::events_snapshot();
    tel::set_enabled(false);

    assert_eq!(off, on, "Appendix-D epoch changed when tracing was enabled");
    assert_eq!(tel::span::dropped_events(), 0, "event ring overflowed");
    let mut spans: Vec<&str> = events.iter().filter(|e| e.sim).map(|e| &*e.name).collect();
    spans.sort_unstable();
    spans.dedup();
    let mut labels: Vec<&str> = tel::PipelineStage::ALL.iter().map(|s| s.short()).collect();
    labels.sort_unstable();
    assert_eq!(spans, labels, "one virtual-time span label per stage");
}
