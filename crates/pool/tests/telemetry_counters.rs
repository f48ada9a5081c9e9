//! Telemetry counters under pool concurrency: increments recorded from
//! N concurrent pool workers must merge exactly — the thread-local
//! shard design (with free-list recycling of worker shards) can never
//! lose or double-count an event, for any worker/job/increment mix —
//! and the pool's own `pool.inline_regions` counts a region nested in a
//! job.
//!
//! Every test takes [`serial`] first: the helpers are process-wide, so
//! another test's region would make this file's regions run inline.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use proptest::prelude::*;
use spp_pool::WorkerPool;
use spp_telemetry as tel;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn nested_region_counts_as_inline() {
    let _g = serial();
    tel::set_enabled(true);
    let inline = tel::counter("pool.inline_regions");
    let pool = WorkerPool::new(2);
    pool.run_jobs(2, |i| i); // registers the pool's counters
    let before = inline.value();
    let sums = pool.run_jobs(2, |i| pool.run_jobs(3, |j| i * 3 + j).iter().sum::<usize>());
    assert_eq!(sums, [3, 12]);
    // Each of the two outer jobs opened a region while the outer one
    // held the helpers.
    assert_eq!(inline.value() - before, 2);
    // A region of its own is not inline.
    pool.run_jobs(2, |i| i);
    assert_eq!(inline.value() - before, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn concurrent_counter_increments_sum_exactly(
        workers in 1usize..=8,
        adds_per_job in proptest::collection::vec(0u64..=64, 1usize..25),
    ) {
        let _g = serial();
        tel::set_enabled(true);
        let c = tel::counter("test.pool.concurrent_adds");
        let before = c.value();
        let jobs = adds_per_job.len();
        let adds = &adds_per_job;
        WorkerPool::new(workers).run_jobs(jobs, |j| {
            // Distinct per-job weights so a lost/duplicated shard write
            // shifts the total no matter which job it came from.
            for _ in 0..adds[j] {
                c.add(j as u64 + 1);
            }
        });
        let expect: u64 = adds_per_job
            .iter()
            .enumerate()
            .map(|(j, &n)| n * (j as u64 + 1))
            .sum();
        prop_assert_eq!(c.value() - before, expect);
    }

    #[test]
    fn histogram_observations_merge_exactly_across_workers(
        workers in 1usize..=8,
        samples_per_job in proptest::collection::vec(0u64..=1024, 1usize..17),
    ) {
        let _g = serial();
        tel::set_enabled(true);
        let h = tel::histogram("test.pool.concurrent_hist");
        let before = h.snapshot();
        let samples = &samples_per_job;
        WorkerPool::new(workers).run_jobs(samples.len(), |j| {
            h.observe(samples[j]);
        });
        let after = h.snapshot();
        prop_assert_eq!(after.count - before.count, samples_per_job.len() as u64);
        prop_assert_eq!(
            after.sum - before.sum,
            samples_per_job.iter().sum::<u64>()
        );
    }
}
