//! The unhappy paths of a parallel region on the persistent helpers:
//! panics on either side of the handoff, nested and concurrent
//! dispatch, and many back-to-back regions borrowing the caller's stack.
//!
//! Every test takes [`serial`] first: the helpers are process-wide, and
//! a test that asserts *where* a job ran needs them free of the other
//! tests' regions.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use spp_pool::WorkerPool;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Barrier, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A panic payload no formatting step could produce, so a re-raised
/// payload equal to it is the original.
#[derive(Debug, PartialEq)]
struct Boom(usize);

/// The thread each of two jobs ran on — distinct threads show the
/// region got the helper, i.e. no stale `busy` forced it inline.
fn job_threads(pool: WorkerPool) -> Vec<ThreadId> {
    pool.run_jobs(2, |_| thread::current().id())
}

fn panic_in_job(failing: usize) {
    let _g = serial();
    let pool = WorkerPool::new(2);
    let caller = thread::current().id();
    let ran_on: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
    let err = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.run_jobs(2, |i| {
            ran_on.lock().unwrap().push((i, thread::current().id()));
            if i == failing {
                panic::panic_any(Boom(i));
            }
            i
        })
    }))
    .unwrap_err();
    assert_eq!(err.downcast_ref::<Boom>(), Some(&Boom(failing)));
    // The dispatcher joined both shares before re-raising.
    let mut ran_on = ran_on.into_inner().unwrap();
    ran_on.sort_by_key(|&(i, _)| i);
    assert_eq!(ran_on.len(), 2, "{ran_on:?}");
    assert_eq!(ran_on[0].1, caller, "job 0 is the caller's share");
    assert_ne!(ran_on[1].1, caller, "job 1 is the helper's share");
    // The next region completes, in parallel.
    let ids = job_threads(pool);
    assert_ne!(ids[0], ids[1]);
    assert_eq!(pool.run_jobs(5, |i| i * 3), vec![0, 3, 6, 9, 12]);
}

#[test]
fn helper_panic_reraises_its_payload_and_the_gate_recovers() {
    panic_in_job(1);
}

#[test]
fn caller_share_panic_reraises_its_payload_and_the_gate_recovers() {
    panic_in_job(0);
}

#[test]
fn nested_region_runs_inline_and_matches_serial() {
    let _g = serial();
    let pool = WorkerPool::new(2);
    let inner = |i: usize| {
        pool.run_jobs(5, |j| (i * 10 + j) as f64 / 7.0)
            .into_iter()
            .map(|v| v * 3.0)
            .sum::<f64>()
    };
    let nested = pool.run_jobs(4, |i| {
        let me = thread::current().id();
        let threads = pool.run_jobs(3, |_| thread::current().id());
        assert!(
            threads.iter().all(|&t| t == me),
            "nested region left its job's thread"
        );
        inner(i)
    });
    let flat: Vec<f64> = (0..4).map(inner).collect();
    let serial_nested = WorkerPool::serial().run_jobs(4, |i| {
        WorkerPool::serial()
            .run_jobs(5, |j| (i * 10 + j) as f64 / 7.0)
            .into_iter()
            .map(|v| v * 3.0)
            .sum::<f64>()
    });
    assert_eq!(nested, flat);
    assert_eq!(nested, serial_nested);
}

#[test]
#[allow(
    clippy::disallowed_methods,
    reason = "the test needs two OS threads dispatching at once, which is what it checks the pool survives"
)]
fn concurrent_dispatchers_both_complete() {
    let _g = serial();
    let pool = WorkerPool::new(2);
    let start = Barrier::new(2);
    let expect: Vec<u64> = (0..16u64).map(|i| i * i + 1).collect();
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                for _ in 0..500 {
                    assert_eq!(pool.run_jobs(16, |i| (i * i + 1) as u64), expect);
                    let mut data = [0u64; 16];
                    pool.par_chunks(&mut data, &[3, 9, 16], |_, off, chunk| {
                        for (j, v) in chunk.iter_mut().enumerate() {
                            *v = ((off + j) * (off + j) + 1) as u64;
                        }
                    });
                    assert_eq!(data[..], expect[..]);
                }
            });
        }
    });
}

#[test]
fn ten_thousand_regions_borrowing_the_stack_at_8_workers() {
    let _g = serial();
    let pool = WorkerPool::new(8);
    for round in 0..10_000u64 {
        let local = [round; 8];
        let out = pool.run_jobs(8, |i| local[i] + i as u64);
        assert!(
            out.iter().enumerate().all(|(i, &v)| v == round + i as u64),
            "round {round}: {out:?}"
        );
        let mut cells = [0u64; 8];
        pool.par_chunks(&mut cells, &[1, 2, 3, 4, 5, 6, 7, 8], |ci, _, c| {
            c[0] = local[ci] * 2;
        });
        assert_eq!(cells, [round * 2; 8], "round {round}");
    }
}
