//! The unhappy paths of a parallel region on the persistent helpers:
//! panics on either side of the handoff, nested and concurrent
//! dispatch, and many back-to-back regions borrowing the caller's stack;
//! and the contracts of `prepare_ahead` and `lane`, the two batch loops
//! built on them.
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

/// A prepared value that counts how many of its kind are alive:
/// `live` holds `(alive now, most ever alive at once)`.
struct Tracked<'a> {
    i: usize,
    live: &'a Mutex<(usize, usize)>,
}

impl<'a> Tracked<'a> {
    fn new(i: usize, live: &'a Mutex<(usize, usize)>) -> Self {
        let mut l = live.lock().unwrap();
        l.0 += 1;
        l.1 = l.1.max(l.0);
        Self { i, live }
    }
}

impl Drop for Tracked<'_> {
    fn drop(&mut self) {
        self.live.lock().unwrap().0 -= 1;
    }
}

/// What one `prepare_ahead` run over `n` items at `workers` observed.
struct Drive {
    /// `(index, value's index)` per `step` call, in call order.
    steps: Vec<(usize, usize)>,
    /// The index of the value each `prepare(i)` was handed back, by `i`.
    recycled: Vec<Option<usize>>,
    /// Most values alive at once.
    peak_live: usize,
}

/// Callers sweep `n` over 0, below, at and above `workers`.
fn drive(workers: usize, n: usize) -> Drive {
    let live = Mutex::new((0, 0));
    let recycled = Mutex::new(vec![None; n]);
    let mut steps = Vec::new();
    WorkerPool::new(workers).prepare_ahead(
        n,
        |i, prev: Option<Tracked<'_>>| {
            recycled.lock().unwrap()[i] = prev.as_ref().map(|t| t.i);
            drop(prev);
            Tracked::new(i, &live)
        },
        |i, value| steps.push((i, value.i)),
    );
    let (alive, peak_live) = live.into_inner().unwrap();
    assert_eq!(alive, 0, "the driver leaked values");
    Drive {
        steps,
        recycled: recycled.into_inner().unwrap(),
        peak_live,
    }
}

#[test]
fn prepare_ahead_steps_every_index_in_order() {
    let _g = serial();
    for workers in [1usize, 2, 3, 8] {
        for n in [0usize, 1, 2, 5, 8, 17] {
            let d = drive(workers, n);
            let expect: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            assert_eq!(d.steps, expect, "workers={workers} n={n}");
        }
    }
}

#[test]
fn prepare_ahead_hands_each_lane_its_previous_value() {
    let _g = serial();
    for workers in [1usize, 2, 3, 8] {
        for n in [0usize, 2, 5, 17] {
            let d = drive(workers, n);
            let expect: Vec<Option<usize>> = (0..n).map(|i| i.checked_sub(workers)).collect();
            assert_eq!(d.recycled, expect, "workers={workers} n={n}");
        }
    }
}

#[test]
fn prepare_ahead_keeps_at_most_one_value_per_lane_alive() {
    let _g = serial();
    for workers in [1usize, 2, 3, 8] {
        for n in [0usize, 1, 2, 5, 17, 40] {
            let d = drive(workers, n);
            assert_eq!(d.peak_live, workers.min(n), "workers={workers} n={n}");
        }
    }
}

#[test]
fn prepare_ahead_step_sequence_is_identical_at_1_2_and_8_workers() {
    let _g = serial();
    let run = |workers: usize| {
        let mut fold = 0u64;
        let mut seen = Vec::new();
        WorkerPool::new(workers).prepare_ahead(
            23,
            |i, prev: Option<Vec<u64>>| {
                // Recycle the buffer; its old contents must not leak.
                let mut buf = prev.unwrap_or_default();
                buf.clear();
                buf.extend((0..=i as u64).map(|j| j * j + 1));
                buf
            },
            |i, buf| {
                fold = fold.wrapping_mul(31).wrapping_add(buf.iter().sum::<u64>());
                seen.push((i, fold));
            },
        );
        seen
    };
    let reference = run(1);
    assert_eq!(reference.len(), 23);
    for workers in [2usize, 8] {
        assert_eq!(run(workers), reference, "workers={workers}");
    }
}

#[test]
fn prepare_ahead_panic_in_prepare_reaches_the_caller() {
    let _g = serial();
    let pool = WorkerPool::new(2);
    let mut steps = Vec::new();
    let err = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.prepare_ahead(
            5,
            |i, _: Option<usize>| {
                if i == 3 {
                    panic::panic_any(Boom(i));
                }
                i
            },
            |i, _| steps.push(i),
        );
    }))
    .unwrap_err();
    assert_eq!(err.downcast_ref::<Boom>(), Some(&Boom(3)));
    // Wave 0 (items 0, 1) was stepped; wave 1 failed before its steps.
    assert_eq!(steps, [0, 1]);
    // The gate recovered: the next region runs on both participants.
    let ids = job_threads(pool);
    assert_ne!(ids[0], ids[1]);
}

/// What one `lane` run over `n` items observed: each item's result, in
/// the order the producer took or was returned them, and the submits
/// that ran the queued item on the caller.
fn stream(pool: WorkerPool, n: u64) -> (Vec<(u64, ThreadId)>, usize) {
    let mut taken = Vec::new();
    let mut stolen = 0;
    let rest = pool.lane(
        |i: u64| (i, thread::current().id()),
        |lane| {
            for i in 0..n {
                stolen += usize::from(lane.submit(i));
                taken.extend(std::iter::from_fn(|| lane.take_done()));
            }
        },
    );
    taken.extend(rest);
    (taken, stolen)
}

#[test]
fn lane_consumes_every_item_exactly_once() {
    let _g = serial();
    for workers in [1usize, 2, 8] {
        for n in [0u64, 1, 2, 3, 40] {
            let (mut taken, _) = stream(WorkerPool::new(workers), n);
            taken.sort_by_key(|&(i, _)| i);
            let items: Vec<u64> = taken.iter().map(|&(i, _)| i).collect();
            assert_eq!(items, (0..n).collect::<Vec<_>>(), "workers={workers} n={n}");
        }
    }
}

#[test]
fn lane_without_a_helper_consumes_each_item_at_the_next_submit() {
    let _g = serial();
    let caller = thread::current().id();
    let inline = |(taken, stolen): (Vec<(u64, ThreadId)>, usize)| {
        assert!(taken.iter().all(|&(_, t)| t == caller), "{taken:?}");
        let items: Vec<u64> = taken.iter().map(|&(i, _)| i).collect();
        assert_eq!(items, (0..5).collect::<Vec<_>>());
        // Every submit but the first took the item before it back.
        assert_eq!(stolen, 4);
    };
    inline(stream(WorkerPool::serial(), 5));
    // Nested in a region that holds the helpers, the lane runs inline.
    let pool = WorkerPool::new(2);
    let mut nested = pool.run_jobs(2, |j| (j == 0).then(|| stream(pool, 5)));
    inline(nested.swap_remove(0).unwrap());
}

#[test]
fn lane_runs_its_consumer_on_a_helper() {
    let _g = serial();
    let caller = thread::current().id();
    let mut taken = Vec::new();
    let rest = WorkerPool::new(2).lane(
        |i: u64| (i, thread::current().id()),
        |lane| {
            for i in 0..5 {
                // The queue is empty at every submit: the producer waits
                // until the helper has answered the item before.
                assert!(!lane.submit(i), "item {i} found its predecessor queued");
                loop {
                    if let Some(done) = lane.take_done() {
                        taken.push(done);
                        break;
                    }
                    thread::yield_now();
                }
            }
        },
    );
    assert!(rest.is_empty());
    assert_eq!(
        taken.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
        [0, 1, 2, 3, 4]
    );
    assert!(taken.iter().all(|&(_, t)| t != caller), "{taken:?}");
}

#[test]
fn lane_producer_panic_reaches_the_caller() {
    let _g = serial();
    let pool = WorkerPool::new(2);
    for failing in [0u64, 1, 4] {
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.lane(
                |i: u64| i,
                |lane| {
                    for i in 0..6 {
                        if i == failing {
                            panic::panic_any(Boom(i as usize));
                        }
                        lane.submit(i);
                    }
                },
            )
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<Boom>(), Some(&Boom(failing as usize)));
    }
    // The gate recovered: the next region runs on both participants.
    let ids = job_threads(pool);
    assert_ne!(ids[0], ids[1]);
}

#[test]
fn lane_consumer_panic_reaches_the_caller() {
    let _g = serial();
    let pool = WorkerPool::new(2);
    let err = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.lane(
            |i: usize| {
                if i == 2 {
                    panic::panic_any(Boom(i));
                }
                i
            },
            |lane| {
                for i in 0..6 {
                    lane.submit(i);
                }
            },
        )
    }))
    .unwrap_err();
    assert_eq!(err.downcast_ref::<Boom>(), Some(&Boom(2)));
    let ids = job_threads(pool);
    assert_ne!(ids[0], ids[1]);
}
