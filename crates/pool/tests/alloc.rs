//! Counts heap allocations of a steady-state parallel region with a
//! wrapping global allocator: once the helper exists, `run_jobs` at two
//! workers allocates its result and the deal table — no thread spawn,
//! no merge queue — and at one worker only its result.
//!
//! The counter is process-global (helper threads included), so every
//! assertion lives in one test function — Rust runs integration-test
//! functions on separate threads and a second test would race the
//! counter.

#![allow(
    clippy::disallowed_types,
    reason = "process-global counters bumped inside the allocator hook: raw std atomics keep the hook clear of spp-sync's model-check dispatch"
)]
#![allow(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait"
)]

use spp_pool::WorkerPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made (on any thread) while `f` runs.
fn counted(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_region_allocates_its_result_and_one_deal_table() {
    const REGIONS: u64 = 100;
    let pool = WorkerPool::new(2);
    assert_eq!(pool.run_jobs(2, |j| j), [0, 1]); // warm-up: starts the helper
    let parallel = counted(|| {
        for _ in 0..REGIONS {
            assert_eq!(pool.run_jobs(2, |j| j), [0, 1]);
        }
    });
    assert_eq!(parallel, 2 * REGIONS, "result + deal table per region");

    let serial = counted(|| {
        for _ in 0..REGIONS {
            assert_eq!(WorkerPool::serial().run_jobs(2, |j| j), [0, 1]);
        }
    });
    assert_eq!(serial, REGIONS, "result only");
}
