//! Counts heap allocations through the hot matmul kernels with a
//! wrapping global allocator, pinning down the payoff of the `*_into`
//! scratch-reuse refactor: once the output buffer has been sized by a
//! warm-up call, repeated `matmul_into` steps over the same shapes
//! allocate nothing beyond the bounded per-call job-cut table, while
//! each `matmul_with` call pays a fresh output buffer, and the blocked
//! micro-kernels allocate nothing at all.
//!
//! The counter is process-global, so every assertion lives in one test
//! function — Rust runs integration-test functions on separate threads
//! and a second test would race the counter.

#![allow(
    clippy::disallowed_types,
    reason = "process-global counters bumped inside the allocator hook: raw std atomics keep the hook clear of spp-sync's model-check dispatch"
)]
#![allow(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait"
)]

use spp_pool::WorkerPool;
use spp_tensor::{kernels, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with the counter armed, returning (allocations, bytes).
fn counted<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
        r,
    )
}

fn filled(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
    for v in m.as_flat_mut() {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        *v = (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
    }
    m
}

#[test]
fn into_kernels_stop_allocating_after_warmup() {
    // Serial pool: worker threads would otherwise allocate stack/queue
    // state of their own and muddy the count.
    let pool = WorkerPool::serial();
    let a = filled(96, 48, 1);
    let b = filled(48, 32, 2);

    let mut out = Matrix::zeros(0, 0);
    a.matmul_into(pool, &b, &mut out); // warm-up sizes the scratch
    let expect = out.clone();

    let (steady_allocs, steady_bytes, ()) = counted(|| {
        for _ in 0..8 {
            a.matmul_into(pool, &b, &mut out);
        }
    });
    assert_eq!(
        out.as_flat(),
        expect.as_flat(),
        "scratch reuse changed results"
    );

    let (fresh_allocs, fresh_bytes, ()) = counted(|| {
        for _ in 0..8 {
            let mut r = Matrix::empty();
            a.matmul_into(pool, &b, &mut r);
            assert_eq!(r.rows(), 96);
        }
    });

    // The steady-state loop keeps only the bounded job-cut table per
    // call (serial pool: one job), never the 96*32 output buffer.
    let out_bytes = (96 * 32 * std::mem::size_of::<f32>()) as u64;
    assert!(
        fresh_bytes >= steady_bytes + 8 * out_bytes,
        "expected fresh outputs to pay 8 output buffers over a reused one: \
         fresh={fresh_bytes}B steady={steady_bytes}B out={out_bytes}B"
    );
    assert!(
        steady_allocs <= 2 * 8,
        "steady-state matmul_into should at most allocate the per-call \
         job-cut table, saw {steady_allocs} allocations"
    );
    assert!(
        fresh_allocs > steady_allocs,
        "fresh={fresh_allocs} steady={steady_allocs}"
    );

    // t_matmul / matmul_t reuse the same scratch contract.
    let mut s1 = Matrix::zeros(0, 0);
    let mut s2 = Matrix::zeros(0, 0);
    a.t_matmul_into(pool, &a, &mut s1);
    a.matmul_t_into(pool, &a, &mut s2);
    let (allocs2, _, ()) = counted(|| {
        for _ in 0..4 {
            a.t_matmul_into(pool, &a, &mut s1);
            a.matmul_t_into(pool, &a, &mut s2);
        }
    });
    assert!(
        allocs2 <= 2 * 4 * 2,
        "steady-state into-kernels should stay at the job-cut table, saw {allocs2}"
    );

    // The blocked micro-kernels themselves (DESIGN.md §14) are pure
    // slice loops: register tiles, packed weight panels and `matmul_t`'s
    // per-lane partial tiles all live on the stack. Zero allocations,
    // not merely "bounded".
    let (rows, kk, n) = (96usize, 48, 32);
    let av = a.as_flat().to_vec();
    let bv = b.as_flat().to_vec();
    let cv = filled(rows, n, 3).as_flat().to_vec();
    let mut out_mm = vec![0.0f32; rows * n];
    let mut out_tm = vec![0.0f32; kk * n];
    let mut out_mt = vec![0.0f32; rows * rows];
    let (kernel_allocs, kernel_bytes, ()) = counted(|| {
        for _ in 0..4 {
            out_mm.fill(0.0);
            kernels::matmul_rows_dense(&av, kk, &bv, n, &mut out_mm);
            kernels::t_matmul_cols_dense(&av, kk, &cv, n, rows, 0, &mut out_tm);
            kernels::matmul_t_rows_dense(&av, kk, &av, rows, &mut out_mt);
            std::hint::black_box(kernels::dot_blocked(&av[..kk], &bv[..kk]));
        }
    });
    assert_eq!(
        (kernel_allocs, kernel_bytes),
        (0, 0),
        "blocked kernels must not touch the heap"
    );
}
