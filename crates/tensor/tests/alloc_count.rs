//! Counts heap allocations through the hot matmul kernels with a
//! wrapping global allocator, pinning down the payoff of the `*_into`
//! scratch-reuse refactor: once the output buffer has been sized by a
//! warm-up call, repeated `matmul_into` steps over the same shapes
//! allocate nothing beyond the bounded per-call job-cut table, while
//! each `matmul_with` call pays a fresh output buffer. The same counter
//! pins `Tape::backward` to allocating nothing feature-shaped when the
//! features are a `Tape::constant`, and a two-layer GraphSAGE batch
//! recorded through `Tape::linear` to the buffers it has a use for.
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
use spp_tensor::tape::CsrAdj;
use spp_tensor::{kernels, Matrix, Tape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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
            let r = a.matmul_with(pool, &b);
            assert_eq!(r.rows(), 96);
        }
    });

    // The steady-state loop keeps only the bounded job-cut table per
    // call (serial pool: one job), never the 96*32 output buffer.
    let out_bytes = (96 * 32 * std::mem::size_of::<f32>()) as u64;
    assert!(
        fresh_bytes >= steady_bytes + 8 * out_bytes,
        "expected *_with to pay 8 output buffers over *_into: \
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

    // t_matmul / matmul_t / transpose reuse the same scratch contract.
    let mut s1 = Matrix::zeros(0, 0);
    let mut s2 = Matrix::zeros(0, 0);
    let mut s3 = Matrix::zeros(0, 0);
    a.t_matmul_into(pool, &a, &mut s1);
    a.matmul_t_into(pool, &a, &mut s2);
    a.transpose_into(pool, &mut s3);
    let (allocs2, _, ()) = counted(|| {
        for _ in 0..4 {
            a.t_matmul_into(pool, &a, &mut s1);
            a.matmul_t_into(pool, &a, &mut s2);
            a.transpose_into(pool, &mut s3);
        }
    });
    assert!(
        allocs2 <= 3 * 4 * 2,
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

    // `Tape::backward` does nothing on behalf of a `constant`: a SAGE
    // layer over a 4096×64 feature matrix with 16 targets and hidden 8
    // must not allocate anything feature-shaped. (Registered as an
    // `input` the same features cost two such matrices: the `head_rows`
    // zero-fill and the `sparse_agg` scatter target.)
    let (sources, dim, targets, hidden) = (4096usize, 64usize, 16usize, 8usize);
    let adj = Arc::new(CsrAdj {
        num_targets: targets,
        num_sources: sources,
        row_ptr: (0..=targets).map(|t| t * 8).collect(),
        col: (0..targets as u32 * 8)
            .map(|e| e * 31 % sources as u32)
            .collect(),
    });
    let mut tape = Tape::new();
    let x = tape.constant(filled(sources, dim, 4));
    let w_self = tape.input(filled(dim, hidden, 5));
    let w_neigh = tape.input(filled(dim, hidden, 6));
    let bias = tape.input(filled(1, hidden, 7));
    let neigh = tape.sparse_agg(x, Arc::clone(&adj));
    let own = tape.head_rows(x, targets);
    let a = tape.matmul(own, w_self);
    let b = tape.matmul(neigh, w_neigh);
    let s = tape.add(a, b);
    let sb = tape.add_bias(s, bias);
    let r = tape.relu(sb);
    let labels = Arc::new((0..targets as u32).map(|t| t % hidden as u32).collect());
    let loss = tape.softmax_cross_entropy(r, labels);
    let (_, backward_bytes, ()) = counted(|| tape.backward(loss));
    assert!(tape.grad(w_neigh).is_some() && tape.grad(x).is_none());
    let feature_bytes = (sources * dim * std::mem::size_of::<f32>()) as u64;
    assert!(
        backward_bytes < feature_bytes,
        "backward allocated {backward_bytes} B against a {feature_bytes} B constant feature matrix"
    );

    // A steady-state two-layer GraphSAGE batch — layer 0 over constant
    // features, layer 1 over its (interior) output, then the loss —
    // forward and backward, recorded as `sparse_agg` + `linear`.
    let (t0, t1, hidden, classes) = (1024usize, 256usize, 64usize, 16usize);
    let hop = |targets: usize, sources: usize| {
        Arc::new(CsrAdj {
            num_targets: targets,
            num_sources: sources,
            row_ptr: (0..=targets).map(|t| t * 8).collect(),
            col: (0..targets as u32 * 8)
                .map(|e| e * 31 % sources as u32)
                .collect(),
        })
    };
    let (adj0, adj1) = (hop(t0, sources), hop(t1, t0));
    let labels: Arc<Vec<u32>> = Arc::new((0..t1 as u32).map(|t| t % classes as u32).collect());
    let shapes = [
        (dim, hidden),
        (dim, hidden),
        (1, hidden),
        (hidden, classes),
        (hidden, classes),
        (1, classes),
    ];
    let batch = || {
        let mut tape = Tape::with_pool(pool);
        let x = tape.constant(filled(sources, dim, 4));
        let p: Vec<_> = (5..)
            .zip(shapes)
            .map(|(seed, (r, c))| tape.input(filled(r, c, seed)))
            .collect();
        counted(|| {
            let neigh = tape.sparse_agg(x, Arc::clone(&adj0));
            let h = tape.linear(t0, &[(x, p[0]), (neigh, p[1])], Some(p[2]), true);
            let neigh = tape.sparse_agg(h, Arc::clone(&adj1));
            let logits = tape.linear(t1, &[(h, p[3]), (neigh, p[4])], Some(p[5]), false);
            let loss = tape.softmax_cross_entropy(logits, Arc::clone(&labels));
            tape.backward(loss);
        })
    };
    batch(); // warm-up
    let (_, batch_bytes, ()) = batch();
    // The same batch as `head_rows`/`matmul`/`add`/`add_bias`/`relu`
    // nodes over zero-padded gradients, measured at commit 97d7c1f.
    const CHAIN_BATCH_BYTES: u64 = 3_046_584;
    assert!(
        2 * batch_bytes <= CHAIN_BATCH_BYTES,
        "fused batch allocated {batch_bytes} B, more than half the op chain's {CHAIN_BATCH_BYTES} B"
    );
    // Nothing activation-sized beyond what the batch has a use for: per
    // layer the aggregate, the output and one scratch block; per
    // operand that needs one, one gradient (`h` gets its prefix and its
    // full-size gather, layer 1's aggregate its own; layer 0's operands
    // are constants); the loss's probabilities and their gradient.
    let f = std::mem::size_of::<f32>();
    let wanted = [
        2 * t0 * dim + kernels::LINEAR_BLOCK_ELEMS, // layer 0 forward
        t1 * hidden + 2 * t1 * classes,             // layer 1 forward (+ its scratch)
        2 * t1 * classes,                           // loss
        2 * t1 * hidden + t0 * hidden,              // gradients for layer 1's operands
    ];
    let wanted_bytes = (wanted.iter().sum::<usize>() * f) as u64;
    let small = (64 * 1024) as u64; // weight gradients, edge lists, job tables
    assert!(
        batch_bytes <= wanted_bytes + small,
        "fused batch allocated {batch_bytes} B against {wanted_bytes} B of outputs and gradients"
    );
}
