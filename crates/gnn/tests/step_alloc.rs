//! Pins [`SageStep`]'s memory plan with a counting global allocator
//! that also tracks the live heap:
//! - the backward's live-heap high-water mark stays less than one
//!   first-layer output above where the forward left it, both on the
//!   first batch of a fresh step — what every training, evaluation and
//!   serving loop runs, one step per batch — and on a step run again:
//!   the gradient of the first layer's output overwrites that output
//!   instead of taking a buffer of its own;
//! - a step run again on a batch of the same shape makes at most four
//!   allocations in its forward and four in its backward on a
//!   one-worker pool: its buffers are refitted, not remade. No loop
//!   keeps a step across batches, so this count pins what `refit`
//!   keeps, not a production path.
//!
//! The counters are process-global, so every assertion lives in one
//! test function.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(
    clippy::disallowed_types,
    reason = "process-global counters bumped inside the allocator hook: raw std atomics keep the hook clear of spp-sync's model-check dispatch"
)]
#![allow(
    unsafe_code,
    reason = "a counting global allocator implements the unsafe GlobalAlloc trait"
)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_gnn::{seed_labels, Arch, GnnModel, SageStep, Trainer};
use spp_graph::dataset::SyntheticSpec;
use spp_pool::WorkerPool;
use spp_sampler::{Fanouts, NodeWiseSampler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed (while armed), and its maximum.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counters are a
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size() as i64);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            grew(-(layout.size() as i64));
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(new_size as i64 - layout.size() as i64);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` did to the heap: (allocations, live bytes at its end, live
/// high-water mark), both relative to its start. Frees of blocks made
/// before the counter was armed count as negative growth, so a phase
/// that recycles buffers can end below zero.
fn heap<R>(f: impl FnOnce() -> R) -> (u64, i64, i64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let r = f();
    ARMED.store(false, Ordering::SeqCst);
    let (allocs, live, peak) = (
        ALLOCS.load(Ordering::SeqCst),
        LIVE.load(Ordering::SeqCst),
        PEAK.load(Ordering::SeqCst),
    );
    (allocs, live, peak, r)
}

#[test]
fn step_recycles_its_buffers_and_backward_reuses_the_forward_s() {
    let ds = SyntheticSpec::new("step-alloc", 20_000, 12.0, 32, 8)
        .split_fractions(0.2, 0.1, 0.1)
        .seed(5)
        .build();
    let sampler = NodeWiseSampler::new(&ds.graph, Fanouts::new(vec![10, 10, 10]));
    let mfg = sampler.sample(&ds.split.train[..256], &mut StdRng::seed_from_u64(2));
    let x = Trainer::gather_features(&ds, &mfg);
    let labels = seed_labels(&ds.labels, &mfg);
    let hidden = 64;
    let mut model = GnnModel::new(Arch::Sage, &[32, hidden, hidden, 8], 3).with_dropout(0.3);
    let pool = WorkerPool::new(1);
    let mut step = SageStep::new(&model);
    // The first layer's output, the step's largest buffer.
    let out1_bytes = (mfg.layer_adj(1).num_targets * hidden * 4) as i64;
    assert!(
        out1_bytes >= 512 * 1024,
        "fixture too small: {out1_bytes} B"
    );

    let mut run = |step: &mut SageStep| {
        let rng = &mut StdRng::seed_from_u64(7);
        let fwd = heap(|| {
            step.forward(pool, &model, &x, &mfg, rng);
        });
        let bwd = heap(|| step.backward(pool, &mut model, &x, &mfg, &labels));
        (fwd, bwd)
    };

    // A fresh step allocates every buffer; its backward adds the
    // self-term gradient, the source lists and a weight gradient, all
    // smaller than the first layer's output.
    let ((_, fwd_live, _, ()), (_, _, bwd_peak, loss)) = run(&mut step);
    assert!(loss.is_finite());
    assert!(
        fwd_live >= out1_bytes,
        "forward kept {fwd_live} B, less than its first-layer output"
    );
    assert!(
        bwd_peak < out1_bytes,
        "first backward rose {bwd_peak} B above the forward's end, not under one {out1_bytes} B layer output"
    );

    // The same step on the same shapes again.
    let ((fwd_allocs, _, fwd_peak, ()), (bwd_allocs, _, bwd_peak, _)) = run(&mut step);
    assert!(
        fwd_allocs <= 4,
        "steady forward made {fwd_allocs} allocations"
    );
    assert!(
        bwd_allocs <= 4,
        "steady backward made {bwd_allocs} allocations"
    );
    assert!(
        fwd_peak < out1_bytes && bwd_peak < out1_bytes,
        "steady step grew the heap by {fwd_peak} B (forward) / {bwd_peak} B (backward)"
    );
}
