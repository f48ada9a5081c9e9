//! Pins the sampler's allocation count per batch: once a thread has
//! warmed up, `NodeWiseSampler::sample` allocates the same number of
//! times whatever the batch size or the degree of the vertices it
//! expands — the MFG's own buffers, not one index permutation per
//! vertex. A counting global allocator makes the claim a hard test.
//!
//! The counter is process-global, so every assertion lives in one test
//! function.

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
use spp_graph::generate::complete;
use spp_graph::VertexId;
use spp_sampler::{Fanouts, NodeWiseSampler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter is a
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn sample_allocations_do_not_grow_with_batch_or_degree() {
    // Fanout 10 against degrees 12 and 39: every vertex takes the dense
    // (partial Fisher–Yates) branch, `10 < degree <= 4 * 10`.
    let fanouts = Fanouts::new(vec![10, 10]);
    let (low, high) = (complete(13), complete(40));
    let one: Vec<VertexId> = vec![0];
    let twelve: Vec<VertexId> = (0..12).collect();
    let count = |graph, seeds: &[VertexId]| {
        let sampler = NodeWiseSampler::new(graph, fanouts.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let before = ALLOCS.load(Ordering::Relaxed);
        let mfg = sampler.sample(seeds, &mut rng);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        drop(mfg);
        allocs
    };
    // Warm-up at the largest batch and degree.
    count(&high, &twelve);
    let base = count(&low, &one);
    for (graph, seeds, what) in [
        (&low, &twelve, "12 seeds, degree 12"),
        (&high, &one, "1 seed, degree 39"),
        (&high, &twelve, "12 seeds, degree 39"),
    ] {
        let allocs = count(graph, seeds);
        assert!(
            allocs <= base,
            "{what}: {allocs} allocations per sample, {base} for 1 seed at degree 12"
        );
    }
}
