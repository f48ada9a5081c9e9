//! Counts heap allocations through the quantized feature-gather path
//! with a wrapping global allocator: once a [`QuantizedFeatures`] tier
//! is built, the steady-state serving loop — decode a row into a
//! caller buffer ([`QuantizedFeatures::read_row_into`]), admit a row
//! ([`QuantizedFeatures::set_row`]), round-trip a fetched row through
//! the wire codec ([`quant::wire_roundtrip`]) — must never touch the
//! heap, for every scheme. This is the companion of
//! `crates/tensor/tests/alloc_count.rs` for the cache tiers of
//! DESIGN.md §14.
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

use spp_graph::{quant, FeatureMatrix, QuantScheme, QuantizedFeatures};
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

#[test]
fn quantized_gather_path_never_allocates_after_build() {
    let (rows, dim) = (64usize, 50); // 50: exercises the non-multiple-of-8 tail
    let mut s = 0x9e37_79b9u32;
    let flat: Vec<f32> = (0..rows * dim)
        .map(|_| {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect();
    let features = FeatureMatrix::from_flat(flat, dim);

    let mut buf = vec![0.0f32; dim];
    let admit = features.row(7).to_vec();
    for scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
        let mut tier = QuantizedFeatures::from_matrix(&features, scheme);
        let (allocs, bytes, ()) = counted(|| {
            for r in 0..rows {
                tier.read_row_into(r, &mut buf);
                quant::wire_roundtrip(&mut buf, scheme);
                tier.set_row(r, &admit);
            }
        });
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "{}: decode/admit/wire must not touch the heap",
            scheme.name()
        );
    }
}
