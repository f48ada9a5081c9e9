//! Pins the engine's feature round to its row table with a counting
//! global allocator that tracks the live heap: one round per machine
//! (`DistributedTrainer::verify_gather`, the exchange every training
//! round runs, with each batch's rows checked through its table) rises
//! less above the heap it started from than one `f32` tensor of a
//! machine's batch would take. Local rows and the static tier are read
//! in place and remote rows in the responses that carried them, so what
//! a round allocates is its plan, its table of borrowed rows and the
//! remote rows alone.
//!
//! The counters are process-global, so this is the only test in its
//! binary.

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

use spp_core::policies::CachePolicy;
use spp_graph::dataset::SyntheticSpec;
use spp_runtime::{DistTrainConfig, DistributedSetup, DistributedTrainer, SetupConfig};
use spp_sampler::Fanouts;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
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
            grew(layout.size() as i64);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            grew(new_size as i64 - layout.size() as i64);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_round_holds_no_input_tensor() {
    let dim = 128;
    let ds = SyntheticSpec::new("round-heap", 4000, 12.0, dim, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(17)
        .build();
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: 2,
            fanouts: Fanouts::new(vec![10, 10]),
            batch_size: 64,
            policy: CachePolicy::VipAnalytic,
            alpha: 0.4,
            beta: 0.5,
            vip_reorder: true,
            seed: 12,
            ..SetupConfig::default()
        },
    );
    let trainer = DistributedTrainer::new(&setup, DistTrainConfig::default());

    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let checked = trainer.verify_gather(5);
    ARMED.store(false, Ordering::SeqCst);
    let peak = PEAK.load(Ordering::SeqCst);

    // Two machines checked `checked` rows: the larger batch alone would
    // take at least half of them as an `f32` tensor.
    let tensor = (checked / 2 * dim * 4) as i64;
    assert!(tensor >= 512 * 1024, "fixture too small: {tensor} B");
    assert!(
        peak < tensor,
        "a round rose {peak} B above its start, not under one {tensor} B input tensor"
    );
}
