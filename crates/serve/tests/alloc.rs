//! Pins the removed per-row copies of the serving batch loop: a
//! steady-state micro-batch allocates fewer times than it fetches rows,
//! i.e. no heap allocation is made per fetched row (fetched rows are
//! read with one `gather_into` per owner and admitted to the overlay
//! straight from the gathered batch tensor). A counting global
//! allocator makes the claim a hard test.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(
    clippy::disallowed_types,
    reason = "process-global counters bumped inside the allocator hook: raw std atomics keep the hook clear of spp-sync's model-check dispatch"
)]

use spp_gnn::{Arch, GnnModel};
use spp_graph::dataset::SyntheticSpec;
use spp_pool::WorkerPool;
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::Fanouts;
use spp_serve::{generate_open_loop, InferenceServer, ServeConfig, TraceConfig};
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
fn steady_state_batch_allocates_less_than_once_per_fetched_row() {
    let ds = SyntheticSpec::new("serve-alloc", 6000, 10.0, 16, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(23)
        .build();
    let fanouts = Fanouts::new(vec![10, 5]);
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: 2,
            fanouts: fanouts.clone(),
            alpha: 0.02,
            ..SetupConfig::default()
        },
    );
    let model = GnnModel::new(Arch::Sage, &[16, 16, 4], 5);
    // A trace that rarely repeats and a small overlay: almost every
    // remote row of every batch is fetched.
    let trace = generate_open_loop(&TraceConfig {
        num_requests: 64 * 24,
        num_vertices: 6000,
        arrival_rate: 50_000.0,
        skew: 0.05,
        burstiness: 0.0,
        seed: 29,
    });
    // (allocations, batches, fetched rows) of serving a trace prefix.
    // One worker keeps the residue probe inline, so thread dispatch does
    // not enter the count.
    let run = |requests: usize| {
        let cfg = ServeConfig {
            max_batch_size: 64,
            max_delay: 0.01,
            queue_capacity: 4096,
            overlay_capacity: 64,
            fanouts: fanouts.clone(),
            seed: 3,
            pool: WorkerPool::new(1),
            ..ServeConfig::default()
        };
        let server = InferenceServer::new(&setup, &model, 0, cfg);
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = server.run(&trace[..requests]);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        (allocs, report.batches.len() as u64, report.cache.misses)
    };
    // Steady state = what the second half of the trace adds.
    let (half_allocs, half_batches, half_fetched) = run(trace.len() / 2);
    let (full_allocs, full_batches, full_fetched) = run(trace.len());
    let batches = full_batches - half_batches;
    assert!(batches >= 8, "too few steady-state batches: {batches}");
    let allocs_per_batch = (full_allocs - half_allocs) / batches;
    let fetched_per_batch = (full_fetched - half_fetched) / batches;
    assert!(
        fetched_per_batch >= 200,
        "fixture must fetch at least 200 rows per batch, got {fetched_per_batch}"
    );
    assert!(
        allocs_per_batch < fetched_per_batch,
        "{allocs_per_batch} allocations per batch for {fetched_per_batch} fetched rows"
    );
}
