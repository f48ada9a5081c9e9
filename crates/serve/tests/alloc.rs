//! Pins the serving batch loop's allocations with a counting global
//! allocator:
//! - the removed per-row copies: a steady-state micro-batch allocates
//!   fewer times than it fetches rows, i.e. no heap allocation is made
//!   per fetched row (each owner's rows are read with one `gather` into
//!   one staging matrix, copied into the batch tensor, and admitted to
//!   the overlay straight from that tensor);
//! - the recycled batch tensors: the server's ring holds
//!   [`BATCH_TENSORS`], and `Matrix::from_recycled` grows one only when
//!   the batch prepared into it has more MFG nodes than its capacity,
//!   and then to exactly that batch. So each tensor's allocations are
//!   strictly increasing batch sizes: every batch-tensor-sized
//!   allocation is exactly some batch's tensor, no size is allocated
//!   more than once per tensor of the ring, and a batch no larger than
//!   every tensor's capacity allocates nothing.
//!
//! The counters are process-global, so the tests take turns.

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

use spp_gnn::{Arch, GnnModel};
use spp_graph::dataset::SyntheticSpec;
use spp_pool::WorkerPool;
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::Fanouts;
use spp_serve::{generate_open_loop, InferenceServer, ServeConfig, TraceConfig, BATCH_TENSORS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least [`BIG_AT`] bytes, and the sizes of the
/// first [`BIG_SIZES`] of them.
static BIG: AtomicU64 = AtomicU64::new(0);
static BIG_AT: AtomicU64 = AtomicU64::new(u64::MAX);
const BIG_SIZES: usize = 256;
static BIG_SIZE: [AtomicU64; BIG_SIZES] = [const { AtomicU64::new(0) }; BIG_SIZES];

/// Held by each test for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if bytes as u64 >= BIG_AT.load(Ordering::Relaxed) {
        let i = BIG.fetch_add(1, Ordering::Relaxed) as usize;
        if let Some(size) = BIG_SIZE.get(i) {
            size.store(bytes as u64, Ordering::Relaxed);
        }
    }
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter is a
// side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_batch_allocates_less_than_once_per_fetched_row() {
    let _serial = serial();
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

#[test]
fn batch_tensors_grow_only_for_a_batch_larger_than_all_before() {
    let _serial = serial();
    let dim = 64;
    let ds = SyntheticSpec::new("serve-recycle", 6000, 10.0, dim, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(31)
        .build();
    let fanouts = Fanouts::new(vec![10, 5]);
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: 4,
            fanouts: fanouts.clone(),
            alpha: 0.02,
            ..SetupConfig::default()
        },
    );
    // A narrow hidden layer keeps every forward-pass buffer far below
    // the input tensor, and four machines keep each owner's fetch
    // staging matrix below it too.
    let model = GnnModel::new(Arch::Sage, &[dim, 4, 4], 5);
    let trace = generate_open_loop(&TraceConfig {
        num_requests: 64 * 24,
        num_vertices: 6000,
        arrival_rate: 50_000.0,
        skew: 0.05,
        burstiness: 0.0,
        seed: 37,
    });
    let run = || {
        let cfg = ServeConfig {
            max_batch_size: 64,
            max_delay: 1.0,
            queue_capacity: 4096,
            overlay_capacity: 256,
            fanouts: fanouts.clone(),
            seed: 3,
            pool: WorkerPool::new(2),
            ..ServeConfig::default()
        };
        InferenceServer::new(&setup, &model, 0, cfg).run(&trace)
    };
    // A first run learns the batches' node counts; the second records
    // the allocations at least as large as the smallest batch tensor.
    let nodes: Vec<usize> = run().batches.iter().map(|b| b.mfg_nodes).collect();
    let tensor_bytes = |n: usize| (n * dim * 4) as u64;
    let smallest = nodes.iter().copied().min().unwrap();
    BIG.store(0, Ordering::Relaxed);
    BIG_AT.store(tensor_bytes(smallest), Ordering::Relaxed);
    let report = run();
    BIG_AT.store(u64::MAX, Ordering::Relaxed);
    let big = BIG.load(Ordering::Relaxed) as usize;
    assert_eq!(report.batches.len(), nodes.len());
    assert!(
        big <= BIG_SIZES,
        "{big} big allocations overflow the record"
    );
    let sizes: Vec<u64> = BIG_SIZE[..big]
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();

    // Batches with more nodes than every batch before them: the run
    // cannot avoid growing some tensor for each.
    let mut records = 0;
    let mut most = 0;
    for &n in &nodes {
        if n > most {
            records += 1;
            most = n;
        }
    }
    assert!(
        BATCH_TENSORS * records < nodes.len(),
        "fixture needs more batches than node-count records: {records} of {}",
        nodes.len()
    );
    // Growth is exact: every big allocation is one batch's tensor.
    for &size in &sizes {
        assert!(
            nodes.iter().any(|&n| tensor_bytes(n) == size),
            "a {size} B allocation is no batch's tensor (sizes {sizes:?})"
        );
    }
    // A tensor's allocations strictly increase, so no size recurs more
    // often than the ring has tensors, and there are at most as many
    // allocations as the ring can make over the distinct sizes.
    let mut distinct = sizes.clone();
    distinct.sort_unstable();
    distinct.dedup();
    for &size in &distinct {
        let times = sizes.iter().filter(|&&s| s == size).count();
        assert!(
            times <= BATCH_TENSORS,
            "{times} allocations of {size} B from a ring of {BATCH_TENSORS}"
        );
    }
    assert!(
        big < nodes.len(),
        "{big} batch-tensor-sized allocations over {} batches: one per batch",
        nodes.len()
    );
}
