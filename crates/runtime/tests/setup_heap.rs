//! Pins what a deployment's set-up holds with a counting global
//! allocator that tracks the live heap:
//!
//! - `MultilevelPartitioner::partition` on a products-shaped graph
//!   peaks at no more than half of the WIDE_LEVELS_PEAK bytes below. Its
//!   levels keep 8 B per edge, the finest level borrows the input graph,
//!   and each coarse level is sized to its own edges.
//! - A resident `DistributedSetup::build` keeps (1 + α)·N·d `f32`
//!   feature rows: the reordered matrix, whose row ranges are the
//!   machines' partitions, plus the static caches. Its graph, labels,
//!   splits and layout stay under a quarter of one feature copy here.
//!
//! The counters are process-global, so the two measurements take turns
//! on a lock and nothing else runs in this binary.

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
use spp_partition::multilevel::MultilevelPartitioner;
use spp_partition::VertexWeights;
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::Fanouts;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Mutex;

static ARMED: AtomicBool = AtomicBool::new(false);
/// Bytes allocated and not yet freed (while armed), and its maximum.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Serializes the tests' armed sections.
static TURN: Mutex<()> = Mutex::new(());

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

/// Runs `f` armed; returns its result, the live heap it left behind and
/// the peak it reached, both relative to its start.
fn measured<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        out,
        LIVE.load(Ordering::SeqCst),
        PEAK.load(Ordering::SeqCst),
    )
}

/// The partitioner's peak on this fixture with 12 B/edge levels, a copy
/// of the input graph as the finest level and each coarse level sized to
/// its finer level's edges. The compact hierarchy peaks at 5 972 384 B
/// here.
const WIDE_LEVELS_PEAK: i64 = 14_851_136;

#[test]
fn the_partitioner_peaks_at_half_its_former_heap() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let ds = SyntheticSpec::new("products-shaped", 6000, 51.0, 4, 16)
        .split_fractions(0.05, 0.002, 0.002)
        .homophily(0.9)
        .degree_tail(2.0)
        .seed(3)
        .build();
    let w = VertexWeights::from_dataset(&ds);
    let (p, _, peak) = measured(|| {
        MultilevelPartitioner::new(2)
            .seed(3)
            .partition(&ds.graph, &w)
    });
    assert_eq!(p.num_vertices(), 6000);
    eprintln!(
        "partition peak {peak} B over {} edges",
        ds.graph.num_edges()
    );
    assert!(
        peak * 2 <= WIDE_LEVELS_PEAK,
        "the partitioner peaked at {peak} B, above half of {WIDE_LEVELS_PEAK} B"
    );
}

#[test]
fn a_resident_deployment_keeps_one_copy_plus_its_caches() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (n, dim, alpha) = (4000, 256, 0.2);
    let ds = SyntheticSpec::new("serving-shaped", n, 10.0, dim, 8)
        .split_fractions(0.1, 0.05, 0.05)
        .seed(5)
        .build();
    let cfg = SetupConfig {
        num_machines: 2,
        fanouts: Fanouts::new(vec![5, 5]),
        batch_size: 64,
        policy: CachePolicy::VipAnalytic,
        alpha,
        seed: 5,
        ..SetupConfig::default()
    };
    let (setup, retained, _) = measured(|| DistributedSetup::build(&ds, cfg));
    let copy = (n * dim * 4) as i64;
    let cached: usize = setup.stores.iter().map(|s| s.cache().len()).sum();
    let budget = copy + (cached * dim * 4) as i64 + copy / 4;
    eprintln!("deployment retains {retained} B; one feature copy is {copy} B");
    assert!(
        cached as f64 <= alpha * n as f64 + 2.0,
        "{cached} cached rows"
    );
    assert!(
        retained <= budget,
        "the deployment retains {retained} B, above (1 + α)·N·d·4 + N·d = {budget} B"
    );
    drop(setup);
}
