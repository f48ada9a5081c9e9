//! Pins the paged-gather hot-path contract: after warmup, reading rows
//! through any backend — one at a time, a batch per `gather_into`, or a
//! batch of stored bytes per `gather_encoded_into` — performs zero heap
//! allocations (the `spp-hot(store.gather.*)`
//! roots). A counting global allocator makes the claim a hard test
//! instead of a code-review convention.

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

use spp_graph::{FeatureMatrix, Permutation, QuantScheme};
use spp_store::{FeatureStore, MmapStore, PermutedStore, StoreBuilder};
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

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn row_reads_do_not_allocate_after_warmup() {
    let rows = 300usize;
    let dim = 24usize;
    let mut feats = FeatureMatrix::zeros(rows, dim);
    for v in 0..rows {
        for j in 0..dim {
            feats.row_mut(v as u32)[j] = ((v + j) % 1000) as f32;
        }
    }
    let dir = std::env::temp_dir().join(format!("spp_store_alloc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Exercise every scheme; i8 has the most complex decode path.
    for scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
        StoreBuilder::new(scheme)
            .page_bytes(1024)
            .build_from_matrix(&dir, &feats, None)
            .unwrap();
        let mmap = MmapStore::open(&dir).unwrap();
        let perm = Permutation::identity(rows);
        let permuted = PermutedStore::new(&mmap, &perm);
        let stores: [(&str, &dyn FeatureStore); 3] =
            [("matrix", &feats), ("mmap", &mmap), ("permuted", &permuted)];
        let mut out = vec![0.0f32; dim];
        // Unsorted with duplicates, spanning every page.
        let batch: Vec<u32> = (0..2 * rows as u32)
            .map(|i| (i * 37) % rows as u32)
            .collect();
        let mut batch_out = vec![0.0f32; batch.len() * dim];
        for (name, store) in stores {
            // Warmup: first read may size thread-local scratch.
            for v in 0..rows as u32 {
                store.read_row_into(v, &mut out);
            }
            let before = allocs();
            for i in 0..4 * rows as u32 {
                store.read_row_into(i % rows as u32, &mut out);
            }
            let after = allocs();
            assert_eq!(
                after - before,
                0,
                "{name}/{scheme:?}: row reads allocated after warmup"
            );

            // Batched reads: the first gather sizes the thread-local key
            // and run buffers (and the view's id map); smaller, equal and
            // differently ordered batches after it reuse them.
            store.gather_into(&batch, &mut batch_out);
            let before = allocs();
            for round in 0..4 {
                let ids = &batch[round * 7..];
                store.gather_into(ids, &mut batch_out[..ids.len() * dim]);
            }
            assert_eq!(
                allocs() - before,
                0,
                "{name}/{scheme:?}: gather_into allocated after warmup"
            );

            // The encoded gather walks the same pages through the same
            // scratch.
            let row_bytes = store.scheme().row_bytes(dim);
            let mut encoded = vec![0u8; batch.len() * row_bytes];
            let before = allocs();
            for round in 0..4 {
                let ids = &batch[round * 7..];
                store.gather_encoded_into(ids, &mut encoded[..ids.len() * row_bytes]);
            }
            assert_eq!(
                allocs() - before,
                0,
                "{name}/{scheme:?}: gather_encoded_into allocated after warmup"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
