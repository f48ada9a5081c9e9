//! Counting global allocator.
//!
//! Off (the default, and always during untraced runs) it costs one
//! relaxed flag load per allocation. The traced run switches it on
//! around its spans, so `*_allocs_per_batch` count exactly the
//! allocations made between a span's open and close; its cost is part
//! of `bench.trace_overhead_ratio`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

// Relaxed throughout: the flag and tallies are statistics that publish
// no other data.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if ON.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from a prior call into this allocator,
        // which handed out `System` memory with that layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (see above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off.
pub fn set_counting(on: bool) {
    ON.store(on, Relaxed);
}

/// `(allocations, bytes)` counted so far while counting was on.
pub fn counted() -> (u64, u64) {
    (COUNT.load(Relaxed), BYTES.load(Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_on() {
        // Other test threads may allocate concurrently while counting is
        // on, so the assertions are one-sided.
        set_counting(true);
        let (c0, b0) = counted();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let (c1, b1) = counted();
        set_counting(false);
        assert!(c1 > c0);
        assert!(b1 >= b0 + 4096);
        drop(v);
    }
}
