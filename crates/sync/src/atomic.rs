//! Atomic wrappers with *named-ordering* methods.
//!
//! There is no `Ordering` parameter: each ordering is a distinct method
//! (`load_relaxed`, `store_release`, ...), so the declared ordering is
//! part of the call-site text. That is what makes the workspace gates
//! enforceable — clippy.toml bans raw `std::sync::atomic` types outside
//! this crate, and lint L8 requires every `*_relaxed(` call site to
//! carry a `// spp-sync: relaxed(reason)` annotation.
//!
//! All three logical types store a `u64` cell so the model checker sees
//! one uniform value domain; `bool`/`usize` convert at the API edge. In
//! normal builds every method is an `#[inline(always)]` passthrough to
//! the equivalent `std::sync::atomic` operation (the `sync_overhead`
//! bench asserts the delta is unmeasurable).

use std::sync::atomic::{AtomicU64 as RawAtomicU64, Ordering};

#[cfg(spp_model_check)]
use crate::hook::{AtomicOp, MemOrd};

/// Routes an operation to the installed model hooks; `None` means the
/// caller performs the real operation (not a model thread, or no checker
/// in this process).
// spp-hot: stop(model-check instrumentation; compiled only under cfg(spp_model_check), never in release hot paths)
#[cfg(spp_model_check)]
#[inline]
fn dispatch(cell: &RawAtomicU64, op: AtomicOp) -> Option<u64> {
    crate::hook::installed().and_then(|h| h.atomic(cell, op))
}

/// Instrumented `u64` atomic.
#[derive(Debug, Default)]
pub struct AtomicU64 {
    cell: RawAtomicU64,
}

impl AtomicU64 {
    /// A new atomic holding `v`.
    pub const fn new(v: u64) -> Self {
        Self {
            cell: RawAtomicU64::new(v),
        }
    }

    /// Relaxed load.
    #[inline(always)]
    pub fn load_relaxed(&self) -> u64 {
        #[cfg(spp_model_check)]
        if let Some(v) = dispatch(
            &self.cell,
            AtomicOp::Load {
                ord: MemOrd::Relaxed,
            },
        ) {
            return v;
        }
        self.cell.load(Ordering::Relaxed)
    }

    /// Acquire load (pairs with [`AtomicU64::store_release`]).
    #[inline(always)]
    pub fn load_acquire(&self) -> u64 {
        #[cfg(spp_model_check)]
        if let Some(v) = dispatch(
            &self.cell,
            AtomicOp::Load {
                ord: MemOrd::Acquire,
            },
        ) {
            return v;
        }
        self.cell.load(Ordering::Acquire)
    }

    /// Relaxed store.
    #[inline(always)]
    pub fn store_relaxed(&self, v: u64) {
        #[cfg(spp_model_check)]
        if dispatch(
            &self.cell,
            AtomicOp::Store {
                ord: MemOrd::Relaxed,
                val: v,
            },
        )
        .is_some()
        {
            return;
        }
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Release store (pairs with [`AtomicU64::load_acquire`]).
    #[inline(always)]
    pub fn store_release(&self, v: u64) {
        #[cfg(spp_model_check)]
        if dispatch(
            &self.cell,
            AtomicOp::Store {
                ord: MemOrd::Release,
                val: v,
            },
        )
        .is_some()
        {
            return;
        }
        self.cell.store(v, Ordering::Release);
    }

    /// Relaxed fetch-add; returns the previous value.
    #[inline(always)]
    pub fn fetch_add_relaxed(&self, v: u64) -> u64 {
        #[cfg(spp_model_check)]
        if let Some(prev) = dispatch(&self.cell, AtomicOp::FetchAdd { val: v }) {
            return prev;
        }
        self.cell.fetch_add(v, Ordering::Relaxed)
    }

    /// Relaxed fetch-max; returns the previous value.
    #[inline(always)]
    pub fn fetch_max_relaxed(&self, v: u64) -> u64 {
        #[cfg(spp_model_check)]
        if let Some(prev) = dispatch(&self.cell, AtomicOp::FetchMax { val: v }) {
            return prev;
        }
        self.cell.fetch_max(v, Ordering::Relaxed)
    }
}

/// Instrumented `usize` atomic (stored as `u64`; lossless on 64-bit
/// targets, which is all this workspace builds for).
#[derive(Debug, Default)]
pub struct AtomicUsize {
    cell: RawAtomicU64,
}

impl AtomicUsize {
    /// A new atomic holding `v`.
    pub const fn new(v: usize) -> Self {
        Self {
            cell: RawAtomicU64::new(v as u64),
        }
    }

    /// Relaxed load.
    #[inline(always)]
    pub fn load_relaxed(&self) -> usize {
        #[cfg(spp_model_check)]
        if let Some(v) = dispatch(
            &self.cell,
            AtomicOp::Load {
                ord: MemOrd::Relaxed,
            },
        ) {
            return v as usize;
        }
        self.cell.load(Ordering::Relaxed) as usize
    }

    /// Acquire load (pairs with [`AtomicUsize::store_release`]).
    #[inline(always)]
    pub fn load_acquire(&self) -> usize {
        #[cfg(spp_model_check)]
        if let Some(v) = dispatch(
            &self.cell,
            AtomicOp::Load {
                ord: MemOrd::Acquire,
            },
        ) {
            return v as usize;
        }
        self.cell.load(Ordering::Acquire) as usize
    }

    /// Relaxed store.
    #[inline(always)]
    pub fn store_relaxed(&self, v: usize) {
        #[cfg(spp_model_check)]
        if dispatch(
            &self.cell,
            AtomicOp::Store {
                ord: MemOrd::Relaxed,
                val: v as u64,
            },
        )
        .is_some()
        {
            return;
        }
        self.cell.store(v as u64, Ordering::Relaxed);
    }

    /// Release store (pairs with [`AtomicUsize::load_acquire`]).
    #[inline(always)]
    pub fn store_release(&self, v: usize) {
        #[cfg(spp_model_check)]
        if dispatch(
            &self.cell,
            AtomicOp::Store {
                ord: MemOrd::Release,
                val: v as u64,
            },
        )
        .is_some()
        {
            return;
        }
        self.cell.store(v as u64, Ordering::Release);
    }

    /// Relaxed fetch-add; returns the previous value.
    #[inline(always)]
    pub fn fetch_add_relaxed(&self, v: usize) -> usize {
        #[cfg(spp_model_check)]
        if let Some(prev) = dispatch(&self.cell, AtomicOp::FetchAdd { val: v as u64 }) {
            return prev as usize;
        }
        self.cell.fetch_add(v as u64, Ordering::Relaxed) as usize
    }
}

/// Instrumented `bool` atomic (stored as `u64`, 0 or 1).
#[derive(Debug, Default)]
pub struct AtomicBool {
    cell: RawAtomicU64,
}

impl AtomicBool {
    /// A new atomic holding `v`.
    pub const fn new(v: bool) -> Self {
        Self {
            cell: RawAtomicU64::new(v as u64),
        }
    }

    /// Relaxed load.
    #[inline(always)]
    pub fn load_relaxed(&self) -> bool {
        #[cfg(spp_model_check)]
        if let Some(v) = dispatch(
            &self.cell,
            AtomicOp::Load {
                ord: MemOrd::Relaxed,
            },
        ) {
            return v != 0;
        }
        self.cell.load(Ordering::Relaxed) != 0
    }

    /// Acquire load (pairs with [`AtomicBool::store_release`]).
    #[inline(always)]
    pub fn load_acquire(&self) -> bool {
        #[cfg(spp_model_check)]
        if let Some(v) = dispatch(
            &self.cell,
            AtomicOp::Load {
                ord: MemOrd::Acquire,
            },
        ) {
            return v != 0;
        }
        self.cell.load(Ordering::Acquire) != 0
    }

    /// Relaxed store.
    #[inline(always)]
    pub fn store_relaxed(&self, v: bool) {
        #[cfg(spp_model_check)]
        if dispatch(
            &self.cell,
            AtomicOp::Store {
                ord: MemOrd::Relaxed,
                val: v as u64,
            },
        )
        .is_some()
        {
            return;
        }
        self.cell.store(v as u64, Ordering::Relaxed);
    }

    /// Release store (pairs with [`AtomicBool::load_acquire`]).
    #[inline(always)]
    pub fn store_release(&self, v: bool) {
        #[cfg(spp_model_check)]
        if dispatch(
            &self.cell,
            AtomicOp::Store {
                ord: MemOrd::Release,
                val: v as u64,
            },
        )
        .is_some()
        {
            return;
        }
        self.cell.store(v as u64, Ordering::Release);
    }
}
