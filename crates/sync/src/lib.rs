//! Instrumented concurrency primitives (`spp-sync`).
//!
//! Every atomic, mutex, and condvar the workspace's concurrent hot
//! paths use comes from this crate instead of `std::sync` directly
//! (clippy.toml bans the raw atomics). The wrappers are transparent in
//! normal builds — each method is an `#[inline(always)]` passthrough to the identical
//! `std::sync` operation, benchmarked at zero measurable overhead by
//! `spp-bench/bin/telemetry_overhead --quick` (`sync_overhead` case).
//!
//! Under `RUSTFLAGS="--cfg spp_model_check"` the same call sites route
//! through [`hook::ModelHooks`], which the `spp-check` crate implements
//! with a controlled scheduler: it enumerates thread interleavings with
//! bounded preemptions and (in weak-memory mode) serves loads stale
//! values the declared ordering permits, so `Relaxed` misuse shows up as
//! a concrete failing schedule instead of a latent production bug. See
//! DESIGN.md §12 for the memory-ordering discipline and the two gates —
//! clippy's raw-atomics ban and lint L8 — that keep call sites honest.
//!
//! Ordering is part of the method name (`load_acquire`,
//! `fetch_add_relaxed`, ...) rather than a parameter, which is what
//! makes L8 — every `*_relaxed(` call site carries a
//! `// spp-sync: relaxed(reason)` annotation — a purely lexical check.

// Test modules assert by panicking; the workspace panic-family denies
// (see [workspace.lints] in Cargo.toml) apply to library code only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![allow(
    clippy::disallowed_types,
    reason = "spp-sync owns the raw atomics: it is the wrapper layer clippy.toml sends every other crate to"
)]

pub mod hook;

mod atomic;
mod mutex;

pub use atomic::{AtomicBool, AtomicU64, AtomicUsize};
pub use mutex::{Condvar, Mutex, MutexGuard};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_u64_passthrough_semantics() {
        let a = AtomicU64::new(5);
        assert_eq!(a.load_relaxed(), 5);
        a.store_relaxed(7);
        assert_eq!(a.fetch_add_relaxed(3), 7);
        assert_eq!(a.load_acquire(), 10);
        assert_eq!(a.fetch_max_relaxed(4), 10);
        assert_eq!(a.fetch_max_relaxed(40), 10);
        a.store_release(2);
        assert_eq!(a.load_relaxed(), 2);
    }

    #[test]
    fn atomic_usize_and_bool_convert_at_the_edge() {
        let n = AtomicUsize::new(usize::MAX >> 1);
        assert_eq!(n.load_relaxed(), usize::MAX >> 1);
        n.store_release(3);
        assert_eq!(n.fetch_add_relaxed(2), 3);
        assert_eq!(n.load_acquire(), 5);

        let b = AtomicBool::new(false);
        assert!(!b.load_relaxed());
        b.store_release(true);
        assert!(b.load_acquire());
        b.store_relaxed(false);
        assert!(!b.load_relaxed());
    }

    #[test]
    fn mutex_guards_and_into_inner() {
        let m = Mutex::new(vec![1u32]);
        m.lock().push(2);
        {
            let g = m.lock();
            assert_eq!(*g, vec![1, 2]);
        }
        let mut m = m;
        m.get_mut().push(3);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wakes_real_waiters() {
        use std::sync::Arc;

        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        #[allow(
            clippy::disallowed_methods,
            reason = "the test needs a real OS thread blocked in Condvar::wait, which a pool worker cannot be"
        )]
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                ready = cv.wait(ready);
            }
            true
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn default_hooks_are_absent_in_plain_tests() {
        // Nothing installs hooks in a normal test binary, so the
        // wrappers must behave as raw std::sync.
        assert!(hook::installed().is_none() || cfg!(spp_model_check));
    }
}
