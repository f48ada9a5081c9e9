//! Instrumented `Mutex` and `Condvar`.
//!
//! Normal builds are thin passthroughs over `std::sync` that swallow
//! poisoning (matching the vendored `parking_lot` shim's behavior — a
//! panic while holding a telemetry lock must not cascade). Under
//! `cfg(spp_model_check)` every acquisition, release, wait, and notify
//! is announced to the scheduler first, so the model checker controls
//! which thread wins each lock handoff; the real `std` primitives are
//! then taken uncontended in the order the model chose.

use std::ops::{Deref, DerefMut};

/// Instrumented mutual-exclusion lock.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A new mutex holding `t`.
    pub const fn new(t: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(t),
        }
    }

    /// Location id for the model checker: the wrapper's address, stable
    /// for the object's lifetime.
    #[cfg(spp_model_check)]
    fn loc(&self) -> usize {
        self as *const Self as usize
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(spp_model_check)]
        let model = match crate::hook::installed() {
            Some(h) => h.mutex_lock(self.loc()),
            None => false,
        };
        MutexGuard {
            owner: self,
            inner: Some(self.raw_lock()),
            #[cfg(spp_model_check)]
            model,
        }
    }

    /// Consumes the mutex, returning the inner value. No model dispatch:
    /// exclusive ownership means no concurrency to schedule.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(t) => t,
            Err(p) => p.into_inner(),
        }
    }

    /// Mutable access through exclusive borrow (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(t) => t,
            Err(p) => p.into_inner(),
        }
    }

    /// The real lock, poison-swallowing, without model dispatch.
    fn raw_lock(&self) -> std::sync::MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

/// RAII guard; the lock releases on drop.
pub struct MutexGuard<'a, T> {
    owner: &'a Mutex<T>,
    /// `None` only transiently inside [`Condvar::wait`], never while the
    /// guard is visible to callers.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    /// True when the acquisition was granted by the model scheduler (the
    /// release must then be announced too).
    #[cfg(spp_model_check)]
    model: bool,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self.inner.as_deref() {
            Some(t) => t,
            #[allow(
                clippy::unreachable,
                reason = "guard invariant by construction; the Option exists only for the model-check drop protocol"
            )]
            None => unreachable!("live guard always holds the inner lock"),
        }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.inner.as_deref_mut() {
            Some(t) => t,
            #[allow(
                clippy::unreachable,
                reason = "guard invariant by construction; the Option exists only for the model-check drop protocol"
            )]
            None => unreachable!("live guard always holds the inner lock"),
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Announce the model release before the field drop performs the
        // real unlock: the scheduler must mark the mutex free before any
        // other model thread can be granted it.
        #[cfg(spp_model_check)]
        if self.model && self.inner.is_some() {
            if let Some(h) = crate::hook::installed() {
                h.mutex_unlock(self.owner.loc());
            }
        }
        #[cfg(not(spp_model_check))]
        let _ = self.owner;
    }
}

/// Instrumented condition variable. Pairs only with [`Mutex`] from this
/// crate (the guard carries the mutex identity the model needs).
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    #[cfg(spp_model_check)]
    fn loc(&self) -> usize {
        self as *const Self as usize
    }

    /// Releases the lock, blocks until notified, re-acquires.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let owner = guard.owner;
        #[cfg(spp_model_check)]
        if guard.model {
            if let Some(h) = crate::hook::installed() {
                let mloc = owner.loc();
                let cvloc = self.loc();
                if h.condvar_wait_release(cvloc, mloc) {
                    // Model path: the scheduler has released the model
                    // mutex and queued us as a waiter. Drop the real
                    // lock, park until notified + granted, retake it.
                    guard.model = false;
                    drop(guard.inner.take());
                    drop(guard);
                    h.condvar_wait_reacquire(cvloc, mloc);
                    return MutexGuard {
                        owner,
                        inner: Some(owner.raw_lock()),
                        model: true,
                    };
                }
            }
        }
        let std_guard = match guard.inner.take() {
            Some(g) => g,
            #[allow(
                clippy::unreachable,
                reason = "guard invariant by construction; the Option exists only for the model-check drop protocol"
            )]
            None => unreachable!("live guard always holds the inner lock"),
        };
        #[cfg(spp_model_check)]
        {
            guard.model = false;
        }
        drop(guard);
        let inner = match self.inner.wait(std_guard) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard {
            owner,
            inner: Some(inner),
            #[cfg(spp_model_check)]
            model: false,
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        #[cfg(spp_model_check)]
        if let Some(h) = crate::hook::installed() {
            if h.condvar_notify(self.loc(), false) {
                return;
            }
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        #[cfg(spp_model_check)]
        if let Some(h) = crate::hook::installed() {
            if h.condvar_notify(self.loc(), true) {
                return;
            }
        }
        self.inner.notify_all();
    }
}
