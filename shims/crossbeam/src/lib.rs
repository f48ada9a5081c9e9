//! Offline stand-in for the `crossbeam::thread::scope` API, implemented
//! on `std::thread::scope` (stable since Rust 1.63).
//!
//! Differences from upstream, none observable by this workspace:
//! - a panic in an unjoined child re-panics at scope exit (std semantics)
//!   instead of surfacing through the scope's `Result`; call sites here
//!   always join and `.expect()` the result either way;
//! - spawn closures receive a placeholder [`thread::SpawnScope`] token
//!   instead of the real scope (no call site spawns nested threads).

// Test modules assert by panicking; the workspace panic-family denies
// (see [workspace.lints] in Cargo.toml) apply to library code only.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp
    )
)]

pub mod thread {
    //! Scoped threads.

    use std::any::Any;

    /// Token passed to spawn closures; upstream passes the scope itself
    /// so children can spawn siblings, which this workspace never does.
    pub struct SpawnScope(());

    /// Handle to a scoped thread, joinable before scope exit.
    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread, returning its result or the panic payload.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.0.join()
        }
    }

    /// Wrapper over [`std::thread::Scope`] exposing crossbeam's spawn
    /// signature (closure takes a scope argument).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; joined automatically at scope exit.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&SpawnScope) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle(self.inner.spawn(move || f(&SpawnScope(()))))
        }
    }

    /// Runs `f` with a scope in which borrowed threads can be spawned;
    /// all children are joined before this returns.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the shim's own tests call the function clippy.toml bans for everyone else"
)]
mod tests {
    #[test]
    fn scope_joins_and_returns() {
        let data = [1u64, 2, 3, 4];
        let total: u64 = crate::thread::scope(|s| {
            let handles: Vec<_> = data.iter().map(|&x| s.spawn(move |_| x * 10)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("child panicked"))
                .sum()
        })
        .expect("scope failed");
        assert_eq!(total, 100);
    }

    #[test]
    fn borrows_from_enclosing_frame() {
        let mut out = vec![0usize; 4];
        crate::thread::scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move |_| *slot = i + 1);
            }
        })
        .expect("scope failed");
        assert_eq!(out, vec![1, 2, 3, 4]);
    }
}
