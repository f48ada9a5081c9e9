//! `spp-check`: the workspace concurrency model checker.
//!
//! Enumerates bounded-preemption interleavings — and, in weak-memory
//! mode, stale-but-permitted load results — of small closed-world
//! scenarios ("modules") over the `spp-sync` instrumented primitives,
//! asserting production invariants on every explored schedule. See
//! DESIGN.md §12 for how this fits the workspace's memory-ordering
//! discipline (clippy.toml's raw-atomics ban, lint L8), and
//! `crates/sync` for the instrumentation layer itself.
//!
//! Two build modes:
//!
//! - **Normal** (`cargo build`): the `spp-sync` wrappers compile to
//!   passthroughs, nothing is intercepted, and each module degenerates
//!   to one real execution — a smoke test, exercised by tier-1 tests.
//! - **Instrumented** (`RUSTFLAGS="--cfg spp_model_check"`): every
//!   atomic/mutex/condvar operation yields to the controlled scheduler
//!   and the full schedule tree is explored. `cargo xtask
//!   check-interleavings` builds and runs this configuration.
//!
//! Architecture: [`decision`] holds the replayable DFS stack;
//! `runtime` (private) implements the scheduler and memory model as the
//! process-wide [`spp_sync::hook::ModelHooks`] sink; [`explore`] drives
//! repeated executions; [`harness`] defines the modules; [`report`]
//! renders per-module results as text or JSON.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![allow(
    clippy::disallowed_types,
    reason = "spp-check implements the model checker the spp-sync wrappers report to: its scheduler state and mirrored cells are raw atomics, and instrumenting the instrumentation would recurse"
)]

pub mod decision;
mod explore;
pub mod harness;
pub mod report;
mod runtime;

pub use explore::{explore, Sim};
pub use report::{Expect, ModuleReport, Violation};
pub use runtime::Options;
