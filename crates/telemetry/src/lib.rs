//! Workspace observability (`spp_runtime::telemetry`): a metrics
//! registry, scoped spans, and trace exporters.
//!
//! Design constraints (DESIGN.md §10):
//!
//! 1. **Free when disabled.** Every hot-path entry point — counter adds,
//!    histogram observations, span creation — starts with one relaxed
//!    load of a global flag and returns immediately when it is off. The
//!    disabled path is benchmarked below 5 ns/event
//!    (`spp-bench/bin/telemetry_overhead`).
//! 2. **Deterministic-safe when enabled.** Recording writes to
//!    thread-local shards of relaxed atomics and to an event ring buffer;
//!    nothing is ever read back by the computation, and snapshots merge
//!    shards in registration index order, so enabling telemetry cannot
//!    perturb the bit-identity contract of DESIGN.md §9.
//! 3. **One clock.** [`span::clock_ns`] is the workspace's only wall
//!    clock outside `spp-bench` and the DES virtual clock (clippy.toml);
//!    simulated (virtual-time) spans are recorded through
//!    [`span::record_sim_span`] and exported on their own trace process.
//!
//! Span names follow `crate.component.stage` (e.g. `core.vip.sweep`,
//! `pipeline.stage6.slice`); the Appendix-D stage list is the
//! [`stage::PipelineStage`] enum, shared with the DES pipeline models so
//! stage labels cannot drift.
//!
//! # Example
//!
//! ```
//! use spp_telemetry as tel;
//!
//! tel::set_enabled(true);
//! let batches = tel::metrics::counter("doc.batches");
//! {
//!     let _span = tel::span!("doc.prep");
//!     batches.inc();
//! }
//! assert_eq!(batches.value(), 1);
//! assert!(tel::export::summary().contains("doc.batches"));
//! tel::set_enabled(false);
//! ```

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

pub mod attrib;
pub mod export;
pub mod metrics;
pub mod sketch;
pub mod snapshot;
pub mod span;
pub mod stage;

pub use attrib::{
    attrib_json, publish_cache_report, publish_comm_report, publish_store_report, reset_attrib,
    CacheReport, CommReport, StoreReport, TierStats,
};
pub use export::{init_from_env, summary, write_trace_files};
pub use metrics::{counter, enabled, gauge, histogram, set_enabled, snapshot};
pub use sketch::QuantileSketch;
pub use snapshot::{render_dashboard, start_snapshotter};
pub use span::{clock_ns, events_snapshot, record_sim_span, sim_track, Event, SpanGuard};
pub use stage::PipelineStage;

/// Opens a scoped span: `let _g = span!("crate.component.stage");`.
/// The span ends (and its duration is recorded) when the guard drops.
/// A no-op returning an inert guard while telemetry is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
}
