//! The SALIENT++ distributed training runtime.
//!
//! Ties every substrate together:
//!
//! - [`setup`] — builds a distributed deployment from a dataset: METIS-style
//!   partitioning, per-partition VIP analysis, two-level reordering,
//!   VIP-ranked caches, and per-machine feature stores.
//! - [`volume`] — measures per-epoch remote communication volume for any
//!   caching policy (the Figure 2 experiment), by counting real sampled
//!   accesses.
//! - [`cost`] — the machine cost model (CPU sampling, feature slicing,
//!   PCIe transfers, GPU compute, NIC) used by timing simulations.
//! - [`stages`] — the one stage graph of the timing model: a stage
//!   table (label, resource, cost, dependencies per row) and the round
//!   interpreter that wires it onto the discrete-event engine.
//! - [`systems`] — per-epoch time estimation for the paper's system
//!   ladder over the coarse stage table: SALIENT full replication →
//!   partitioned features → pipelined communication → VIP caching (Table
//!   1, Figures 4–9), plus a DistDGL-like synchronous baseline (Table 4).
//! - [`pipeline`] — the same interpreter over the explicit Appendix-D
//!   10-stage table.
//! - [`engine`] — correctness-grade distributed training on real threads
//!   with all-to-all feature exchange and gradient averaging; verifies
//!   that partitioned+cached execution matches single-machine training.
//! - [`telemetry`] — the workspace observability layer (re-export of
//!   `spp-telemetry`): metrics registry, scoped spans, and the
//!   `SPP_TRACE` Chrome-trace/JSONL exporters (DESIGN.md §10).

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
// Index-based loops over multiple parallel arrays are used deliberately
// throughout (CSR sweeps, per-partition load vectors); iterator zips would
// obscure which array drives the bound.
#![allow(clippy::needless_range_loop)]

pub mod cost;
pub mod engine;
pub mod pipeline;
pub mod pool;
pub mod setup;
pub mod stages;
pub mod systems;
pub mod telemetry;
pub mod volume;
pub mod workload;

pub use cost::CostModel;
pub use engine::{DistTrainConfig, DistributedTrainReport, DistributedTrainer};
pub use pipeline::{PipelineEpoch, PipelineSim};
pub use pool::WorkerPool;
pub use setup::{DistributedSetup, SetupConfig};
pub use stages::{StageBusy, StageGraph};
pub use systems::{EpochSim, EpochTime, SystemSpec};
pub use volume::AccessCounts;
