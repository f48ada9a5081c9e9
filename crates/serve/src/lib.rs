//! Online GNN inference serving on a SALIENT++ deployment.
//!
//! Training-time SALIENT++ amortizes communication with VIP-ranked
//! static caches; this crate asks the serving-time question: what
//! happens when per-vertex inference requests arrive online, with a
//! popularity skew the offline VIP analysis never saw? The answer is a
//! deterministic, virtual-time serving simulator:
//!
//! - [`queue`] — bounded admission with explicit backpressure: every
//!   request is either completed or rejected with a [`RejectReason`];
//!   the admitted-but-unfinished backlog never exceeds a hard bound.
//! - [`batcher`] — micro-batching: a batch closes when it reaches
//!   `max_batch_size` or when its oldest request has waited `max_delay`
//!   virtual seconds, whichever comes first.
//! - [`overlay`] — the dynamic second cache tier: an LRU overlay on top
//!   of the pinned VIP static cache that learns request skew online,
//!   with per-tier hit/miss/eviction counters.
//! - [`server`] — the event loop tying it together: per-batch L-hop
//!   sampling (`spp-sampler`), two-tier feature gather with remote-byte
//!   accounting, a virtual-time pipeline on the `spp-comm` DES (sample →
//!   fetch → copy → infer), and the `spp-gnn` forward pass on the
//!   helper of one pool lane per run.
//! - [`loadgen`] — seeded Pareto-skewed open-loop trace generation
//!   over a popularity sampler.
//!
//! Determinism is a hard contract (DESIGN.md §11): given a trace and a
//! config, batch composition, cache state, latencies, and output logits
//! are bit-identical across runs and across worker-pool sizes.
//!
//! # Example
//!
//! ```
//! use spp_graph::dataset::SyntheticSpec;
//! use spp_runtime::{DistributedSetup, SetupConfig};
//! use spp_sampler::Fanouts;
//! use spp_serve::{generate_open_loop, InferenceServer, ServeConfig, TraceConfig};
//!
//! let ds = SyntheticSpec::new("d", 300, 8.0, 8, 4)
//!     .split_fractions(0.2, 0.05, 0.05)
//!     .seed(1)
//!     .build();
//! let setup = DistributedSetup::build(&ds, SetupConfig {
//!     num_machines: 2,
//!     fanouts: Fanouts::new(vec![4, 3]),
//!     alpha: 0.2,
//!     ..SetupConfig::default()
//! });
//! let model = spp_gnn::GnnModel::new(spp_gnn::Arch::Sage, &[8, 16, 4], 7);
//! let cfg = ServeConfig {
//!     fanouts: Fanouts::new(vec![4, 3]),
//!     overlay_capacity: 16,
//!     ..ServeConfig::default()
//! };
//! let trace = generate_open_loop(&TraceConfig {
//!     num_requests: 64,
//!     num_vertices: 300,
//!     arrival_rate: 500.0,
//!     skew: 2.0,
//!     burstiness: 0.3,
//!     seed: 3,
//! });
//! let report = InferenceServer::new(&setup, &model, 0, cfg).run(&trace);
//! assert_eq!(report.total_requests(), 64);
//! assert!(report.makespan > 0.0);
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

pub mod batcher;
pub mod loadgen;
pub mod overlay;
pub mod queue;
pub mod server;

pub use batcher::{BatchPolicy, CloseTrigger, MicroBatch, MicroBatcher};
pub use loadgen::{generate_open_loop, PopularitySampler, TraceConfig, BURST_WINDOW};
pub use overlay::{DynamicOverlay, InsertOutcome, OverlayCounters};
pub use queue::{AdmissionQueue, InferenceRequest, RejectReason, Rejection};
pub use server::{BatchRecord, CacheStats, Completion, InferenceServer, ServeConfig, ServeReport};
