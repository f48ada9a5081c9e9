//! The paper's core contribution: vertex-inclusion-probability (VIP)
//! analysis and the caching/ordering machinery built on it.
//!
//! - [`vip`] — the analytical VIP model of Proposition 1 for node-wise
//!   sampling: the probability that each graph vertex appears in the
//!   sampled L-hop expanded neighborhood of a minibatch.
//! - [`policies`] — the full set of static caching policies compared in
//!   the paper's Figure 2: degree, 1-hop halo, weighted reverse PageRank,
//!   path counting, empirical simulation, analytic VIP, and the
//!   retrospective oracle.
//! - [`cache`] — static remote-feature caches sized by a replication
//!   factor α (cache holds the top `αN/K` remote vertices by policy rank).
//! - [`reorder`] — the two-level vertex ordering of §4.1
//!   (partition-major, VIP-descending within each partition) enabling
//!   constant-memory locality tests and GPU-prefix placement.
//! - [`feature_store`] — the per-machine partitioned feature store with a
//!   GPU/CPU tier split, a remote cache, and batch classification of MFG
//!   vertices into local-GPU / local-CPU / cached / remote.
//!
//! # Example
//!
//! ```
//! use spp_core::vip::VipModel;
//! use spp_graph::generate::ring_with_chords;
//! use spp_sampler::Fanouts;
//!
//! let g = ring_with_chords(64, 5);
//! let train: Vec<u32> = (0..8).collect();
//! let p = VipModel::new(Fanouts::new(vec![3, 3]), 4).scores(&g, &train);
//! assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
//! assert!(p[0] > 0.0);
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
// Index-based loops over multiple parallel arrays are used deliberately
// throughout (CSR sweeps, per-partition load vectors); iterator zips would
// obscure which array drives the bound.
#![allow(clippy::needless_range_loop)]

pub mod cache;
pub mod feature_store;
pub mod policies;
pub mod reorder;
pub mod vip;
pub mod vip_partition;

pub use cache::{CacheBuilder, StaticCache};

/// Clamps a computed probability into `[0, 1]`.
///
/// Proposition 1 guarantees `p ∈ [0, 1]` analytically, but the log-space
/// evaluation (`1 - exp(Σ ln_1p(-x))`) can escape the interval by a few
/// ulps; every probability store in the VIP modules routes through this
/// (enforced by `cargo xtask lint` rule `l5-prob-clamp`).
#[inline]
#[must_use]
pub fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}
pub use feature_store::{BatchPlan, BatchRows, FeatureLocation, PartitionedFeatureStore};
pub use policies::{CachePolicy, PolicyContext};
pub use reorder::ReorderedLayout;
pub use vip::{TransitionLaw, VipModel};
