//! Graph substrate for the SALIENT++ reproduction.
//!
//! This crate provides the compressed-sparse-row (CSR) graph representation
//! used throughout the workspace, deterministic synthetic graph generators
//! that stand in for the Open Graph Benchmark data sets used in the paper,
//! and the [`Dataset`] bundle (graph + vertex features + labels + splits)
//! consumed by the sampler, the VIP analysis, and the training engine.
//!
//! # Example
//!
//! ```
//! use spp_graph::generate::GeneratorConfig;
//!
//! // A small power-law graph, deterministically seeded.
//! let g = GeneratorConfig::rmat(1_000, 8_000).seed(7).build();
//! assert!(g.num_vertices() <= 1_000);
//! assert!(g.is_symmetric());
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

pub mod builder;
pub mod csr;
pub mod dataset;
pub mod generate;
pub mod io;
pub mod perm;
pub mod quant;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dataset::{Dataset, FeatureMatrix, Split};
pub use io::{GraphIoError, LoadError};
pub use perm::{PagedPermutation, Permutation};
pub use quant::{QuantScheme, QuantizedFeatures};

/// Vertex identifier. `u32` suffices for the scaled-down benchmark graphs
/// while halving index memory relative to `usize`.
pub type VertexId = u32;
