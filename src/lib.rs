//! # SALIENT++ in Rust
//!
//! A from-scratch reproduction of *"Communication-Efficient Graph Neural
//! Networks with Probabilistic Neighborhood Expansion Analysis and
//! Caching"* (Kaler, Iliopoulos, Murzynowski, Schardl, Leiserson, Chen —
//! MLSys 2023), including every substrate the paper depends on: graphs
//! and synthetic datasets, a multilevel graph partitioner, a node-wise
//! neighborhood sampler, a tensor/autograd engine with GNN models, the
//! VIP (vertex inclusion probability) analysis and caching policies that
//! are the paper's core contribution, and both a correctness-grade
//! distributed runtime and a discrete-event timing simulator for the
//! paper's performance experiments.
//!
//! This crate is a facade that re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `spp-graph` | CSR graphs, generators, datasets |
//! | [`partition`] | `spp-partition` | multilevel edge-cut partitioning |
//! | [`sampler`] | `spp-sampler` | node-wise sampling, MFGs |
//! | [`tensor`] | `spp-tensor` | matrices, autograd, optimizers |
//! | [`gnn`] | `spp-gnn` | GraphSAGE + training |
//! | [`core`] | `spp-core` | VIP analysis, caching, reordering |
//! | [`comm`] | `spp-comm` | DES engine, network models, all-to-all |
//! | [`telemetry`] | `spp-telemetry` | metrics, spans, trace exporters |
//! | [`runtime`] | `spp-runtime` | distributed setup/engine/simulation |
//! | [`serve`] | `spp-serve` | online inference serving: micro-batching, two-tier cache |
//! | [`store`] | `spp-store` | out-of-core paged feature store, streaming CSR builder |
//!
//! # Quickstart
//!
//! ```
//! use salientpp::prelude::*;
//!
//! // A small synthetic dataset and a 2-machine deployment with
//! // VIP-analytic caching at replication factor 0.2.
//! let ds = SyntheticSpec::new("demo", 400, 8.0, 8, 4)
//!     .split_fractions(0.3, 0.1, 0.1)
//!     .seed(1)
//!     .build();
//! let setup = DistributedSetup::build(
//!     &ds,
//!     SetupConfig {
//!         num_machines: 2,
//!         fanouts: Fanouts::new(vec![5, 5]),
//!         alpha: 0.2,
//!         ..SetupConfig::default()
//!     },
//! );
//! assert_eq!(setup.stores.len(), 2);
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

pub use spp_comm as comm;
pub use spp_core as core;
pub use spp_gnn as gnn;
pub use spp_graph as graph;
pub use spp_partition as partition;
pub use spp_runtime as runtime;
pub use spp_sampler as sampler;
pub use spp_serve as serve;
pub use spp_store as store;
pub use spp_telemetry as telemetry;
pub use spp_tensor as tensor;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use spp_core::policies::CachePolicy;
    pub use spp_core::{
        CacheBuilder, PartitionedFeatureStore, ReorderedLayout, StaticCache, VipModel,
    };
    pub use spp_gnn::{Arch, GnnModel, TrainConfig, Trainer};
    pub use spp_graph::dataset::{mag240_mini, papers_mini, products_mini, SyntheticSpec};
    pub use spp_graph::generate::GeneratorConfig;
    pub use spp_graph::{CsrGraph, Dataset, FeatureMatrix, GraphBuilder, Permutation, VertexId};
    pub use spp_partition::multilevel::MultilevelPartitioner;
    pub use spp_partition::{Partitioning, VertexWeights};
    pub use spp_runtime::{
        AccessCounts, CostModel, DistTrainConfig, DistributedSetup, DistributedTrainer, EpochSim,
        SetupConfig, SystemSpec,
    };
    pub use spp_sampler::{Fanouts, Mfg, MinibatchIter, NodeWiseSampler};
    pub use spp_serve::{InferenceServer, ServeConfig, ServeReport};
    pub use spp_store::{FeatureStore, MmapStore, StoreBuilder, StreamingCsrBuilder};
    pub use spp_tensor::{Adam, Matrix, Optimizer, Tape};
}
