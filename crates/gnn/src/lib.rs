//! GNN models and the local training loop.
//!
//! Implements the architecture the paper evaluates (§2.1): GraphSAGE
//! with mean aggregation over sampled
//! [message-flow graphs](spp_sampler::Mfg). Training and inference run
//! through a [`SageStep`], one per batch, whose backward reuses the
//! forward's buffers; [`GnnModel::forward`] records one for the
//! benchmark's traced replays ([`Forward`]).
//!
//! # Example
//!
//! ```
//! use spp_gnn::{Arch, GnnModel, SageStep};
//! use spp_graph::generate::ring_with_chords;
//! use spp_pool::WorkerPool;
//! use spp_sampler::{Fanouts, NodeWiseSampler};
//! use spp_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let g = ring_with_chords(64, 5);
//! let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![3, 3]));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mfg = sampler.sample(&[0, 1], &mut rng);
//! let model = GnnModel::new(Arch::Sage, &[8, 16, 4], 0);
//! let x = Matrix::zeros(mfg.num_nodes(), 8);
//! let mut step = SageStep::new(&model);
//! let logits = step.infer(WorkerPool::global(), &model, &x, &mfg);
//! assert_eq!(logits.shape(), (2, 4));
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

pub mod input;
pub mod metrics;
pub mod model;
pub mod step;
pub mod trainer;

pub use input::StepInput;
pub use model::{model_dims, Arch, GnnModel};
pub use step::{Forward, Recorded, SageStep, StepRecord, MODEL_STREAM_SALT};
pub use trainer::{seed_labels, EpochStats, TrainConfig, TrainReport, Trainer};
