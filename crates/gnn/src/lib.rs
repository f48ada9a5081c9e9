//! GNN models and the local training loop.
//!
//! Implements the architecture the paper evaluates (§2.1): GraphSAGE
//! with mean aggregation, on top of the [`spp_tensor`] autograd tape,
//! consuming sampled [message-flow graphs](spp_sampler::Mfg).
//!
//! # Example
//!
//! ```
//! use spp_gnn::{Arch, GnnModel};
//! use spp_graph::generate::ring_with_chords;
//! use spp_sampler::{Fanouts, NodeWiseSampler};
//! use spp_tensor::Matrix;
//! use rand::SeedableRng;
//!
//! let g = ring_with_chords(64, 5);
//! let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![3, 3]));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mfg = sampler.sample(&[0, 1], &mut rng);
//! let mut model = GnnModel::new(Arch::Sage, &[8, 16, 4], 0);
//! let x = Matrix::zeros(mfg.num_nodes(), 8);
//! let mut fwd = model.forward(x, &mfg, false, &mut rng);
//! assert_eq!(fwd.logits_value().shape(), (2, 4));
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

pub mod metrics;
pub mod model;
pub mod trainer;

pub use model::{model_dims, Arch, Forward, GnnModel};
pub use trainer::{
    seed_labels, train_step, EpochStats, TrainConfig, TrainReport, Trainer, MODEL_STREAM_SALT,
};
