//! Dense tensors, kernels and the optimizer GraphSAGE training runs on.
//!
//! The paper's system trains GNNs with PyTorch; this crate is the
//! substitute substrate (DESIGN.md §2): row-major `f32` matrices
//! ([`Matrix`]) with their blocked dense [`kernels`], whose left operand
//! may also be rows kept anywhere else, packed as they are read
//! ([`RowView`]), the sparse half of a GraphSAGE layer ([`sage`]:
//! neighbor mean, its gradient as a gather, dropout), weight
//! [`init`]ializers, and the Adam [`optim`]izer.
//! There is no autograd graph: `spp_gnn::SageStep` composes these
//! kernels into the one forward and backward the model needs.
//!
//! # Example
//!
//! ```
//! use spp_pool::WorkerPool;
//! use spp_tensor::{Matrix, RowView};
//!
//! // One affine layer with ReLU, `relu(x·w + b)`, and the gradient of
//! // `w` for an upstream gradient `g`: `xᵀ·g`.
//! let pool = WorkerPool::serial();
//! let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -4.0]]);
//! let w = Matrix::from_rows(&[&[1.0], &[1.0]]);
//! let b = Matrix::from_rows(&[&[0.5]]);
//! let mut y = Matrix::empty();
//! Matrix::linear_into(pool, 2, &[(RowView::Dense(&x), &w)], Some(&b), true, &mut y);
//! assert_eq!(y.as_flat(), &[3.5, 0.0]);
//! let g = Matrix::from_rows(&[&[1.0], &[0.0]]);
//! let mut gw = Matrix::empty();
//! x.t_matmul_into(pool, &g, &mut gw);
//! assert_eq!(gw.as_flat(), &[1.0, 2.0]);
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

pub mod init;
pub mod kernels;
pub mod matrix;
pub mod optim;
pub mod sage;

pub use matrix::{Matrix, RowTable, RowView};
pub use optim::{Adam, Optimizer, Param};
