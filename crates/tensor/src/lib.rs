//! A small dense-tensor and autograd engine.
//!
//! The paper's system trains GNNs with PyTorch; this crate is the
//! substitute substrate (DESIGN.md §2): row-major `f32` matrices
//! ([`Matrix`]), a tape-based reverse-mode autograd graph ([`Tape`]) with
//! the dense and sparse (CSR aggregation, edge softmax) operators that
//! GraphSAGE/GIN/GAT require, weight [`init`]ializers, and [`optim`]izers
//! (Adam, SGD).
//!
//! # Example
//!
//! ```
//! use spp_tensor::{Matrix, Tape};
//!
//! let mut tape = Tape::new();
//! let x = tape.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let w = tape.input(Matrix::from_rows(&[&[1.0], &[1.0]]));
//! let y = tape.matmul(x, w);
//! let loss = tape.mean_all(y);
//! tape.backward(loss);
//! let gw = tape.grad(w).unwrap();
//! assert_eq!(gw.shape(), (2, 1));
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
pub mod tape;

pub use matrix::Matrix;
pub use optim::{Adam, Optimizer, Param, Sgd};
pub use tape::{NodeId, Tape};
