//! Shared infrastructure for the experiment harnesses.
//!
//! Every deterministic number — the paper's figures and tables, §5.3's
//! accuracy, the ablations, serving and out-of-core page locality — is a
//! row of one table-driven runner, `src/bin/experiments/` (`experiments
//! fig7 --quick`, `experiments --all`, `experiments --list`), which
//! writes each row's `results/*.csv` and asserts its paper-shape claims;
//! the one other binary, `kernel_bench`, gates kernel throughput (see
//! DESIGN.md §5 for the index and EXPERIMENTS.md for paper-vs-measured
//! results). This library provides the text/CSV table formatter, the
//! provenance-stamped `results/BENCH_*.json` writer
//! ([`report::BenchReport`]), the standard experiment datasets and
//! Table-3 workloads, and a tiny CLI parser.

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

pub mod cli;
pub mod datasets;
pub mod report;

pub use cli::Cli;
pub use datasets::Workload;
pub use report::{BenchReport, Table};
