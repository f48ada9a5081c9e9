//! Shared infrastructure for the experiment harnesses.
//!
//! The paper's sweeps (Tables 1, 2 and 4, Figure 2, Figures 4–9 and the
//! timing / volume ablations) are rows of one table-driven runner,
//! `src/bin/experiments/` (`experiments fig7 --quick`, `experiments
//! --all`, `experiments --list`), which writes each row's
//! `results/*.csv` and asserts its paper-shape claims; the other
//! binaries in `src/bin/` are what is not a sweep (see DESIGN.md §5 for
//! the index and EXPERIMENTS.md for paper-vs-measured results). This
//! library provides the text/CSV table formatter, the
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
pub use datasets::{mag240_sim, papers_sim, products_sim, Workload};
pub use report::{BenchReport, Table};
