//! Static-analysis library behind `cargo xtask`.
//!
//! Three analyses share the lexical source model in [`scan`]:
//!
//! - the line-level invariant linter (rules L1–L8, [`rules`] /
//!   [`report`]), run by `cargo xtask lint`;
//! - the transitive hot-path analyzer (rules H1–H4, [`items`] /
//!   [`callgraph`] / [`hotrules`] / [`auditreport`]), run by
//!   `cargo xtask audit-hotpaths`. It parses function items and call
//!   sites out of the cleaned source, builds an intra-workspace call
//!   graph, and checks every function reachable from a declared
//!   `// spp-hot(<name>)` root for allocation, panic, blocking, and
//!   float-ordering hazards (DESIGN.md §13);
//! - the transitive determinism analyzer (rules D1–D5, [`detrules`] /
//!   [`auditreport`]), run by `cargo xtask audit-determinism`. It walks
//!   the same call graph from `// spp-det(<name>)` roots and checks
//!   every reachable function for the source constructs that break the
//!   §9 bit-identity contract: unordered hash iteration, unseeded RNG,
//!   ambient reads, worker-identity leaks, and order-sensitive float
//!   reductions (DESIGN.md §17).
//!
//! All three gates diff their committed baseline under `results/` via
//! [`baseline`]; `--refresh-baseline` rewrites the snapshot.

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

pub mod auditreport;
pub mod baseline;
pub mod benchdiff;
pub mod callgraph;
pub mod detrules;
pub mod hotrules;
pub mod items;
pub mod json;
pub mod report;
pub mod rules;
pub mod scan;
pub mod walk;
