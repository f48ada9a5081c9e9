//! Static-analysis library behind `cargo xtask`.
//!
//! Three gates share one engine: the lexical source model in [`scan`],
//! the item and annotation parser in [`items`], the call graph in
//! [`callgraph`], the rule table and its `check` in [`rules`], and the
//! renderers in [`auditreport`] (DESIGN.md "Static gates"):
//!
//! - `cargo xtask lint` runs the path-scoped line rules (L2, L3, L5,
//!   L8) over every non-test library line;
//! - `cargo xtask audit-hotpaths` checks every function reachable from
//!   a declared `// spp-hot(<name>)` root for allocation, panic,
//!   blocking, and float-ordering hazards (H1–H4);
//! - `cargo xtask audit-determinism` walks the same call graph from
//!   `// spp-det(<name>)` roots and checks every reachable function for
//!   the source constructs that break the §9 bit-identity contract:
//!   unordered hash iteration, unseeded RNG, ambient reads,
//!   worker-identity leaks, and order-sensitive float reductions
//!   (D1–D5).
//!
//! What a type-aware tool checks better — the panic family, raw
//! threads, clocks and atomics — is clippy's (`clippy.toml`,
//! `[workspace.lints.clippy]`), not a rule here.
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
pub mod items;
pub mod json;
pub mod rules;
pub mod scan;
pub mod walk;
