//! Disabled-recorder overhead for the telemetry subsystem.
//!
//! DESIGN.md §10 promises that every telemetry hot-path entry point —
//! counter add, histogram observe, span open/close, the `enabled()`
//! flag probe — costs one relaxed atomic load when the recorder is off,
//! budgeted below 5 ns/event. This harness measures each class with the
//! recorder disabled and **fails (exit 1)** if any exceeds the budget,
//! so a regression in the disabled path cannot land silently. Results
//! go to `results/BENCH_telemetry_overhead.json`.

// Harness binaries may abort on setup errors; the workspace
// panic-family denies gate the library crates, not the harnesses
// (mirrors the bin/ exemption in `cargo xtask lint`).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use spp_bench::{BenchReport, Cli, Table};
use spp_telemetry as tel;
use std::hint::black_box;
use std::time::Instant;

/// The per-event budget for the disabled path (DESIGN.md §10).
const BUDGET_NS: f64 = 5.0;

/// Budget for the `spp_sync` wrapper passthrough: outside a model-check
/// build the wrappers must compile down to the raw `std::sync::atomic`
/// operation, so the measured delta per op is pure noise (DESIGN.md
/// §12).
const SYNC_DELTA_BUDGET_NS: f64 = 0.1;

/// Best-of-`reps` per-iteration nanoseconds for `f` run `iters` times.
/// Best-of (not mean) because scheduler noise only ever adds time; the
/// minimum is the closest observable to the true cost of the loop body.
#[allow(
    clippy::disallowed_methods,
    reason = "bench harness: reports wall time by trade"
)]
fn time_per_event(iters: u64, reps: usize, mut f: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for i in 0..iters {
            f(black_box(i));
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    best
}

fn main() {
    let cli = Cli::parse();
    // The contract under test is the *disabled* path; make sure nothing
    // (e.g. an inherited SPP_TRACE) turned the recorder on.
    tel::set_enabled(false);
    assert!(!tel::enabled());

    let iters: u64 = if cli.quick { 2_000_000 } else { 50_000_000 };
    let reps = if cli.quick { 3 } else { 5 };
    println!("timing disabled-recorder events: {iters} iters x {reps} reps per class");

    // Handles obtained while disabled are inert (DEAD index) — exactly
    // what instrumented library code holds on an untraced run.
    let counter = tel::counter("bench.overhead.counter");
    let hist = tel::histogram("bench.overhead.hist");
    let flag_ns = time_per_event(iters, reps, |_| {
        black_box(tel::enabled());
    });
    let counter_ns = time_per_event(iters, reps, |i| counter.add(i & 1));
    let hist_ns = time_per_event(iters, reps, |i| hist.observe(i));
    let span_ns = time_per_event(iters, reps, |_| {
        let _g = tel::span!("bench.overhead.span");
    });
    // Registration (`counter("name")`) takes the registry mutex by
    // design — handles are registered at setup and cached, so the name
    // lookup is *not* part of the per-event budget. Measured anyway so
    // a pathological slowdown is still visible in the report.
    let lookup_ns = time_per_event(iters.min(5_000_000), reps, |_| {
        black_box(tel::counter("bench.overhead.lookup"));
    });

    // sync_overhead: the spp-sync wrapper vs the raw std atomic it
    // wraps, same loop body. Best-of timing makes the comparison
    // noise-floor-stable; any real delta means the zero-cost
    // passthrough claim regressed.
    #[allow(
        clippy::disallowed_types,
        reason = "the raw std atomic is the baseline the spp-sync passthrough is measured against"
    )]
    let raw = std::sync::atomic::AtomicU64::new(0);
    let wrapped = spp_sync::AtomicU64::new(0);
    let raw_ns = time_per_event(iters, reps, |i| {
        black_box(raw.fetch_add(i & 1, std::sync::atomic::Ordering::Relaxed));
    });
    let wrapped_ns = time_per_event(iters, reps, |i| {
        black_box(wrapped.fetch_add_relaxed(i & 1));
    });
    let sync_delta_ns = (wrapped_ns - raw_ns).max(0.0);

    let classes: [(&str, f64); 4] = [
        ("enabled() probe", flag_ns),
        ("counter.add", counter_ns),
        ("histogram.observe", hist_ns),
        ("span open+drop", span_ns),
    ];
    let mut t = Table::new(
        "telemetry disabled-path overhead (best-of per event)",
        &["event class", "ns/event", "budget", "ok"],
    );
    let mut worst = 0.0f64;
    for (name, ns) in classes {
        worst = worst.max(ns);
        t.row(vec![
            name.to_string(),
            format!("{ns:.3}"),
            format!("{BUDGET_NS:.1}"),
            if ns < BUDGET_NS { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t.row(vec![
        "registry lookup (setup path)".to_string(),
        format!("{lookup_ns:.3}"),
        "-".to_string(),
        "info".to_string(),
    ]);
    let sync_ok = sync_delta_ns < SYNC_DELTA_BUDGET_NS;
    t.row(vec![
        "sync_overhead (wrapper - raw delta)".to_string(),
        format!("{sync_delta_ns:.3}"),
        format!("{SYNC_DELTA_BUDGET_NS:.1}"),
        if sync_ok { "yes" } else { "NO" }.to_string(),
    ]);
    t.print();
    let pass = worst < BUDGET_NS && sync_ok;

    let mut report = BenchReport::new("telemetry_overhead");
    report
        .field("iters", iters.to_string())
        .field("reps", reps.to_string())
        .field("budget_ns", format!("{BUDGET_NS:.1}"))
        .field("enabled_probe_ns", format!("{flag_ns:.3}"))
        .field("counter_add_ns", format!("{counter_ns:.3}"))
        .field("histogram_observe_ns", format!("{hist_ns:.3}"))
        .field("span_ns", format!("{span_ns:.3}"))
        .field("registry_lookup_ns", format!("{lookup_ns:.3}"))
        .field("sync_raw_ns", format!("{raw_ns:.3}"))
        .field("sync_wrapped_ns", format!("{wrapped_ns:.3}"))
        .field("sync_delta_ns", format!("{sync_delta_ns:.3}"))
        .field("sync_delta_budget_ns", format!("{SYNC_DELTA_BUDGET_NS:.1}"))
        .field("worst_ns", format!("{worst:.3}"))
        .field("pass", pass.to_string());
    if let Some(path) = report.write() {
        println!("wrote {}", path.display());
    }

    if !pass {
        if worst >= BUDGET_NS {
            eprintln!(
                "FAILED: disabled-path overhead {worst:.3} ns/event exceeds {BUDGET_NS} ns budget"
            );
        }
        if !sync_ok {
            eprintln!(
                "FAILED: spp-sync passthrough delta {sync_delta_ns:.3} ns/op exceeds \
                 {SYNC_DELTA_BUDGET_NS} ns budget"
            );
        }
        std::process::exit(1);
    }
    println!(
        "disabled-path overhead: worst {worst:.3} ns/event (budget {BUDGET_NS} ns); \
         spp-sync passthrough delta {sync_delta_ns:.3} ns/op (budget {SYNC_DELTA_BUDGET_NS} ns)"
    );
}
