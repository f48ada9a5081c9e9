//! VIP sweep scaling: wall-clock for the pooled probabilistic
//! neighborhood-expansion sweep (paper §3.1, Proposition 1) versus the
//! serial dense baseline, across worker counts and sweep strategies.
//!
//! Two regimes are measured on an RMAT graph:
//!
//! * **dense scaling** — a large training set (10% of vertices), where
//!   every hop touches most of the graph and the dense strategy is the
//!   natural one; this isolates the worker-pool speedup.
//! * **per-partition small train sets** — `partition_scores` over K
//!   partitions of a tiny seed set (|T|/K seeds each, paper §3.2
//!   footnote 1), where the frontier-sparse sweep visits only each
//!   partition's expanding neighborhood (sharing one transposed graph
//!   across all K sweeps) and beats dense at equal worker count. This
//!   regime uses a 2-hop fanout: on a scale-free graph the reachable
//!   set approaches the whole graph by hop 3 (hub in-neighborhoods
//!   are most of the graph), at which point a "sparse" sweep visits
//!   nearly every edge and its advantage evaporates — exactly the
//!   saturation the `Auto` strategy's support-fraction test guards
//!   against.
//!
//! Every timed run is checked bit-for-bit against the serial dense
//! sweep; any mismatch makes the harness exit nonzero, so CI's
//! `--quick` invocation doubles as a determinism smoke test. Results go
//! to `results/BENCH_vip_scaling.json`.

// Harness binaries may abort on setup errors; the workspace
// panic-family denies gate the library crates, not the harnesses
// (mirrors the bin/ exemption in `cargo xtask lint`).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use spp_bench::report::fmt_secs;
use spp_bench::{BenchReport, Cli, Table};
use spp_core::{SweepStrategy, VipModel};
use spp_graph::generate::GeneratorConfig;
use spp_graph::{CsrGraph, VertexId};
use spp_runtime::pool::WorkerPool;
use spp_sampler::Fanouts;
use std::fmt::Write as _;
use std::time::Instant;

/// Worker counts swept by the bench.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One timed sweep: best-of-`repeats` wall-clock plus the hop vectors
/// (for the bit-identity check).
#[allow(
    clippy::disallowed_methods,
    reason = "bench harness: reports wall time by trade"
)]
fn time_sweep(
    model: &VipModel,
    graph: &CsrGraph,
    p0: &[f64],
    workers: usize,
    strategy: SweepStrategy,
    repeats: usize,
) -> (f64, Vec<Vec<f64>>) {
    let pool = WorkerPool::new(workers);
    let mut best = f64::INFINITY;
    let mut hops = Vec::new();
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        hops = model.hop_scores_with(pool, graph, p0, strategy);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, hops)
}

/// Like [`time_sweep`] but for the K-partition sweep
/// ([`VipModel::partition_scores_with`]).
#[allow(
    clippy::disallowed_methods,
    reason = "bench harness: reports wall time by trade"
)]
fn time_partition_sweep(
    model: &VipModel,
    graph: &CsrGraph,
    train_of_part: &[Vec<VertexId>],
    workers: usize,
    strategy: SweepStrategy,
    repeats: usize,
) -> (f64, Vec<Vec<f64>>) {
    let pool = WorkerPool::new(workers);
    let mut best = f64::INFINITY;
    let mut scores = Vec::new();
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        scores = model.partition_scores_with(pool, graph, train_of_part, strategy);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, scores)
}

/// Bitwise equality across whole hop-score matrices.
fn bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

struct Run {
    workers: usize,
    strategy: &'static str,
    secs: f64,
    speedup_vs_serial: f64,
    vertex_visits_per_sec: f64,
}

/// Times every worker count under a timed runner, verifying each
/// result bitwise against `reference`. Returns the runs and whether
/// all results matched. `visits` is the serial sweep's vertex-visit
/// count (vertices × hops × sweeps), used for the throughput metric.
fn sweep_workers(
    run: impl Fn(usize) -> (f64, Vec<Vec<f64>>),
    label: &'static str,
    serial_secs: f64,
    reference: &[Vec<f64>],
    visits: f64,
) -> (Vec<Run>, bool) {
    let mut runs = Vec::new();
    let mut ok = true;
    for &w in &WORKER_COUNTS {
        let (secs, result) = run(w);
        if !bits_equal(&result, reference) {
            eprintln!("BIT-IDENTITY VIOLATION: {label} sweep at {w} workers diverged from serial");
            ok = false;
        }
        runs.push(Run {
            workers: w,
            strategy: label,
            secs,
            speedup_vs_serial: serial_secs / secs,
            vertex_visits_per_sec: visits / secs,
        });
    }
    (runs, ok)
}

fn json_runs(out: &mut String, runs: &[Run]) {
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"workers\": {}, \"strategy\": \"{}\", \"secs\": {:.6}, \
             \"speedup_vs_serial\": {:.3}, \"vertex_visits_per_sec\": {:.1}}}{sep}",
            r.workers, r.strategy, r.secs, r.speedup_vs_serial, r.vertex_visits_per_sec
        );
    }
}

fn main() {
    let cli = Cli::parse();
    let n = ((131_072.0 * cli.scale) as usize).max(4096);
    let target_edges = n * 16;
    let repeats = if cli.quick { 1 } else { 3 };
    let fanouts = Fanouts::new(vec![15, 10, 5]);
    let hops = fanouts.num_hops();
    let model = VipModel::new(fanouts, 1024);
    // 2-hop model for the per-partition regime (see module docs).
    let part_fanouts = Fanouts::new(vec![15, 10]);
    let part_hops = part_fanouts.num_hops();
    let part_model = VipModel::new(part_fanouts, 1024);

    println!("building RMAT graph: {n} vertices, ~{target_edges} edges");
    let graph = GeneratorConfig::rmat(n, target_edges)
        .seed(cli.seed)
        .build();
    let edges = graph.num_edges();
    let avail = std::thread::available_parallelism().map_or(1, usize::from);

    let mut table = Table::new(
        "VIP sweep scaling (RMAT)",
        &[
            "regime",
            "strategy",
            "workers",
            "secs",
            "speedup vs serial dense",
        ],
    );
    let mut all_ok = true;

    // Regime 1: large train set (10% of vertices) — dense scaling.
    let big_train: Vec<VertexId> = (0..n as VertexId).step_by(10).collect();
    let p0 = model.initial_probabilities(n, &big_train);
    let (serial_secs, reference) =
        time_sweep(&model, &graph, &p0, 1, SweepStrategy::Dense, repeats);
    let (dense_runs, ok) = sweep_workers(
        |w| time_sweep(&model, &graph, &p0, w, SweepStrategy::Dense, repeats),
        "dense",
        serial_secs,
        &reference,
        (n * hops) as f64,
    );
    all_ok &= ok;
    for r in &dense_runs {
        table.row(vec![
            "10% train".into(),
            r.strategy.into(),
            r.workers.to_string(),
            fmt_secs(r.secs),
            format!("{:.2}x", r.speedup_vs_serial),
        ]);
    }

    // Regime 2: per-partition sweeps over K tiny train sets (|T|/K
    // seeds each) — the quantity the caching policy actually ranks.
    // Frontier-sparse shares one transposed graph across all K sweeps
    // and visits only each partition's expanding neighborhood.
    // Seeds are id-scrambled so they land on *typical* vertices: RMAT
    // ids with few set bits are hubs, and stride-sampling would seed
    // every sweep with a hub whose 1-hop in-neighborhood is most of the
    // graph (instantly saturating the frontier). Training vertices in
    // real datasets are typical vertices, not hubs.
    let k_parts = 16usize;
    let seeds_per_part = 1usize;
    let seeds: Vec<VertexId> = (1..=(k_parts * seeds_per_part) as u64)
        .map(|j| {
            let h = j.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
            (h as usize % n) as VertexId
        })
        .collect();
    let train_of_part: Vec<Vec<VertexId>> =
        seeds.chunks(seeds_per_part).map(<[_]>::to_vec).collect();
    let part_visits = (n * part_hops * k_parts) as f64;
    let (part_serial_secs, part_reference) = time_partition_sweep(
        &part_model,
        &graph,
        &train_of_part,
        1,
        SweepStrategy::Dense,
        repeats,
    );
    let (part_dense, ok) = sweep_workers(
        |w| {
            time_partition_sweep(
                &part_model,
                &graph,
                &train_of_part,
                w,
                SweepStrategy::Dense,
                repeats,
            )
        },
        "dense",
        part_serial_secs,
        &part_reference,
        part_visits,
    );
    all_ok &= ok;
    let (part_frontier, ok) = sweep_workers(
        |w| {
            time_partition_sweep(
                &part_model,
                &graph,
                &train_of_part,
                w,
                SweepStrategy::FrontierSparse,
                repeats,
            )
        },
        "frontier-sparse",
        part_serial_secs,
        &part_reference,
        part_visits,
    );
    all_ok &= ok;
    for r in part_dense.iter().chain(&part_frontier) {
        table.row(vec![
            format!("K={k_parts}x{seeds_per_part} seeds"),
            r.strategy.into(),
            r.workers.to_string(),
            fmt_secs(r.secs),
            format!("{:.2}x", r.speedup_vs_serial),
        ]);
    }
    table.print();

    // The headline: the pooled sweep (what `partition_scores` runs
    // under `SweepStrategy::Auto` in the per-partition regime) against
    // the serial dense baseline, at 4 workers.
    let pooled_at_4 = part_frontier
        .iter()
        .find(|r| r.workers == 4)
        .map_or(0.0, |r| r.speedup_vs_serial);
    println!("pooled (frontier, 4 workers) vs serial dense: {pooled_at_4:.2}x");
    println!("available parallelism on this host: {avail}");

    let mut dense_obj = String::new();
    let _ = writeln!(
        dense_obj,
        "{{\"fanouts\": [15, 10, 5], \"train_vertices\": {}, \
         \"serial_dense_secs\": {:.6}, \"runs\": [",
        big_train.len(),
        serial_secs
    );
    json_runs(&mut dense_obj, &dense_runs);
    let _ = write!(dense_obj, "  ]}}");

    let mut part_obj = String::new();
    let _ = writeln!(
        part_obj,
        "{{\"fanouts\": [15, 10], \"partitions\": {k_parts}, \
         \"seeds_per_partition\": {seeds_per_part}, \
         \"serial_dense_secs\": {part_serial_secs:.6}, \"runs\": ["
    );
    json_runs(&mut part_obj, &part_dense);
    let last = part_obj.trim_end().len();
    part_obj.truncate(last);
    let _ = writeln!(part_obj, ",");
    json_runs(&mut part_obj, &part_frontier);
    let _ = write!(part_obj, "  ]}}");

    let mut report = BenchReport::new("vip_scaling");
    report
        .field("scale", format!("{}", cli.scale))
        .field("seed", cli.seed.to_string())
        .field("repeats", repeats.to_string())
        .field("available_parallelism", avail.to_string())
        .field(
            "graph",
            format!("{{\"vertices\": {n}, \"edges\": {edges}}}"),
        )
        .field("dense_scaling", dense_obj)
        .field("per_partition", part_obj)
        .field(
            "pooled_vs_serial_dense_speedup_at_4_workers",
            format!("{pooled_at_4:.3}"),
        )
        .field("bit_identical", all_ok.to_string());
    if let Some(path) = report.write() {
        println!("wrote {}", path.display());
    }

    if !all_ok {
        eprintln!("FAILED: parallel/frontier sweeps are not bit-identical to serial dense");
        std::process::exit(1);
    }
}
