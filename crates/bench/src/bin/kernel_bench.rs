//! Compute-kernel microbenchmark: cache-blocked vectorized kernels vs
//! the seed scalar loops, plus quantized feature-tier byte accounting.
//!
//! Measures GFLOP/s for the three matmul variants (`A·B`, `Aᵀ·B`,
//! `A·Bᵀ`) in two forms — the seed's branchy zero-skip scalar loops
//! (inlined here verbatim as the reference) and the blocked dense
//! kernels in `spp_tensor::kernels` — at an L2-resident shape and at
//! the tall shapes the training loop runs, together with VIP sweep and
//! quantized feature-decode throughput, and the bytes-on-the-wire an
//! epoch of distributed training moves under each wire codec
//! (`f32`/`f16`/`i8`). At the two training shapes it also times the
//! tape's memory-bound ops against what they replaced, at 1 and 2
//! workers: a GraphSAGE layer as one `Tape::linear` vs the
//! `head_rows`/`matmul`/`add`/`add_bias`/`relu` node chain, and
//! `sparse_agg` forward / backward vs the serial per-target loop and
//! zero-fill-and-scatter (reported, not gated).
//!
//! Hard assertions (exit 1 on failure): each blocked dense matmul
//! kernel clears **2x** the seed scalar's GFLOP/s at the L2 shape, the
//! blocked `t_matmul` clears **1.5x** at the tall training shape, the
//! tape ops are bit-equal to their references, and quantized wire codecs
//! shrink epoch bytes by their nominal ratios.
//! Emits `results/BENCH_kernels.json`.

// Harness binaries may abort on setup errors; the workspace
// panic-family denies gate the library crates, not the harnesses
// (mirrors the bin/ exemption in `cargo xtask lint`).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::needless_range_loop
)]

use spp_bench::{BenchReport, Cli, Table};
use spp_core::VipModel;
use spp_graph::dataset::SyntheticSpec;
use spp_graph::{FeatureMatrix, QuantScheme, QuantizedFeatures};
use spp_runtime::{DistTrainConfig, DistributedSetup, DistributedTrainer, SetupConfig, WorkerPool};
use spp_sampler::Fanouts;
use spp_tensor::tape::{AggMode, CsrAdj};
use spp_tensor::{kernels, Matrix, Tape};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A dense layer `m` rows, `k → n` columns, timed as its three products:
/// forward `X·W` (`matmul`), weight gradient `Xᵀ·G` (`t_matmul`) and
/// input gradient `G·Wᵀ` (`matmul_t`), with `X` m×k, `W` k×n, `G` m×n.
#[derive(Clone, Copy)]
struct Shape {
    m: usize,
    k: usize,
    n: usize,
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.m, self.k, self.n)
    }
}

/// Every operand fits in L2: the kernels' register tiling alone, with
/// no memory traffic to hide.
const L2_SHAPE: Shape = Shape {
    m: 192,
    k: 160,
    n: 176,
};
/// What training actually multiplies — operands far taller than any
/// cache. Layer 1 of the benchmark's `train_compute` workload (batch
/// 256, fanouts 15/10/5, dim 64, hidden 256: ≈ 24 000 layer-1 target
/// rows); `dist_exchange` runs ≈ 10 000×100×64, the same regime.
const TALL_SHAPE: Shape = Shape {
    m: 24_000,
    k: 64,
    n: 256,
};
/// Layer 2 of the same workload (≈ 3 800 target rows, hidden → hidden).
/// Reported, not gated.
const MID_SHAPE: Shape = Shape {
    m: 3_800,
    k: 256,
    n: 256,
};
/// The CI floor at [`L2_SHAPE`]: blocked dense kernels must clear this
/// multiple of the seed scalar's GFLOP/s.
const MIN_SPEEDUP: f64 = 2.0;
/// The CI floor for `t_matmul` at [`TALL_SHAPE`]. The seed loop streams
/// each operand once, so a blocked kernel that re-walks all rows per
/// register tile is *slower* than it here (0.24x before the row panel)
/// while still clearing [`MIN_SPEEDUP`] at the L2 shape.
const MIN_TALL_T_MATMUL_SPEEDUP: f64 = 1.5;

fn check(ok: bool, what: &str) {
    if ok {
        println!("check ok: {what}");
    } else {
        eprintln!("CHECK FAILED: {what}");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Seed reference kernels (the scalar zero-skip loops this PR replaced;
// kept verbatim so the speedup baseline cannot drift with the library).
// ---------------------------------------------------------------------

/// Seed `A·B`: i-k-j accumulation with the branchy `av == 0.0` skip.
#[inline(never)]
fn seed_matmul(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    out.iter_mut().for_each(|o| *o = 0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Seed `Aᵀ·B`: r-outer streaming accumulation with the zero skip.
#[inline(never)]
fn seed_t_matmul(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    out.iter_mut().for_each(|o| *o = 0.0);
    for r in 0..rows {
        let a_row = &a[r * k..(r + 1) * k];
        let b_row = &b[r * n..(r + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Seed `A·Bᵀ`: one sequential dot product per output element.
#[inline(never)]
fn seed_matmul_t(a: &[f32], m: usize, k: usize, b: &[f32], b_rows: usize, out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..b_rows {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            out[i * b_rows + j] = acc;
        }
    }
}

/// Best-of-`reps` wall time of `f`, in seconds.
#[allow(
    clippy::disallowed_methods,
    reason = "bench harness: reports wall time by trade"
)]
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Deterministic pseudo-random fill in [-1, 1] (splitmix64 bits).
fn fill(data: &mut [f32], mut state: u64) {
    for v in data.iter_mut() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        *v = ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
    }
}

struct KernelResult {
    name: &'static str,
    seed_gflops: f64,
    blocked_gflops: f64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.blocked_gflops / self.seed_gflops
    }
}

/// Times the three products of one layer shape, seed scalar vs blocked:
/// `[matmul, t_matmul, matmul_t]`.
fn bench_shape(Shape { m, k, n }: Shape, reps: usize) -> [KernelResult; 3] {
    let mut x = vec![0.0f32; m * k];
    let mut w = vec![0.0f32; k * n];
    let mut g = vec![0.0f32; m * n];
    fill(&mut x, 1);
    fill(&mut w, 2);
    fill(&mut g, 3);
    let mut out_mm = vec![0.0f32; m * n];
    let mut out_tm = vec![0.0f32; k * n];
    let mut out_mt = vec![0.0f32; m * k];
    let gflop = 2.0 * (m * k * n) as f64 / 1e9;
    let result = |name, t_seed: f64, t_blocked: f64| KernelResult {
        name,
        seed_gflops: gflop / t_seed,
        blocked_gflops: gflop / t_blocked,
    };

    // X·W — (m×k) @ (k×n).
    let t_seed = time_best(reps, || {
        seed_matmul(black_box(&x), m, k, black_box(&w), n, &mut out_mm);
        black_box(&out_mm);
    });
    let t_blocked = time_best(reps, || {
        kernels::matmul_rows_dense(black_box(&x), k, black_box(&w), n, &mut out_mm);
        black_box(&out_mm);
    });
    let matmul = result("matmul", t_seed, t_blocked);

    // Xᵀ·G over the full column range — (m×k)ᵀ @ (m×n).
    let t_seed = time_best(reps, || {
        seed_t_matmul(black_box(&x), m, k, black_box(&g), n, &mut out_tm);
        black_box(&out_tm);
    });
    let t_blocked = time_best(reps, || {
        kernels::t_matmul_cols_dense(black_box(&x), k, black_box(&g), n, m, 0, &mut out_tm);
        black_box(&out_tm);
    });
    let t_matmul = result("t_matmul", t_seed, t_blocked);

    // G·Wᵀ — (m×n) @ (k×n)ᵀ; the blocked form is the partitioned dot.
    let t_seed = time_best(reps, || {
        seed_matmul_t(black_box(&g), m, n, black_box(&w), k, &mut out_mt);
        black_box(&out_mt);
    });
    let t_blocked = time_best(reps, || {
        kernels::matmul_t_rows_dense(black_box(&g), n, black_box(&w), k, &mut out_mt);
        black_box(&out_mt);
    });
    let matmul_t = result("matmul_t", t_seed, t_blocked);

    [matmul, t_matmul, matmul_t]
}

/// One tape op against the form it replaced, best-of-reps milliseconds.
struct TapeResult {
    key: String,
    old_name: &'static str,
    old_ms: f64,
    new_name: &'static str,
    new_ms: f64,
}

/// Best-of-`reps` milliseconds of `run` alone; `setup` builds each
/// repetition's tape (operand copies and all) off the clock.
#[allow(
    clippy::disallowed_methods,
    reason = "bench harness: reports wall time by trade"
)]
fn time_on_tape<S>(reps: usize, setup: impl Fn() -> S, mut run: impl FnMut(&mut S)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut state = setup();
        let t0 = Instant::now();
        run(&mut state);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e3
}

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    fill(m.as_flat_mut(), seed);
    m
}

/// The tape ops of one GraphSAGE layer at `shape` — `m` targets (a row
/// prefix of `sources_per_target · m` sources), `k → n` columns, `deg`
/// sampled neighbors per target — on `workers` workers: the layer's
/// dense part fused vs as the node chain, and `sparse_agg` over the
/// layer's `k`-wide input forward and backward (under `mean_all`, whose
/// constant gradient the reference scatters) vs the serial loops.
fn bench_tape_ops(
    shape @ Shape { m, k, n }: Shape,
    (sources_per_target, deg): (usize, usize),
    workers: usize,
    reps: usize,
) -> [TapeResult; 3] {
    let pool = WorkerPool::new(workers);
    let sources = sources_per_target * m;
    let x = filled(sources, k, 11);
    let neigh = filled(m, k, 12);
    let params = [filled(k, n, 13), filled(k, n, 14), filled(1, n, 15)];
    let adj = Arc::new(CsrAdj {
        num_targets: m,
        num_sources: sources,
        row_ptr: (0..=m).map(|t| t * deg).collect(),
        col: (0..(m * deg) as u64)
            .map(|e| (e.wrapping_mul(2_654_435_761) % sources as u64) as u32)
            .collect(),
    });
    let key = |op: &str| format!("{op}_ms_{shape}_w{workers}");

    // Dense part: x[..m]·Ws + neigh·Wn + b, ReLU.
    let layer = || {
        let mut t = Tape::with_pool(pool);
        let ids = [
            t.constant(x.clone()),
            t.constant(neigh.clone()),
            t.input(params[0].clone()),
            t.input(params[1].clone()),
            t.input(params[2].clone()),
        ];
        (t, ids)
    };
    let chain = |(t, [x, neigh, ws, wn, b]): &mut (Tape, [_; 5])| {
        let own = t.head_rows(*x, m);
        let p0 = t.matmul(own, *ws);
        let p1 = t.matmul(*neigh, *wn);
        let sum = t.add(p0, p1);
        let biased = t.add_bias(sum, *b);
        t.relu(biased)
    };
    let fused = |(t, [x, neigh, ws, wn, b]): &mut (Tape, [_; 5])| {
        t.linear(m, &[(*x, *ws), (*neigh, *wn)], Some(*b), true)
    };
    {
        let (mut a, mut b) = (layer(), layer());
        let (ya, yb) = (chain(&mut a), fused(&mut b));
        check(
            a.0.value(ya) == b.0.value(yb),
            &format!("linear == op chain at {shape}, {workers} worker(s)"),
        );
    }
    let linear = TapeResult {
        key: key("linear"),
        old_name: "chain",
        old_ms: time_on_tape(reps, layer, |s| {
            black_box(chain(s));
        }),
        new_name: "fused",
        new_ms: time_on_tape(reps, layer, |s| {
            black_box(fused(s));
        }),
    };

    // sparse_agg (Mean) over the layer input, and its input gradient:
    // the loops the tape ran before, fresh zeroed output included.
    let inv = 1.0 / deg as f32;
    let ref_forward = || {
        let mut out = Matrix::zeros(m, k);
        for t in 0..m {
            for &s in &adj.col[t * deg..(t + 1) * deg] {
                for (o, &a) in out.row_mut(t).iter_mut().zip(x.row(s as usize)) {
                    *o += a;
                }
            }
            out.row_mut(t).iter_mut().for_each(|o| *o *= inv);
        }
        out
    };
    // `mean_all`'s gradient, which the tape's backward also builds.
    let upstream = || Matrix::from_flat(m, k, vec![1.0 / (m * k) as f32; m * k]);
    let ref_backward = || {
        let g = upstream();
        let mut gx = Matrix::zeros(sources, k);
        for t in 0..m {
            for &s in &adj.col[t * deg..(t + 1) * deg] {
                for (o, &gv) in gx.row_mut(s as usize).iter_mut().zip(g.row(t)) {
                    *o += inv * gv;
                }
            }
        }
        gx
    };
    let recorded = || {
        let mut t = Tape::with_pool(pool);
        let xi = t.input(x.clone());
        let agg = t.sparse_agg(xi, Arc::clone(&adj), AggMode::Mean);
        let loss = t.mean_all(agg);
        (t, xi, agg, loss)
    };
    {
        let (mut t, xi, agg, loss) = recorded();
        t.backward(loss);
        check(
            t.value(agg) == &ref_forward() && t.grad(xi) == Some(&ref_backward()),
            &format!("sparse_agg == serial loops at {shape}, {workers} worker(s)"),
        );
    }
    let agg_fwd = TapeResult {
        key: key("sparse_agg_fwd"),
        old_name: "serial",
        old_ms: time_best(reps, || {
            black_box(ref_forward());
        }) * 1e3,
        new_name: "parallel",
        new_ms: time_on_tape(
            reps,
            || {
                let mut t = Tape::with_pool(pool);
                let xi = t.input(x.clone());
                (t, xi)
            },
            |(t, xi)| {
                black_box(t.sparse_agg(*xi, Arc::clone(&adj), AggMode::Mean));
            },
        ),
    };
    let agg_bwd = TapeResult {
        key: key("sparse_agg_bwd"),
        old_name: "scatter",
        old_ms: time_best(reps, || {
            black_box(ref_backward());
        }) * 1e3,
        new_name: "gather",
        new_ms: time_on_tape(reps, recorded, |(t, _, _, loss)| t.backward(*loss)),
    };
    [linear, agg_fwd, agg_bwd]
}

fn main() {
    let cli = Cli::parse();
    let reps = if cli.quick { 20 } else { 60 };
    // One tall product is tens of milliseconds: a handful of repetitions
    // is already longer than the whole L2-shape loop.
    let tall_reps = if cli.quick { 3 } else { 8 };

    let l2 = bench_shape(L2_SHAPE, reps);
    let tall = bench_shape(TALL_SHAPE, tall_reps);
    let mid = bench_shape(MID_SHAPE, tall_reps);
    // The L2 shape keeps the historical `<kernel>_gflops` report keys;
    // the training shapes carry theirs as a key suffix.
    let shapes = [
        (L2_SHAPE, String::new(), &l2),
        (TALL_SHAPE, format!("_{TALL_SHAPE}"), &tall),
        (MID_SHAPE, format!("_{MID_SHAPE}"), &mid),
    ];

    let mut table = Table::new(
        "compute kernels (best-of-reps)",
        &[
            "shape",
            "kernel",
            "seed GFLOP/s",
            "blocked GFLOP/s",
            "speedup",
        ],
    );
    for (shape, _, results) in &shapes {
        for r in *results {
            table.row(vec![
                shape.to_string(),
                r.name.to_string(),
                format!("{:.2}", r.seed_gflops),
                format!("{:.2}", r.blocked_gflops),
                format!("{:.2}x", r.speedup()),
            ]);
        }
    }
    table.print();

    // The tape's memory-bound ops at the training shapes. Layer 1 of
    // `train_compute` draws 5 neighbors per target from ≈ 2 sources per
    // target; layer 2 draws 10 from ≈ 6.
    let mut tape_ops = Vec::new();
    for (shape, hop) in [(TALL_SHAPE, (2, 5)), (MID_SHAPE, (6, 10))] {
        for workers in [1usize, 2] {
            tape_ops.extend(bench_tape_ops(shape, hop, workers, tall_reps));
        }
    }
    let mut table = Table::new(
        "tape ops vs the forms they replaced (best-of-reps, ms)",
        &["op_shape_workers", "old", "ms", "new", "ms", "speedup"],
    );
    for r in &tape_ops {
        table.row(vec![
            r.key.clone(),
            r.old_name.to_string(),
            format!("{:.2}", r.old_ms),
            r.new_name.to_string(),
            format!("{:.2}", r.new_ms),
            format!("{:.2}x", r.old_ms / r.new_ms),
        ]);
    }
    table.print();

    // VIP sweep throughput (the hop_update kernel, through the public
    // scores API) in millions of edge visits per second per hop.
    let ds = SyntheticSpec::new("kernels-sim", 4_000, 12.0, 16, 8)
        .split_fractions(0.2, 0.05, 0.05)
        .seed(cli.seed)
        .build();
    let vip = VipModel::new(Fanouts::new(vec![10, 5]), 32);
    let edges = ds.graph.num_edges() as f64;
    let hops = 2.0;
    let t_vip = time_best(reps.min(10), || {
        black_box(vip.scores(&ds.graph, &ds.split.train));
    });
    let vip_medges = edges * hops / t_vip / 1e6;
    println!("vip sweep: {vip_medges:.1} Medge-visits/s");

    // Quantized feature-decode throughput (the serving gather path).
    let feats = FeatureMatrix::from_flat(
        {
            let mut d = vec![0.0f32; 4096 * 64];
            fill(&mut d, 7);
            d
        },
        64,
    );
    let mut row_buf = vec![0.0f32; 64];
    let mut decode = Vec::new();
    for scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
        let q = QuantizedFeatures::from_matrix(&feats, scheme);
        let t = time_best(reps, || {
            for r in 0..q.num_rows() {
                q.read_row_into(r, &mut row_buf);
                black_box(&row_buf);
            }
        });
        let melems = (q.num_rows() * q.dim()) as f64 / t / 1e6;
        println!(
            "decode {}: {melems:.0} Melem/s ({} bytes/row)",
            scheme.name(),
            q.row_bytes()
        );
        decode.push((scheme, melems));
    }

    // Bytes on the wire for one epoch of distributed training under
    // each wire codec. Fetch *counts* are codec-independent (tier
    // membership is id-driven), so the byte ratio is exactly the
    // per-row encoding ratio.
    let setup = DistributedSetup::build(
        &ds,
        SetupConfig {
            num_machines: 2,
            fanouts: Fanouts::new(vec![10, 5]),
            batch_size: 32,
            alpha: 0.1,
            ..SetupConfig::default()
        },
    );
    let dim = ds.features.dim();
    let mut epoch_bytes = Vec::new();
    let mut fetches = None;
    for scheme in [QuantScheme::F32, QuantScheme::F16, QuantScheme::I8] {
        let (report, _) = DistributedTrainer::new(
            &setup,
            DistTrainConfig {
                hidden_dim: 16,
                epochs: 1,
                seed: cli.seed,
                wire_scheme: scheme,
                ..DistTrainConfig::default()
            },
        )
        .train();
        let f = *fetches.get_or_insert(report.remote_fetches);
        assert_eq!(
            f, report.remote_fetches,
            "fetch counts must be codec-independent"
        );
        let bytes = report.remote_fetches * scheme.row_bytes(dim);
        println!(
            "epoch wire bytes ({}): {bytes} ({} fetches x {} bytes/row)",
            scheme.name(),
            report.remote_fetches,
            scheme.row_bytes(dim)
        );
        epoch_bytes.push((scheme, bytes));
    }

    for r in &l2 {
        check(
            r.speedup() >= MIN_SPEEDUP,
            &format!(
                "{} at {L2_SHAPE}: blocked {:.2} GFLOP/s >= {MIN_SPEEDUP}x seed scalar {:.2}",
                r.name, r.blocked_gflops, r.seed_gflops
            ),
        );
    }
    let [_, tall_tm, _] = &tall;
    check(
        tall_tm.speedup() >= MIN_TALL_T_MATMUL_SPEEDUP,
        &format!(
            "t_matmul at {TALL_SHAPE}: blocked {:.2} GFLOP/s >= \
             {MIN_TALL_T_MATMUL_SPEEDUP}x seed scalar {:.2}",
            tall_tm.blocked_gflops, tall_tm.seed_gflops
        ),
    );
    check(
        epoch_bytes[1].1 * 2 == epoch_bytes[0].1,
        "f16 wire halves epoch bytes exactly",
    );
    check(
        epoch_bytes[2].1 < epoch_bytes[1].1,
        "i8 wire beats f16 epoch bytes",
    );

    let mut report = BenchReport::new("kernels");
    report
        .string("shape", &L2_SHAPE.to_string())
        .field("reps", reps.to_string())
        .field("min_speedup", format!("{MIN_SPEEDUP}"))
        .string("tall_shape", &TALL_SHAPE.to_string())
        .field("tall_reps", tall_reps.to_string())
        .field(
            "min_tall_t_matmul_speedup",
            format!("{MIN_TALL_T_MATMUL_SPEEDUP}"),
        )
        .field("vip_medge_visits_per_s", format!("{vip_medges:.1}"));
    for (_, suffix, results) in &shapes {
        for r in *results {
            report.field(
                &format!("{}_gflops{suffix}", r.name),
                format!(
                    "{{\"seed\": {:.3}, \"blocked\": {:.3}, \"speedup\": {:.3}}}",
                    r.seed_gflops,
                    r.blocked_gflops,
                    r.speedup()
                ),
            );
        }
    }
    for r in &tape_ops {
        report.field(
            &r.key,
            format!(
                "{{\"{}\": {:.3}, \"{}\": {:.3}, \"speedup\": {:.3}}}",
                r.old_name,
                r.old_ms,
                r.new_name,
                r.new_ms,
                r.old_ms / r.new_ms
            ),
        );
    }
    for (scheme, melems) in &decode {
        report.field(
            &format!("decode_{}_melems_per_s", scheme.name()),
            format!("{melems:.0}"),
        );
    }
    for (scheme, bytes) in &epoch_bytes {
        report.field(
            &format!("epoch_wire_bytes_{}", scheme.name()),
            bytes.to_string(),
        );
    }
    if let Some(path) = report.write() {
        println!("wrote {}", path.display());
    }
}
