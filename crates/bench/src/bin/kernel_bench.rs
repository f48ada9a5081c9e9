//! Compute-kernel microbenchmark: cache-blocked vectorized kernels vs
//! the seed scalar loops, plus quantized feature-tier byte accounting.
//!
//! Measures GFLOP/s for the three matmul variants (`A·B`, `Aᵀ·B`,
//! `A·Bᵀ`) in three forms — the seed's branchy zero-skip scalar loops
//! (inlined here verbatim as the reference), the blocked dense kernels
//! in `spp_tensor::kernels`, and the sparsity-aware dispatch — together
//! with VIP sweep and quantized feature-decode throughput, and the
//! bytes-on-the-wire an epoch of distributed training moves under each
//! wire codec (`f32`/`f16`/`i8`).
//!
//! Hard assertions (exit 1 on failure): each blocked dense matmul
//! kernel clears **2x** the seed scalar's GFLOP/s on the same shapes,
//! and quantized wire codecs shrink epoch bytes by their nominal
//! ratios. Emits `results/BENCH_kernels.json`.

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
use spp_runtime::{DistTrainConfig, DistributedSetup, DistributedTrainer, SetupConfig};
use spp_sampler::Fanouts;
use spp_tensor::kernels;
use std::hint::black_box;
use std::time::Instant;

/// Matmul shapes: M×K @ K×N. Sized so every operand fits in L2 (the
/// regime the training loop runs in: activation panels, not huge GEMMs).
const M: usize = 192;
const K: usize = 160;
const N: usize = 176;
/// The CI floor: blocked dense kernels must clear this multiple of the
/// seed scalar's GFLOP/s.
const MIN_SPEEDUP: f64 = 2.0;

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

fn main() {
    let cli = Cli::parse();
    let reps = if cli.quick { 20 } else { 60 };

    let mut a = vec![0.0f32; M * K];
    let mut b_mm = vec![0.0f32; K * N]; // K×N, for A·B
    let mut b_nk = vec![0.0f32; N * K]; // N×K, for A·Bᵀ
    let mut b_mn = vec![0.0f32; M * N]; // M×N, for Aᵀ·B
    fill(&mut a, 1);
    fill(&mut b_mm, 2);
    fill(&mut b_nk, 3);
    fill(&mut b_mn, 4);
    let mut out_mm = vec![0.0f32; M * N];
    let mut out_tm = vec![0.0f32; K * N];
    let mut out_mt = vec![0.0f32; M * N];

    let gflop_mm = 2.0 * (M * K * N) as f64 / 1e9;

    // A·B — seed scalar vs blocked.
    let t_seed = time_best(reps, || {
        seed_matmul(black_box(&a), M, K, black_box(&b_mm), N, &mut out_mm);
        black_box(&out_mm);
    });
    let t_blocked = time_best(reps, || {
        kernels::matmul_rows_dense(black_box(&a), K, black_box(&b_mm), N, &mut out_mm);
        black_box(&out_mm);
    });
    let matmul = KernelResult {
        name: "matmul",
        seed_gflops: gflop_mm / t_seed,
        blocked_gflops: gflop_mm / t_blocked,
    };

    // Aᵀ·B over the full column range (M×K)ᵀ @ (M×N).
    let gflop_tm = 2.0 * (M * K * N) as f64 / 1e9;
    let t_seed = time_best(reps, || {
        seed_t_matmul(black_box(&a), M, K, black_box(&b_mn), N, &mut out_tm);
        black_box(&out_tm);
    });
    let t_blocked = time_best(reps, || {
        out_tm.iter_mut().for_each(|o| *o = 0.0);
        kernels::t_matmul_cols_dense(black_box(&a), K, black_box(&b_mn), N, M, 0, &mut out_tm);
        black_box(&out_tm);
    });
    let t_matmul = KernelResult {
        name: "t_matmul",
        seed_gflops: gflop_tm / t_seed,
        blocked_gflops: gflop_tm / t_blocked,
    };

    // A·Bᵀ — (M×K) @ (N×K)ᵀ; the blocked form is the partitioned dot.
    let gflop_mt = 2.0 * (M * K * N) as f64 / 1e9;
    let t_seed = time_best(reps, || {
        seed_matmul_t(black_box(&a), M, K, black_box(&b_nk), N, &mut out_mt);
        black_box(&out_mt);
    });
    let t_blocked = time_best(reps, || {
        kernels::matmul_t_rows_dense(black_box(&a), K, black_box(&b_nk), N, &mut out_mt);
        black_box(&out_mt);
    });
    let matmul_t = KernelResult {
        name: "matmul_t",
        seed_gflops: gflop_mt / t_seed,
        blocked_gflops: gflop_mt / t_blocked,
    };

    let mut table = Table::new(
        "compute kernels (best-of-reps)",
        &["kernel", "seed GFLOP/s", "blocked GFLOP/s", "speedup"],
    );
    let results = [&matmul, &t_matmul, &matmul_t];
    for r in results {
        table.row(vec![
            r.name.to_string(),
            format!("{:.2}", r.seed_gflops),
            format!("{:.2}", r.blocked_gflops),
            format!("{:.2}x", r.blocked_gflops / r.seed_gflops),
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

    for r in results {
        check(
            r.blocked_gflops >= MIN_SPEEDUP * r.seed_gflops,
            &format!(
                "{}: blocked {:.2} GFLOP/s >= {MIN_SPEEDUP}x seed scalar {:.2}",
                r.name, r.blocked_gflops, r.seed_gflops
            ),
        );
    }
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
        .string("shape", &format!("{M}x{K}x{N}"))
        .field("reps", reps.to_string())
        .field("min_speedup", format!("{MIN_SPEEDUP}"))
        .field("vip_medge_visits_per_s", format!("{vip_medges:.1}"));
    for r in results {
        report.field(
            &format!("{}_gflops", r.name),
            format!(
                "{{\"seed\": {:.3}, \"blocked\": {:.3}, \"speedup\": {:.3}}}",
                r.seed_gflops,
                r.blocked_gflops,
                r.blocked_gflops / r.seed_gflops
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
