//! Per-layer metrics the workloads share: what the recorded spans and
//! counts say about each layer, GraphSAGE operation counts, and the two
//! micro-measurements of the pool and the all-to-all.

use crate::harness::{Harness, Stages};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use salientpp::comm::{run_machines, AllToAll};
use salientpp::core::policies::PolicyContext;
use salientpp::graph::Dataset;
use salientpp::runtime::{DistributedSetup, SetupConfig, WorkerPool};
use salientpp::sampler::Mfg;
use std::time::Instant;

/// Span names: `<layer>.<call>`.
pub const SAMPLE: &str = "sampler.sample";
pub const STORE_GATHER: &str = "store.gather";
pub const INRAM_GATHER: &str = "store.inram_gather";
pub const FORWARD: &str = "gnn.forward";
pub const BACKWARD: &str = "gnn.backward";
pub const INFER: &str = "gnn.infer";
pub const ADAM: &str = "tensor.adam";
pub const PLAN: &str = "core.plan";
pub const SERVE: &str = "core.serve";
pub const GATHER: &str = "core.gather";
pub const EVALUATE: &str = "runtime.evaluate";
pub const ADMIT: &str = "serve.admit";
pub const PROBE: &str = "serve.overlay_probe";
pub const INSERT: &str = "serve.overlay_insert";

/// Count names, recorded at the span that did the work.
pub const TARGETS: &str = "targets";
pub const MFG_NODES: &str = "mfg_nodes";
pub const MFG_EDGES: &str = "mfg_edges";
pub const FLOPS: &str = "flops";
pub const TAPE_NODES: &str = "tape_nodes";

/// Floating-point operations of one GraphSAGE (mean) pass over `mfg`:
/// per layer two dense products (self and neighbour) of
/// `targets × d_in × d_out` and one aggregation of `edges × d_in`.
/// Training adds the two gradient products per dense product and the
/// aggregation's transpose.
pub fn sage_flops(mfg: &Mfg, dims: &[usize], train: bool) -> usize {
    let (dense_mult, agg_mult) = if train { (3, 2) } else { (1, 1) };
    (1..=mfg.num_hops())
        .map(|layer| {
            let hop = mfg.layer_adj(layer);
            let (din, dout) = (dims[layer - 1], dims[layer]);
            dense_mult * 2 * 2 * hop.num_targets * din * dout + agg_mult * hop.num_edges() * din
        })
        .sum()
}

/// Records the sizes of one sampled batch.
pub fn count_mfg(tr: &Tracer, mfg: &Mfg, dims: &[usize], train: bool) {
    tr.count(TARGETS, mfg.num_seeds());
    tr.count(MFG_NODES, mfg.num_nodes());
    tr.count(MFG_EDGES, mfg.num_edges());
    tr.count(FLOPS, sage_flops(mfg, dims, train));
}

/// Fills every per-layer metric that is a function of the recorded spans
/// and counts alone. Layers a workload never called read 0.
pub fn set_span_metrics(h: &mut Harness) {
    let agg = h.tracer.aggregate();
    let a = |name: &str| agg.get(name).copied().unwrap_or_default();
    let targets = h.tracer.counted(TARGETS);
    let edges = h.tracer.counted(MFG_EDGES);
    let flops = h.tracer.counted(FLOPS);
    let out = &mut h.out;

    out.set("sampler.sample_us_per_batch", a(SAMPLE).us_per_call());
    out.set(
        "sampler.sample_allocs_per_batch",
        a(SAMPLE).allocs_per_call(),
    );
    out.set("sampler.edges_per_s", ratio(edges, a(SAMPLE).secs()));
    out.set(
        "sampler.mfg_nodes_per_target",
        ratio(h.tracer.counted(MFG_NODES), targets),
    );
    out.set("sampler.mfg_edges_per_target", ratio(edges, targets));

    out.set("store.gather_us_per_batch", a(STORE_GATHER).us_per_call());
    out.set(
        "store.gather_allocs_per_batch",
        a(STORE_GATHER).allocs_per_call(),
    );
    out.set(
        "store.inram_gather_us_per_batch",
        a(INRAM_GATHER).us_per_call(),
    );

    out.set("core.plan_us_per_batch", a(PLAN).us_per_call());
    out.set("core.serve_us_per_batch", a(SERVE).us_per_call());
    // Self time: with the responses in hand (serving fetches inside the
    // gather callback, which is `core.serve`'s span).
    out.set("core.gather_us_per_batch", a(GATHER).self_us_per_call());
    out.set("core.gather_allocs_per_batch", a(GATHER).allocs_per_call());

    out.set("gnn.forward_ms_per_batch", a(FORWARD).ms_per_call());
    out.set("gnn.forward_allocs_per_batch", a(FORWARD).allocs_per_call());
    out.set("gnn.backward_ms_per_batch", a(BACKWARD).ms_per_call());
    out.set(
        "gnn.backward_allocs_per_batch",
        a(BACKWARD).allocs_per_call(),
    );
    out.set("gnn.infer_ms_per_batch", a(INFER).ms_per_call());
    out.set("gnn.mflop_per_target", ratio(flops / 1e6, targets));
    out.set("tensor.adam_ms_per_batch", a(ADAM).ms_per_call());
    out.set(
        "tensor.gflops",
        ratio(
            flops / 1e9,
            a(FORWARD).secs() + a(BACKWARD).secs() + a(INFER).secs(),
        ),
    );
    out.set(
        "tensor.tape_nodes_per_batch",
        ratio(
            h.tracer.counted(TAPE_NODES),
            (a(FORWARD).count + a(INFER).count) as f64,
        ),
    );
    out.set("runtime.evaluate_ms", a(EVALUATE).ms_per_call());
    out.set("serve.admit_us_per_batch", a(ADMIT).us_per_call());
}

/// Times `DistributedSetup::partition` and the per-machine VIP ranking on
/// their own (the traced run's set-up breakdown; `build` repeats both).
pub fn time_partition_and_rank(st: &mut Stages<'_>, ds: &Dataset, cfg: &SetupConfig) {
    let (partitioning, train_of_part) = st.time("partition.partition_s", || {
        DistributedSetup::partition(ds, cfg)
    });
    st.time("core.vip_rank_s", || {
        for part in 0..cfg.num_machines as u32 {
            let ctx = PolicyContext {
                graph: &ds.graph,
                partitioning: &partitioning,
                part,
                local_train: &train_of_part[part as usize],
                fanouts: cfg.fanouts.clone(),
                batch_size: cfg.batch_size,
                seed: cfg.seed ^ 0x5eed,
                oracle_counts: &[],
            };
            std::hint::black_box(ctx.rank(cfg.policy));
        }
    });
}

/// Median wall time in µs of `WorkerPool::run_jobs` forking and joining
/// two empty jobs — what every parallel region pays before it does work.
pub fn pool_dispatch_us_p50() -> f64 {
    let pool = WorkerPool::new(2);
    let us: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(pool.run_jobs(2, |j| j));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us)
}

/// Median wall time in µs of one `AllToAll::exchange` round between two
/// threads, each sending the other `floats` f32s (a gradient's worth).
pub fn exchange_us_p50(floats: usize) -> f64 {
    const ROUNDS: usize = 200;
    let a2a = AllToAll::<Vec<f32>>::new(2);
    let mut per_rank = run_machines(2, |rank| {
        (0..ROUNDS)
            .map(|_| {
                let outgoing = vec![vec![rank as f32; floats], vec![rank as f32; floats]];
                let t0 = Instant::now();
                std::hint::black_box(a2a.exchange(rank, outgoing));
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    median(&per_rank.swap_remove(0))
}
