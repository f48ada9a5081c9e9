//! The two deployment claims beyond the paper's training figures:
//! VIP-ranked caching pays off under a skewed request stream when half
//! the budget is an online LRU overlay (`serving`), and VIP page
//! reordering packs a batch's feature rows onto fewer pages of the
//! out-of-core store (`io_locality`). Both rows are deterministic —
//! serving runs in virtual time and page traffic is counted, not timed —
//! so their CSVs are goldens like every other row's.

use crate::ctx::Ctx;
use crate::curves::{count, fixed, Curves, Grid};
use crate::shapes::{all, less, shape, verdict};
use crate::Row;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_core::VipModel;
use spp_gnn::{Arch, GnnModel};
use spp_graph::dataset::SyntheticSpec;
use spp_graph::generate::citation_edges;
use spp_graph::{PagedPermutation, Permutation, QuantScheme, VertexId};
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::{batch_stream_seed, Fanouts, MinibatchIter, NodeWiseSampler};
use spp_serve::{
    generate_open_loop, InferenceRequest, InferenceServer, ServeConfig, ServeReport, TraceConfig,
};
use spp_store::{
    FeatureStore, MmapStore, PermutedStore, StoreBuilder, StoreStats, StreamingCsrBuilder,
};
use spp_telemetry as tel;
use std::path::Path;

const STATIC: &str = "static-only";
const TWO_TIER: &str = "two-tier";
const F16: &str = "two-tier f16 (equal RAM)";

pub const ROWS: &[Row] = &[
    Row {
        id: "serving",
        title: "Online serving at equal cache RAM: static-only vs static + LRU overlay vs f16 tiers, skewed bursty stream (K=2)",
        csv: &["serving", "serving_cache", "serving_burstiness"],
        run: serving,
        shapes: &[
            shape("every request is completed or rejected with a reason", |c| {
                let g = c.grid("serving");
                all([STATIC, TWO_TIER, F16].map(|row| {
                    let (done, sent) = (g.at(row, "completed") + g.at(row, "rejected"), g.at(row, "requests"));
                    verdict(done == sent, format!("{row} {done} of {sent}"))
                }))
            }),
            shape("the overlay earns its half of the budget: two-tier hits more than static-only, and at least 10 %", |c| {
                let g = c.grid("serving_cache");
                let hit = g.at(TWO_TIER, "combined hit");
                let floor = verdict(hit >= 0.10, format!("two-tier {hit:.4} >= 0.10"));
                all([less(g, (STATIC, "combined hit"), (TWO_TIER, "combined hit")), floor])
            }),
            shape("f16 tiers hold >= 1.9x the entries at equal RAM, hit more and fetch fewer bytes", |c| {
                let g = c.grid("serving_cache");
                let entries = |row| g.at(row, "static rows") + g.at(row, "overlay rows");
                let ratio = entries(F16) / entries(TWO_TIER);
                all([
                    verdict(ratio >= 1.9, format!("{ratio:.2}x the entries")),
                    less(g, (TWO_TIER, "combined hit"), (F16, "combined hit")),
                    less(g, (F16, "bytes fetched"), (TWO_TIER, "bytes fetched")),
                ])
            }),
            shape("more re-referencing never lengthens the tail: sketch p99 does not rise with burstiness", |c| {
                let g = c.grid("serving_burstiness");
                let p99: Vec<f64> = g.rows.iter().map(|(_, v)| v[g.col_index("p99 ms")]).collect();
                let quoted: Vec<String> = g.rows.iter().zip(&p99).map(|((b, _), p)| format!("{b}: {p:.4}")).collect();
                verdict(p99.windows(2).all(|w| w[1] <= w[0]), format!("p99 ms {}", quoted.join(" -> ")))
            }),
        ],
    },
    Row {
        id: "io_locality",
        title: "Out-of-core store: page traffic of one sampled epoch, VIP vs random page layout at equal page size",
        csv: &["io_locality"],
        run: io_locality,
        shapes: &[shape("the VIP layout reads fewer bytes and faults fewer pages than random", |c| {
            let g = c.grid("io_locality");
            all(["bytes/epoch", "pages faulted/epoch"].map(|col| less(g, ("vip", col), ("random", col))))
        })],
    },
];

/// Serving fanouts (2 hops — must match the model depth).
const FANOUTS: [usize; 2] = [5, 3];
/// Total cache budget as a replication factor.
const ALPHA_TOTAL: f64 = 0.2;
/// Pareto popularity skew of the request stream.
const SKEW: f64 = 4.0;
/// Short-window re-reference probability of the request stream.
const BURSTINESS: f64 = 0.6;
const BURSTINESS_SWEEP: [f64; 3] = [0.0, 0.45, 0.9];
/// Comm-matrix windows cut from the virtual makespan.
const COMM_WINDOWS: usize = 4;

/// Replays a seeded Pareto-skewed open-loop stream against one machine
/// of a 2-machine deployment in three configurations at equal cache RAM:
/// the whole budget on the VIP-ranked static cache; half static, half a
/// dynamic LRU overlay; and the same two tiers holding f16 rows (twice
/// the entries). The stream's popularity is seeded independently of the
/// VIP ranking and a fraction of requests re-reference recent ones, so
/// a tier frozen at deployment time sees neither its hot set nor its
/// bursts — the regime where a dynamic tier pays for itself. `--scale`
/// sizes the stream; the 512-vertex stand-in is the same at every scale.
fn serving(ctx: &Ctx) -> Curves {
    let seed = ctx.cli.seed;
    let requests = (2_000.0 * ctx.cli.scale) as usize;
    // Moderate flat degree (no dominant hubs, so the sampled fanout
    // covers whole neighborhoods and batches recur over the same
    // vertices) and high homophily: locality comes from the request
    // stream, not from a handful of global hubs.
    let ds = SyntheticSpec::new("serving-sim", 512, 10.0, 50, 16)
        .split_fractions(0.08, 0.02, 0.9)
        .homophily(0.93)
        .degree_tail(3.0)
        .seed(seed)
        .build();
    let dim = ds.features.dim();
    let model = GnnModel::new(Arch::Sage, &[dim, 32, ds.num_classes], seed ^ 0x6e17);
    let fanouts = Fanouts::new(FANOUTS.to_vec());
    let build = |alpha: f64, cache_scheme: QuantScheme| {
        let cfg = SetupConfig {
            num_machines: 2,
            fanouts: fanouts.clone(),
            batch_size: 16,
            alpha,
            cache_scheme,
            seed,
            ..SetupConfig::default()
        };
        DistributedSetup::build(&ds, cfg)
    };
    // Alpha only sizes the cache: every setup sees the same partitioning
    // and vertex ids. f16 rows are half the bytes, so the budget of the
    // f32 two-tier static half pins twice the vertices (alpha, not
    // alpha / 2), and likewise for the overlay.
    let (full, half, quant) = (
        build(ALPHA_TOTAL, QuantScheme::F32),
        build(ALPHA_TOTAL / 2.0, QuantScheme::F32),
        build(ALPHA_TOTAL, QuantScheme::F16),
    );
    let static_rows = |s: &DistributedSetup| s.stores[0].cache().len();
    let overlay = static_rows(&full) - static_rows(&half);

    let stream = |burstiness: f64| {
        generate_open_loop(&TraceConfig {
            num_requests: requests,
            num_vertices: ds.graph.num_vertices(),
            arrival_rate: 20_000.0,
            skew: SKEW,
            burstiness,
            seed: seed ^ 0x5eed_f00d,
        })
    };
    let serve = |setup: &DistributedSetup,
                 overlay_capacity: usize,
                 scheme: QuantScheme,
                 trace: &[InferenceRequest]| {
        let cfg = ServeConfig {
            max_batch_size: 16,
            max_delay: 1e-3,
            queue_capacity: 512,
            overlay_capacity,
            overlay_scheme: scheme,
            wire_scheme: scheme,
            fanouts: fanouts.clone(),
            seed,
            ..ServeConfig::default()
        };
        InferenceServer::new(setup, &model, 0, cfg).run(trace)
    };
    let trace = stream(BURSTINESS);
    let configs = [
        (STATIC, &full, 0, QuantScheme::F32),
        (TWO_TIER, &half, overlay, QuantScheme::F32),
        (F16, &quant, 2 * overlay, QuantScheme::F16),
    ];

    let title = format!(
        "Serving {requests} requests (skew {SKEW}, burstiness {BURSTINESS}): virtual-time service"
    );
    let cols = [
        "requests",
        "completed",
        "rejected",
        "req/s",
        "p50 ms",
        "p99 ms",
        "p999 ms",
        "makespan s",
    ];
    let mut service = Grid::new("serving", &title, "config", &cols, fixed::<4>)
        .col_fmt("requests", count)
        .col_fmt("completed", count)
        .col_fmt("rejected", count)
        .col_fmt("req/s", fixed::<2>)
        .col_fmt("makespan s", fixed::<6>);
    let title = format!(
        "Serving: cache tiers at equal RAM ({} f32 rows)",
        static_rows(&full)
    );
    let cols = [
        "static rows",
        "overlay rows",
        "static hit",
        "overlay hit",
        "combined hit",
        "evictions",
        "bytes fetched",
        "bytes/request",
    ];
    let mut cache = Grid::new("serving_cache", &title, "config", &cols, fixed::<4>)
        .col_fmt("static rows", count)
        .col_fmt("overlay rows", count)
        .col_fmt("evictions", count)
        .col_fmt("bytes fetched", count)
        .col_fmt("bytes/request", fixed::<1>);
    let ms = |r: &ServeReport, q: f64| r.latency_sketch.quantile_secs(q) * 1e3;
    for (label, setup, overlay_rows, scheme) in configs {
        let r = serve(setup, overlay_rows, scheme, &trace);
        let completed = r.completions.len() as f64;
        service.row(
            label,
            vec![
                requests as f64,
                completed,
                r.rejections.len() as f64,
                r.throughput(),
                ms(&r, 0.5),
                ms(&r, 0.99),
                ms(&r, 0.999),
                r.makespan,
            ],
        );
        let c = &r.cache;
        cache.row(
            label,
            vec![
                static_rows(setup) as f64,
                overlay_rows as f64,
                c.static_hit_rate(),
                c.overlay_hit_rate(),
                c.combined_hit_rate(),
                c.evictions as f64,
                c.bytes_fetched as f64,
                c.bytes_fetched as f64 / completed.max(1.0),
            ],
        );
        // The attribution sections of `SPP_TRACE=1` runs' Chrome trace.
        tel::publish_cache_report(r.cache_report(label));
        tel::publish_comm_report(r.comm_report(label, COMM_WINDOWS));
    }

    // The overlay feeds on re-referencing, so the two-tier tail must not
    // grow as burstiness rises.
    let title = "Serving: two-tier tail latency vs burstiness";
    let mut sweep = Grid::new(
        "serving_burstiness",
        title,
        "burstiness",
        &["p99 ms", "combined hit"],
        fixed::<4>,
    );
    for b in BURSTINESS_SWEEP {
        let r = serve(&half, overlay, QuantScheme::F32, &stream(b));
        sweep.row(b, vec![ms(&r, 0.99), r.cache.combined_hit_rate()]);
    }
    Curves::of(vec![service, cache, sweep])
}

const DIM: usize = 32;
const PAGE_BYTES: usize = 4096;
const STORE_SCHEME: QuantScheme = QuantScheme::F16;
const CHUNK_EDGES: usize = 1 << 20;

/// Deterministic synthetic feature row for original vertex `v`. Values
/// stay below 2048 so the f16 tier stores them exactly.
fn fill_row(v: VertexId, out: &mut [f32]) {
    let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (j, x) in out.iter_mut().enumerate() {
        *x = ((h.wrapping_add(j as u64 * 0x517C_C1B7_2722_0A95) >> 16) % 1024) as f32;
    }
}

/// Writes a paged store whose physical slot `s` holds the features of
/// original vertex `perm.to_old(s)`, and reopens it mmap-backed.
fn build_store(dir: &Path, n: usize, perm: &Permutation) -> MmapStore {
    let _ = std::fs::remove_dir_all(dir);
    StoreBuilder::new(STORE_SCHEME)
        .page_bytes(PAGE_BYTES)
        .build_with(dir, n, DIM, |slot, out| {
            fill_row(perm.to_old(slot as VertexId), out);
        })
        .expect("write paged store");
    MmapStore::open(dir).expect("reopen paged store")
}

/// One epoch of minibatch gathers against `store`, addressed by original
/// ids. Each batch is one residency window (`begin_epoch`): a bounded
/// page buffer flushed between batches, so a batch faults every distinct
/// page it touches and layouts that pack a batch's rows onto few pages
/// read fewer bytes.
fn replay(store: &dyn FeatureStore, batches: &[Vec<VertexId>]) -> StoreStats {
    let before = store.stats();
    let mut out = Vec::new();
    for nodes in batches {
        store.begin_epoch();
        out.resize(nodes.len() * DIM, 0.0f32);
        store.gather_into(nodes, &mut out);
    }
    store.stats().since(&before)
}

/// Streams a citation graph through the out-of-core CSR builder
/// (chunk-sorted edge runs + k-way merge), writes the same feature table
/// into two paged f16 stores at equal page size — one in descending VIP
/// score order, one in a seeded random order — and replays identical
/// sampled epochs against both.
fn io_locality(ctx: &Ctx) -> Curves {
    let seed = ctx.cli.seed;
    let n = (200_000.0 * ctx.cli.scale) as usize;
    let epochs = ctx.cli.epochs_or(1);
    let (fanouts, batch_size) = (Fanouts::new(vec![10, 5]), 256);
    let root = Path::new("results/store_io");
    let mut csr = StreamingCsrBuilder::new(n, &root.join("spill")).chunk_edges(CHUNK_EDGES);
    for (src, dst) in citation_edges(n, n * 8, 16, 0.7, 1.4, seed) {
        csr.add_edge(src, dst).expect("spill edge run");
    }
    let g = csr.finish().expect("merge edge runs");

    // Every 10th vertex trains: enough seeds that the VIP tail matters.
    let train: Vec<VertexId> = (0..n as VertexId).step_by(10).collect();
    let page_rows = PAGE_BYTES / STORE_SCHEME.row_bytes(DIM);
    let scores = VipModel::new(fanouts.clone(), batch_size).scores(&g, &train);
    let vip = PagedPermutation::from_scores(&scores, page_rows);
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE_CAFE);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let random = Permutation::from_order(order);
    let layouts = [("vip", vip.permutation()), ("random", &random)];
    let stores = layouts.map(|(label, perm)| build_store(&root.join(label), n, perm));

    let sampler = NodeWiseSampler::new(&g, fanouts);
    let mut totals = [StoreStats::default(); 2];
    for epoch in 0..epochs as u64 {
        let batches: Vec<Vec<VertexId>> = MinibatchIter::new(&train, batch_size, seed, epoch)
            .enumerate()
            .map(|(i, batch)| {
                let mut rng = StdRng::seed_from_u64(batch_stream_seed(seed, epoch, i as u64));
                sampler.sample(&batch, &mut rng).nodes
            })
            .collect();
        for ((total, store), (_, perm)) in totals.iter_mut().zip(&stores).zip(&layouts) {
            *total = total.merged(&replay(&PermutedStore::new(store, perm), &batches));
        }
    }

    let title =
        format!("Page traffic per epoch, {n} vertices, {DIM}-dim f16 rows, {PAGE_BYTES} B pages");
    let cols = [
        "bytes/epoch",
        "pages faulted/epoch",
        "pages read/epoch",
        "fault rate",
        "bytes vs vip",
    ];
    let mut grid = Grid::new("io_locality", &title, "layout", &cols, count)
        .col_fmt("fault rate", fixed::<6>)
        .col_fmt("bytes vs vip", fixed::<4>);
    let per_epoch = |x: u64| x as f64 / epochs as f64;
    for (((label, _), store), t) in layouts.iter().zip(&stores).zip(&totals) {
        grid.row(
            label,
            vec![
                per_epoch(t.bytes_read),
                per_epoch(t.pages_faulted),
                per_epoch(t.pages_read),
                t.pages_faulted as f64 / t.pages_read.max(1) as f64,
                t.bytes_read as f64 / totals[0].bytes_read as f64,
            ],
        );
        tel::publish_store_report(tel::StoreReport {
            label: label.to_string(),
            backend: "mmap".into(),
            scheme: STORE_SCHEME.name().into(),
            page_rows: store.meta().page_rows as u64,
            page_bytes: store.meta().page_bytes() as u64,
            pages_read: t.pages_read,
            pages_faulted: t.pages_faulted,
            pages_hit: t.pages_hit,
            bytes_read: t.bytes_read,
        });
    }
    drop(stores);
    let _ = std::fs::remove_dir_all(root);
    Curves::of(vec![grid])
}
