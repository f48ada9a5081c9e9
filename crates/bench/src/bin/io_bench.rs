//! io_bench: page locality of the out-of-core feature store.
//!
//! Builds a ≥1M-vertex citation graph through `spp-store`'s streaming
//! CSR builder (bounded memory: chunk-sorted edge runs + k-way merge),
//! then writes the same synthetic feature table into two on-disk paged
//! stores at *equal page size* — one laid out by descending VIP score
//! (`PagedPermutation::from_scores`), one by a seeded random
//! permutation — and replays identical sampled-minibatch epochs against
//! both. The VIP layout concentrates the frequently sampled vertices on
//! few pages, so it must touch strictly fewer bytes and fault strictly
//! fewer pages per epoch; the harness hard-asserts both (the CI gate).
//!
//! Emits `results/BENCH_io.json` and, under `SPP_TRACE=1`, per-layout
//! `StoreReport` attribution plus `results/trace_io.{json,jsonl}` for
//! `cargo xtask validate-trace --attrib`.

// Harness binaries may abort on setup errors; the workspace
// panic-family denies gate the library crates, not the harnesses
// (mirrors the bin/ exemption in `cargo xtask lint`).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_bench::{BenchReport, Cli, Table};
use spp_core::VipModel;
use spp_graph::generate::citation_edges;
use spp_graph::{CsrGraph, PagedPermutation, Permutation, QuantScheme, VertexId};
use spp_sampler::{batch_stream_seed, Fanouts, MinibatchIter, NodeWiseSampler};
use spp_store::{
    FeatureStore, MmapStore, PermutedStore, StoreBuilder, StoreStats, StreamingCsrBuilder,
};
use spp_telemetry as tel;
use std::path::Path;

const DIM: usize = 32;
const PAGE_BYTES: usize = 4096;
const SCHEME: QuantScheme = QuantScheme::F16;
const CHUNK_EDGES: usize = 1 << 20;

/// Deterministic synthetic feature row for original vertex `v`. Values
/// stay below 2048 so the f16 tier stores them exactly.
fn fill_row(v: VertexId, out: &mut [f32]) {
    let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for (j, x) in out.iter_mut().enumerate() {
        *x = ((h.wrapping_add(j as u64 * 0x517C_C1B7_2722_0A95) >> 16) % 1024) as f32;
    }
}

/// Streams the citation edges through the out-of-core CSR builder.
fn build_graph(n: usize, target_edges: usize, seed: u64, spill: &Path) -> CsrGraph {
    let mut b = StreamingCsrBuilder::new(n, spill).chunk_edges(CHUNK_EDGES);
    for (src, dst) in citation_edges(n, target_edges, 16, 0.7, 1.4, seed) {
        b.add_edge(src, dst).expect("spill edge run");
    }
    b.finish().expect("merge edge runs")
}

/// Writes a paged store whose physical slot `s` holds the features of
/// original vertex `perm.to_old(s)`, and reopens it as an mmap-backed
/// store viewed by original ids.
fn build_store(dir: &Path, n: usize, perm: &Permutation) -> MmapStore {
    let _ = std::fs::remove_dir_all(dir);
    StoreBuilder::new(SCHEME)
        .page_bytes(PAGE_BYTES)
        .build_with(dir, n, DIM, |slot, out| {
            fill_row(perm.to_old(slot as VertexId), out);
        })
        .expect("write paged store");
    MmapStore::open(dir).expect("reopen paged store")
}

/// One epoch of minibatch gathers against `store` (addressed by
/// original ids); returns the epoch's page/byte traffic delta. Each
/// minibatch is one residency window (`begin_epoch`): the model is a
/// bounded page buffer flushed between batches, so a batch faults every
/// *distinct* page it touches and bytes/epoch reward layouts that pack
/// a batch's rows onto few pages.
fn run_epoch(store: &dyn FeatureStore, batches: &[Vec<VertexId>]) -> StoreStats {
    let before = store.stats();
    let mut out = Vec::new();
    for nodes in batches {
        store.begin_epoch();
        out.resize(nodes.len() * DIM, 0.0f32);
        store.gather_into(nodes, &mut out);
    }
    store.stats().since(&before)
}

fn main() {
    let cli = Cli::parse();
    let traced = tel::init_from_env();
    let n = ((1_000_000.0 * cli.scale) as usize).max(20_000);
    let target_edges = n * 8;
    let epochs = cli.epochs_or(3);
    let fanouts = Fanouts::new(vec![10, 5]);
    let batch_size = 256;

    let out_root = Path::new("results/store_io");
    std::fs::create_dir_all(out_root).expect("create results/store_io");
    let g = build_graph(n, target_edges, cli.seed, &out_root.join("spill"));
    assert_eq!(g.num_vertices(), n);

    // Every 10th vertex trains — enough seeds that the VIP tail matters.
    let train: Vec<VertexId> = (0..n as VertexId).step_by(10).collect();
    let page_rows = PAGE_BYTES / SCHEME.row_bytes(DIM);

    // VIP layout: descending inclusion probability, paged.
    let scores = VipModel::new(fanouts.clone(), batch_size).scores(&g, &train);
    let vip_paged = PagedPermutation::from_scores(&scores, page_rows);

    // Random layout: seeded Fisher–Yates over the identity order.
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = StdRng::seed_from_u64(cli.seed ^ 0x5AFE_CAFE);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let rand_perm = Permutation::from_order(order);

    let vip_store = build_store(&out_root.join("vip"), n, vip_paged.permutation());
    let rand_store = build_store(&out_root.join("random"), n, &rand_perm);
    assert_eq!(vip_store.meta().page_rows as usize, page_rows);

    let vip_view = PermutedStore::new(&vip_store, vip_paged.permutation());
    let rand_view = PermutedStore::new(&rand_store, &rand_perm);

    // Identical sampled batches replay against both layouts.
    let sampler = NodeWiseSampler::new(&g, fanouts);
    let mut vip_total = StoreStats::default();
    let mut rand_total = StoreStats::default();
    for epoch in 0..epochs as u64 {
        let batches: Vec<Vec<VertexId>> = {
            let _sample = tel::span!("io.sample_epoch");
            MinibatchIter::new(&train, batch_size, cli.seed, epoch)
                .enumerate()
                .map(|(i, batch)| {
                    let mut rng =
                        StdRng::seed_from_u64(batch_stream_seed(cli.seed, epoch, i as u64));
                    sampler.sample(&batch, &mut rng).nodes
                })
                .collect()
        };
        {
            let _replay = tel::span!("io.replay_epoch.vip");
            vip_total = vip_total.merged(&run_epoch(&vip_view, &batches));
        }
        {
            let _replay = tel::span!("io.replay_epoch.random");
            rand_total = rand_total.merged(&run_epoch(&rand_view, &batches));
        }
    }

    let per_epoch = |field: u64| field as f64 / epochs as f64;
    let vip_bytes = per_epoch(vip_total.bytes_read);
    let rand_bytes = per_epoch(rand_total.bytes_read);
    let vip_faults = per_epoch(vip_total.pages_faulted);
    let rand_faults = per_epoch(rand_total.pages_faulted);

    // The deliverable claim, asserted: VIP page reordering strictly
    // reduces bytes touched and pages faulted per epoch at equal page
    // size. CI runs this binary, so a locality regression fails the job.
    assert!(
        vip_bytes < rand_bytes,
        "VIP layout must touch fewer bytes/epoch (vip {vip_bytes}, random {rand_bytes})"
    );
    assert!(
        vip_faults < rand_faults,
        "VIP layout must fault fewer pages/epoch (vip {vip_faults}, random {rand_faults})"
    );

    let mut t = Table::new(
        "io_bench: epoch page traffic, VIP vs random layout (equal page size)",
        &["layout", "bytes/epoch", "pages faulted/epoch", "fault rate"],
    );
    let rate = |tot: &StoreStats| tot.pages_faulted as f64 / (tot.pages_read.max(1)) as f64;
    t.row(vec![
        "vip".into(),
        format!("{vip_bytes:.0}"),
        format!("{vip_faults:.1}"),
        format!("{:.4}", rate(&vip_total)),
    ]);
    t.row(vec![
        "random".into(),
        format!("{rand_bytes:.0}"),
        format!("{rand_faults:.1}"),
        format!("{:.4}", rate(&rand_total)),
    ]);
    t.print();

    let layout_json = |tot: &StoreStats| {
        format!(
            "{{\"bytes_read_per_epoch\": {:.1}, \"pages_faulted_per_epoch\": {:.1}, \
             \"pages_read_per_epoch\": {:.1}, \"fault_rate\": {:.6}}}",
            per_epoch(tot.bytes_read),
            per_epoch(tot.pages_faulted),
            per_epoch(tot.pages_read),
            rate(tot)
        )
    };
    let mut rep = BenchReport::new("io");
    rep.field("scale", format!("{}", cli.scale))
        .field("seed", format!("{}", cli.seed))
        .field("vertices", format!("{n}"))
        .field("edges", format!("{}", g.num_edges()))
        .field("train_vertices", format!("{}", train.len()))
        .field("epochs", format!("{epochs}"))
        .field("dim", format!("{DIM}"))
        .field("page_bytes", format!("{PAGE_BYTES}"))
        .field("page_rows", format!("{page_rows}"))
        .field("chunk_edges", format!("{CHUNK_EDGES}"))
        .field("vip", layout_json(&vip_total))
        .field("random", layout_json(&rand_total))
        .field("locality_gain", format!("{:.4}", rand_bytes / vip_bytes))
        .field("pass", "true");
    rep.write();

    if traced {
        for (label, store, tot) in [
            ("vip", &vip_store, &vip_total),
            ("random", &rand_store, &rand_total),
        ] {
            tel::publish_store_report(tel::StoreReport {
                label: label.into(),
                backend: "mmap".into(),
                scheme: "f16".into(),
                page_rows: store.meta().page_rows as u64,
                page_bytes: store.meta().page_bytes() as u64,
                pages_read: tot.pages_read,
                pages_faulted: tot.pages_faulted,
                pages_hit: tot.pages_hit,
                bytes_read: tot.bytes_read,
            });
        }
        match tel::write_trace_files(Path::new("results"), "io") {
            Ok(paths) => {
                for p in &paths {
                    println!("trace written: {}", p.display());
                }
            }
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
}
