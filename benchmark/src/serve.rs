//! `serve_hot` and `serve_cold`: one machine of a two-machine deployment
//! answering a 50 k-request open-loop trace. The two traces use the same
//! layers the opposite way: the hot one re-references recent vertices, so
//! overlay probes and touches dominate; the cold one rarely repeats, so
//! nearly every miss inserts and evicts.
//!
//! The server is a virtual-time simulation: there is no wall-clock
//! arrival schedule, so wall throughput here is service capacity at
//! saturation, and latency under load stays modelled
//! (`serve.virtual_*`).

use crate::harness::{Harness, PassResult, TRACED_PASSES};
use crate::layers::{self, count_mfg};
use crate::stats::ratio;
use crate::trace::{Tracer, PASS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use salientpp::gnn::{Arch, GnnModel};
use salientpp::graph::dataset::SyntheticSpec;
use salientpp::graph::{quant, Dataset, FeatureMatrix, QuantScheme, VertexId};
use salientpp::partition::metrics::edge_cut_fraction;
use salientpp::runtime::{DistributedSetup, SetupConfig, WorkerPool};
use salientpp::sampler::{batch_stream_seed, Fanouts, NodeWiseSampler};
use salientpp::serve::{
    generate_open_loop, AdmissionQueue, BatchPolicy, CacheStats, DynamicOverlay, InferenceRequest,
    InferenceServer, MicroBatcher, ServeConfig, ServeReport, TraceConfig,
};

const REQUESTS: usize = 50_000;
/// The machine that serves.
const PART: u32 = 0;

/// Popularity skew and short-window re-reference probability of a trace.
#[derive(Clone, Copy)]
pub struct Mix {
    pub skew: f64,
    pub burstiness: f64,
}

pub const HOT: Mix = Mix {
    skew: 4.0,
    burstiness: 0.6,
};
pub const COLD: Mix = Mix {
    skew: 0.05,
    burstiness: 0.0,
};

/// Serving substrate: 48 k vertices, 128 features, moderate flat degree
/// and high homophily — locality comes from the request stream, not from
/// a few global hubs.
pub fn dataset(seed: u64) -> Dataset {
    SyntheticSpec::new("serving-shaped", 48_000, 10.0, 128, 16)
        .split_fractions(0.08, 0.02, 0.9)
        .homophily(0.93)
        .degree_tail(3.0)
        .seed(seed)
        .build()
}

fn fanouts() -> Fanouts {
    Fanouts::new(vec![10, 5])
}

fn setup_config(seed: u64) -> SetupConfig {
    SetupConfig {
        num_machines: 2,
        fanouts: fanouts(),
        batch_size: 64,
        alpha: 0.1,
        seed,
        ..SetupConfig::default()
    }
}

pub fn trace(mix: Mix, num_vertices: usize, seed: u64) -> Vec<InferenceRequest> {
    generate_open_loop(&TraceConfig {
        num_requests: REQUESTS,
        num_vertices,
        arrival_rate: 50_000.0,
        skew: mix.skew,
        burstiness: mix.burstiness,
        seed: seed ^ 0x5eed_f00d,
    })
}

/// The static tier plus an equal-size f16 LRU overlay, f16 on the wire.
fn serve_config(seed: u64, setup: &DistributedSetup, workers: usize) -> ServeConfig {
    ServeConfig {
        max_batch_size: 64,
        max_delay: 2e-3,
        queue_capacity: 4096,
        overlay_capacity: setup.stores[PART as usize].cache().len(),
        overlay_scheme: QuantScheme::F16,
        wire_scheme: QuantScheme::F16,
        fanouts: fanouts(),
        seed,
        pool: WorkerPool::new(workers),
        ..ServeConfig::default()
    }
}

/// What must repeat exactly from pass to pass: the cache accounting and
/// the XOR of every completion's logits checksum.
fn fingerprint(r: &ServeReport) -> (CacheStats, u64, usize) {
    let xor = r.completions.iter().fold(0, |acc, c| acc ^ c.checksum);
    (r.cache, xor, r.rejections.len())
}

pub fn run(h: &mut Harness, mix: Mix) {
    let seed = h.args.seed;
    let trace_mode = h.args.trace;
    let cfg = setup_config(seed);
    let (ds, setup, model, requests) = h.setup(|st| {
        let ds = st.time("graph.dataset_build_s", || dataset(seed));
        if trace_mode {
            layers::time_partition_and_rank(st, &ds, &cfg);
        }
        let setup = st.time("runtime.setup_build_s", || {
            DistributedSetup::build(&ds, cfg.clone())
        });
        let dims = [ds.features.dim(), 64, ds.num_classes];
        let model = GnnModel::new(Arch::Sage, &dims, seed ^ 0x6e17);
        let requests = trace(mix, ds.num_vertices(), seed);
        (ds, setup, model, requests)
    });
    let scfg = serve_config(seed, &setup, h.workers());
    // A fresh server (cold overlay, empty queue) per pass, so every pass
    // does identical work.
    let serve = || InferenceServer::new(&setup, &model, PART, scfg.clone()).run(&requests);
    let reference = serve();
    h.out.check(
        reference.total_requests() == REQUESTS,
        format!(
            "{} completions + {} rejections == {REQUESTS} requests",
            reference.completions.len(),
            reference.rejections.len()
        ),
    );
    if trace_mode {
        return run_traced(h, &ds, &setup, &model, &scfg, &requests, &reference);
    }
    let mut drifted = 0u64;
    h.timed_phase(|| {
        let report = serve();
        let same = fingerprint(&report) == fingerprint(&reference);
        drifted += u64::from(!same);
        PassResult {
            attempted: REQUESTS as u64,
            failed: if same {
                report.rejections.len() as u64
            } else {
                REQUESTS as u64
            },
        }
    });
    h.out.check(
        drifted == 0,
        format!("cache stats and logits checksums identical on every pass ({drifted} differ)"),
    );
}

/// Argmax with ties to the lowest index (the server's rule).
fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best
}

/// Replays every batch of `report` through the public queue, batcher,
/// sampler, partitioned store, overlay and model, the way the server's
/// private batch loop does. Returns how many batch records or labels the
/// replay failed to reproduce.
fn replay_pass(
    tr: &Tracer,
    setup: &DistributedSetup,
    model: &GnnModel,
    cfg: &ServeConfig,
    report: &ServeReport,
) -> usize {
    let store = &setup.stores[PART as usize];
    let dim = store.dim();
    let sampler = NodeWiseSampler::new(&setup.dataset.graph, cfg.fanouts.clone());
    let mut overlay = DynamicOverlay::with_scheme(cfg.overlay_capacity, dim, cfg.overlay_scheme);
    let mut queue = AdmissionQueue::new(cfg.queue_capacity, store.layout().num_vertices());
    let mut batcher = MicroBatcher::new(BatchPolicy::new(cfg.max_batch_size, cfg.max_delay));
    let mut mismatches = 0;
    let mut done = 0;
    for (b, record) in report.batches.iter().enumerate() {
        let completions = &report.completions[done..done + record.size];
        done += record.size;

        let batch = tr.span(layers::ADMIT, b, || {
            for c in completions {
                let req = InferenceRequest {
                    id: c.id,
                    vertex: c.vertex,
                    arrival: c.arrival,
                    client: c.client,
                };
                queue.offer(req, 0).expect("replayed request admitted");
            }
            let closed = batcher.try_close_on_size(&mut queue, record.close_time);
            closed
                .or_else(|| batcher.flush(&mut queue))
                .expect("a batch closes")
        });

        // Seed dedup in first-occurrence order, as the server does it.
        let mut seed_row = Vec::with_capacity(batch.requests.len());
        let mut seeds: Vec<VertexId> = Vec::with_capacity(batch.requests.len());
        for req in &batch.requests {
            let row = seeds.iter().position(|&s| s == req.vertex);
            seed_row.push(row.unwrap_or(seeds.len()));
            if row.is_none() {
                seeds.push(req.vertex);
            }
        }
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(cfg.seed, 0, batch.id));
        let mfg = tr.span(layers::SAMPLE, b, || sampler.sample(&seeds, &mut rng));

        // Classify against local rows and the static tier, then probe the
        // overlay for the rest in node order and refresh the hits.
        let plan = tr.span(layers::PLAN, b, || store.plan(&mfg.nodes));
        let mut remote: Vec<(u32, VertexId)> = plan.remote.iter().flatten().copied().collect();
        remote.sort_unstable_by_key(|&(pos, _)| pos);
        let mut hits = Vec::with_capacity(remote.len());
        tr.span(layers::PROBE, b, || {
            for &(_, v) in &remote {
                if overlay.probe(v).is_some() {
                    hits.push(v);
                }
            }
            for &v in &hits {
                overlay.touch(v);
            }
        });
        tr.count(layers::PROBE, remote.len());

        let mut to_admit: Vec<(VertexId, Vec<f32>)> = Vec::new();
        let x = tr.span(layers::GATHER, b, || {
            store.gather(&mfg.nodes, |owner, ids| {
                let mut m = FeatureMatrix::zeros(ids.len(), dim);
                let mut need: Vec<(usize, VertexId)> = Vec::new();
                for (i, &v) in ids.iter().enumerate() {
                    match overlay.peek(v) {
                        Some(slot) => overlay.read_row_into(slot, m.row_mut(i as u32)),
                        None => need.push((i, v)),
                    }
                }
                if need.is_empty() {
                    return m;
                }
                let ids: Vec<VertexId> = need.iter().map(|&(_, v)| v).collect();
                let served = tr.span(layers::SERVE, b, || {
                    let mut f = setup.stores[owner as usize].serve(&ids);
                    for r in 0..f.num_rows() {
                        quant::wire_roundtrip(f.row_mut(r as VertexId), cfg.wire_scheme);
                    }
                    f
                });
                for (r, &(i, v)) in need.iter().enumerate() {
                    let row = served.row(r as VertexId);
                    m.row_mut(i as u32).copy_from_slice(row);
                    to_admit.push((v, row.to_vec()));
                }
                m
            })
        });
        tr.span(layers::INSERT, b, || {
            for (v, row) in &to_admit {
                overlay.insert(*v, row);
            }
        });
        tr.count(layers::INSERT, to_admit.len());

        let logits = tr.span(layers::INFER, b, || model.infer(x, &mfg));
        count_mfg(tr, &mfg, model.dims(), false);
        // `count_mfg` counts distinct seeds; a target is a request.
        tr.count(layers::TARGETS, batch.requests.len() - mfg.num_seeds());

        let record_ok = mfg.num_nodes() == record.mfg_nodes
            && mfg.num_edges() == record.mfg_edges
            && to_admit.len() == record.remote_fetched;
        let wrong_labels = completions
            .iter()
            .zip(&seed_row)
            .filter(|(c, &row)| argmax(logits.row(row)) != c.label)
            .count();
        mismatches += usize::from(!record_ok) + wrong_labels;
    }
    mismatches
}

fn run_traced(
    h: &mut Harness,
    ds: &Dataset,
    setup: &DistributedSetup,
    model: &GnnModel,
    cfg: &ServeConfig,
    requests: &[InferenceRequest],
    reference: &ServeReport,
) {
    let serve = || InferenceServer::new(setup, model, PART, cfg.clone()).run(requests);
    let (_, untraced_s) = h.baseline_passes(serve);

    let mut traced_s = Vec::new();
    let mut mismatches = 0;
    for pass in 0..TRACED_PASSES {
        let (bad, secs) = h.tracer.pass(pass, || {
            replay_pass(&h.tracer, setup, model, cfg, reference)
        });
        mismatches += bad;
        traced_s.push(secs);
    }
    h.out.attempted = u64::from(TRACED_PASSES) * REQUESTS as u64;
    h.out.failed = u64::from(TRACED_PASSES) * reference.rejections.len() as u64;
    h.out.check(
        mismatches == 0,
        format!(
            "replay reproduces every batch's nodes/edges/fetched rows and every label \
             ({mismatches} differ)"
        ),
    );

    layers::set_span_metrics(h);
    let root = h.tracer.agg(PASS);
    let passes = f64::from(TRACED_PASSES);
    let stage_sum_s = h.tracer.stage_sum_s() / passes;
    let batches = reference.batches.len() as f64;
    let cache = &reference.cache;
    let probe = h.tracer.agg(layers::PROBE);
    let insert = h.tracer.agg(layers::INSERT);
    let probes = h.tracer.counted(layers::PROBE);
    let inserts = h.tracer.counted(layers::INSERT);
    let out = &mut h.out;
    out.set(
        "partition.edge_cut_ratio",
        edge_cut_fraction(&ds.graph, &setup.partitioning),
    );
    out.set("core.cache_hit_ratio", cache.static_hit_rate());
    out.set(
        "core.remote_rows_per_target",
        cache.misses as f64 / REQUESTS as f64,
    );
    out.set(
        "comm.wire_bytes_per_target",
        cache.bytes_fetched as f64 / REQUESTS as f64,
    );
    out.set(
        "serve.overlay_probe_ns",
        ratio(probe.total_ns as f64, probes),
    );
    out.set(
        "serve.overlay_insert_ns",
        ratio(insert.total_ns as f64, inserts),
    );
    out.set("serve.overlay_hit_ratio", cache.overlay_hit_rate());
    out.set("serve.static_hit_ratio", cache.static_hit_rate());
    out.set(
        "serve.evictions_per_target",
        cache.evictions as f64 / REQUESTS as f64,
    );
    out.set(
        "serve.batch_size_mean",
        ratio(reference.completions.len() as f64, batches),
    );
    out.set(
        "serve.rejected_share",
        reference.rejections.len() as f64 / REQUESTS as f64,
    );
    out.set(
        "serve.virtual_latency_ms_p50",
        reference.latency_sketch.quantile_secs(0.5) * 1e3,
    );
    out.set(
        "serve.virtual_latency_ms_p99",
        reference.latency_sketch.quantile_secs(0.99) * 1e3,
    );
    out.set("serve.virtual_rps", reference.throughput());
    out.set(
        "serve.batch_allocs",
        ratio(root.allocs as f64 / passes, batches),
    );
    out.set("serve.unattributed_share", 1.0 - stage_sum_s / untraced_s);
    out.set("pool.dispatch_us_p50", layers::pool_dispatch_us_p50());
    h.finish_traced(untraced_s, &traced_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_trace_and_dataset() {
        let (a, b) = (dataset(0), dataset(1));
        assert_ne!(a.graph.col(), b.graph.col());
        assert_ne!(a.features.as_flat(), b.features.as_flat());
        assert_ne!(a.split.train, b.split.train);
        let again = dataset(0);
        assert_eq!(a.graph.col(), again.graph.col());
        assert_eq!(a.features.as_flat(), again.features.as_flat());

        let n = a.num_vertices();
        for mix in [HOT, COLD] {
            assert_ne!(trace(mix, n, 0), trace(mix, n, 1));
            assert_eq!(trace(mix, n, 0), trace(mix, n, 0));
        }
        assert_ne!(trace(HOT, n, 0), trace(COLD, n, 0));
    }
}
