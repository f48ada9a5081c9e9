//! Property and integration tests for the serving subsystem: two-tier
//! invariants, exact counter accounting under concurrency, and the
//! worker-count determinism contract (DESIGN.md §11).

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_core::StaticCache;
use spp_gnn::{Arch, GnnModel};
use spp_graph::dataset::SyntheticSpec;
use spp_graph::{quant, Dataset, QuantScheme, VertexId};
use spp_pool::WorkerPool;
use spp_runtime::{DistributedSetup, SetupConfig};
use spp_sampler::{batch_stream_seed, Fanouts, NodeWiseSampler};
use spp_serve::{
    generate_open_loop, CacheStats, DynamicOverlay, InferenceRequest, InferenceServer,
    InsertOutcome, RejectReason, ServeConfig, ServeReport, TraceConfig,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The serving discipline checks the static tier before the overlay
    /// and only admits vertices that missed it. Under that discipline —
    /// for any static membership, overlay capacity, and access trace —
    /// the overlay never contains (and therefore never evicts) a pinned
    /// static entry, and its occupancy respects capacity.
    #[test]
    fn overlay_stays_disjoint_from_static_tier(
        num_static in 1usize..40,
        capacity in 0usize..24,
        trace in proptest::collection::vec(0u32..120, 1..300),
    ) {
        let members: Vec<VertexId> = (0..num_static as u32).map(|i| i * 3).collect();
        let cache = StaticCache::from_members(&members);
        let mut overlay = DynamicOverlay::new(capacity, 4);
        for &v in &trace {
            if cache.contains(v) {
                continue; // static tier answers first; overlay untouched
            }
            if overlay.probe(v).is_some() {
                overlay.touch(v);
            } else {
                let out = overlay.insert(v, &[v as f32; 4]);
                if let InsertOutcome::Evicted(old) = out {
                    prop_assert!(!cache.contains(old));
                }
            }
            prop_assert!(overlay.len() <= capacity);
        }
        for v in overlay.members_mru_order() {
            prop_assert!(!cache.contains(v));
        }
        let c = overlay.counters();
        prop_assert_eq!(c.hits + c.misses, c.lookups());
    }

    /// Quantized features can only flip a classification when the f32
    /// logit margin is smaller than twice the worst per-logit
    /// perturbation the quantization induced — a margin above that bound
    /// guarantees the argmax is unchanged. Checked end-to-end through
    /// the GNN forward pass for both `F16` and `I8` input codecs.
    #[test]
    fn quantization_below_logit_margin_never_flips_classification(
        seed in 0u64..64,
        scheme_i8 in any::<bool>(),
    ) {
        let scheme = if scheme_i8 { QuantScheme::I8 } else { QuantScheme::F16 };
        let ds = SyntheticSpec::new("quant-margin", 200, 6.0, 6, 3)
            .split_fractions(0.3, 0.1, 0.1)
            .seed(seed)
            .build();
        let model = GnnModel::new(Arch::Sage, &[6, 12, 3], seed ^ 0xabc);
        let sampler = NodeWiseSampler::new(&ds.graph, Fanouts::new(vec![4, 3]));
        let seeds: Vec<VertexId> = (0..8).map(|i| (i * 23) % 200).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mfg = sampler.sample(&seeds, &mut rng);

        let dim = ds.features.dim();
        let mut exact = spp_tensor::Matrix::zeros(mfg.nodes.len(), dim);
        for (i, &v) in mfg.nodes.iter().enumerate() {
            exact.row_mut(i).copy_from_slice(ds.features.row(v));
        }
        let mut coded = exact.clone();
        for i in 0..mfg.nodes.len() {
            quant::wire_roundtrip(coded.row_mut(i), scheme);
        }

        let logits_exact = model.infer(exact, &mfg);
        let logits_coded = model.infer(coded, &mfg);
        for r in 0..seeds.len() {
            let le = logits_exact.row(r);
            let lc = logits_coded.row(r);
            let worst = le
                .iter()
                .zip(lc)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            let mut sorted = le.to_vec();
            sorted.sort_by(|a, b| b.total_cmp(a));
            let margin = sorted[0] - sorted[1];
            let argmax = |row: &[f32]| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
            };
            if margin > 2.0 * worst {
                prop_assert_eq!(
                    argmax(le),
                    argmax(lc),
                    "margin {} > 2*{} yet label flipped",
                    margin,
                    worst
                );
            }
        }
    }

    /// Replaying the same operation sequence twice yields the same
    /// eviction sequence and the same final recency order: eviction is a
    /// pure function of the trace.
    #[test]
    fn eviction_order_is_deterministic(
        capacity in 1usize..16,
        trace in proptest::collection::vec(0u32..64, 1..200),
    ) {
        let run = || {
            let mut overlay = DynamicOverlay::new(capacity, 2);
            let mut evicted = Vec::new();
            for &v in &trace {
                match overlay.insert(v, &[v as f32, -(v as f32)]) {
                    InsertOutcome::Evicted(old) => evicted.push(old),
                    InsertOutcome::Refreshed | InsertOutcome::Inserted => {}
                    #[allow(
                        clippy::unreachable,
                        reason = "the strategy draws capacity >= 1, so the overlay is never disabled"
                    )]
                    InsertOutcome::Disabled => unreachable!("capacity >= 1"),
                }
            }
            (evicted, overlay.members_mru_order())
        };
        prop_assert_eq!(run(), run());
    }
}

/// `hits + misses == lookups` holds *exactly* when probes run
/// concurrently on the worker pool: every probe increments exactly one
/// relaxed counter, so no interleaving can lose a count.
#[test]
fn probe_counters_exact_under_concurrent_pool_access() {
    let mut overlay = DynamicOverlay::new(64, 2);
    for v in 0..64u32 {
        overlay.insert(v, &[v as f32, 0.0]);
    }
    let pool = WorkerPool::new(8);
    let jobs = 16usize;
    let probes_per_job = 1000usize;
    let hits: u64 = pool
        .run_jobs(jobs, |j| {
            let mut h = 0u64;
            for i in 0..probes_per_job {
                // Half the probed ids are present (0..64), half absent.
                let v = ((j * probes_per_job + i) % 128) as u32;
                if overlay.probe(v).is_some() {
                    h += 1;
                }
            }
            h
        })
        .iter()
        .sum();
    let c = overlay.counters();
    assert_eq!(c.lookups(), (jobs * probes_per_job) as u64);
    assert_eq!(c.hits, hits);
    assert_eq!(c.hits + c.misses, c.lookups());
}

fn fixture() -> (Dataset, GnnModel) {
    let ds = SyntheticSpec::new("serve-test", 400, 8.0, 8, 4)
        .split_fractions(0.3, 0.1, 0.1)
        .seed(11)
        .build();
    let model = GnnModel::new(Arch::Sage, &[8, 16, 4], 5);
    (ds, model)
}

fn deployment(ds: &Dataset) -> DistributedSetup {
    DistributedSetup::build(
        ds,
        SetupConfig {
            num_machines: 2,
            fanouts: Fanouts::new(vec![4, 3]),
            alpha: 0.1,
            ..SetupConfig::default()
        },
    )
}

fn serve_with_pool(setup: &DistributedSetup, model: &GnnModel, workers: usize) -> ServeReport {
    serve_with_scheme(setup, model, workers, QuantScheme::F32)
}

/// The fixture trace with `scheme` on both the overlay and the wire.
fn serve_with_scheme(
    setup: &DistributedSetup,
    model: &GnnModel,
    workers: usize,
    scheme: QuantScheme,
) -> ServeReport {
    let cfg = ServeConfig {
        max_batch_size: 8,
        max_delay: 0.01,
        queue_capacity: 64,
        overlay_capacity: 24,
        overlay_scheme: scheme,
        wire_scheme: scheme,
        fanouts: Fanouts::new(vec![4, 3]),
        seed: 3,
        pool: WorkerPool::new(workers),
        ..ServeConfig::default()
    };
    let trace = generate_open_loop(&TraceConfig {
        num_requests: 300,
        num_vertices: 400,
        arrival_rate: 2000.0,
        skew: 3.0,
        burstiness: 0.3,
        seed: 17,
    });
    InferenceServer::new(setup, model, 0, cfg).run(&trace)
}

/// The §11 determinism contract: completions (latencies, labels, logits
/// checksums), batch records, cache accounting and the cache and comm
/// attribution reports are identical at 1, 2, and 8 workers.
#[test]
fn serving_is_bit_identical_across_worker_counts() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let one = serve_with_pool(&setup, &model, 1);
    let two = serve_with_pool(&setup, &model, 2);
    let eight = serve_with_pool(&setup, &model, 8);
    assert!(!one.completions.is_empty());
    assert_eq!(one.completions, two.completions);
    assert_eq!(one.completions, eight.completions);
    assert_eq!(one.batches, two.batches);
    assert_eq!(one.batches, eight.batches);
    assert_eq!(one.cache, two.cache);
    assert_eq!(one.cache, eight.cache);
    assert_eq!(one.rejections, eight.rejections);
    // The attribution reports, latency sketch included, byte for byte.
    let reports = |r: &ServeReport| {
        let cache = r.cache_report("det").to_json();
        (cache, r.comm_report("det", 4).to_json())
    };
    assert_eq!(reports(&one), reports(&two));
    assert_eq!(reports(&one), reports(&eight));
    // Tier accounting partitions lookups.
    let c = one.cache;
    assert_eq!(c.static_hits + c.overlay_hits + c.misses, c.lookups);
    assert!(c.overlay_hits > 0, "skewed trace must warm the overlay");
}

/// What a refactor of the batch loop must reproduce exactly: cache
/// accounting, the XOR of every completion's logits checksum, the
/// virtual makespan's bits and the batch count.
fn fingerprint(r: &ServeReport) -> (CacheStats, u64, u64, usize) {
    let xor = r.completions.iter().fold(0, |acc, c| acc ^ c.checksum);
    (r.cache, xor, r.makespan.to_bits(), r.batches.len())
}

/// Golden fingerprints of the fixture trace, captured on the commit
/// before the server's classify-then-gather loop became plan once /
/// probe the residue / `gather_planned` (PR 15). The f16 run also pins
/// where the wire codec is applied and what the overlay admits.
#[test]
fn fixture_trace_matches_golden_fingerprints() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let f32_cache = CacheStats {
        lookups: 686,
        local: 1344,
        static_hits: 101,
        overlay_hits: 154,
        misses: 431,
        evictions: 407,
        insertions: 431,
        bytes_fetched: 13792,
    };
    assert_eq!(
        fingerprint(&serve_with_scheme(&setup, &model, 2, QuantScheme::F32)),
        (f32_cache, 14562535920250502133, 4595516403005056794, 38)
    );
    let f16_cache = CacheStats {
        bytes_fetched: f32_cache.bytes_fetched / 2,
        ..f32_cache
    };
    assert_eq!(
        fingerprint(&serve_with_scheme(&setup, &model, 2, QuantScheme::F16)),
        (f16_cache, 826889499939779611, 4595516399315707979, 38)
    );
}

/// Quantized overlay + wire tiers change row *contents*, never tier
/// membership: classification against the tiers, batch composition,
/// and eviction order are driven by vertex ids alone, so cache
/// accounting is identical to the f32 run while `bytes_fetched` is
/// exactly halved (f16) and labels stay overwhelmingly stable.
#[test]
fn quantized_tiers_halve_wire_bytes_without_touching_cache_accounting() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let run = |scheme: QuantScheme| {
        let cfg = ServeConfig {
            max_batch_size: 8,
            max_delay: 0.01,
            queue_capacity: 256,
            overlay_capacity: 24,
            overlay_scheme: scheme,
            wire_scheme: scheme,
            fanouts: Fanouts::new(vec![4, 3]),
            seed: 3,
            pool: WorkerPool::new(2),
            ..ServeConfig::default()
        };
        let trace = generate_open_loop(&TraceConfig {
            num_requests: 300,
            num_vertices: 400,
            arrival_rate: 2000.0,
            skew: 3.0,
            burstiness: 0.3,
            seed: 17,
        });
        InferenceServer::new(&setup, &model, 0, cfg).run(&trace)
    };
    let full = run(QuantScheme::F32);
    let half = run(QuantScheme::F16);
    // Same lookups, hits, misses, evictions, insertions — only bytes move.
    assert_eq!(full.cache.lookups, half.cache.lookups);
    assert_eq!(full.cache.static_hits, half.cache.static_hits);
    assert_eq!(full.cache.overlay_hits, half.cache.overlay_hits);
    assert_eq!(full.cache.misses, half.cache.misses);
    assert_eq!(full.cache.evictions, half.cache.evictions);
    assert_eq!(full.cache.insertions, half.cache.insertions);
    assert!(full.cache.bytes_fetched > 0, "trace must fetch remotely");
    assert_eq!(full.cache.bytes_fetched, 2 * half.cache.bytes_fetched);
    // Batch composition is id-driven and identical.
    assert_eq!(full.batches.len(), half.batches.len());
    for (a, b) in full.batches.iter().zip(&half.batches) {
        assert_eq!((a.id, a.size, a.mfg_nodes), (b.id, b.size, b.mfg_nodes));
    }
    // f16 keeps ~11 bits of mantissa; almost every label survives.
    assert_eq!(full.completions.len(), half.completions.len());
    let agree = full
        .completions
        .iter()
        .zip(&half.completions)
        .filter(|(a, b)| a.label == b.label)
        .count();
    assert!(
        agree * 10 >= full.completions.len() * 9,
        "only {agree}/{} labels survived f16 quantization",
        full.completions.len()
    );
}

/// Backpressure: with a tight queue bound every request still gets an
/// explicit outcome — completed or rejected with `queue_full` — and the
/// admitted backlog never silently grows.
#[test]
fn overload_rejects_with_reason_and_loses_nothing() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let cfg = ServeConfig {
        max_batch_size: 4,
        max_delay: 0.005,
        queue_capacity: 8,
        overlay_capacity: 8,
        fanouts: Fanouts::new(vec![4, 3]),
        seed: 1,
        pool: WorkerPool::new(2),
        ..ServeConfig::default()
    };
    // Arrival rate far above service capacity forces queue_full.
    let trace = generate_open_loop(&TraceConfig {
        num_requests: 400,
        num_vertices: 400,
        arrival_rate: 100_000.0,
        skew: 2.0,
        burstiness: 0.0,
        seed: 9,
    });
    let report = InferenceServer::new(&setup, &model, 0, cfg).run(&trace);
    assert_eq!(report.total_requests(), 400);
    assert!(!report.rejections.is_empty(), "overload must shed load");
    for r in &report.rejections {
        assert_eq!(r.reason, RejectReason::QueueFull);
    }
    // Every batch respects the size bound.
    assert!(report.batches.iter().all(|b| b.size <= 4 && b.size > 0));
    let carried: usize = report.batches.iter().map(|b| b.size).sum();
    assert_eq!(carried, report.completions.len());
}

/// A one-batch-deep pipeline's ends: `batches` size-closed batches of 8
/// requests, on `workers` workers, with f32 tiers.
fn serve_batches(
    setup: &DistributedSetup,
    model: &GnnModel,
    batches: usize,
    workers: usize,
) -> ServeReport {
    let cfg = ServeConfig {
        max_batch_size: 8,
        max_delay: 0.01,
        queue_capacity: 64,
        overlay_capacity: 24,
        fanouts: Fanouts::new(vec![4, 3]),
        seed: 3,
        pool: WorkerPool::new(workers),
        ..ServeConfig::default()
    };
    let trace: Vec<InferenceRequest> = (0..8 * batches as u64)
        .map(|i| InferenceRequest {
            id: i,
            vertex: (i * 37 % 400) as VertexId,
            arrival: i as f64 * 1e-4,
            client: 0,
        })
        .collect();
    InferenceServer::new(setup, model, 0, cfg).run(&trace)
}

/// The first and the last batch are the ones a pipelined loop gets wrong:
/// the first has no forward pass to overlap, the last is forwarded only
/// when the run ends. Traces of 1, 2 and 3 batches report identically at
/// 1 and 2 workers.
#[test]
fn pipeline_ends_are_identical_across_worker_counts() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    for batches in 1..=3 {
        let one = serve_batches(&setup, &model, batches, 1);
        let two = serve_batches(&setup, &model, batches, 2);
        assert_eq!(one.batches.len(), batches);
        assert_eq!(one.completions.len(), 8 * batches);
        assert_eq!(one.completions, two.completions);
        assert_eq!(one.batches, two.batches);
        assert_eq!(one.cache, two.cache);
        assert!(one.makespan == two.makespan, "makespan drifted");
    }
}

/// The server's logits checksum: FNV-1a over the raw `f32` bits.
fn logits_checksum(row: &[f32]) -> u64 {
    row.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &x| {
        (h ^ u64::from(x.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A one-request trace is one batch that never overlaps: its completion
/// carries the label and checksum of a direct `GnnModel::infer` over the
/// batch's own sampling stream and the deployment's feature rows (f32
/// wire, cold overlay).
#[test]
fn one_request_answer_equals_direct_inference() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let fanouts = Fanouts::new(vec![4, 3]);
    let sampler = NodeWiseSampler::new(&setup.dataset.graph, fanouts.clone());
    let seed = 3;
    for v in [0, 57, 199, 398] {
        let cfg = ServeConfig {
            fanouts: fanouts.clone(),
            seed,
            pool: WorkerPool::new(2),
            ..ServeConfig::default()
        };
        let req = InferenceRequest {
            id: 0,
            vertex: v,
            arrival: 0.0,
            client: 0,
        };
        let report = InferenceServer::new(&setup, &model, 0, cfg).run(&[req]);
        assert_eq!(report.completions.len(), 1);

        let mut rng = StdRng::seed_from_u64(batch_stream_seed(seed, 0, 0));
        let mfg = sampler.sample(&[v], &mut rng);
        let features = &setup.dataset.features;
        let mut x = spp_tensor::Matrix::zeros(mfg.nodes.len(), features.dim());
        for (i, &u) in mfg.nodes.iter().enumerate() {
            x.row_mut(i).copy_from_slice(features.row(u));
        }
        let logits = model.infer(x, &mfg);
        let row = logits.row(0);
        let label = (0..row.len()).fold(0, |best, i| if row[i] > row[best] { i } else { best });
        let c = report.completions[0];
        assert_eq!((c.vertex, c.label), (v, label), "vertex {v}");
        assert_eq!(c.checksum, logits_checksum(row), "vertex {v}");
    }
}

/// Fetched rows come from the owners' stores, as the local and
/// static-tier rows do: a deployment built from an f16 store answers
/// exactly as one built from the f16-rounded matrix, down to every
/// logits checksum.
#[test]
fn quantized_store_deployment_serves_its_own_rows() {
    let (ds, model) = fixture();
    let dir = std::env::temp_dir().join(format!("spp_serve_f16_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    spp_store::StoreBuilder::new(QuantScheme::F16)
        .build_from_matrix(&dir, &ds.features, None)
        .unwrap();
    let store = spp_store::MmapStore::open(&dir).unwrap();
    let cfg = SetupConfig {
        num_machines: 2,
        fanouts: Fanouts::new(vec![4, 3]),
        alpha: 0.1,
        ..SetupConfig::default()
    };
    let from_store = DistributedSetup::build_with_feature_store(&ds, cfg.clone(), &store);
    std::fs::remove_dir_all(&dir).unwrap();
    let mut rounded = ds.clone();
    for v in 0..rounded.num_vertices() {
        quant::wire_roundtrip(rounded.features.row_mut(v as VertexId), QuantScheme::F16);
    }
    let from_matrix = DistributedSetup::build(&rounded, cfg);

    let a = serve_with_pool(&from_store, &model, 2);
    let b = serve_with_pool(&from_matrix, &model, 2);
    assert!(!a.completions.is_empty());
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.cache, b.cache);
    assert!(a.makespan == b.makespan, "makespan drifted");
}

/// Out-of-range vertex ids mixed into a trace are each rejected with
/// `invalid_vertex` at admission, and leave no other trace: every
/// request gets one outcome, and completions, batches and cache
/// accounting equal those of the trace without them.
#[test]
fn invalid_vertices_are_rejected_without_touching_the_rest() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let cfg = || ServeConfig {
        max_batch_size: 8,
        max_delay: 0.01,
        queue_capacity: 64,
        overlay_capacity: 24,
        fanouts: Fanouts::new(vec![4, 3]),
        seed: 3,
        pool: WorkerPool::new(2),
        ..ServeConfig::default()
    };
    let valid = generate_open_loop(&TraceConfig {
        num_requests: 300,
        num_vertices: 400,
        arrival_rate: 2000.0,
        skew: 3.0,
        burstiness: 0.3,
        seed: 17,
    });
    // Before every seventh valid request, an invalid one arriving with
    // it; the trace still ends on a valid request.
    let mut mixed = Vec::new();
    let mut invalid = 0u64;
    for (i, req) in valid.iter().enumerate() {
        if i % 7 == 3 {
            mixed.push(InferenceRequest {
                id: 1_000_000 + invalid,
                vertex: 400 + (invalid as VertexId * 13) % 5000,
                ..*req
            });
            invalid += 1;
        }
        mixed.push(*req);
    }
    let base = InferenceServer::new(&setup, &model, 0, cfg()).run(&valid);
    let report = InferenceServer::new(&setup, &model, 0, cfg()).run(&mixed);
    assert!(base.rejections.is_empty());
    assert_eq!(report.total_requests(), mixed.len());
    assert_eq!(report.rejections.len() as u64, invalid);
    for r in &report.rejections {
        assert_eq!(r.reason, RejectReason::InvalidVertex);
        assert!(r.request.id >= 1_000_000 && r.request.vertex >= 400);
    }
    assert_eq!(report.completions, base.completions);
    assert_eq!(report.batches, base.batches);
    assert_eq!(report.cache, base.cache);
}

/// Where a run's lane region gets its helper: a 2-worker pool, the
/// serial pool, or a 2-worker pool from inside an enclosing region that
/// holds the helpers, so the lane runs inline.
#[derive(Clone, Copy, Debug)]
enum LaneMode {
    Helper,
    Serial,
    Nested,
}

impl LaneMode {
    fn pool(self) -> WorkerPool {
        match self {
            LaneMode::Serial => WorkerPool::serial(),
            LaneMode::Helper | LaneMode::Nested => WorkerPool::new(2),
        }
    }

    /// Runs `serve` in this mode.
    fn run(self, serve: impl Fn() -> ServeReport + Sync) -> ServeReport {
        match self {
            LaneMode::Helper | LaneMode::Serial => serve(),
            LaneMode::Nested => {
                let mut reports = WorkerPool::new(2).run_jobs(2, |j| (j == 0).then(&serve));
                reports.swap_remove(0).unwrap()
            }
        }
    }
}

/// What must not depend on which thread ran a forward pass.
fn answers(r: &ServeReport) -> (CacheStats, Vec<(u64, u64, usize, u64)>) {
    let completions = r
        .completions
        .iter()
        .map(|c| (c.id, c.finish.to_bits(), c.label, c.checksum))
        .collect();
    (r.cache, completions)
}

/// The lane's inline fallback is the same code path: with a helper, on
/// the serial pool, and nested in another region, `run` gives identical
/// cache accounting and identical completions.
#[test]
fn lane_modes_answer_identically() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let trace = generate_open_loop(&TraceConfig {
        num_requests: 300,
        num_vertices: 400,
        arrival_rate: 2000.0,
        skew: 3.0,
        burstiness: 0.3,
        seed: 17,
    });
    let cfg = |mode: LaneMode| ServeConfig {
        max_batch_size: 8,
        max_delay: 0.01,
        queue_capacity: 64,
        overlay_capacity: 24,
        fanouts: Fanouts::new(vec![4, 3]),
        seed: 3,
        pool: mode.pool(),
        ..ServeConfig::default()
    };
    let open = |mode: LaneMode| {
        mode.run(|| InferenceServer::new(&setup, &model, 0, cfg(mode)).run(&trace))
    };
    let reference = answers(&open(LaneMode::Helper));
    assert!(reference.1.len() >= 200);
    assert!(reference.1.iter().any(|&(_, _, _, sum)| sum != 0));
    for mode in [LaneMode::Serial, LaneMode::Nested] {
        assert_eq!(answers(&open(mode)), reference, "{mode:?}");
    }
}

/// A producer that panics closes the lane: the helper parked on it
/// exits, and the panic reaches the caller instead of hanging the run.
#[test]
#[should_panic(expected = "trace must be time-ordered")]
fn out_of_order_trace_panics_on_a_two_worker_pool() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let cfg = ServeConfig {
        max_batch_size: 4,
        fanouts: Fanouts::new(vec![4, 3]),
        pool: WorkerPool::new(2),
        ..ServeConfig::default()
    };
    // Three size-closed batches are submitted before time runs backwards.
    let mut trace: Vec<InferenceRequest> = (0..14u64)
        .map(|i| InferenceRequest {
            id: i,
            vertex: (i * 37 % 400) as VertexId,
            arrival: i as f64 * 1e-4,
            client: 0,
        })
        .collect();
    trace[13].arrival = 0.0;
    InferenceServer::new(&setup, &model, 0, cfg).run(&trace);
}
