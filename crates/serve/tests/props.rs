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
use spp_sampler::{Fanouts, NodeWiseSampler};
use spp_serve::{
    generate_open_loop, CacheStats, DynamicOverlay, InferenceServer, InsertOutcome, RejectReason,
    ServeConfig, ServeReport, TraceConfig,
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
/// checksums), batch records, and cache accounting are identical at 1,
/// 2, and 8 workers.
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

/// Closed-loop driving: all issued requests resolve, load adapts to
/// capacity (no rejections when clients fit the queue bound), and the
/// run is deterministic across worker counts.
#[test]
fn closed_loop_resolves_every_request_deterministically() {
    let (ds, model) = fixture();
    let setup = deployment(&ds);
    let run = |workers: usize| {
        let cfg = ServeConfig {
            max_batch_size: 8,
            max_delay: 0.002,
            queue_capacity: 64,
            overlay_capacity: 16,
            fanouts: Fanouts::new(vec![4, 3]),
            seed: 2,
            pool: WorkerPool::new(workers),
            ..ServeConfig::default()
        };
        InferenceServer::new(&setup, &model, 0, cfg).run_closed_loop(&spp_serve::ClosedLoopConfig {
            clients: 6,
            think_time: 0.001,
            total_requests: 200,
            skew: 2.5,
            seed: 21,
        })
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.total_requests(), 200);
    assert!(a.rejections.is_empty(), "6 clients fit a 64-deep queue");
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.cache, b.cache);
}

/// Bit-identity of remote fetch through the `FeatureStore` trait: an
/// f32 store over the deployment's reordered features (new-id space)
/// must serve every peer fetch with the same bits as the in-process
/// `PartitionedFeatureStore::serve` path, so the entire report —
/// completions, batches, cache accounting, makespan — is unchanged.
#[test]
fn remote_store_fetch_is_bit_identical() {
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
    let baseline = InferenceServer::new(&setup, &model, 0, cfg()).run(&trace);

    let remote =
        spp_store::InRamStore::from_matrix(&setup.dataset.features, QuantScheme::F32, 4096);
    let through = InferenceServer::new(&setup, &model, 0, cfg())
        .with_remote_store(&remote)
        .run(&trace);

    assert!(!baseline.completions.is_empty());
    assert_eq!(baseline.completions, through.completions);
    assert_eq!(baseline.batches, through.batches);
    assert_eq!(baseline.cache, through.cache);
    assert_eq!(baseline.rejections, through.rejections);
    assert!(baseline.makespan == through.makespan, "makespan drifted");
}
