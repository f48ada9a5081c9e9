//! `infer_gather`: offline minibatch inference whose features come
//! through the paged f16 store — forward only, so decoding rows and
//! sampling are most of a pass.

use crate::harness::{Harness, PassResult, DEGREE_TAIL, TRACED_PASSES};
use crate::layers::{self, count_mfg};
use crate::stats::ratio;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use salientpp::gnn::metrics::{predictions, AccuracyMeter};
use salientpp::gnn::{Arch, TrainConfig, Trainer};
use salientpp::graph::dataset::SyntheticSpec;
use salientpp::graph::{quant, Dataset, QuantScheme, VertexId};
use salientpp::sampler::{batch_stream_seed, Fanouts, MinibatchIter, NodeWiseSampler};
use salientpp::store::{FeatureStore, MmapStore, StoreBuilder};
use std::path::Path;

/// Seed of the evaluation's batch order and sampling streams.
const EVAL_SEED: u64 = 10_009;
/// Batches of the in-RAM reference gather.
const REFERENCE_BATCHES: usize = 16;

/// mag240-shaped: 60 k vertices, average degree 21.5, 384 features, with
/// a 6 k-vertex test split to sweep (24 batches of 256).
pub fn dataset(seed: u64) -> Dataset {
    SyntheticSpec::new("mag240-shaped", 60_000, 21.5, 384, 32)
        .split_fractions(0.009, 0.0011, 0.1)
        .homophily(0.93)
        .degree_tail(DEGREE_TAIL)
        .seed(seed)
        .build()
}

fn config(seed: u64, workers: usize) -> TrainConfig {
    TrainConfig {
        arch: Arch::Sage,
        hidden_dim: 32,
        fanouts: Fanouts::new(vec![20, 20]),
        eval_fanouts: Fanouts::new(vec![20, 20]),
        batch_size: 256,
        seed,
        workers: Some(workers),
        ..TrainConfig::default()
    }
}

fn build_store(dir: &Path, ds: &Dataset) -> MmapStore {
    StoreBuilder::new(QuantScheme::F16)
        .build_from_matrix(dir, &ds.features, None)
        .expect("write the feature store");
    MmapStore::open(dir).expect("open the feature store")
}

/// 1 000 seeded rows of `store` against the f16 round trip of the
/// matrix rows they were built from; returns the mismatches.
fn mismatched_rows(store: &MmapStore, ds: &Dataset, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5701_E5ED);
    let mut got = vec![0.0f32; ds.features.dim()];
    (0..1000)
        .filter(|_| {
            let v = rng.gen_range(0..ds.num_vertices()) as VertexId;
            store.read_row_into(v, &mut got);
            let mut want = ds.features.row(v).to_vec();
            quant::wire_roundtrip(&mut want, QuantScheme::F16);
            got != want
        })
        .count()
}

pub fn run(h: &mut Harness) {
    let seed = h.args.seed;
    let dir = h.scratch_dir("store");
    let (ds, store) = h.setup(|st| {
        let ds = st.time("graph.dataset_build_s", || dataset(seed));
        let store = st.time("store.build_s", || build_store(&dir, &ds));
        (ds, store)
    });
    run_passes(h, &ds, &store);
    // The store's files are scratch; a failure to remove them is not a
    // wrong result.
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_passes(h: &mut Harness, ds: &Dataset, store: &MmapStore) {
    let cfg = config(h.args.seed, h.workers());
    let trainer = Trainer::new(ds, cfg.clone()).with_feature_store(store);
    let ids = &ds.split.test;
    let targets = ids.len() as u64;
    let bad_rows = mismatched_rows(store, ds, h.args.seed);
    h.out.check(
        bad_rows == 0,
        format!("1000 sampled store rows equal the f16 round trip ({bad_rows} differ)"),
    );
    let reference = trainer.evaluate(ids, EVAL_SEED);
    if h.args.trace {
        return run_traced(h, ds, store, &trainer, reference);
    }

    let mut drifted = 0u64;
    h.timed_phase(|| {
        let same = trainer.evaluate(ids, EVAL_SEED).to_bits() == reference.to_bits();
        drifted += u64::from(!same);
        PassResult {
            attempted: targets,
            failed: if same { 0 } else { targets },
        }
    });
    h.out.check(
        drifted == 0,
        format!("accuracy {reference} identical on every pass ({drifted} differ)"),
    );
}

fn run_traced(
    h: &mut Harness,
    ds: &Dataset,
    store: &MmapStore,
    trainer: &Trainer<'_>,
    reference: f64,
) {
    let cfg = trainer.config().clone();
    let ids = &ds.split.test;
    let (_, untraced_s) = h.baseline_passes(|| trainer.evaluate(ids, EVAL_SEED));

    let model = trainer.model();
    let dims = model.dims().to_vec();
    let sampler = NodeWiseSampler::new(&ds.graph, cfg.eval_fanouts.clone());
    let batches: Vec<_> = MinibatchIter::new(ids, cfg.batch_size, EVAL_SEED, 0).collect();
    let batch_rng = |b: usize| StdRng::seed_from_u64(batch_stream_seed(EVAL_SEED, 0, b as u64));
    let tr = &h.tracer;
    let mut traced_s = Vec::new();
    let mut accuracies = Vec::new();
    let before = store.stats();
    for pass in 0..TRACED_PASSES {
        // A fresh modelled resident set per pass, as at an epoch start.
        store.begin_epoch();
        let (accuracy, secs) = tr.pass(pass, || {
            let mut meter = AccuracyMeter::new();
            for (b, batch) in batches.iter().enumerate() {
                let mut rng = batch_rng(b);
                let mfg = tr.span(layers::SAMPLE, b, || sampler.sample(batch, &mut rng));
                let x = tr.span(layers::STORE_GATHER, b, || {
                    Trainer::gather_features_from(store, &mfg)
                });
                let preds = tr.span(layers::INFER, b, || {
                    let fwd = model.forward(x, &mfg, false, &mut rng);
                    tr.count(layers::TAPE_NODES, fwd.tape.len());
                    predictions(fwd.logits_value())
                });
                let labels: Vec<u32> = mfg.seeds().iter().map(|&v| ds.labels[v as usize]).collect();
                meter.update(&preds, &labels);
                count_mfg(tr, &mfg, &dims, false);
            }
            meter.value()
        });
        accuracies.push(accuracy);
        traced_s.push(secs);
    }
    let paged = store.stats().since(&before);

    // Reference: the same gather through the resident f32 matrix (the
    // path the store bypasses), on the first batches, outside any pass.
    for (b, batch) in batches.iter().take(REFERENCE_BATCHES).enumerate() {
        let mfg = sampler.sample(batch, &mut batch_rng(b));
        tr.span(layers::INRAM_GATHER, b, || {
            std::hint::black_box(Trainer::gather_features(ds, &mfg))
        });
    }

    h.out.attempted = u64::from(TRACED_PASSES) * ids.len() as u64;
    h.out.check(
        accuracies
            .iter()
            .all(|a| a.to_bits() == reference.to_bits()),
        format!("traced accuracy {accuracies:?} equals Trainer::evaluate's {reference}"),
    );
    layers::set_span_metrics(h);
    let gather = h.tracer.agg(layers::STORE_GATHER);
    let elems = h.tracer.counted(layers::MFG_NODES) * ds.features.dim() as f64;
    h.out.set(
        "store.decode_melem_per_s",
        ratio(elems / 1e6, gather.secs()),
    );
    h.out.set(
        "store.page_fault_ratio",
        ratio(paged.pages_faulted as f64, paged.pages_read as f64),
    );
    h.out
        .set("pool.dispatch_us_p50", layers::pool_dispatch_us_p50());
    h.finish_traced(untraced_s, &traced_s);
}
