//! Bit-identity of training through the `FeatureStore` trait: routing
//! batch gathers through an f32 paged store (in-RAM or mmap-backed)
//! must reproduce the historical `&FeatureMatrix` path exactly — same
//! loss curve to the last bit, same accuracies.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_gnn::metrics::{predictions, AccuracyMeter};
use spp_gnn::{GnnModel, TrainConfig, TrainReport, Trainer, MODEL_STREAM_SALT};
use spp_graph::dataset::SyntheticSpec;
use spp_graph::{Dataset, QuantScheme, VertexId};
use spp_sampler::{batch_stream_seed, Fanouts, MinibatchIter, NodeWiseSampler};
use spp_store::{FeatureStore, InRamStore, MmapStore, StoreBuilder};
use spp_tensor::{Adam, Optimizer};
use std::sync::Arc;

fn fixture() -> (Dataset, TrainConfig) {
    let ds = SyntheticSpec::new("store-train", 400, 10.0, 8, 4)
        .split_fractions(0.4, 0.1, 0.1)
        .feature_signal(1.5)
        .seed(2)
        .build();
    let cfg = TrainConfig {
        hidden_dim: 16,
        fanouts: Fanouts::new(vec![5, 5]),
        eval_fanouts: Fanouts::new(vec![8, 8]),
        batch_size: 32,
        lr: 0.01,
        epochs: 3,
        ..TrainConfig::default()
    };
    (ds, cfg)
}

fn assert_reports_identical(a: &TrainReport, b: &TrainReport, what: &str) {
    assert_eq!(a.epochs.len(), b.epochs.len(), "{what}: epoch count");
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(ea.batches, eb.batches, "{what}: epoch {} batches", ea.epoch);
        assert!(
            ea.loss.to_bits() == eb.loss.to_bits(),
            "{what}: epoch {} loss {} != {}",
            ea.epoch,
            ea.loss,
            eb.loss
        );
    }
    assert!(
        a.val_accuracy.to_bits() == b.val_accuracy.to_bits(),
        "{what}: val"
    );
    assert!(
        a.test_accuracy.to_bits() == b.test_accuracy.to_bits(),
        "{what}: test"
    );
}

/// An f32 `InRamStore` is a lossless re-encoding of the feature matrix,
/// so every gathered batch — and therefore every forward pass, loss,
/// and accuracy — is bit-identical to training straight off the matrix.
#[test]
fn training_through_inram_store_is_bit_identical() {
    let (ds, cfg) = fixture();
    let baseline = Trainer::new(&ds, cfg.clone()).train();
    assert!(!baseline.epochs.is_empty());

    let store = InRamStore::from_matrix(&ds.features, QuantScheme::F32, 4096);
    let through_store = Trainer::new(&ds, cfg).with_feature_store(&store).train();
    assert_reports_identical(&baseline, &through_store, "inram/f32");
}

/// Same contract through the full on-disk path: pages written by
/// `StoreBuilder`, read back via positioned reads (`MmapStore`).
#[test]
fn training_through_mmap_store_is_bit_identical() {
    let (ds, cfg) = fixture();
    let baseline = Trainer::new(&ds, cfg.clone()).train();

    let dir = std::env::temp_dir().join(format!("spp_gnn_store_train_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StoreBuilder::new(QuantScheme::F32)
        .page_bytes(4096)
        .build_from_matrix(&dir, &ds.features, None)
        .unwrap();
    let store = MmapStore::open(&dir).unwrap();
    let through_store = Trainer::new(&ds, cfg).with_feature_store(&store).train();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_reports_identical(&baseline, &through_store, "mmap/f32");
    // The trait path is observable: training actually touched pages.
    let stats = spp_store::FeatureStore::stats(&store);
    assert!(
        stats.pages_read > 0,
        "training never read through the store"
    );
}

/// The batch loop as it was before batch slots were recycled, spelled
/// out over public APIs: every minibatch gathers into a freshly
/// allocated matrix (`Trainer::gather_features_from`) and the updates
/// run strictly in batch order. Returns the epoch's mean loss.
fn reference_epoch(
    ds: &Dataset,
    cfg: &TrainConfig,
    feats: &dyn FeatureStore,
    model: &mut GnnModel,
    opt: &mut Adam,
    epoch: u64,
) -> f64 {
    let sampler = NodeWiseSampler::new(&ds.graph, cfg.fanouts.clone());
    let (mut total, mut batches) = (0.0f64, 0usize);
    for (b, batch) in
        MinibatchIter::new(&ds.split.train, cfg.batch_size, cfg.seed, epoch).enumerate()
    {
        let b = b as u64;
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(cfg.seed, epoch, b));
        let mfg = sampler.sample(&batch, &mut rng);
        let x = Trainer::gather_features_from(feats, &mfg);
        let labels = Arc::new(mfg.seeds().iter().map(|&v| ds.labels[v as usize]).collect());
        let mut model_rng =
            StdRng::seed_from_u64(batch_stream_seed(cfg.seed ^ MODEL_STREAM_SALT, epoch, b));
        let mut fwd = model.forward(x, &mfg, true, &mut model_rng);
        let loss = fwd.tape.softmax_cross_entropy(fwd.logits, labels);
        total += fwd.tape.value(loss).get(0, 0) as f64;
        fwd.tape.backward(loss);
        model.accumulate_grads(&fwd);
        opt.step(&mut model.params_mut());
        batches += 1;
    }
    total / batches as f64
}

/// Pre-recycling evaluation: a fresh gather per batch, batches in order.
fn reference_evaluate(
    ds: &Dataset,
    cfg: &TrainConfig,
    feats: &dyn FeatureStore,
    model: &GnnModel,
    ids: &[VertexId],
    seed: u64,
) -> f64 {
    let sampler = NodeWiseSampler::new(&ds.graph, cfg.eval_fanouts.clone());
    let mut meter = AccuracyMeter::new();
    for (b, batch) in MinibatchIter::new(ids, cfg.batch_size, seed, 0).enumerate() {
        let mut rng = StdRng::seed_from_u64(batch_stream_seed(seed, 0, b as u64));
        let mfg = sampler.sample(&batch, &mut rng);
        let x = Trainer::gather_features_from(feats, &mfg);
        let fwd = model.forward(x, &mfg, false, &mut rng);
        let labels: Vec<u32> = mfg.seeds().iter().map(|&v| ds.labels[v as usize]).collect();
        meter.update(&predictions(fwd.logits_value()), &labels);
    }
    meter.value()
}

/// Recycled batch slots and page-run reads change where bytes land,
/// never which bytes: through a lossy (f16) `MmapStore`, with dropout
/// on, the loss curve and the evaluation accuracy at 1, 2 and 8 workers
/// equal the fresh-gather-per-batch reference bit for bit. The eval id
/// list is not a multiple of the batch size, so every slot also serves
/// a small batch right after a large one.
#[test]
fn recycled_slots_match_fresh_gathers_at_1_2_8_workers() {
    let (ds, cfg) = fixture();
    let cfg = TrainConfig {
        dropout: 0.3,
        ..cfg
    };
    let dir = std::env::temp_dir().join(format!("spp_gnn_store_slots_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StoreBuilder::new(QuantScheme::F16)
        .page_bytes(256)
        .build_from_matrix(&dir, &ds.features, None)
        .unwrap();
    let store = MmapStore::open(&dir).unwrap();
    let eval_ids: Vec<VertexId> = ds.split.test.iter().chain(&ds.split.val).copied().collect();
    assert_ne!(
        eval_ids.len() % cfg.batch_size,
        0,
        "want a short tail batch"
    );

    // Reference: the model the trainer builds (same dims, seed and
    // dropout), driven by the pre-recycling loops.
    let seed_trainer = Trainer::new(&ds, cfg.clone());
    let mut model =
        GnnModel::new(cfg.arch, seed_trainer.model().dims(), cfg.seed).with_dropout(cfg.dropout);
    let mut opt = Adam::new(cfg.lr);
    let want_losses: Vec<f64> = (0..cfg.epochs as u64)
        .map(|e| reference_epoch(&ds, &cfg, &store, &mut model, &mut opt, e))
        .collect();
    let want_acc = reference_evaluate(&ds, &cfg, &store, &model, &eval_ids, 77);
    assert!(want_losses.iter().all(|l| l.is_finite()));

    for workers in [1usize, 2, 8] {
        let cfg = TrainConfig {
            workers: Some(workers),
            ..cfg.clone()
        };
        let mut trainer = Trainer::new(&ds, cfg.clone()).with_feature_store(&store);
        let mut opt = Adam::new(cfg.lr);
        for (e, want) in want_losses.iter().enumerate() {
            let got = trainer.train_epoch(&mut opt, e as u64).loss;
            assert!(
                got.to_bits() == want.to_bits(),
                "workers {workers} epoch {e}: loss {got} != {want}"
            );
        }
        let got = trainer.evaluate(&eval_ids, 77);
        assert!(
            got.to_bits() == want_acc.to_bits(),
            "workers {workers}: accuracy {got} != {want_acc}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
