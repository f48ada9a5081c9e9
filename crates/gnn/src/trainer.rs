//! Single-machine minibatch training and inference.
//!
//! This is the reference (non-distributed) training loop: the distributed
//! engine in `spp-runtime` must produce the same gathered features and
//! gradients; integration tests compare against this implementation.

use crate::metrics::{predictions, AccuracyMeter};
use crate::{model_dims, Arch, GnnModel, SageStep};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spp_graph::{Dataset, VertexId};
use spp_pool::{even_ranges, WorkerPool};
use spp_sampler::{batch_stream_seed, Fanouts, Mfg, MinibatchIter, NodeWiseSampler};
use spp_store::FeatureStore;
use spp_tensor::{Adam, Matrix, Optimizer};
use std::sync::Arc;

/// The labels of `mfg`'s seed vertices, in seed order.
pub fn seed_labels(labels: &[u32], mfg: &Mfg) -> Vec<u32> {
    mfg.seeds().iter().map(|&v| labels[v as usize]).collect()
}

/// One minibatch's training compute on a step of its own:
/// [`SageStep::train`] over `x` for batch `(seed, epoch, index)`, all
/// on `pool`'s budget, with the parameter gradients accumulated into
/// `model`. Returns the loss and `x`. Bit-identical for any pool.
pub fn train_step(
    pool: WorkerPool,
    model: &mut GnnModel,
    x: Matrix,
    mfg: &Mfg,
    labels: Arc<Vec<u32>>,
    index: (u64, u64, u64),
) -> (f64, Matrix) {
    let loss = SageStep::new(model).train(pool, model, &x, mfg, &labels, index);
    (loss, x)
}

/// Hyperparameters for one training run. Defaults mirror the paper's
/// Table 3 (3-layer GraphSAGE, hidden 256, fanouts (15,10,5), batch 1024,
/// Adam at 0.001) scaled to the mini datasets.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Architecture; [`Arch::Sage`] is the only one.
    pub arch: Arch,
    /// Hidden-layer width.
    pub hidden_dim: usize,
    /// Training fanouts; their count sets the number of GNN layers.
    pub fanouts: Fanouts,
    /// Inference fanouts (the paper uses (20,20,20) for products/papers).
    pub eval_fanouts: Fanouts,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Number of training epochs.
    pub epochs: usize,
    /// Dropout probability between layers.
    pub dropout: f32,
    /// Master seed for init, shuffling, and sampling.
    pub seed: u64,
    /// The trainer's whole worker budget (`None` = the global pool):
    /// minibatch preparation, evaluation, and each step's forward and
    /// backward run on it. Any value produces identical sampled batches
    /// and loss curves — each batch's RNG stream is derived from
    /// `(seed, epoch, batch)`, never from which worker prepared it.
    pub workers: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            arch: Arch::Sage,
            hidden_dim: 64,
            fanouts: Fanouts::new(vec![15, 10, 5]),
            eval_fanouts: Fanouts::new(vec![20, 20, 20]),
            batch_size: 1024,
            lr: 0.001,
            epochs: 10,
            dropout: 0.0,
            seed: 0,
            workers: None,
        }
    }
}

/// Loss statistics for one epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean minibatch loss.
    pub loss: f64,
    /// Number of minibatches.
    pub batches: usize,
}

/// Outcome of a training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Per-epoch loss curve.
    pub epochs: Vec<EpochStats>,
    /// Final validation accuracy (minibatch inference).
    pub val_accuracy: f64,
    /// Final test accuracy (minibatch inference).
    pub test_accuracy: f64,
}

/// One prepared minibatch. `x`'s storage is the batch's recycled slot:
/// the step only reads it, and it holds a later batch next, so the
/// epoch and evaluate loops own at most one feature buffer per
/// in-flight batch instead of allocating one per minibatch.
struct Batch {
    mfg: Mfg,
    x: Matrix,
    labels: Vec<u32>,
}

/// Trains a [`GnnModel`] on a [`Dataset`] with node-wise sampling.
///
/// # Example
///
/// ```
/// use spp_gnn::{Trainer, TrainConfig, Arch};
/// use spp_graph::dataset::SyntheticSpec;
/// use spp_sampler::Fanouts;
///
/// let ds = SyntheticSpec::new("tiny", 300, 8.0, 8, 3)
///     .split_fractions(0.3, 0.2, 0.2).seed(1).build();
/// let cfg = TrainConfig {
///     hidden_dim: 16,
///     fanouts: Fanouts::new(vec![5, 5]),
///     eval_fanouts: Fanouts::new(vec![5, 5]),
///     batch_size: 32,
///     lr: 0.01,
///     epochs: 2,
///     ..TrainConfig::default()
/// };
/// let mut t = Trainer::new(&ds, cfg);
/// let report = t.train();
/// assert_eq!(report.epochs.len(), 2);
/// ```
pub struct Trainer<'a> {
    ds: &'a Dataset,
    cfg: TrainConfig,
    model: GnnModel,
    /// Where minibatch feature rows are read from: `ds.features` unless
    /// [`Trainer::with_feature_store`] replaced it. The dataset's matrix
    /// remains the source of truth for dimensions. Any f32 store yields
    /// bit-identical training.
    feats: &'a dyn FeatureStore,
}

impl<'a> Trainer<'a> {
    /// Builds a trainer over [`model_dims`].
    pub fn new(ds: &'a Dataset, cfg: TrainConfig) -> Self {
        let dims = model_dims(
            ds.features.dim(),
            cfg.hidden_dim,
            cfg.fanouts.num_hops(),
            ds.num_classes,
        );
        let model = GnnModel::new(cfg.arch, &dims, cfg.seed).with_dropout(cfg.dropout);
        Self {
            ds,
            cfg,
            model,
            feats: &ds.features,
        }
    }

    /// Reads minibatch features through `store` instead of the dataset's
    /// resident matrix (out-of-core training, DESIGN.md §16). The store
    /// must be addressed by the same vertex ids as the dataset.
    ///
    /// # Panics
    ///
    /// Panics if the store's shape disagrees with the dataset's features.
    pub fn with_feature_store(mut self, store: &'a dyn FeatureStore) -> Self {
        assert_eq!(
            store.num_rows(),
            self.ds.features.num_rows(),
            "feature store row count must match the dataset"
        );
        assert_eq!(
            store.dim(),
            self.ds.features.dim(),
            "feature store dim must match the dataset"
        );
        self.feats = store;
        self
    }

    /// The model (e.g. for inspection after training).
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Gathers feature rows for an MFG's node list into a dense matrix.
    pub fn gather_features(ds: &Dataset, mfg: &Mfg) -> Matrix {
        Self::gather_features_from(&ds.features, mfg)
    }

    /// [`Trainer::gather_features`] reading rows through any
    /// [`FeatureStore`]. Allocates the result; the training and
    /// evaluation loops recycle batch slots instead.
    pub fn gather_features_from(feats: &dyn FeatureStore, mfg: &Mfg) -> Matrix {
        Self::gather_into_slot(feats, mfg, vec![0.0f32; mfg.num_nodes() * feats.dim()])
    }

    /// Gathers the MFG's feature rows into `slot` — a recycled buffer
    /// of any length and content, grown to exactly the batch if too
    /// small ([`Matrix::from_recycled`]); every element of the result is
    /// overwritten — and wraps it as the batch's input matrix. Take the
    /// buffer back with [`Matrix::into_flat`].
    pub fn gather_into_slot(feats: &dyn FeatureStore, mfg: &Mfg, slot: Vec<f32>) -> Matrix {
        let mut x = Matrix::from_recycled(mfg.num_nodes(), feats.dim(), slot);
        feats.gather_into(&mfg.nodes, x.as_flat_mut());
        x
    }

    /// Runs the full training loop, then evaluates on val and test.
    pub fn train(&mut self) -> TrainReport {
        let mut opt = Adam::new(self.cfg.lr);
        let mut epochs = Vec::with_capacity(self.cfg.epochs);
        for epoch in 0..self.cfg.epochs {
            let stats = self.train_epoch(&mut opt, epoch as u64);
            epochs.push(EpochStats { epoch, ..stats });
        }
        let val_accuracy = self.evaluate(&self.ds.split.val, 10_007);
        let test_accuracy = self.evaluate(&self.ds.split.test, 10_009);
        TrainReport {
            epochs,
            val_accuracy,
            test_accuracy,
        }
    }

    /// The worker pool every region of this trainer runs on.
    fn pool(&self) -> WorkerPool {
        self.cfg
            .workers
            .map_or_else(WorkerPool::global, WorkerPool::new)
    }

    /// Samples one minibatch's MFG and gathers its features (into the
    /// recycled `slot`) and labels — the preparation work that runs
    /// concurrently across batches. `stream_seed` is the batch's
    /// [`batch_stream_seed`], a pure function of `(seed, epoch, batch)`,
    /// so the output does not depend on which worker runs this, when, or
    /// what the slot held before.
    fn prepare_batch(
        ds: &Dataset,
        feats: &dyn FeatureStore,
        sampler: &NodeWiseSampler<'_>,
        stream_seed: u64,
        batch: &[VertexId],
        slot: Vec<f32>,
    ) -> Batch {
        let mut rng = StdRng::seed_from_u64(stream_seed);
        let mfg = sampler.sample(batch, &mut rng);
        let x = Self::gather_into_slot(feats, &mfg, slot);
        let labels = seed_labels(&ds.labels, &mfg);
        Batch { mfg, x, labels }
    }

    /// Runs one epoch of minibatch SGD; returns loss stats.
    ///
    /// Batch preparation (sampling + feature gathering) runs ahead on the
    /// worker pool ([`WorkerPool::prepare_ahead`]) while the model update
    /// for each batch stays sequential — SALIENT's batch-preparation
    /// parallelism. Each lane's feature buffer is recycled into its next
    /// batch, and each batch's sampling and dropout RNG streams are
    /// derived from `(seed, epoch, batch)`, so loss curves are identical
    /// for every pool size.
    // spp-det(gnn.train_epoch)
    pub fn train_epoch(&mut self, opt: &mut Adam, epoch: u64) -> EpochStats {
        let sampler = NodeWiseSampler::new(&self.ds.graph, self.cfg.fanouts.clone());
        let batch_list: Vec<Vec<VertexId>> = MinibatchIter::new(
            &self.ds.split.train,
            self.cfg.batch_size,
            self.cfg.seed,
            epoch,
        )
        .collect();
        let (ds, feats, seed, pool) = (self.ds, self.feats, self.cfg.seed, self.pool());
        feats.begin_epoch();
        let model = &mut self.model;
        let mut total_loss = 0.0f64;
        let _epoch_span = spp_telemetry::span!("gnn.trainer.epoch");
        let batches_counter = spp_telemetry::metrics::counter("gnn.trainer.batches");
        pool.prepare_ahead(
            batch_list.len(),
            |b, prev: Option<Batch>| {
                let _prep = spp_telemetry::span!("gnn.trainer.prepare");
                let slot = prev.map_or_else(Vec::new, |p| p.x.into_flat());
                let stream = batch_stream_seed(seed, epoch, b as u64);
                Self::prepare_batch(ds, feats, &sampler, stream, &batch_list[b], slot)
            },
            |b, batch| {
                let _update = spp_telemetry::span!("gnn.trainer.update");
                batches_counter.inc();
                let index = (seed, epoch, b as u64);
                let (x, mfg, labels) = (&batch.x, &batch.mfg, &batch.labels);
                total_loss += SageStep::new(model).train(pool, model, x, mfg, labels, index);
                opt.step(&mut model.params_mut());
            },
        );
        let batches = batch_list.len();
        EpochStats {
            epoch: epoch as usize,
            loss: if batches > 0 {
                total_loss / batches as f64
            } else {
                0.0
            },
            batches,
        }
    }

    /// Minibatch inference accuracy over `ids` using the eval fanouts.
    ///
    /// Inference batches are independent (no parameter updates), so the
    /// whole evaluation fans out on the pool; per-batch RNG streams make
    /// the result identical for any worker count.
    pub fn evaluate(&self, ids: &[VertexId], seed: u64) -> f64 {
        let sampler = NodeWiseSampler::new(&self.ds.graph, self.cfg.eval_fanouts.clone());
        let batch_list: Vec<Vec<VertexId>> =
            MinibatchIter::new(ids, self.cfg.batch_size, seed, 0).collect();
        let ds = self.ds;
        let feats = self.feats;
        let model = &self.model;
        // One job per contiguous batch range, each recycling one feature
        // slot across its batches and computing on its share of the
        // budget; ranges merge back in batch order.
        let pool = self.pool();
        let ranges = even_ranges(batch_list.len(), pool.workers().min(batch_list.len()));
        let share = pool.split(ranges.len());
        let per_range = pool.run_jobs(ranges.len(), |r| {
            let mut slot = Vec::new();
            let mut out = Vec::with_capacity(ranges[r].len());
            for b in ranges[r].clone() {
                let stream = batch_stream_seed(seed, 0, b as u64);
                let Batch { mfg, x, labels } =
                    Self::prepare_batch(ds, feats, &sampler, stream, &batch_list[b], slot);
                let preds = predictions(SageStep::new(model).infer(share, model, &x, &mfg));
                out.push((preds, labels));
                slot = x.into_flat();
            }
            out
        });
        let mut meter = AccuracyMeter::new();
        for (preds, labels) in per_range.iter().flatten() {
            meter.update(preds, labels);
        }
        meter.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::dataset::SyntheticSpec;

    fn tiny_config(epochs: usize) -> TrainConfig {
        TrainConfig {
            hidden_dim: 16,
            fanouts: Fanouts::new(vec![5, 5]),
            eval_fanouts: Fanouts::new(vec![8, 8]),
            batch_size: 32,
            lr: 0.01,
            epochs,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = SyntheticSpec::new("t", 400, 10.0, 8, 4)
            .split_fractions(0.4, 0.1, 0.1)
            .feature_signal(1.5)
            .seed(2)
            .build();
        let mut t = Trainer::new(&ds, tiny_config(5));
        let report = t.train();
        let first = report.epochs.first().unwrap().loss;
        let last = report.epochs.last().unwrap().loss;
        assert!(last < first, "loss {first} -> {last} did not decrease");
    }

    #[test]
    fn learns_separable_classes() {
        let ds = SyntheticSpec::new("t", 600, 12.0, 16, 3)
            .split_fractions(0.5, 0.2, 0.2)
            .feature_signal(2.0)
            .homophily(0.9)
            .seed(3)
            .build();
        let mut t = Trainer::new(&ds, tiny_config(8));
        let report = t.train();
        assert!(
            report.test_accuracy > 0.8,
            "test accuracy {} too low for an easy dataset",
            report.test_accuracy
        );
    }

    #[test]
    fn deterministic_training() {
        let ds = SyntheticSpec::new("t", 300, 8.0, 8, 3)
            .split_fractions(0.3, 0.2, 0.2)
            .seed(4)
            .build();
        let r1 = Trainer::new(&ds, tiny_config(2)).train();
        let r2 = Trainer::new(&ds, tiny_config(2)).train();
        assert_eq!(r1.epochs, r2.epochs);
        assert_eq!(r1.test_accuracy, r2.test_accuracy);
    }

    #[test]
    fn loss_curve_identical_across_pool_sizes() {
        // Dropout on, so the model RNG stream is actually consumed: if
        // prep parallelism leaked into either the sampling or dropout
        // streams, the loss trajectories would diverge.
        let ds = SyntheticSpec::new("t", 400, 10.0, 8, 4)
            .split_fractions(0.4, 0.2, 0.2)
            .feature_signal(1.5)
            .seed(9)
            .build();
        let run = |workers: usize| {
            let cfg = TrainConfig {
                dropout: 0.3,
                workers: Some(workers),
                ..tiny_config(3)
            };
            Trainer::new(&ds, cfg).train()
        };
        let reference = run(1);
        assert!(reference.epochs.iter().all(|e| e.loss.is_finite()));
        for workers in [2usize, 8] {
            let got = run(workers);
            assert_eq!(reference.epochs, got.epochs, "workers={workers}");
            assert_eq!(reference.val_accuracy, got.val_accuracy);
            assert_eq!(reference.test_accuracy, got.test_accuracy);
        }
    }

    #[test]
    fn train_step_bits_identical_across_pools() {
        // Wide enough that the step's kernels split into several jobs, and
        // dropout on, so the model stream is drawn.
        let ds = SyntheticSpec::new("t", 3000, 12.0, 64, 4)
            .split_fractions(0.5, 0.1, 0.1)
            .seed(10)
            .build();
        let sampler = NodeWiseSampler::new(&ds.graph, Fanouts::new(vec![10, 10]));
        let mfg = sampler.sample(&ds.split.train[..256], &mut StdRng::seed_from_u64(3));
        let x = Trainer::gather_features(&ds, &mfg);
        let labels = Arc::new(seed_labels(&ds.labels, &mfg));
        let step = |pool: WorkerPool| {
            let mut model = GnnModel::new(Arch::Sage, &[64, 64, 4], 7).with_dropout(0.3);
            let (loss, _) =
                train_step(pool, &mut model, x.clone(), &mfg, labels.clone(), (1, 0, 0));
            let grads: Vec<Vec<u32>> = model
                .params_mut()
                .iter()
                .map(|p| p.grad.as_flat().iter().map(|g| g.to_bits()).collect())
                .collect();
            (loss.to_bits(), grads)
        };
        let reference = step(WorkerPool::serial());
        assert!(reference.1.iter().flatten().any(|&g| g != 0));
        for workers in [2, 8] {
            assert!(
                step(WorkerPool::new(workers)) == reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn recycled_slot_never_shows_stale_rows() {
        // A slot that held a large batch (and NaN garbage beyond it) is
        // handed to a small batch: the result must equal a fresh gather.
        let ds = SyntheticSpec::new("t", 300, 8.0, 6, 3).seed(8).build();
        let sampler = NodeWiseSampler::new(&ds.graph, Fanouts::new(vec![6, 6]));
        let large = sampler.sample(&ds.split.train[..20], &mut StdRng::seed_from_u64(1));
        let small = sampler.sample(&ds.split.train[..3], &mut StdRng::seed_from_u64(2));
        assert!(small.num_nodes() < large.num_nodes());
        let mut slot = Trainer::gather_into_slot(&ds.features, &large, Vec::new()).into_flat();
        slot.extend([f32::NAN; 64]);
        let reused = Trainer::gather_into_slot(&ds.features, &small, slot);
        let fresh = Trainer::gather_features_from(&ds.features, &small);
        assert_eq!(reused.shape(), fresh.shape());
        assert_eq!(reused.as_flat(), fresh.as_flat());
    }

    #[test]
    fn slot_reused_for_a_larger_batch_fits_it_exactly() {
        // A slot grown in place would double its capacity and keep it
        // for the rest of the run.
        let ds = SyntheticSpec::new("t", 300, 8.0, 6, 3).seed(8).build();
        let sampler = NodeWiseSampler::new(&ds.graph, Fanouts::new(vec![6, 6]));
        let small = sampler.sample(&ds.split.train[..3], &mut StdRng::seed_from_u64(2));
        let mut large = small.clone();
        large
            .nodes
            .extend_from_slice(&small.nodes[..small.num_nodes() / 2]);
        let slot = Trainer::gather_into_slot(&ds.features, &small, Vec::new()).into_flat();
        let x = Trainer::gather_into_slot(&ds.features, &large, slot);
        assert_eq!(x.as_flat(), Trainer::gather_features(&ds, &large).as_flat());
        assert_eq!(
            x.into_flat().capacity(),
            large.num_nodes() * ds.features.dim()
        );
    }

    #[test]
    fn evaluate_on_empty_ids_is_zero() {
        let ds = SyntheticSpec::new("t", 100, 6.0, 4, 2).seed(5).build();
        let t = Trainer::new(&ds, tiny_config(1));
        assert_eq!(t.evaluate(&[], 0), 0.0);
    }
}
