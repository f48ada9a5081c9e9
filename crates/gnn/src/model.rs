//! The GraphSAGE model over message-flow graphs.

use crate::{Forward, SageStep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_pool::WorkerPool;
use spp_sampler::Mfg;
use spp_tensor::{init, Matrix, Param};

/// Which message-passing architecture to instantiate: GraphSAGE with
/// mean aggregation (Hamilton et al., 2017), the paper's evaluation
/// architecture and the only one, whose forward and backward
/// [`SageStep`] runs. The enum stays while the benchmark's
/// sources name `Arch::Sage` through [`GnnModel::new`] and the train
/// configs; it goes when those replays do (ROADMAP item 13(b)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// GraphSAGE with mean aggregation and concatenation update.
    Sage,
}

/// One GraphSAGE layer's parameters: the layer computes
/// `h[..targets]·w_self + mean_agg(h)·w_neigh + bias`, ReLU'd on hidden
/// layers.
#[derive(Debug)]
pub(crate) struct Layer {
    pub(crate) w_self: Param,
    pub(crate) w_neigh: Param,
    pub(crate) bias: Param,
}

/// Layer widths `[feature_dim, hidden × (hops - 1), classes]` of the
/// `hops`-layer model every trainer and timing simulation builds.
pub fn model_dims(feature_dim: usize, hidden: usize, hops: usize, classes: usize) -> Vec<usize> {
    let mut dims = vec![feature_dim];
    dims.extend(std::iter::repeat_n(hidden, hops - 1));
    dims.push(classes);
    dims
}

/// A multi-layer GraphSAGE model.
///
/// `dims` is `[input_dim, hidden..., num_classes]`; the number of layers
/// is `dims.len() - 1` and must match the sampling fanout depth of the
/// MFGs passed to [`GnnModel::forward`].
#[derive(Debug)]
pub struct GnnModel {
    layers: Vec<Layer>,
    dims: Vec<usize>,
    dropout: f32,
}

impl GnnModel {
    /// Builds a model with Glorot-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `dims` has fewer than two entries.
    pub fn new(arch: Arch, dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let Arch::Sage = arch;
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = (0..dims.len() - 1)
            .map(|l| {
                let (din, dout) = (dims[l], dims[l + 1]);
                Layer {
                    w_self: Param::new(init::glorot_uniform(din, dout, &mut rng)),
                    w_neigh: Param::new(init::glorot_uniform(din, dout, &mut rng)),
                    bias: Param::new(init::zeros_bias(dout)),
                }
            })
            .collect();
        Self {
            layers,
            dims: dims.to_vec(),
            dropout: 0.0,
        }
    }

    /// Sets the dropout probability applied between layers during training.
    pub fn with_dropout(mut self, p: f32) -> Self {
        self.dropout = p;
        self
    }

    /// Number of GNN layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer dimensions `[in, hidden..., classes]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The dropout probability applied between layers during training.
    pub fn dropout_rate(&self) -> f32 {
        self.dropout
    }

    /// The layers' parameters, first layer first.
    pub(crate) fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers' parameters.
    pub(crate) fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// All parameters, layer by layer: `w_self`, `w_neigh`, `bias`.
    pub fn params(&self) -> impl Iterator<Item = &Param> {
        self.layers
            .iter()
            .flat_map(|l| [&l.w_self, &l.w_neigh, &l.bias])
    }

    /// Mutable access to all parameters, in [`GnnModel::params`] order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w_self, &mut l.w_neigh, &mut l.bias])
            .collect()
    }

    /// Runs one [`SageStep`] forward on the global worker pool —
    /// training mode, with dropout drawn from `rng`, when `train` is set
    /// — and records it ([`Forward`]).
    ///
    /// `x` must have one row per MFG node (`mfg.num_nodes()` rows) in MFG
    /// local order, with `dims[0]` columns.
    ///
    /// # Panics
    ///
    /// Panics if the MFG depth does not match the layer count or `x` has
    /// the wrong shape.
    pub fn forward<'a, R: Rng>(
        &self,
        x: Matrix,
        mfg: &'a Mfg,
        train: bool,
        rng: &mut R,
    ) -> Forward<'a> {
        let (pool, mut step) = (WorkerPool::global(), SageStep::new(self));
        if train {
            step.forward(pool, self, &x, mfg, rng);
        } else {
            step.infer(pool, self, &x, mfg);
        }
        step.record(x, mfg)
    }

    /// Inference forward pass over a sampled MFG on the global worker
    /// pool: evaluation mode (no dropout), so the logits are a pure
    /// function of `(x, mfg, parameters)`. Runs a [`crate::SageStep`]
    /// of its own.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`GnnModel::forward`].
    pub fn infer(&self, x: Matrix, mfg: &Mfg) -> Matrix {
        let mut step = SageStep::new(self);
        step.infer(WorkerPool::global(), self, &x, mfg);
        step.into_logits()
    }

    /// Runs the backward of `fwd`'s step from its loss on the global
    /// worker pool, adding every parameter's gradient into the
    /// accumulators. `fwd` must come from this model's
    /// [`GnnModel::forward`], with the model unchanged since.
    ///
    /// # Panics
    ///
    /// Panics unless `fwd` recorded a loss and was not differentiated
    /// before.
    pub fn accumulate_grads(&mut self, fwd: &Forward<'_>) {
        fwd.tape.accumulate_into(WorkerPool::global(), self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_graph::generate::ring_with_chords;
    use spp_sampler::{Fanouts, NodeWiseSampler};
    use spp_tensor::{Adam, Optimizer};
    use std::sync::Arc as StdArc;

    fn setup() -> (GnnModel, Mfg, Matrix) {
        let g = ring_with_chords(64, 7);
        let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![4, 3]));
        let mut rng = StdRng::seed_from_u64(1);
        let mfg = sampler.sample(&[0, 5, 9, 13], &mut rng);
        let model = GnnModel::new(Arch::Sage, &[6, 8, 3], 2);
        let mut x = Matrix::zeros(mfg.num_nodes(), 6);
        let mut r2 = StdRng::seed_from_u64(3);
        for v in x.as_flat_mut() {
            *v = r2.gen::<f32>() - 0.5;
        }
        (model, mfg, x)
    }

    #[test]
    fn sage_forward_shapes() {
        let (model, mfg, x) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let fwd = model.forward(x, &mfg, false, &mut rng);
        assert_eq!(fwd.logits_value().shape(), (4, 3));
        assert_eq!(model.params().count(), 6); // 2 layers × 3 params
    }

    #[test]
    fn infer_matches_eval_forward() {
        let (model, mfg, x) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        let fwd = model.forward(x.clone(), &mfg, false, &mut rng);
        let logits = model.infer(x.clone(), &mfg);
        assert_eq!(&logits, fwd.logits_value());
        // Dropout must not leak into inference even when configured.
        let dropped = GnnModel::new(Arch::Sage, &[6, 8, 3], 2).with_dropout(0.5);
        assert_eq!(dropped.infer(x.clone(), &mfg), dropped.infer(x, &mfg));
    }

    #[test]
    fn forward_deterministic_in_eval_mode() {
        let (model, mfg, x) = setup();
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(99);
        let f1 = model.forward(x.clone(), &mfg, false, &mut r1);
        let f2 = model.forward(x, &mfg, false, &mut r2);
        assert_eq!(f1.logits_value(), f2.logits_value());
    }

    #[test]
    fn training_step_reduces_loss() {
        let (mut model, mfg, x) = setup();
        let labels = StdArc::new(vec![0u32, 1, 2, 0]);
        let mut opt = Adam::new(0.05);
        let mut rng = StdRng::seed_from_u64(6);
        let loss_at = |model: &GnnModel, rng: &mut StdRng| {
            let mut fwd = model.forward(x.clone(), &mfg, false, rng);
            let l = fwd
                .tape
                .softmax_cross_entropy(fwd.logits, StdArc::clone(&labels));
            fwd.tape.value(l).get(0, 0)
        };
        let before = loss_at(&model, &mut rng);
        for step in 0..20 {
            let pool = WorkerPool::global();
            crate::SageStep::new(&model).train(pool, &mut model, &x, &mfg, &labels, (6, 0, step));
            opt.step(&mut model.params_mut());
        }
        let after = loss_at(&model, &mut rng);
        assert!(
            after < before * 0.8,
            "loss {before} -> {after} did not drop"
        );
    }

    #[test]
    fn tape_records_five_nodes_per_layer() {
        // Per layer: three parameter leaves, `sparse_agg` and `linear`;
        // one feature leaf ahead of them, a dropout after every hidden
        // layer in train mode, and the loss once recorded.
        let g = ring_with_chords(64, 7);
        for layers in 1..=3 {
            let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![3; layers]));
            let mut rng = StdRng::seed_from_u64(1);
            let mfg = sampler.sample(&[0, 5, 9], &mut rng);
            let mut dims = vec![6; layers];
            dims.push(3);
            let model = GnnModel::new(Arch::Sage, &dims, 2).with_dropout(0.5);
            let x = Matrix::zeros(mfg.num_nodes(), 6);
            let eval = model.forward(x.clone(), &mfg, false, &mut rng);
            assert_eq!(eval.tape.len(), 1 + 5 * layers, "{layers} layers, eval");
            let mut train = model.forward(x, &mfg, true, &mut rng);
            let dropouts = layers - 1;
            assert_eq!(
                train.tape.len(),
                1 + 5 * layers + dropouts,
                "{layers} layers, train"
            );
            let labels = StdArc::new(vec![0, 1, 2]);
            train.tape.softmax_cross_entropy(train.logits, labels);
            assert_eq!(train.tape.len(), 2 + 5 * layers + dropouts);
        }
    }

    #[test]
    fn recorded_step_is_train_step_bit_for_bit() {
        let (base, mfg, x) = setup();
        let model = || GnnModel::new(Arch::Sage, base.dims(), 2).with_dropout(0.4);
        let labels = StdArc::new(vec![0u32, 1, 2, 0]);
        let bits = |m: &mut GnnModel| -> Vec<Vec<u32>> {
            let p = m.params_mut();
            p.iter()
                .map(|p| p.grad.as_flat().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let mut stepped = model();
        let pool = WorkerPool::global();
        let want =
            crate::SageStep::new(&stepped).train(pool, &mut stepped, &x, &mfg, &labels, (6, 1, 2));

        let mut recorded = model();
        let stream = spp_sampler::batch_stream_seed(6 ^ crate::MODEL_STREAM_SALT, 1, 2);
        let mut fwd = recorded.forward(x, &mfg, true, &mut StdRng::seed_from_u64(stream));
        let loss = fwd.tape.softmax_cross_entropy(fwd.logits, labels);
        let got = f64::from(fwd.tape.value(loss).get(0, 0));
        fwd.tape.backward(loss);
        recorded.accumulate_grads(&fwd);
        assert_eq!(got.to_bits(), want.to_bits());
        assert_eq!(bits(&mut recorded), bits(&mut stepped));
    }

    #[test]
    #[should_panic(expected = "MFG depth != layer count")]
    fn depth_mismatch_panics() {
        let (model, mfg, x) = setup();
        let deep = GnnModel::new(Arch::Sage, &[6, 8, 8, 3], 0);
        let mut rng = StdRng::seed_from_u64(0);
        drop(model);
        deep.forward(x, &mfg, false, &mut rng);
    }
}
