//! One GraphSAGE step over planned buffers.
//!
//! Every batch runs the same composite: per layer the neighbor mean
//! ([`sage::agg_into`]), the fused affine map with bias and — on hidden
//! layers — ReLU ([`Matrix::linear_into`]), and in training mode
//! inverted dropout; then softmax cross-entropy. [`SageStep`] runs it
//! with one buffer per activation and gradient, and its backward is the
//! workspace's only gradient code. The backward writes each gradient
//! into forward storage whose last reader is done (DESIGN.md §14 has
//! the plan as a table):
//!
//! - `dL/d logits` overwrites the softmax probabilities;
//! - `dL/d neigh` overwrites a layer's aggregate once its weight
//!   gradient has read it;
//! - the input gradient of a layer's aggregation, masked by the
//!   previous layer's ReLU (and dropout), overwrites that layer's output
//!   row by row in the gather: each row reads its mask from the
//!   activation, adds the self-term prefix (`held`), and is stored —
//!   after this layer's own-features weight gradient has read the
//!   activation's prefix.
//!
//! [`Forward`] records one step behind the node-and-tape surface the
//! benchmark's traced replays drive through [`GnnModel::forward`].

use crate::model::Layer;
use crate::{GnnModel, StepInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_pool::WorkerPool;
use spp_sampler::{batch_stream_seed, HopAdj, Mfg};
use spp_tensor::sage::{self, DropMask, HopView, Mask, SourceLists};
use spp_tensor::{Matrix, RowView};
use std::cell::RefCell;
use std::sync::Arc;

/// Salt separating the model's dropout RNG stream from the sampler's
/// stream for the same `(seed, epoch, batch)`, applied by
/// [`SageStep::train`] for both trainers.
pub const MODEL_STREAM_SALT: u64 = 0x6D6F_6465_6C5F_7267;

/// One layer's forward storage.
#[derive(Debug, Default)]
struct LayerBuffers {
    /// The neighbor mean of the layer's input (`targets × d_in`); the
    /// backward overwrites it with its gradient.
    neigh: Matrix,
    /// The layer's output (`targets × d_out`): the logits on the last
    /// layer, the ReLU'd (and dropped) activation on a hidden one, which
    /// the backward overwrites with the gradient before the ReLU.
    out: Matrix,
    /// What training-mode dropout did to `out`, when `dropped`.
    drop: DropMask,
    dropped: bool,
}

/// One batch's GraphSAGE step: the forward and backward of a
/// [`GnnModel`] over a sampled MFG, with the buffers they need. Every
/// loop builds one per batch and drops it after: a thread that prepares
/// the next batches or exchanges features between steps then reuses the
/// step's memory instead of adding to it (kept across batches, the
/// buffers raised `train_compute`'s peak RSS by 8.5 MiB). Run again, a
/// step keeps a buffer while the batch fits it and otherwise regrows it
/// to exactly the batch ([`spp_tensor::matrix::refit`]). The model's
/// parameters are borrowed, never copied, and the features are only
/// read.
///
/// # Example
///
/// ```
/// use spp_gnn::{Arch, GnnModel, SageStep};
/// use spp_graph::generate::ring_with_chords;
/// use spp_pool::WorkerPool;
/// use spp_sampler::{Fanouts, NodeWiseSampler};
/// use spp_tensor::Matrix;
/// use rand::SeedableRng;
///
/// let g = ring_with_chords(64, 5);
/// let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![3, 3]));
/// let mfg = sampler.sample(&[0, 1], &mut rand::rngs::StdRng::seed_from_u64(0));
/// let mut model = GnnModel::new(Arch::Sage, &[8, 16, 4], 0);
/// let x = Matrix::zeros(mfg.num_nodes(), 8);
/// let mut step = SageStep::new(&model);
/// let pool = WorkerPool::serial();
/// assert_eq!(step.infer(pool, &model, &x, &mfg).shape(), (2, 4));
/// let loss = step.train(pool, &mut model, &x, &mfg, &[0, 3], (0, 0, 0));
/// assert!(loss.is_finite());
/// ```
#[derive(Debug)]
pub struct SageStep {
    layers: Vec<LayerBuffers>,
    /// Softmax of the logits, then `dL/d logits`.
    probs: Matrix,
    /// `dL/d h[..targets]` of the layer being differentiated: the
    /// own-features term's gradient, which the gather adds in.
    held: Matrix,
    /// A parameter's gradient on its way into the model's accumulator.
    grad: Matrix,
    /// The hop being differentiated, grouped by source.
    lists: SourceLists,
}

/// The borrowed CSR view of a sampled hop.
fn hop_view(hop: &HopAdj) -> HopView<'_> {
    HopView::new(hop.num_targets, &hop.row_ptr, &hop.col)
}

impl SageStep {
    /// An empty step for `model`'s depth; buffers grow with the first
    /// batch.
    pub fn new(model: &GnnModel) -> Self {
        Self {
            layers: (0..model.num_layers())
                .map(|_| LayerBuffers::default())
                .collect(),
            probs: Matrix::empty(),
            held: Matrix::empty(),
            grad: Matrix::empty(),
            lists: SourceLists::default(),
        }
    }

    /// Training step for batch `(seed, epoch, index)`: a training-mode
    /// [`SageStep::forward`] with dropout drawn from the batch's model
    /// stream, then [`SageStep::backward`]. Returns the loss. The
    /// optimizer step is the caller's. Bit-identical for any pool.
    ///
    /// # Panics
    ///
    /// Panics on the shape mismatches [`SageStep::forward`] and
    /// [`SageStep::backward`] list.
    // spp-hot(gnn.sage_step)
    pub fn train<'x>(
        &mut self,
        pool: WorkerPool,
        model: &mut GnnModel,
        x: impl Into<StepInput<'x>>,
        mfg: &Mfg,
        labels: &[u32],
        (seed, epoch, index): (u64, u64, u64),
    ) -> f64 {
        let x = x.into();
        let stream = batch_stream_seed(seed ^ MODEL_STREAM_SALT, epoch, index);
        self.forward(pool, model, x, mfg, &mut StdRng::seed_from_u64(stream));
        self.backward(pool, model, x, mfg, labels)
    }

    /// Evaluation-mode forward pass (no dropout, no RNG): the logits of
    /// `mfg`'s seeds.
    ///
    /// # Panics
    ///
    /// Panics on the shape mismatches [`SageStep::forward`] lists.
    pub fn infer<'x>(
        &mut self,
        pool: WorkerPool,
        model: &GnnModel,
        x: impl Into<StepInput<'x>>,
        mfg: &Mfg,
    ) -> &Matrix {
        self.run_forward(pool, model, x.into(), mfg, None::<&mut StdRng>);
        self.logits()
    }

    /// Training-mode forward pass over `x`, one row per MFG node in MFG
    /// local order with `dims[0]` columns — a gathered matrix, or rows
    /// read where a store keeps them ([`StepInput`]): a hidden layer's output is
    /// dropped with the model's dropout probability, one draw from `rng`
    /// per element in row-major order ([`DropMask::apply`]). Returns the
    /// logits of `mfg`'s seeds.
    ///
    /// # Panics
    ///
    /// Panics if the MFG depth does not match the layer count, `x` has
    /// the wrong shape, or the step was built for a model of another
    /// depth.
    pub fn forward<'x, R: Rng>(
        &mut self,
        pool: WorkerPool,
        model: &GnnModel,
        x: impl Into<StepInput<'x>>,
        mfg: &Mfg,
        rng: &mut R,
    ) -> &Matrix {
        self.run_forward(pool, model, x.into(), mfg, Some(rng));
        self.logits()
    }

    /// The logits of the last forward pass.
    pub fn logits(&self) -> &Matrix {
        &self.layers[self.layers.len() - 1].out
    }

    /// Ends the step, handing back the logits of its last forward pass.
    pub fn into_logits(mut self) -> Matrix {
        self.layers.pop().map(|l| l.out).unwrap_or_default()
    }

    fn run_forward<R: Rng>(
        &mut self,
        pool: WorkerPool,
        model: &GnnModel,
        x: StepInput<'_>,
        mfg: &Mfg,
        mut rng: Option<&mut R>,
    ) {
        let num_layers = model.num_layers();
        assert_eq!(mfg.num_hops(), num_layers, "MFG depth != layer count");
        assert_eq!(x.rows(), mfg.num_nodes(), "feature row count mismatch");
        assert_eq!(x.cols(), model.dims()[0], "feature dim mismatch");
        assert_eq!(
            self.layers.len(),
            num_layers,
            "step built for another depth"
        );
        let p = model.dropout_rate();
        for (li, layer) in model.layers().iter().enumerate() {
            let (done, rest) = self.layers.split_at_mut(li);
            let LayerBuffers {
                neigh,
                out,
                drop,
                dropped,
            } = &mut rest[0];
            let hop = mfg.layer_adj(li + 1);
            let hidden = li + 1 < num_layers;
            // The self term reads the input's first `targets` rows.
            let linear = |input: RowView<'_>, neigh: &Matrix, out: &mut Matrix| {
                let terms = [
                    (input, &layer.w_self.value),
                    (RowView::Dense(neigh), &layer.w_neigh.value),
                ];
                let bias = Some(&layer.bias.value);
                Matrix::linear_into(pool, hop.num_targets, &terms, bias, hidden, out);
            };
            if let Some(prev) = done.last() {
                sage::agg_into(pool, &prev.out, hop_view(hop), neigh);
                linear(RowView::Dense(&prev.out), neigh, out);
            } else {
                x.agg_into(pool, hop_view(hop), neigh);
                x.with_view(|input| linear(input, neigh, out));
            }
            *dropped = false;
            if let Some(rng) = rng.as_deref_mut().filter(|_| hidden && p > 0.0) {
                drop.apply(out, p, rng);
                *dropped = true;
            }
        }
    }

    /// Differentiates the mean softmax cross-entropy of the last
    /// forward pass's logits against `labels` (one per seed) and adds
    /// every parameter's gradient into `model`'s accumulators. `x` and
    /// `mfg` must be the forward pass's, and `model` unchanged since.
    /// Returns the loss.
    ///
    /// # Panics
    ///
    /// Panics if the label count differs from the seed count or a
    /// label is out of class range.
    pub fn backward<'x>(
        &mut self,
        pool: WorkerPool,
        model: &mut GnnModel,
        x: impl Into<StepInput<'x>>,
        mfg: &Mfg,
        labels: &[u32],
    ) -> f64 {
        let logits = &self.layers[self.layers.len() - 1].out;
        let loss = softmax_cross_entropy(logits, labels, &mut self.probs);
        self.backprop(pool, model, x.into(), mfg);
        f64::from(loss)
    }

    /// The backward from `dL/d logits`, which `probs` holds, down to
    /// the first layer's weights; the last layer's output is not read.
    fn backprop(&mut self, pool: WorkerPool, model: &mut GnnModel, x: StepInput<'_>, mfg: &Mfg) {
        let num_layers = self.layers.len();
        for li in (0..num_layers).rev() {
            let Layer {
                w_self,
                w_neigh,
                bias,
            } = &mut model.layers_mut()[li];
            let (done, rest) = self.layers.split_at_mut(li);
            let LayerBuffers { neigh, out, .. } = &mut rest[0];
            // The gradient before this layer's activation.
            let g = if li + 1 == num_layers {
                &self.probs
            } else {
                &*out
            };
            g.col_sums_into(pool, &mut self.grad);
            bias.accumulate(&self.grad);
            neigh.t_matmul_into(pool, g, &mut self.grad);
            w_neigh.accumulate(&self.grad);
            let Some(prev) = done.last_mut() else {
                // The first layer's operands are the features: only its
                // weights want a gradient.
                x.with_view(|input| input.head_t_matmul_into(pool, g, &mut self.grad));
                w_self.accumulate(&self.grad);
                break;
            };
            g.matmul_t_into(pool, &w_neigh.value, neigh);
            RowView::Dense(&prev.out).head_t_matmul_into(pool, g, &mut self.grad);
            w_self.accumulate(&self.grad);
            g.matmul_t_into(pool, &w_self.value, &mut self.held);
            let hop = hop_view(mfg.layer_adj(li + 1));
            self.lists.fill(hop, prev.out.rows());
            let mask = if prev.dropped {
                Mask::Dropout(&prev.drop)
            } else {
                Mask::Relu
            };
            let held = Some(&self.held);
            sage::agg_grad_into(pool, hop, &self.lists, neigh, held, mask, &mut prev.out);
        }
    }
}

/// A value a [`StepRecord`] hands out by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recorded {
    /// The seed logits (`num_seeds × num_classes`).
    Logits,
    /// The mean softmax cross-entropy (`1 × 1`), once recorded.
    Loss,
}

/// One [`SageStep`] recorded by [`GnnModel::forward`]: the surface the
/// benchmark's traced replays drive (`tape.softmax_cross_entropy`,
/// `tape.value`, `tape.backward`, `tape.len`, then
/// [`GnnModel::accumulate_grads`]). It computes nothing of its own:
/// the logits, the loss and every gradient are the step's. It goes
/// with those replays (ROADMAP item 13(b)).
#[derive(Debug)]
pub struct Forward<'a> {
    /// The recorded step.
    pub tape: StepRecord<'a>,
    /// The seed logits' name.
    pub logits: Recorded,
}

impl Forward<'_> {
    /// The logits matrix (`num_seeds × num_classes`).
    pub fn logits_value(&self) -> &Matrix {
        &self.tape.logits
    }
}

/// A forward-run [`SageStep`] with the features it read and its logits
/// moved out (the backward does not read them), so `value` can lend
/// them while [`GnnModel::accumulate_grads`] runs the backward through
/// a shared reference.
#[derive(Debug)]
pub struct StepRecord<'a> {
    /// Taken by the one backward.
    step: RefCell<Option<SageStep>>,
    x: Matrix,
    mfg: &'a Mfg,
    logits: Matrix,
    /// `1 × 1` once recorded, empty before.
    loss: Matrix,
    /// Nodes an op-per-node tape gave the forward: the features, per
    /// layer three parameters, the mean and the affine map, and one per
    /// dropped layer.
    nodes: usize,
}

impl SageStep {
    /// Records this step, forward-run over `x` and `mfg`.
    pub(crate) fn record(mut self, x: Matrix, mfg: &Mfg) -> Forward<'_> {
        let dropped = self.layers.iter().filter(|l| l.dropped).count();
        let nodes = 1 + 5 * self.layers.len() + dropped;
        let last = self.layers.len() - 1;
        let logits = std::mem::take(&mut self.layers[last].out);
        let tape = StepRecord {
            step: RefCell::new(Some(self)),
            x,
            mfg,
            logits,
            loss: Matrix::empty(),
            nodes,
        };
        Forward {
            tape,
            logits: Recorded::Logits,
        }
    }
}

impl StepRecord<'_> {
    /// Records the mean softmax cross-entropy of the logits against
    /// `labels`, one per seed, and names it.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is not [`Recorded::Logits`], the step's
    /// gradients were already taken, or on the label mismatches
    /// [`SageStep::backward`] lists.
    pub fn softmax_cross_entropy(&mut self, logits: Recorded, labels: Arc<Vec<u32>>) -> Recorded {
        assert_eq!(logits, Recorded::Logits, "the loss is over the logits");
        let step = self.step.get_mut().as_mut();
        assert!(step.is_some(), "gradients already accumulated");
        if let Some(step) = step {
            let loss = softmax_cross_entropy(&self.logits, &labels, &mut step.probs);
            self.loss = Matrix::from_flat(1, 1, vec![loss]);
        }
        Recorded::Loss
    }

    /// The named value; the loss is `0 × 0` until recorded.
    pub fn value(&self, id: Recorded) -> &Matrix {
        match id {
            Recorded::Logits => &self.logits,
            Recorded::Loss => &self.loss,
        }
    }

    /// Checks that `output` is a recorded loss; the gradients are
    /// computed by [`GnnModel::accumulate_grads`], which has the model.
    ///
    /// # Panics
    ///
    /// Panics unless `output` is a recorded loss.
    pub fn backward(&mut self, output: Recorded) {
        assert!(
            output == Recorded::Loss && self.loss.shape() == (1, 1),
            "backward starts at a recorded loss"
        );
    }

    /// Node count of the same composite on an op-per-node tape.
    #[allow(
        clippy::len_without_is_empty,
        reason = "a record always holds at least its features"
    )]
    pub fn len(&self) -> usize {
        self.nodes + self.loss.rows()
    }

    /// Runs the step's backward from the recorded loss on `pool`,
    /// adding every parameter's gradient into `model`'s accumulators.
    pub(crate) fn accumulate_into(&self, pool: WorkerPool, model: &mut GnnModel) {
        let step = self.step.take().filter(|_| self.loss.shape() == (1, 1));
        assert!(step.is_some(), "accumulate_grads wants one recorded loss");
        if let Some(mut step) = step {
            step.backprop(pool, model, StepInput::Gathered(&self.x), self.mfg);
        }
    }
}

/// Mean softmax cross-entropy of `logits` against `labels`, leaving its
/// gradient with respect to the logits in `probs`: per row the maximum
/// is subtracted before `exp`, the loss adds `-ln p[label]` (`p`
/// floored at `1e-30`), and the gradient `p - onehot` is scaled by
/// `1 / rows` last.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of
/// class range.
fn softmax_cross_entropy(logits: &Matrix, labels: &[u32], probs: &mut Matrix) -> f32 {
    let (r, c) = logits.shape();
    assert_eq!(labels.len(), r, "label count mismatch");
    assert!(
        labels.iter().all(|&l| (l as usize) < c),
        "label out of class range"
    );
    probs.recycle(r, c);
    probs.as_flat_mut().copy_from_slice(logits.as_flat());
    let mut loss = 0.0f32;
    for (i, &label) in labels.iter().enumerate() {
        let row = probs.row_mut(i);
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - mx).exp();
            z += *v;
        }
        for v in row.iter_mut() {
            *v /= z;
        }
        loss -= row[label as usize].max(1e-30).ln();
        // d loss / d logits, before the mean's 1/r.
        row[label as usize] -= 1.0;
    }
    probs.scale_assign(1.0 / r.max(1) as f32);
    loss / r.max(1) as f32
}
