//! The GraphSAGE model over message-flow graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_pool::WorkerPool;
use spp_sampler::{HopAdj, Mfg};
use spp_tensor::tape::CsrAdj;
use spp_tensor::{init, Matrix, NodeId, Param, Tape};
use std::sync::Arc;

/// Which message-passing architecture to instantiate: GraphSAGE with
/// mean aggregation (Hamilton et al., 2017), the paper's evaluation
/// architecture and the only one. The enum stays while the benchmark's
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
struct Layer {
    w_self: Param,
    w_neigh: Param,
    bias: Param,
}

/// Converts a sampled hop adjacency into the tape's CSR view.
fn to_csr_adj(hop: &HopAdj) -> Arc<CsrAdj> {
    Arc::new(CsrAdj {
        num_targets: hop.num_targets,
        num_sources: hop.num_sources,
        row_ptr: hop.row_ptr.clone(),
        col: hop.col.clone(),
    })
}

/// The result of one forward pass: the tape, the logits node, and the
/// parameter leaf nodes (aligned with [`GnnModel::params_mut`]) so
/// gradients can be pulled back into the model.
pub struct Forward {
    /// The autograd tape holding the whole forward computation.
    pub tape: Tape,
    /// Leaf node holding the input features `x` — a [`Tape::constant`]:
    /// `backward` spends nothing on a feature gradient nobody reads.
    pub input: NodeId,
    /// Seed-vertex logits node.
    pub logits: NodeId,
    /// Leaf node per parameter, in [`GnnModel::params_mut`] order.
    pub param_nodes: Vec<NodeId>,
}

impl Forward {
    /// The logits matrix (`num_seeds × num_classes`).
    pub fn logits_value(&self) -> &Matrix {
        self.tape.value(self.logits)
    }

    /// Ends the pass and hands back the input feature matrix passed to
    /// [`GnnModel::forward`], so its buffer can hold the next batch.
    pub fn into_input(mut self) -> Matrix {
        self.tape.take_value(self.input)
    }
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

    /// Mutable access to all parameters, layer by layer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w_self, &mut l.w_neigh, &mut l.bias])
            .collect()
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&mut self) -> usize {
        self.params_mut()
            .iter()
            .map(|p| p.value.as_flat().len())
            .sum()
    }

    /// Runs the forward pass for one minibatch on the global worker
    /// pool.
    ///
    /// `x` must have one row per MFG node (`mfg.num_nodes()` rows) in MFG
    /// local order, with `dims[0]` columns. Returns the tape, the
    /// seed-logits node, and parameter leaf handles.
    ///
    /// # Panics
    ///
    /// Panics if the MFG depth does not match the layer count or `x` has
    /// the wrong shape.
    pub fn forward<R: Rng>(&self, x: Matrix, mfg: &Mfg, train: bool, rng: &mut R) -> Forward {
        self.forward_with(WorkerPool::global(), x, mfg, train, rng)
    }

    /// [`GnnModel::forward`] on a tape whose ops, and later its
    /// `backward`, run on `pool`. Bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`GnnModel::forward`].
    pub fn forward_with<R: Rng>(
        &self,
        pool: WorkerPool,
        x: Matrix,
        mfg: &Mfg,
        train: bool,
        rng: &mut R,
    ) -> Forward {
        assert_eq!(
            mfg.num_hops(),
            self.layers.len(),
            "MFG depth != layer count"
        );
        assert_eq!(x.rows(), mfg.num_nodes(), "feature row count mismatch");
        assert_eq!(x.cols(), self.dims[0], "feature dim mismatch");

        let mut tape = Tape::with_pool(pool);
        let mut param_nodes = Vec::new();
        let input = tape.constant(x);
        let mut h = input;
        let num_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            let hop = mfg.layer_adj(li + 1);
            let targets = hop.num_targets;
            // Hidden layers end in a ReLU, the `linear`'s epilogue.
            let act = li + 1 < num_layers;
            let adj = to_csr_adj(hop);
            let wsn = tape.input(layer.w_self.value.clone());
            let wnn = tape.input(layer.w_neigh.value.clone());
            let bn = tape.input(layer.bias.value.clone());
            param_nodes.extend([wsn, wnn, bn]);
            let neigh = tape.sparse_agg(h, adj);
            h = tape.linear(targets, &[(h, wsn), (neigh, wnn)], Some(bn), act);
            if act && train && self.dropout > 0.0 {
                h = tape.dropout(h, self.dropout, rng);
            }
        }

        Forward {
            tape,
            input,
            logits: h,
            param_nodes,
        }
    }

    /// Inference forward pass over a sampled MFG: evaluation mode (no
    /// dropout), so no RNG stream is consumed and the logits are a pure
    /// function of `(x, mfg, parameters)` — the entry point the online
    /// serving subsystem uses per micro-batch.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`GnnModel::forward`].
    pub fn infer(&self, x: Matrix, mfg: &Mfg) -> Matrix {
        let mut rng = StdRng::seed_from_u64(0); // eval mode: rng unused
        let mut fwd = self.forward(x, mfg, false, &mut rng);
        fwd.tape.take_value(fwd.logits)
    }

    /// Full-batch (no-sampling) forward pass over an entire graph:
    /// layer-by-layer propagation using every vertex's *full* neighbor
    /// list, the alternative inference mode the paper contrasts with
    /// minibatch inference (§2.4). Returns the logits for all vertices.
    ///
    /// Memory is `O(N × max(dims))`; intended for the mini-scale datasets.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have one row per graph vertex with
    /// `dims[0]` columns.
    pub fn forward_full_batch(&self, x: Matrix, graph: &spp_graph::CsrGraph) -> Matrix {
        assert_eq!(x.rows(), graph.num_vertices(), "one row per vertex");
        assert_eq!(x.cols(), self.dims[0], "feature dim mismatch");
        // A full-graph "hop": every vertex aggregates all its neighbors.
        let full = HopAdj {
            num_targets: graph.num_vertices(),
            num_sources: graph.num_vertices(),
            row_ptr: graph.row_ptr().to_vec(),
            col: graph.col().to_vec(),
        };
        // Reuse the sampled-forward machinery with an L-layer MFG whose
        // every hop is the full adjacency.
        let mfg = Mfg {
            nodes: (0..graph.num_vertices() as u32).collect(),
            sizes: vec![graph.num_vertices(); self.layers.len() + 1],
            hops: vec![full; self.layers.len()],
        };
        let mut rng = StdRng::seed_from_u64(0); // eval mode: rng unused
        let mut fwd = self.forward(x, &mfg, false, &mut rng);
        fwd.tape.take_value(fwd.logits)
    }

    /// Pulls gradients from a completed backward pass into the model's
    /// parameter accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `fwd` did not come from this model's [`GnnModel::forward`].
    pub fn accumulate_grads(&mut self, fwd: &Forward) {
        let params = self.params_mut();
        assert_eq!(
            params.len(),
            fwd.param_nodes.len(),
            "forward/model mismatch"
        );
        for (p, &node) in params.into_iter().zip(&fwd.param_nodes) {
            if let Some(g) = fwd.tape.grad(node) {
                p.accumulate(g);
            }
        }
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
        assert_eq!(fwd.param_nodes.len(), 6); // 2 layers × 3 params
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
            let labels = StdArc::clone(&labels);
            let pool = WorkerPool::global();
            crate::train_step(pool, &mut model, x.clone(), &mfg, labels, (6, 0, step));
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
        // one feature leaf ahead of them, and a dropout after every
        // hidden layer in train mode.
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
            assert_eq!(eval.param_nodes.len(), 3 * layers);
            let train = model.forward(x, &mfg, true, &mut rng);
            let dropouts = layers - 1;
            assert_eq!(
                train.tape.len(),
                1 + 5 * layers + dropouts,
                "{layers} layers, train"
            );
        }
    }

    #[test]
    fn parameter_count_is_plausible() {
        let mut m = GnnModel::new(Arch::Sage, &[10, 20, 5], 0);
        // L1: 10*20*2 + 20 = 420; L2: 20*5*2 + 5 = 205.
        assert_eq!(m.num_parameters(), 625);
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
