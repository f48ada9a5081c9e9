//! GNN architectures over message-flow graphs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_sampler::{HopAdj, Mfg};
use spp_tensor::tape::{AggMode, CsrAdj};
use spp_tensor::{init, Matrix, NodeId, Param, Tape};
use std::sync::Arc;

/// Which message-passing architecture to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// GraphSAGE with mean aggregation and concatenation update
    /// (Hamilton et al., 2017) — the paper's evaluation architecture.
    Sage,
    /// GraphSAGE with the max-pooling aggregator: neighbors pass through
    /// a learned transform + ReLU, then element-wise max (Hamilton et
    /// al., 2017, §2.1 of the paper lists mean/LSTM/pooling variants).
    SagePool,
    /// Graph isomorphism network: sum aggregation + MLP update
    /// (Xu et al., 2019).
    Gin,
    /// Graph attention network with `N` heads (Veličković et al., 2018):
    /// the layer output concatenates the heads, `out/N` wide each, or
    /// averages full-width heads where `N` does not divide the width.
    /// `GatMultiHead(1)` is single-head GAT.
    GatMultiHead(usize),
}

/// One GNN layer's parameters.
#[derive(Debug)]
enum Layer {
    Sage {
        w_self: Param,
        w_neigh: Param,
        bias: Param,
    },
    SagePool {
        w_pool: Param,
        b_pool: Param,
        w_self: Param,
        w_neigh: Param,
        bias: Param,
    },
    Gin {
        w1: Param,
        b1: Param,
        w2: Param,
        b2: Param,
    },
    GatMultiHead {
        heads: Vec<(Param, Param, Param)>,
        bias: Param,
        /// Average head outputs instead of concatenating (used when the
        /// layer width is not divisible by the head count — standard GAT
        /// practice for output layers).
        average: bool,
    },
}

impl Layer {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Sage {
                w_self,
                w_neigh,
                bias,
            } => vec![w_self, w_neigh, bias],
            Layer::SagePool {
                w_pool,
                b_pool,
                w_self,
                w_neigh,
                bias,
            } => vec![w_pool, b_pool, w_self, w_neigh, bias],
            Layer::Gin { w1, b1, w2, b2 } => vec![w1, b1, w2, b2],
            Layer::GatMultiHead { heads, bias, .. } => {
                let mut ps: Vec<&mut Param> = Vec::with_capacity(heads.len() * 3 + 1);
                for (w, at, asrc) in heads {
                    ps.push(w);
                    ps.push(at);
                    ps.push(asrc);
                }
                ps.push(bias);
                ps
            }
        }
    }
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

/// Like [`to_csr_adj`] but with a self-loop prepended to every target's
/// neighbor list (GAT attends over `{v} ∪ N(v)`).
fn to_csr_adj_with_self(hop: &HopAdj) -> Arc<CsrAdj> {
    let mut row_ptr = Vec::with_capacity(hop.num_targets + 1);
    let mut col = Vec::with_capacity(hop.col.len() + hop.num_targets);
    row_ptr.push(0usize);
    for t in 0..hop.num_targets {
        col.push(t as u32);
        col.extend_from_slice(hop.neighbors(t));
        row_ptr.push(col.len());
    }
    Arc::new(CsrAdj {
        num_targets: hop.num_targets,
        num_sources: hop.num_sources,
        row_ptr,
        col,
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

/// A multi-layer GNN.
///
/// `dims` is `[input_dim, hidden..., num_classes]`; the number of layers
/// is `dims.len() - 1` and must match the sampling fanout depth of the
/// MFGs passed to [`GnnModel::forward`].
#[derive(Debug)]
pub struct GnnModel {
    arch: Arch,
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
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = (0..dims.len() - 1)
            .map(|l| {
                let (din, dout) = (dims[l], dims[l + 1]);
                match arch {
                    Arch::Sage => Layer::Sage {
                        w_self: Param::new(init::glorot_uniform(din, dout, &mut rng)),
                        w_neigh: Param::new(init::glorot_uniform(din, dout, &mut rng)),
                        bias: Param::new(init::zeros_bias(dout)),
                    },
                    Arch::SagePool => Layer::SagePool {
                        w_pool: Param::new(init::kaiming_uniform(din, din, &mut rng)),
                        b_pool: Param::new(init::zeros_bias(din)),
                        w_self: Param::new(init::glorot_uniform(din, dout, &mut rng)),
                        w_neigh: Param::new(init::glorot_uniform(din, dout, &mut rng)),
                        bias: Param::new(init::zeros_bias(dout)),
                    },
                    Arch::Gin => Layer::Gin {
                        w1: Param::new(init::glorot_uniform(din, dout, &mut rng)),
                        b1: Param::new(init::zeros_bias(dout)),
                        w2: Param::new(init::glorot_uniform(dout, dout, &mut rng)),
                        b2: Param::new(init::zeros_bias(dout)),
                    },
                    Arch::GatMultiHead(h) => {
                        assert!(h > 0, "need at least one attention head");
                        // Concatenate heads of width dout/h when the width
                        // divides evenly; otherwise (typically the output
                        // layer) average full-width heads, as in GAT.
                        let average = dout % h != 0;
                        let hd = if average { dout } else { dout / h };
                        Layer::GatMultiHead {
                            heads: (0..h)
                                .map(|_| {
                                    (
                                        Param::new(init::glorot_uniform(din, hd, &mut rng)),
                                        Param::new(init::glorot_uniform(hd, 1, &mut rng)),
                                        Param::new(init::glorot_uniform(hd, 1, &mut rng)),
                                    )
                                })
                                .collect(),
                            bias: Param::new(init::zeros_bias(dout)),
                            average,
                        }
                    }
                }
            })
            .collect();
        Self {
            arch,
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

    /// The architecture.
    pub fn arch(&self) -> Arch {
        self.arch
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
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&mut self) -> usize {
        self.params_mut()
            .iter()
            .map(|p| p.value.as_flat().len())
            .sum()
    }

    /// Runs the forward pass for one minibatch.
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
        assert_eq!(
            mfg.num_hops(),
            self.layers.len(),
            "MFG depth != layer count"
        );
        assert_eq!(x.rows(), mfg.num_nodes(), "feature row count mismatch");
        assert_eq!(x.cols(), self.dims[0], "feature dim mismatch");

        let mut tape = Tape::new();
        let mut param_nodes = Vec::new();
        let input = tape.constant(x);
        let mut h = input;
        let num_layers = self.layers.len();
        for (li, layer) in self.layers.iter().enumerate() {
            let hop = mfg.layer_adj(li + 1);
            let targets = hop.num_targets;
            // Hidden layers end in a ReLU; where the layer's last op is a
            // `linear` it is that op's epilogue.
            let act = li + 1 < num_layers;
            h = match layer {
                Layer::Sage {
                    w_self,
                    w_neigh,
                    bias,
                } => {
                    let adj = to_csr_adj(hop);
                    let wsn = tape.input(w_self.value.clone());
                    let wnn = tape.input(w_neigh.value.clone());
                    let bn = tape.input(bias.value.clone());
                    param_nodes.extend([wsn, wnn, bn]);
                    let neigh = tape.sparse_agg(h, adj, AggMode::Mean);
                    tape.linear(targets, &[(h, wsn), (neigh, wnn)], Some(bn), act)
                }
                Layer::SagePool {
                    w_pool,
                    b_pool,
                    w_self,
                    w_neigh,
                    bias,
                } => {
                    let adj = to_csr_adj(hop);
                    let wpn = tape.input(w_pool.value.clone());
                    let bpn = tape.input(b_pool.value.clone());
                    let wsn = tape.input(w_self.value.clone());
                    let wnn = tape.input(w_neigh.value.clone());
                    let bn = tape.input(bias.value.clone());
                    param_nodes.extend([wpn, bpn, wsn, wnn, bn]);
                    let sources = tape.value(h).rows();
                    let pooled = tape.linear(sources, &[(h, wpn)], Some(bpn), true);
                    let neigh = tape.sparse_agg(pooled, adj, AggMode::Max);
                    tape.linear(targets, &[(h, wsn), (neigh, wnn)], Some(bn), act)
                }
                Layer::Gin { w1, b1, w2, b2 } => {
                    let adj = to_csr_adj(hop);
                    let w1n = tape.input(w1.value.clone());
                    let b1n = tape.input(b1.value.clone());
                    let w2n = tape.input(w2.value.clone());
                    let b2n = tape.input(b2.value.clone());
                    param_nodes.extend([w1n, b1n, w2n, b2n]);
                    let agg = tape.sparse_agg(h, adj, AggMode::Sum);
                    let own = tape.head_rows(h, targets);
                    let s = tape.add(own, agg);
                    let a = tape.linear(targets, &[(s, w1n)], Some(b1n), true);
                    tape.linear(targets, &[(a, w2n)], Some(b2n), act)
                }
                Layer::GatMultiHead {
                    heads,
                    bias,
                    average,
                } => {
                    let adj = to_csr_adj_with_self(hop);
                    let mut head_outs = Vec::with_capacity(heads.len());
                    for (w, a_target, a_source) in heads {
                        let wn = tape.input(w.value.clone());
                        let atn = tape.input(a_target.value.clone());
                        let asn = tape.input(a_source.value.clone());
                        param_nodes.extend([wn, atn, asn]);
                        let wh = tape.matmul(h, wn);
                        let tgt = tape.matmul(wh, atn);
                        let src = tape.matmul(wh, asn);
                        let e = tape.edge_scores(tgt, src, Arc::clone(&adj));
                        let el = tape.leaky_relu(e, 0.2);
                        let alpha = tape.edge_softmax(el, Arc::clone(&adj));
                        head_outs.push(tape.weighted_agg(alpha, wh, Arc::clone(&adj)));
                    }
                    let bn = tape.input(bias.value.clone());
                    let mut combined = head_outs[0];
                    if *average {
                        for &ho in &head_outs[1..] {
                            combined = tape.add(combined, ho);
                        }
                        combined = tape.scale(combined, 1.0 / heads.len() as f32);
                    } else {
                        for &ho in &head_outs[1..] {
                            combined = tape.concat_cols(combined, ho);
                        }
                    }
                    param_nodes.push(bn);
                    let out = tape.add_bias(combined, bn);
                    if act {
                        tape.relu(out)
                    } else {
                        out
                    }
                }
            };
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

    fn setup(arch: Arch) -> (GnnModel, Mfg, Matrix) {
        let g = ring_with_chords(64, 7);
        let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![4, 3]));
        let mut rng = StdRng::seed_from_u64(1);
        let mfg = sampler.sample(&[0, 5, 9, 13], &mut rng);
        let model = GnnModel::new(arch, &[6, 8, 3], 2);
        let mut x = Matrix::zeros(mfg.num_nodes(), 6);
        let mut r2 = StdRng::seed_from_u64(3);
        for v in x.as_flat_mut() {
            *v = r2.gen::<f32>() - 0.5;
        }
        (model, mfg, x)
    }

    #[test]
    fn sage_forward_shapes() {
        let (model, mfg, x) = setup(Arch::Sage);
        let mut rng = StdRng::seed_from_u64(4);
        let fwd = model.forward(x, &mfg, false, &mut rng);
        assert_eq!(fwd.logits_value().shape(), (4, 3));
        assert_eq!(fwd.param_nodes.len(), 6); // 2 layers × 3 params
    }

    #[test]
    fn gin_forward_shapes() {
        let (model, mfg, x) = setup(Arch::Gin);
        let mut rng = StdRng::seed_from_u64(4);
        let fwd = model.forward(x, &mfg, false, &mut rng);
        assert_eq!(fwd.logits_value().shape(), (4, 3));
        assert_eq!(fwd.param_nodes.len(), 8);
    }

    #[test]
    fn gat_forward_shapes() {
        let (model, mfg, x) = setup(Arch::GatMultiHead(1));
        let mut rng = StdRng::seed_from_u64(4);
        let fwd = model.forward(x, &mfg, false, &mut rng);
        assert_eq!(fwd.logits_value().shape(), (4, 3));
        assert_eq!(fwd.param_nodes.len(), 8);
    }

    #[test]
    fn infer_matches_eval_forward() {
        let (model, mfg, x) = setup(Arch::Sage);
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
        let (model, mfg, x) = setup(Arch::Sage);
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(99);
        let f1 = model.forward(x.clone(), &mfg, false, &mut r1);
        let f2 = model.forward(x, &mfg, false, &mut r2);
        assert_eq!(f1.logits_value(), f2.logits_value());
    }

    #[test]
    fn training_step_reduces_loss() {
        for arch in [
            Arch::Sage,
            Arch::SagePool,
            Arch::Gin,
            Arch::GatMultiHead(1),
            Arch::GatMultiHead(2),
        ] {
            let (mut model, mfg, x) = setup(arch);
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
                crate::train_step(&mut model, x.clone(), &mfg, labels, (6, 0, step));
                opt.step(&mut model.params_mut());
            }
            let after = loss_at(&model, &mut rng);
            assert!(
                after < before * 0.8,
                "{arch:?}: loss {before} -> {after} did not drop"
            );
        }
    }

    #[test]
    fn sage_pool_forward_shapes() {
        let (model, mfg, x) = setup(Arch::SagePool);
        let mut rng = StdRng::seed_from_u64(4);
        let fwd = model.forward(x, &mfg, false, &mut rng);
        assert_eq!(fwd.logits_value().shape(), (4, 3));
        assert_eq!(fwd.param_nodes.len(), 10); // 2 layers x 5 params
    }

    #[test]
    fn multi_head_gat_forward_shapes() {
        // dims [6, 8, 4] with 2 heads: both 8 and 4 divisible by 2.
        let g = ring_with_chords(64, 7);
        let sampler = NodeWiseSampler::new(&g, Fanouts::new(vec![4, 3]));
        let mut rng = StdRng::seed_from_u64(1);
        let mfg = sampler.sample(&[0, 5, 9, 13], &mut rng);
        let model = GnnModel::new(Arch::GatMultiHead(2), &[6, 8, 4], 2);
        let x = Matrix::zeros(mfg.num_nodes(), 6);
        let fwd = model.forward(x, &mfg, false, &mut rng);
        assert_eq!(fwd.logits_value().shape(), (4, 4));
        // 2 layers x (2 heads x 3 + bias) = 14 params.
        assert_eq!(fwd.param_nodes.len(), 14);
    }

    #[test]
    fn multi_head_averages_on_indivisible_width() {
        // Output width 3 with 2 heads: heads are full width, averaged.
        let (model, mfg, x) = setup(Arch::GatMultiHead(2));
        let mut rng = StdRng::seed_from_u64(4);
        let fwd = model.forward(x, &mfg, false, &mut rng);
        assert_eq!(fwd.logits_value().shape(), (4, 3));
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
        let (model, mfg, x) = setup(Arch::Sage);
        let deep = GnnModel::new(Arch::Sage, &[6, 8, 8, 3], 0);
        let mut rng = StdRng::seed_from_u64(0);
        drop(model);
        deep.forward(x, &mfg, false, &mut rng);
    }
}
