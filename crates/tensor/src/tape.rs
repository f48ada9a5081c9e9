//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every op's forward value as it is built;
//! [`Tape::backward`] then walks the nodes in reverse and hands each
//! node's gradient to its operands. Three rules keep that walk at the
//! cost of its arithmetic:
//!
//! - **Only what needs a gradient gets one.** Leaves come in two kinds:
//!   [`Tape::input`] (parameters, anything whose gradient is read
//!   afterwards) and [`Tape::constant`] (data, e.g. a minibatch's feature
//!   matrix). An op node needs a gradient iff one of its operands does —
//!   recorded once, when the node is pushed — and `backward` computes an
//!   operand's gradient only when that operand needs it, so nothing
//!   feature-shaped is zero-filled, scattered into or multiplied out on
//!   behalf of a constant.
//! - **A gradient is final when its node's turn comes.** Operands always
//!   precede the node that uses them, so by the time the reverse walk
//!   reaches node *i* every consumer of *i* has already contributed. The
//!   element-wise ops (`relu`, `dropout`, `add_bias`, `add`) therefore
//!   transform that buffer in place and *move* it to their operand
//!   instead of cloning it — the operand receives exactly the values a
//!   copy would have held, so this is exact, not approximate.
//! - **Only leaves keep a gradient.** An interior node's buffer is
//!   dropped (or moved on) after its turn; after `backward`,
//!   [`Tape::grad`] is `Some` for `input` leaves that the output depends
//!   on and `None` for everything else.
//!
//! Two ops carry a GNN layer's memory traffic and are built to write
//! their output once (DESIGN.md §14): [`Tape::linear`], the fused affine
//! map every dense layer goes through ([`Tape::matmul`] is its one-term
//! case), and [`Tape::sparse_agg`], the neighbor mean, whose forward and
//! backward are both row-parallel *gathers*. An op that reads only a row
//! prefix of an operand (`linear`, `head_rows`) hands back a gradient
//! with just those rows; the rows it lacks count as `+0.0` wherever it
//! is summed with another contribution, and are only materialized if
//! nothing else arrives before the operand's turn.
//!
//! While telemetry is enabled every op records a span per kind and
//! direction (`tensor.fwd.linear`, `tensor.bwd.sparse_agg`, …) and adds
//! the bytes it wrote to the `tensor.op_bytes` counter; disabled, each
//! of the two is one relaxed load of the on/off flag.

use crate::sage::{self, HopView, Mask, SourceLists};
use crate::Matrix;
use rand::Rng;
use spp_pool::{telemetry, WorkerPool};
use std::sync::{Arc, OnceLock};

/// Handle to a node in a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// A sampled-adjacency view shared by the sparse GNN operators: a CSR over
/// *local* indices, mapping `num_targets` aggregating rows to
/// `num_sources` input rows. Mirrors `spp_sampler::HopAdj` without a
/// crate dependency (the GNN crate converts between them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrAdj {
    /// Number of output (aggregating) rows.
    pub num_targets: usize,
    /// Number of input rows.
    pub num_sources: usize,
    /// CSR row pointers (`num_targets + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Local source indices, all `< num_sources`.
    pub col: Vec<u32>,
}

impl CsrAdj {
    /// The adjacency as the borrowed hop the [`sage`] kernels read.
    pub fn view(&self) -> HopView<'_> {
        HopView::new(self.num_targets, &self.row_ptr, &self.col)
    }
}

#[derive(Debug)]
enum Op {
    Leaf,
    /// `act(Σ x[..rows]·w + bias)` over `terms = [(x, w), …]`; `rows` is
    /// the node value's row count.
    Linear {
        terms: Arc<[(NodeId, NodeId)]>,
        bias: Option<NodeId>,
        relu: bool,
    },
    Add(NodeId, NodeId),
    AddBias(NodeId, NodeId),
    Relu(NodeId),
    HeadRows(NodeId),
    Dropout(NodeId, Vec<f32>),
    SparseAgg {
        x: NodeId,
        adj: Arc<CsrAdj>,
    },
    MeanAll(NodeId),
    SoftmaxCrossEntropy {
        logits: NodeId,
        labels: Arc<Vec<u32>>,
        probs: Matrix,
    },
}

struct Node {
    op: Op,
    value: Matrix,
    grad: Option<Matrix>,
    /// Whether `backward` must produce a gradient for this node: true for
    /// `input` leaves and for ops with at least one such operand.
    needs_grad: bool,
}

/// A computation tape: register leaves with [`Tape::input`] (gradient
/// wanted) or [`Tape::constant`] (data only), build the forward graph
/// with the op methods, then call [`Tape::backward`] on a scalar node and
/// read the `input` leaves' gradients with [`Tape::grad`].
///
/// # Example
///
/// ```
/// use spp_tensor::{Matrix, Tape};
///
/// let mut t = Tape::new();
/// let x = t.input(Matrix::from_rows(&[&[-1.0, 2.0]]));
/// let y = t.relu(x);
/// let s = t.mean_all(y);
/// t.backward(s);
/// assert_eq!(t.grad(x).unwrap().as_flat(), &[0.0, 0.5]);
/// ```
pub struct Tape {
    nodes: Vec<Node>,
    /// Where the row-parallel ops fork; values and gradients are
    /// bit-identical for any worker count.
    pool: WorkerPool,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape on the global worker pool.
    pub fn new() -> Self {
        Self::with_pool(WorkerPool::global())
    }

    /// Creates an empty tape whose ops run on `pool`.
    pub fn with_pool(pool: WorkerPool) -> Self {
        Self {
            nodes: Vec::new(),
            pool,
        }
    }

    fn push_node(&mut self, op: Op, value: Matrix, needs_grad: bool) -> NodeId {
        if !matches!(op, Op::Leaf) {
            record_bytes(&value);
        }
        self.nodes.push(Node {
            op,
            value,
            grad: None,
            needs_grad,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Records an op node over `operands`; it needs a gradient iff one of
    /// them does.
    fn push(&mut self, op: Op, operands: &[NodeId], value: Matrix) -> NodeId {
        let needs_grad = operands.iter().any(|&o| self.needs_grad(o));
        self.push_node(op, value, needs_grad)
    }

    fn needs_grad(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Registers a differentiable leaf (a parameter, or any value whose
    /// gradient is read with [`Tape::grad`]) and returns its handle.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        self.push_node(Op::Leaf, value, true)
    }

    /// Registers a leaf that never receives a gradient (data: features,
    /// fixed masks). [`Tape::backward`] does no work on its behalf and
    /// [`Tape::grad`] of it stays `None`.
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        self.push_node(Op::Leaf, value, false)
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// The gradient of an [`Tape::input`] leaf after [`Tape::backward`], if
    /// the differentiated output depends on it. `None` for constants and
    /// for op nodes, whose gradients are consumed as `backward` passes them.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.nodes[id.0].grad.as_ref()
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Matrix product: the one-term, bias-free [`Tape::linear`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let rows = self.value(a).rows();
        self.linear(rows, &[(a, b)], None, false)
    }

    /// The fused affine map `act(Σᵢ xᵢ[..rows] · wᵢ + bias)` over
    /// `terms = [(xᵢ, wᵢ), …]`: every dense layer as one node and one
    /// pass over its output. Each `xᵢ` contributes its first `rows` rows
    /// (an MFG's targets are a row prefix of its sources, so a layer
    /// reads its own-features term straight out of the full activation),
    /// `bias` is an optional `1 × n` row and `act` is ReLU when `relu` is
    /// set. Value and every operand gradient are bit-identical to
    /// `head_rows` → `matmul` → `add` (left to right) → `add_bias` →
    /// `relu` recorded as separate nodes; see [`Matrix::linear_into`].
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty or on the shape mismatches
    /// [`Matrix::linear_into`] lists.
    pub fn linear(
        &mut self,
        rows: usize,
        terms: &[(NodeId, NodeId)],
        bias: Option<NodeId>,
        relu: bool,
    ) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.linear");
        let operands: Vec<(&Matrix, &Matrix)> = terms
            .iter()
            .map(|&(x, w)| (self.value(x), self.value(w)))
            .collect();
        let bias_value = bias.map(|b| self.value(b));
        let mut v = Matrix::empty();
        Matrix::linear_into(self.pool, rows, &operands, bias_value, relu, &mut v);
        let needs_grad = terms
            .iter()
            .any(|&(x, w)| self.needs_grad(x) || self.needs_grad(w))
            || bias.is_some_and(|b| self.needs_grad(b));
        let op = Op::Linear {
            terms: terms.into(),
            bias,
            relu,
        };
        self.push_node(op, v, needs_grad)
    }

    /// Element-wise sum (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.add");
        let mut v = self.value(a).clone();
        v.add_assign(self.value(b));
        self.push(Op::Add(a, b), &[a, b], v)
    }

    /// Adds a `1×c` bias row to every row of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1×c` with `c == x.cols()`.
    pub fn add_bias(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.add_bias");
        let (rows, cols) = self.value(x).shape();
        assert_eq!(self.value(bias).shape(), (1, cols), "bias shape mismatch");
        let mut v = self.value(x).clone();
        let b = &self.nodes[bias.0].value;
        for i in 0..rows {
            for (o, &bb) in v.row_mut(i).iter_mut().zip(b.row(0)) {
                *o += bb;
            }
        }
        self.push(Op::AddBias(x, bias), &[x, bias], v)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.relu");
        let mut v = self.value(x).clone();
        for a in v.as_flat_mut() {
            if *a < 0.0 {
                *a = 0.0;
            }
        }
        self.push(Op::Relu(x), &[x], v)
    }

    /// Takes the first `n` rows (targets are a prefix of sources in MFGs).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the row count.
    pub fn head_rows(&mut self, x: NodeId, n: usize) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.head_rows");
        let v = self.value(x).head_rows(n);
        self.push(Op::HeadRows(x), &[x], v)
    }

    /// Inverted dropout with keep probability `1 - p`, scaling kept
    /// activations by `1/(1-p)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn dropout<R: Rng>(&mut self, x: NodeId, p: f32, rng: &mut R) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.dropout");
        assert!((0.0..1.0).contains(&p), "dropout probability out of range");
        let keep = 1.0 - p;
        let mask: Vec<f32> = (0..self.value(x).as_flat().len())
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mut v = self.value(x).clone();
        for (a, &m) in v.as_flat_mut().iter_mut().zip(&mask) {
            *a *= m;
        }
        self.push(Op::Dropout(x, mask), &[x], v)
    }

    /// Neighborhood mean over a sampled adjacency: row `t` of the output
    /// is the mean of `x`'s rows listed in `adj` for `t` (a zero row when
    /// the list is empty): [`sage::agg_into`], whose input gradient
    /// `backward` gathers with [`sage::agg_grad_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer rows than `adj.num_sources`.
    pub fn sparse_agg(&mut self, x: NodeId, adj: Arc<CsrAdj>) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.sparse_agg");
        let xv = self.value(x);
        assert!(
            xv.rows() >= adj.num_sources,
            "input rows {} < adjacency sources {}",
            xv.rows(),
            adj.num_sources
        );
        let mut v = Matrix::empty();
        sage::agg_into(self.pool, xv, adj.view(), &mut v);
        self.push(Op::SparseAgg { x, adj }, &[x], v)
    }

    /// Mean of all entries, producing a `1×1` scalar node.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.mean_all");
        let v = self.value(x);
        let n = v.as_flat().len().max(1);
        let m = Matrix::from_flat(1, 1, vec![v.sum() / n as f32]);
        self.push(Op::MeanAll(x), &[x], m)
    }

    /// Mean softmax cross-entropy of `logits` against integer `labels`,
    /// producing a `1×1` scalar node.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != logits.rows()` or any label is out of
    /// class range.
    pub fn softmax_cross_entropy(&mut self, logits: NodeId, labels: Arc<Vec<u32>>) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.softmax_cross_entropy");
        let lv = self.value(logits);
        let (r, c) = lv.shape();
        assert_eq!(labels.len(), r, "label count mismatch");
        assert!(
            labels.iter().all(|&l| (l as usize) < c),
            "label out of class range"
        );
        let mut probs = lv.clone();
        let mut loss = 0.0f32;
        for i in 0..r {
            let row = probs.row_mut(i);
            let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - mx).exp();
                z += *v;
            }
            for v in row.iter_mut() {
                *v /= z;
            }
            loss -= row[labels[i] as usize].max(1e-30).ln();
        }
        loss /= r.max(1) as f32;
        let m = Matrix::from_flat(1, 1, vec![loss]);
        self.push(
            Op::SoftmaxCrossEntropy {
                logits,
                labels,
                probs,
            },
            &[logits],
            m,
        )
    }

    /// Runs reverse-mode differentiation from `output`, which must be a
    /// `1×1` scalar node. Gradients flow to every node reachable backward
    /// from it that needs one (see the module docs) and are left on the
    /// [`Tape::input`] leaves for [`Tape::grad`].
    ///
    /// # Panics
    ///
    /// Panics if `output` is not scalar.
    pub fn backward(&mut self, output: NodeId) {
        assert_eq!(
            self.value(output).shape(),
            (1, 1),
            "backward requires a scalar output"
        );
        for n in &mut self.nodes {
            n.grad = None;
        }
        if !self.needs_grad(output) {
            return;
        }
        self.nodes[output.0].grad = Some(Matrix::from_flat(1, 1, vec![1.0]));

        for i in (0..=output.0).rev() {
            // A node only ever receives a gradient if it needs one, and by
            // its turn that gradient is final: each arm owns `g` and either
            // moves it on to an operand or lets it drop.
            let Some(mut g) = self.nodes[i].grad.take() else {
                continue;
            };
            let _span = telemetry::span!(self.nodes[i].op.backward_span());
            // Only row-prefix contributions arrived: the rest are zeros.
            g = pad_rows(g, self.nodes[i].value.rows());
            // Borrow-splitting: copy the operand ids out of node i, then
            // write into the operands' grads. A unary op's operand needs a
            // gradient whenever the op does; binary ops ask per operand.
            match &self.nodes[i].op {
                Op::Leaf => self.nodes[i].grad = Some(g),
                Op::Linear { terms, bias, relu } => {
                    let (terms, bias, relu) = (Arc::clone(terms), *bias, *relu);
                    // Through the ReLU, masked by the op's own output:
                    // `out ≤ 0 ⇔ pre-activation ≤ 0`, -0.0 and NaN
                    // included. The bias gradient — column sums of the
                    // masked `g`, rows ascending — rides the same pass.
                    let mut gb = bias
                        .filter(|&b| self.needs_grad(b))
                        .map(|_| Matrix::zeros(1, g.cols()));
                    if relu || gb.is_some() {
                        let out = &self.nodes[i].value;
                        for r in 0..g.rows() {
                            let g_row = g.row_mut(r);
                            if relu {
                                for (gv, &o) in g_row.iter_mut().zip(out.row(r)) {
                                    if o <= 0.0 {
                                        *gv = 0.0;
                                    }
                                }
                            }
                            if let Some(gb) = &mut gb {
                                for (b, &gv) in gb.row_mut(0).iter_mut().zip(g_row.iter()) {
                                    *b += gv;
                                }
                            }
                        }
                    }
                    if let Some(bias) = bias {
                        self.add_to_grad(bias, gb);
                    }
                    // Last term first, `x` before `w`: the order the
                    // separate `matmul` nodes would have had their turns.
                    for &(x, w) in terms.iter().rev() {
                        if self.needs_grad(x) {
                            let gx = g.matmul_t_with(self.pool, &self.nodes[w.0].value);
                            self.add_to_grad(x, gx);
                        }
                        if self.needs_grad(w) {
                            let mut gw = Matrix::empty();
                            self.nodes[x.0]
                                .value
                                .head_t_matmul_into(self.pool, &g, &mut gw);
                            self.add_to_grad(w, gw);
                        }
                    }
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    // `a` before `b`, and a copy only when both want one.
                    let (need_a, need_b) = (self.needs_grad(a), self.needs_grad(b));
                    if need_a && need_b {
                        self.add_to_grad(a, g.clone());
                    }
                    self.add_to_grad(if need_b { b } else { a }, g);
                }
                Op::AddBias(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    let gb = self.needs_grad(bias).then(|| {
                        let mut gb = Matrix::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for (o, &v) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                                *o += v;
                            }
                        }
                        gb
                    });
                    self.add_to_grad(x, self.needs_grad(x).then_some(g));
                    self.add_to_grad(bias, gb);
                }
                Op::Relu(x) => {
                    let x = *x;
                    for (gv, &xv) in g
                        .as_flat_mut()
                        .iter_mut()
                        .zip(self.nodes[x.0].value.as_flat())
                    {
                        if xv <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                    self.add_to_grad(x, g);
                }
                Op::HeadRows(x) => {
                    let x = *x;
                    self.add_to_grad(x, g);
                }
                Op::Dropout(x, mask) => {
                    let x = *x;
                    for (gv, &m) in g.as_flat_mut().iter_mut().zip(mask) {
                        *gv *= m;
                    }
                    self.add_to_grad(x, g);
                }
                Op::SparseAgg { x, adj } => {
                    let (x, adj) = (*x, Arc::clone(adj));
                    // Gather form: each source row sums its targets'
                    // gradient rows in edge order — the order a
                    // target-major scatter adds them — and is written
                    // once, together with whatever `x` already holds.
                    let (rx, d) = self.nodes[x.0].value.shape();
                    let held = self.nodes[x.0].grad.take();
                    let mut lists = SourceLists::default();
                    lists.fill(adj.view(), rx);
                    let mut gx = Matrix::zeros(rx, d);
                    let (view, held) = (adj.view(), held.as_ref());
                    sage::agg_grad_into(self.pool, view, &lists, &g, held, Mask::None, &mut gx);
                    record_bytes(&gx);
                    self.nodes[x.0].grad = Some(gx);
                }
                Op::MeanAll(x) => {
                    let x = *x;
                    let (rx, cx) = self.nodes[x.0].value.shape();
                    let n = (rx * cx).max(1) as f32;
                    let gv = g.get(0, 0) / n;
                    let gx = Matrix::from_flat(rx, cx, vec![gv; rx * cx]);
                    self.add_to_grad(x, gx);
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    labels,
                    probs,
                } => {
                    let logits = *logits;
                    let labels = Arc::clone(labels);
                    let mut gx = probs.clone();
                    let r = gx.rows().max(1) as f32;
                    let upstream = g.get(0, 0);
                    for (idx, &l) in labels.iter().enumerate() {
                        let v = gx.get(idx, l as usize) - 1.0;
                        gx.set(idx, l as usize, v);
                    }
                    gx.scale_assign(upstream / r);
                    self.add_to_grad(logits, gx);
                }
            }
        }
    }

    /// Adds `g` into `id`'s gradient; `None` (an operand whose gradient
    /// was pruned) is a no-op.
    fn add_to_grad(&mut self, id: NodeId, g: impl Into<Option<Matrix>>) {
        let Some(g) = g.into() else { return };
        record_bytes(&g);
        let slot = &mut self.nodes[id.0].grad;
        *slot = Some(match slot.take() {
            Some(held) => sum_grads(held, g),
            None => g,
        });
    }
}

impl Op {
    /// The op kind's backward span name.
    fn backward_span(&self) -> &'static str {
        match self {
            Op::Leaf => "tensor.bwd.leaf",
            Op::Linear { .. } => "tensor.bwd.linear",
            Op::Add(..) => "tensor.bwd.add",
            Op::AddBias(..) => "tensor.bwd.add_bias",
            Op::Relu(..) => "tensor.bwd.relu",
            Op::HeadRows(..) => "tensor.bwd.head_rows",
            Op::Dropout(..) => "tensor.bwd.dropout",
            Op::SparseAgg { .. } => "tensor.bwd.sparse_agg",
            Op::MeanAll(..) => "tensor.bwd.mean_all",
            Op::SoftmaxCrossEntropy { .. } => "tensor.bwd.softmax_cross_entropy",
        }
    }
}

/// Adds `m`'s size to the `tensor.op_bytes` counter (bytes the tape's
/// ops wrote: forward values and gradient contributions) while
/// telemetry is enabled.
fn record_bytes(m: &Matrix) {
    static OP_BYTES: OnceLock<telemetry::metrics::Counter> = OnceLock::new();
    if telemetry::enabled() {
        OP_BYTES
            .get_or_init(|| telemetry::counter("tensor.op_bytes"))
            .add(m.memory_bytes() as u64);
    }
}

/// `held + g` element by element, where either may cover only a row
/// prefix of the other. The rows the shorter one lacks are `+0.0` and
/// are added as such (`-0.0 + 0.0` is `+0.0`), so the bits equal a sum
/// of zero-padded matrices; `f32` addition commutes, so the shorter is
/// added into the larger's buffer.
fn sum_grads(held: Matrix, g: Matrix) -> Matrix {
    assert_eq!(held.cols(), g.cols(), "add shape mismatch");
    let (mut sum, short) = if held.rows() >= g.rows() {
        (held, g)
    } else {
        (g, held)
    };
    let (both, rest) = sum.as_flat_mut().split_at_mut(short.as_flat().len());
    for (a, &b) in both.iter_mut().zip(short.as_flat()) {
        *a += b;
    }
    for a in rest {
        *a += 0.0;
    }
    sum
}

/// `g` extended with zero rows to `rows` (a no-op when it has them).
fn pad_rows(g: Matrix, rows: usize) -> Matrix {
    if g.rows() >= rows {
        return g;
    }
    let cols = g.cols();
    let mut data = g.into_flat();
    data.resize(rows * cols, 0.0);
    Matrix::from_flat(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a scalar-valued tape builder.
    fn grad_check<F>(build: F, input: Matrix, tol: f32)
    where
        F: Fn(&mut Tape, NodeId) -> NodeId,
    {
        let mut tape = Tape::new();
        let x = tape.input(input.clone());
        let out = build(&mut tape, x);
        tape.backward(out);
        let analytic = tape.grad(x).unwrap().clone();

        let eps = 1e-3f32;
        for idx in 0..input.as_flat().len() {
            let mut plus = input.clone();
            plus.as_flat_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.as_flat_mut()[idx] -= eps;
            let f = |m: Matrix| {
                let mut t = Tape::new();
                let x = t.input(m);
                let o = build(&mut t, x);
                t.value(o).get(0, 0)
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.as_flat()[idx];
            assert!(
                (numeric - a).abs() < tol,
                "grad mismatch at {idx}: numeric {numeric}, analytic {a}"
            );
        }
    }

    fn test_adj() -> Arc<CsrAdj> {
        // 2 targets, 3 sources; t0 <- {0,1,2}, t1 <- {2}
        Arc::new(CsrAdj {
            num_targets: 2,
            num_sources: 3,
            row_ptr: vec![0, 3, 4],
            col: vec![0, 1, 2, 2],
        })
    }

    #[test]
    fn matmul_grad() {
        let w = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.3], &[0.1, 0.9]]);
        grad_check(
            move |t, x| {
                let w = t.input(w.clone());
                let y = t.matmul(x, w);
                t.mean_all(y)
            },
            Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.2, 0.8, -0.4]]),
            1e-2,
        );
    }

    #[test]
    fn linear_grad() {
        // Two terms over row prefixes of taller operands (the second is
        // the checked input itself), bias and ReLU; the pre-activations
        // sit away from the ReLU kink.
        let w0 = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.3], &[0.1, 0.9]]);
        let w1 = Matrix::from_rows(&[&[1.5, 0.2], &[-0.7, 0.4], &[0.3, -1.1]]);
        let other = Matrix::from_rows(&[&[0.4, 1.0, -0.3], &[0.9, -0.2, 0.6], &[9.0, 9.0, 9.0]]);
        grad_check(
            move |t, x| {
                let o = t.input(other.clone());
                let w0 = t.input(w0.clone());
                let w1 = t.input(w1.clone());
                let b = t.input(Matrix::from_rows(&[&[0.25, -0.5]]));
                let y = t.linear(2, &[(o, w0), (x, w1)], Some(b), true);
                t.mean_all(y)
            },
            Matrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.2, 0.8, -0.4], &[3.0, 1.0, 2.0]]),
            1e-2,
        );
    }

    #[test]
    fn relu_grad() {
        grad_check(
            |t, x| {
                let y = t.relu(x);
                t.mean_all(y)
            },
            Matrix::from_rows(&[&[1.0, -2.0, 3.0, -0.5]]),
            1e-3,
        );
    }

    #[test]
    fn add_bias_grad() {
        grad_check(
            |t, x| {
                let b = t.input(Matrix::from_rows(&[&[0.5, -0.5]]));
                let y = t.add_bias(x, b);
                let y2 = t.relu(y);
                t.mean_all(y2)
            },
            Matrix::from_rows(&[&[1.0, 2.0], &[-3.0, 0.25]]),
            1e-3,
        );
    }

    #[test]
    fn sparse_mean_grad() {
        let adj = test_adj();
        grad_check(
            move |t, x| {
                let y = t.sparse_agg(x, Arc::clone(&adj));
                let z = t.relu(y);
                t.mean_all(z)
            },
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 0.25]]),
            1e-3,
        );
    }

    #[test]
    fn head_rows_grad() {
        grad_check(
            |t, x| {
                let y = t.head_rows(x, 1);
                t.mean_all(y)
            },
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]),
            1e-3,
        );
    }

    #[test]
    fn softmax_cross_entropy_grad() {
        let labels = Arc::new(vec![1u32, 0u32]);
        grad_check(
            move |t, x| t.softmax_cross_entropy(x, Arc::clone(&labels)),
            Matrix::from_rows(&[&[0.2, -0.4, 0.1], &[1.0, 0.3, -0.2]]),
            1e-2,
        );
    }

    #[test]
    fn dropout_zeroes_and_scales() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_flat(1, 1000, vec![1.0; 1000]));
        let mut rng = StdRng::seed_from_u64(1);
        let y = tape.dropout(x, 0.5, &mut rng);
        let vals = tape.value(y).as_flat();
        let zeros = vals.iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 350 && zeros < 650, "dropout rate off: {zeros}");
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn cross_entropy_decreases_with_correct_logits() {
        let labels = Arc::new(vec![0u32]);
        let mut t1 = Tape::new();
        let bad = t1.input(Matrix::from_rows(&[&[0.0, 5.0]]));
        let l1 = t1.softmax_cross_entropy(bad, Arc::clone(&labels));
        let mut t2 = Tape::new();
        let good = t2.input(Matrix::from_rows(&[&[5.0, 0.0]]));
        let l2 = t2.softmax_cross_entropy(good, labels);
        assert!(t2.value(l2).get(0, 0) < t1.value(l1).get(0, 0));
    }

    #[test]
    fn gradients_accumulate_on_reuse() {
        // y = x + x: dy/dx = 2.
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[&[1.0]]));
        let y = tape.add(x, x);
        let s = tape.mean_all(y);
        tape.backward(s);
        assert_eq!(tape.grad(x).unwrap().get(0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "backward requires a scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::zeros(2, 2));
        tape.backward(x);
    }
}
