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
//!   element-wise ops (`relu`, `leaky_relu`, `scale`, `dropout`,
//!   `add_bias`, `add`) therefore transform that buffer in place and
//!   *move* it to their operand instead of cloning it — the operand
//!   receives exactly the values a copy would have held, so this is
//!   exact, not approximate.
//! - **Only leaves keep a gradient.** An interior node's buffer is
//!   dropped (or moved on) after its turn; after `backward`,
//!   [`Tape::grad`] is `Some` for `input` leaves that the output depends
//!   on and `None` for everything else.

use crate::Matrix;
use rand::Rng;
use std::sync::Arc;

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
    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }
}

/// Aggregation mode for [`Tape::sparse_agg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggMode {
    /// Mean over sampled neighbors (GraphSAGE). Targets with no sampled
    /// neighbors produce a zero row.
    Mean,
    /// Sum over sampled neighbors (GIN).
    Sum,
    /// Element-wise max over sampled neighbors (GraphSAGE's pooling
    /// aggregator). Targets with no sampled neighbors produce a zero row.
    Max,
}

#[derive(Debug)]
enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    Add(NodeId, NodeId),
    AddBias(NodeId, NodeId),
    Relu(NodeId),
    LeakyRelu(NodeId, f32),
    Scale(NodeId, f32),
    ConcatCols(NodeId, NodeId),
    HeadRows(NodeId),
    Dropout(NodeId, Vec<f32>),
    SparseAgg {
        x: NodeId,
        adj: Arc<CsrAdj>,
        mode: AggMode,
    },
    EdgeScores {
        target: NodeId,
        source: NodeId,
        adj: Arc<CsrAdj>,
    },
    EdgeSoftmax {
        e: NodeId,
        adj: Arc<CsrAdj>,
    },
    WeightedAgg {
        w: NodeId,
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
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    fn push_node(&mut self, op: Op, value: Matrix, needs_grad: bool) -> NodeId {
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

    /// Moves a node's forward value out of the tape, leaving an empty
    /// matrix behind — for callers that lent the tape a large input
    /// buffer and want the storage back once the pass is over. Ops
    /// recorded or differentiated after this see the empty value.
    pub fn take_value(&mut self, id: NodeId) -> Matrix {
        std::mem::replace(&mut self.nodes[id.0].value, Matrix::empty())
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

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), &[a, b], v)
    }

    /// Element-wise sum (same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
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
        let mut v = self.value(x).clone();
        for a in v.as_flat_mut() {
            if *a < 0.0 {
                *a = 0.0;
            }
        }
        self.push(Op::Relu(x), &[x], v)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, x: NodeId, slope: f32) -> NodeId {
        let mut v = self.value(x).clone();
        for a in v.as_flat_mut() {
            if *a < 0.0 {
                *a *= slope;
            }
        }
        self.push(Op::LeakyRelu(x, slope), &[x], v)
    }

    /// Multiplies by a constant.
    pub fn scale(&mut self, x: NodeId, s: f32) -> NodeId {
        let mut v = self.value(x).clone();
        v.scale_assign(s);
        self.push(Op::Scale(x, s), &[x], v)
    }

    /// Column-wise concatenation `[a | b]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ra, ca) = self.value(a).shape();
        let (rb, cb) = self.value(b).shape();
        assert_eq!(ra, rb, "concat_cols row mismatch");
        let mut v = Matrix::zeros(ra, ca + cb);
        for i in 0..ra {
            v.row_mut(i)[..ca].copy_from_slice(self.nodes[a.0].value.row(i));
            v.row_mut(i)[ca..].copy_from_slice(self.nodes[b.0].value.row(i));
        }
        self.push(Op::ConcatCols(a, b), &[a, b], v)
    }

    /// Takes the first `n` rows (targets are a prefix of sources in MFGs).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the row count.
    pub fn head_rows(&mut self, x: NodeId, n: usize) -> NodeId {
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

    /// Neighborhood aggregation over a sampled adjacency: row `t` of the
    /// output is the mean (or sum) of `x`'s rows listed in `adj` for `t`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer rows than `adj.num_sources`.
    pub fn sparse_agg(&mut self, x: NodeId, adj: Arc<CsrAdj>, mode: AggMode) -> NodeId {
        let xv = self.value(x);
        assert!(
            xv.rows() >= adj.num_sources,
            "input rows {} < adjacency sources {}",
            xv.rows(),
            adj.num_sources
        );
        let d = xv.cols();
        let mut v = Matrix::zeros(adj.num_targets, d);
        for t in 0..adj.num_targets {
            let (lo, hi) = (adj.row_ptr[t], adj.row_ptr[t + 1]);
            if lo == hi {
                continue;
            }
            if mode == AggMode::Max {
                let out = v.row_mut(t);
                for o in out.iter_mut() {
                    *o = f32::NEG_INFINITY;
                }
                for &s in &adj.col[lo..hi] {
                    let src = self.nodes[x.0].value.row(s as usize);
                    for (o, &a) in v.row_mut(t).iter_mut().zip(src) {
                        if a > *o {
                            *o = a;
                        }
                    }
                }
                continue;
            }
            let out = v.row_mut(t);
            for &s in &adj.col[lo..hi] {
                let src = self.nodes[x.0].value.row(s as usize);
                for (o, &a) in out.iter_mut().zip(src) {
                    *o += a;
                }
            }
            if mode == AggMode::Mean {
                let inv = 1.0 / (hi - lo) as f32;
                for o in v.row_mut(t) {
                    *o *= inv;
                }
            }
        }
        self.push(Op::SparseAgg { x, adj, mode }, &[x], v)
    }

    /// Per-edge attention logits `e_k = target_score[t_k] + source_score[s_k]`
    /// (GAT's additive attention), producing an `(edges × 1)` node.
    ///
    /// # Panics
    ///
    /// Panics if the score vectors are not single-column with enough rows.
    pub fn edge_scores(&mut self, target: NodeId, source: NodeId, adj: Arc<CsrAdj>) -> NodeId {
        assert_eq!(
            self.value(target).cols(),
            1,
            "target scores must be a column"
        );
        assert_eq!(
            self.value(source).cols(),
            1,
            "source scores must be a column"
        );
        assert!(self.value(target).rows() >= adj.num_targets);
        assert!(self.value(source).rows() >= adj.num_sources);
        let mut v = Matrix::zeros(adj.num_edges(), 1);
        let mut k = 0usize;
        for t in 0..adj.num_targets {
            let ts = self.nodes[target.0].value.get(t, 0);
            for &s in &adj.col[adj.row_ptr[t]..adj.row_ptr[t + 1]] {
                let val = ts + self.nodes[source.0].value.get(s as usize, 0);
                v.set(k, 0, val);
                k += 1;
            }
        }
        self.push(
            Op::EdgeScores {
                target,
                source,
                adj,
            },
            &[target, source],
            v,
        )
    }

    /// Softmax of per-edge logits within each target's edge group.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not `(edges × 1)`.
    pub fn edge_softmax(&mut self, e: NodeId, adj: Arc<CsrAdj>) -> NodeId {
        assert_eq!(
            self.value(e).shape(),
            (adj.num_edges(), 1),
            "edge vector shape mismatch"
        );
        let mut v = self.value(e).clone();
        for t in 0..adj.num_targets {
            let (lo, hi) = (adj.row_ptr[t], adj.row_ptr[t + 1]);
            if lo == hi {
                continue;
            }
            let mut mx = f32::NEG_INFINITY;
            for k in lo..hi {
                mx = mx.max(v.get(k, 0));
            }
            let mut z = 0.0f32;
            for k in lo..hi {
                let p = (v.get(k, 0) - mx).exp();
                v.set(k, 0, p);
                z += p;
            }
            for k in lo..hi {
                let p = v.get(k, 0) / z;
                v.set(k, 0, p);
            }
        }
        self.push(Op::EdgeSoftmax { e, adj }, &[e], v)
    }

    /// Attention-weighted aggregation: `out[t] = Σ_k w[k] · x[s_k]` over
    /// target `t`'s edges.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn weighted_agg(&mut self, w: NodeId, x: NodeId, adj: Arc<CsrAdj>) -> NodeId {
        assert_eq!(self.value(w).shape(), (adj.num_edges(), 1));
        assert!(self.value(x).rows() >= adj.num_sources);
        let d = self.value(x).cols();
        let mut v = Matrix::zeros(adj.num_targets, d);
        let mut k = 0usize;
        for t in 0..adj.num_targets {
            for &s in &adj.col[adj.row_ptr[t]..adj.row_ptr[t + 1]] {
                let wv = self.nodes[w.0].value.get(k, 0);
                let src = self.nodes[x.0].value.row(s as usize);
                let out = v.row_mut(t);
                for (o, &a) in out.iter_mut().zip(src) {
                    *o += wv * a;
                }
                k += 1;
            }
        }
        self.push(Op::WeightedAgg { w, x, adj }, &[w, x], v)
    }

    /// Mean of all entries, producing a `1×1` scalar node.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
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
            // Borrow-splitting: copy the operand ids out of node i, then
            // write into the operands' grads. A unary op's operand needs a
            // gradient whenever the op does; binary ops ask per operand.
            match &self.nodes[i].op {
                Op::Leaf => self.nodes[i].grad = Some(g),
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    if self.needs_grad(a) {
                        let ga = g.matmul_t(&self.nodes[b.0].value);
                        self.accumulate(a, ga);
                    }
                    if self.needs_grad(b) {
                        let gb = self.nodes[a.0].value.t_matmul(&g);
                        self.accumulate(b, gb);
                    }
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    // `a` before `b`, and a copy only when both want one.
                    let (need_a, need_b) = (self.needs_grad(a), self.needs_grad(b));
                    if need_a && need_b {
                        self.accumulate(a, g.clone());
                    }
                    self.accumulate(if need_b { b } else { a }, g);
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
                    self.accumulate(x, self.needs_grad(x).then_some(g));
                    self.accumulate(bias, gb);
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
                    self.accumulate(x, g);
                }
                Op::LeakyRelu(x, slope) => {
                    let (x, slope) = (*x, *slope);
                    for (gv, &xv) in g
                        .as_flat_mut()
                        .iter_mut()
                        .zip(self.nodes[x.0].value.as_flat())
                    {
                        if xv <= 0.0 {
                            *gv *= slope;
                        }
                    }
                    self.accumulate(x, g);
                }
                Op::Scale(x, s) => {
                    let (x, s) = (*x, *s);
                    g.scale_assign(s);
                    self.accumulate(x, g);
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (*a, *b);
                    let ca = self.nodes[a.0].value.cols();
                    let rows = g.rows();
                    if self.needs_grad(a) {
                        let mut ga = Matrix::zeros(rows, ca);
                        for r in 0..rows {
                            ga.row_mut(r).copy_from_slice(&g.row(r)[..ca]);
                        }
                        self.accumulate(a, ga);
                    }
                    if self.needs_grad(b) {
                        let mut gb = Matrix::zeros(rows, g.cols() - ca);
                        for r in 0..rows {
                            gb.row_mut(r).copy_from_slice(&g.row(r)[ca..]);
                        }
                        self.accumulate(b, gb);
                    }
                }
                Op::HeadRows(x) => {
                    let x = *x;
                    let (rx, cx) = self.nodes[x.0].value.shape();
                    let mut gx = Matrix::zeros(rx, cx);
                    for r in 0..g.rows() {
                        gx.row_mut(r).copy_from_slice(g.row(r));
                    }
                    self.accumulate(x, gx);
                }
                Op::Dropout(x, mask) => {
                    let x = *x;
                    for (gv, &m) in g.as_flat_mut().iter_mut().zip(mask) {
                        *gv *= m;
                    }
                    self.accumulate(x, g);
                }
                Op::SparseAgg { x, adj, mode } => {
                    let x = *x;
                    let adj = Arc::clone(adj);
                    let mode = *mode;
                    let (rx, d) = self.nodes[x.0].value.shape();
                    let mut gx = Matrix::zeros(rx, d);
                    for t in 0..adj.num_targets {
                        let (lo, hi) = (adj.row_ptr[t], adj.row_ptr[t + 1]);
                        if lo == hi {
                            continue;
                        }
                        if mode == AggMode::Max {
                            // Route each column's gradient to the argmax
                            // source (first winner on ties).
                            for j in 0..d {
                                let mut best_s = adj.col[lo] as usize;
                                let mut best = self.nodes[x.0].value.get(best_s, j);
                                for &s in &adj.col[lo + 1..hi] {
                                    let v = self.nodes[x.0].value.get(s as usize, j);
                                    if v > best {
                                        best = v;
                                        best_s = s as usize;
                                    }
                                }
                                let gv = g.get(t, j);
                                gx.set(best_s, j, gx.get(best_s, j) + gv);
                            }
                            continue;
                        }
                        let w = match mode {
                            AggMode::Mean => 1.0 / (hi - lo) as f32,
                            // Max rows take the dedicated argmax path above
                            // (`continue`); the arm exists only for the type.
                            AggMode::Sum | AggMode::Max => 1.0,
                        };
                        let gt = g.row(t);
                        for &s in &adj.col[lo..hi] {
                            for (o, &gv) in gx.row_mut(s as usize).iter_mut().zip(gt) {
                                *o += w * gv;
                            }
                        }
                    }
                    self.accumulate(x, gx);
                }
                Op::EdgeScores {
                    target,
                    source,
                    adj,
                } => {
                    let (target, source) = (*target, *source);
                    let adj = Arc::clone(adj);
                    let mut gt = self
                        .needs_grad(target)
                        .then(|| Matrix::zeros(self.nodes[target.0].value.rows(), 1));
                    let mut gs = self
                        .needs_grad(source)
                        .then(|| Matrix::zeros(self.nodes[source.0].value.rows(), 1));
                    let mut k = 0usize;
                    for t in 0..adj.num_targets {
                        for &s in &adj.col[adj.row_ptr[t]..adj.row_ptr[t + 1]] {
                            let gv = g.get(k, 0);
                            if let Some(gt) = &mut gt {
                                gt.set(t, 0, gt.get(t, 0) + gv);
                            }
                            if let Some(gs) = &mut gs {
                                gs.set(s as usize, 0, gs.get(s as usize, 0) + gv);
                            }
                            k += 1;
                        }
                    }
                    self.accumulate(target, gt);
                    self.accumulate(source, gs);
                }
                Op::EdgeSoftmax { e, adj } => {
                    let e = *e;
                    let adj = Arc::clone(adj);
                    let probs = &self.nodes[i].value;
                    let mut ge = Matrix::zeros(adj.num_edges(), 1);
                    for t in 0..adj.num_targets {
                        let (lo, hi) = (adj.row_ptr[t], adj.row_ptr[t + 1]);
                        let dot: f32 = (lo..hi).map(|k| probs.get(k, 0) * g.get(k, 0)).sum();
                        for k in lo..hi {
                            ge.set(k, 0, probs.get(k, 0) * (g.get(k, 0) - dot));
                        }
                    }
                    self.accumulate(e, ge);
                }
                Op::WeightedAgg { w, x, adj } => {
                    let (w, x) = (*w, *x);
                    let adj = Arc::clone(adj);
                    let (rx, d) = self.nodes[x.0].value.shape();
                    let mut gw = self
                        .needs_grad(w)
                        .then(|| Matrix::zeros(adj.num_edges(), 1));
                    let mut gx = self.needs_grad(x).then(|| Matrix::zeros(rx, d));
                    let mut k = 0usize;
                    for t in 0..adj.num_targets {
                        let gt = g.row(t);
                        for &s in &adj.col[adj.row_ptr[t]..adj.row_ptr[t + 1]] {
                            if let Some(gx) = &mut gx {
                                let wv = self.nodes[w.0].value.get(k, 0);
                                for (o, &gv) in gx.row_mut(s as usize).iter_mut().zip(gt) {
                                    *o += wv * gv;
                                }
                            }
                            if let Some(gw) = &mut gw {
                                let xs = self.nodes[x.0].value.row(s as usize);
                                let mut acc = 0.0f32;
                                for (&gv, &xv) in gt.iter().zip(xs) {
                                    acc += gv * xv;
                                }
                                gw.set(k, 0, acc);
                            }
                            k += 1;
                        }
                    }
                    self.accumulate(w, gw);
                    self.accumulate(x, gx);
                }
                Op::MeanAll(x) => {
                    let x = *x;
                    let (rx, cx) = self.nodes[x.0].value.shape();
                    let n = (rx * cx).max(1) as f32;
                    let gv = g.get(0, 0) / n;
                    let gx = Matrix::from_flat(rx, cx, vec![gv; rx * cx]);
                    self.accumulate(x, gx);
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
                    self.accumulate(logits, gx);
                }
            }
        }
    }

    /// Adds `g` into `id`'s gradient; `None` (an operand whose gradient
    /// was pruned) is a no-op.
    fn accumulate(&mut self, id: NodeId, g: impl Into<Option<Matrix>>) {
        let Some(g) = g.into() else { return };
        match &mut self.nodes[id.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
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
    fn leaky_relu_grad() {
        grad_check(
            |t, x| {
                let y = t.leaky_relu(x, 0.2);
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
    fn concat_grad() {
        grad_check(
            |t, x| {
                let y = t.concat_cols(x, x);
                let z = t.relu(y);
                t.mean_all(z)
            },
            Matrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]),
            1e-3,
        );
    }

    #[test]
    fn sparse_mean_grad() {
        let adj = test_adj();
        grad_check(
            move |t, x| {
                let y = t.sparse_agg(x, Arc::clone(&adj), AggMode::Mean);
                let z = t.relu(y);
                t.mean_all(z)
            },
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 0.25]]),
            1e-3,
        );
    }

    #[test]
    fn sparse_sum_grad() {
        let adj = test_adj();
        grad_check(
            move |t, x| {
                let y = t.sparse_agg(x, Arc::clone(&adj), AggMode::Sum);
                t.mean_all(y)
            },
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0], &[0.5, 0.25]]),
            1e-3,
        );
    }

    #[test]
    fn sparse_max_grad() {
        let adj = test_adj();
        grad_check(
            move |t, x| {
                let y = t.sparse_agg(x, Arc::clone(&adj), AggMode::Max);
                t.mean_all(y)
            },
            // Distinct values so the argmax is stable under the probe eps.
            Matrix::from_rows(&[&[1.0, 2.5], &[3.0, -1.0], &[0.5, 0.25]]),
            1e-3,
        );
    }

    #[test]
    fn sparse_max_forward_values() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[
            &[1.0, -2.0],
            &[3.0, 0.5],
            &[-1.0, 4.0],
        ]));
        let adj = test_adj();
        let y = tape.sparse_agg(x, adj, AggMode::Max);
        // t0 <- max of rows {0,1,2} = [3.0, 4.0]; t1 <- row 2 = [-1.0, 4.0].
        assert_eq!(tape.value(y).row(0), &[3.0, 4.0]);
        assert_eq!(tape.value(y).row(1), &[-1.0, 4.0]);
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
    fn attention_pipeline_grad() {
        // Gradient through edge_scores -> edge_softmax -> weighted_agg wrt
        // the target score vector.
        let adj = test_adj();
        let feats = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        grad_check(
            move |t, ts| {
                let ss = t.input(Matrix::from_rows(&[&[0.1], &[0.2], &[-0.25]]));
                let x = t.input(feats.clone());
                let e = t.edge_scores(ts, ss, Arc::clone(&adj));
                let lr = t.leaky_relu(e, 0.2);
                let w = t.edge_softmax(lr, Arc::clone(&adj));
                let y = t.weighted_agg(w, x, Arc::clone(&adj));
                let z = t.relu(y);
                t.mean_all(z)
            },
            Matrix::from_rows(&[&[0.3], &[-0.6]]),
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
