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
//!
//! Two ops carry a GNN layer's memory traffic and are built to write
//! their output once (DESIGN.md §14): [`Tape::linear`], the fused affine
//! map every dense layer goes through ([`Tape::matmul`] is its one-term
//! case), and [`Tape::sparse_agg`], whose forward and Mean/Sum backward
//! are both row-parallel *gathers*. An op that reads only a row prefix
//! of an operand (`linear`, `head_rows`) hands back a gradient with just
//! those rows; the rows it lacks count as `+0.0` wherever it is summed
//! with another contribution, and are only materialized if nothing else
//! arrives before the operand's turn.
//!
//! While telemetry is enabled every op records a span per kind and
//! direction (`tensor.fwd.linear`, `tensor.bwd.sparse_agg`, …) and adds
//! the bytes it wrote to the `tensor.op_bytes` counter; disabled, each
//! of the two is one relaxed load of the on/off flag.

use crate::Matrix;
use rand::Rng;
use spp_pool::{balanced_ranges, telemetry, WorkerPool};
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
    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.col.len()
    }

    /// The local source indices target `t` aggregates, in list order.
    #[inline]
    pub fn neighbors(&self, t: usize) -> &[u32] {
        &self.col[self.row_ptr[t]..self.row_ptr[t + 1]] // spp-hot: allow(h2-panic): row_ptr bounds are the adjacency's CSR invariants
    }

    /// The edges grouped by source row, as a CSR over `rows ≥
    /// num_sources` rows: `(src_ptr, targets)` with source `s`'s targets
    /// at `targets[src_ptr[s]..src_ptr[s + 1]]`. A stable counting sort,
    /// so each source lists its targets in edge order — the order a
    /// target-major scatter reaches it, duplicates included.
    fn by_source(&self, rows: usize) -> (Vec<usize>, Vec<u32>) {
        let edges = &self.col[..self.row_ptr[self.num_targets]];
        // Counts land two slots up, so after the prefix sum `ptr[s + 1]`
        // is where `s` starts; used as the fill cursor it ends where `s`
        // ends — where `s + 1` starts — leaving `ptr[..=rows]` the CSR.
        let mut src_ptr = vec![0usize; rows + 2];
        for &s in edges {
            src_ptr[s as usize + 2] += 1;
        }
        for s in 2..rows + 2 {
            src_ptr[s] += src_ptr[s - 1];
        }
        let mut targets = vec![0u32; edges.len()];
        for t in 0..self.num_targets {
            for &s in &edges[self.row_ptr[t]..self.row_ptr[t + 1]] {
                let cursor = &mut src_ptr[s as usize + 1];
                targets[*cursor] = t as u32;
                *cursor += 1;
            }
        }
        src_ptr.truncate(rows + 1);
        (src_ptr, targets)
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

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, x: NodeId, slope: f32) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.leaky_relu");
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
        let _span = telemetry::span!("tensor.fwd.scale");
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
        let _span = telemetry::span!("tensor.fwd.concat_cols");
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

    /// Neighborhood aggregation over a sampled adjacency: row `t` of the
    /// output is the mean (or sum, or element-wise max) of `x`'s rows
    /// listed in `adj` for `t`. Target rows are disjoint, so the loop
    /// runs as one row-parallel region balanced by edge count; each
    /// element still sums its neighbors in list order.
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer rows than `adj.num_sources`.
    pub fn sparse_agg(&mut self, x: NodeId, adj: Arc<CsrAdj>, mode: AggMode) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.sparse_agg");
        let xv = self.value(x);
        assert!(
            xv.rows() >= adj.num_sources,
            "input rows {} < adjacency sources {}",
            xv.rows(),
            adj.num_sources
        );
        let mut v = Matrix::zeros(adj.num_targets, xv.cols());
        par_rows(
            self.pool,
            &mut v,
            |t| adj.row_ptr[t] as u64,
            |t0, chunk| agg_rows(xv, &adj, mode, t0, chunk),
        );
        self.push(Op::SparseAgg { x, adj, mode }, &[x], v)
    }

    /// Per-edge attention logits `e_k = target_score[t_k] + source_score[s_k]`
    /// (GAT's additive attention), producing an `(edges × 1)` node.
    ///
    /// # Panics
    ///
    /// Panics if the score vectors are not single-column with enough rows.
    pub fn edge_scores(&mut self, target: NodeId, source: NodeId, adj: Arc<CsrAdj>) -> NodeId {
        let _span = telemetry::span!("tensor.fwd.edge_scores");
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
        let _span = telemetry::span!("tensor.fwd.edge_softmax");
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
        let _span = telemetry::span!("tensor.fwd.weighted_agg");
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
                        self.accumulate(bias, gb);
                    }
                    // Last term first, `x` before `w`: the order the
                    // separate `matmul` nodes would have had their turns.
                    for &(x, w) in terms.iter().rev() {
                        if self.needs_grad(x) {
                            let gx = g.matmul_t_with(self.pool, &self.nodes[w.0].value);
                            self.accumulate(x, gx);
                        }
                        if self.needs_grad(w) {
                            let mut gw = Matrix::empty();
                            self.nodes[x.0]
                                .value
                                .head_t_matmul_into(self.pool, &g, &mut gw);
                            self.accumulate(w, gw);
                        }
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
                    self.accumulate(x, g);
                }
                Op::Dropout(x, mask) => {
                    let x = *x;
                    for (gv, &m) in g.as_flat_mut().iter_mut().zip(mask) {
                        *gv *= m;
                    }
                    self.accumulate(x, g);
                }
                Op::SparseAgg { x, adj, mode } if *mode != AggMode::Max => {
                    let (x, adj, mean) = (*x, Arc::clone(adj), *mode == AggMode::Mean);
                    // Gather form: each source row sums its targets'
                    // gradient rows in edge order — the order a
                    // target-major scatter adds them — and is written
                    // once, together with whatever `x` already holds.
                    let (rx, d) = self.nodes[x.0].value.shape();
                    let held = self.nodes[x.0].grad.take();
                    let held_rows = held.as_ref().map_or(&[][..], |h| h.as_flat());
                    let (src_ptr, targets) = adj.by_source(rx);
                    let mut gx = Matrix::zeros(rx, d);
                    par_rows(
                        self.pool,
                        &mut gx,
                        |s| (src_ptr[s] + s) as u64,
                        |s0, chunk| {
                            let lists = (&src_ptr[..], &targets[..]);
                            agg_grad_rows(&adj, mean, lists, &g, held_rows, s0, chunk);
                        },
                    );
                    record_bytes(&gx);
                    self.nodes[x.0].grad = Some(gx);
                }
                Op::SparseAgg { x, adj, .. } => {
                    let x = *x;
                    let adj = Arc::clone(adj);
                    let (rx, d) = self.nodes[x.0].value.shape();
                    let mut gx = Matrix::zeros(rx, d);
                    for t in 0..adj.num_targets {
                        let (lo, hi) = (adj.row_ptr[t], adj.row_ptr[t + 1]);
                        if lo == hi {
                            continue;
                        }
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
            Op::LeakyRelu(..) => "tensor.bwd.leaky_relu",
            Op::Scale(..) => "tensor.bwd.scale",
            Op::ConcatCols(..) => "tensor.bwd.concat_cols",
            Op::HeadRows(..) => "tensor.bwd.head_rows",
            Op::Dropout(..) => "tensor.bwd.dropout",
            Op::SparseAgg { .. } => "tensor.bwd.sparse_agg",
            Op::EdgeScores { .. } => "tensor.bwd.edge_scores",
            Op::EdgeSoftmax { .. } => "tensor.bwd.edge_softmax",
            Op::WeightedAgg { .. } => "tensor.bwd.weighted_agg",
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

/// Runs `f(first_row, rows)` over disjoint row blocks of `out` as one
/// parallel region on `pool`. `cum(i)` is the cost of rows `..i` per
/// column; it sizes the region (`jobs_for_cost`) and places the cuts
/// (`balanced_ranges`), so the split is a pure function of the input.
fn par_rows(
    pool: WorkerPool,
    out: &mut Matrix,
    cum: impl Fn(usize) -> u64,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let (rows, d) = out.shape();
    if rows == 0 || d == 0 {
        return;
    }
    let jobs = pool.jobs_for_cost(cum(rows) * d as u64).min(rows);
    if jobs <= 1 {
        f(0, out.as_flat_mut());
        return;
    }
    let cuts: Vec<usize> = balanced_ranges(rows, jobs, cum)
        .iter()
        .map(|r| r.end * d)
        .collect();
    pool.par_chunks(out.as_flat_mut(), &cuts, |_, offset, chunk| {
        f(offset / d, chunk);
    });
}

/// Target rows `t0..` of [`Tape::sparse_agg`]'s forward into `chunk`,
/// which arrives zeroed. Each element accumulates its neighbors in list
/// order from `+0.0`.
// spp-hot(tape.sparse_agg)
fn agg_rows(x: &Matrix, adj: &CsrAdj, mode: AggMode, t0: usize, chunk: &mut [f32]) {
    for (i, out) in chunk.chunks_exact_mut(x.cols()).enumerate() {
        let neighbors = adj.neighbors(t0 + i);
        if neighbors.is_empty() {
            continue;
        }
        if mode == AggMode::Max {
            out.fill(f32::NEG_INFINITY);
            for &s in neighbors {
                for (o, &a) in out.iter_mut().zip(x.row(s as usize)) {
                    if a > *o {
                        *o = a;
                    }
                }
            }
            continue;
        }
        for &s in neighbors {
            for (o, &a) in out.iter_mut().zip(x.row(s as usize)) {
                *o += a;
            }
        }
        if mode == AggMode::Mean {
            let inv = 1.0 / neighbors.len() as f32;
            for o in out.iter_mut() {
                *o *= inv;
            }
        }
    }
}

/// Source rows `s0..` of [`Tape::sparse_agg`]'s Mean/Sum input gradient
/// into `chunk`, which arrives zeroed: row `s` is `Σ w_t · g[t]` over its
/// targets in `lists = (src_ptr, targets)` order (see
/// [`CsrAdj::by_source`]), multiply then add from `+0.0` as a scatter
/// into a zeroed buffer would, plus the row `held` already has for `s`,
/// if it reaches that far (one `f32` add, as `accumulate` would do).
// spp-hot(tape.sparse_agg_grad)
fn agg_grad_rows(
    adj: &CsrAdj,
    mean: bool,
    (src_ptr, targets): (&[usize], &[u32]),
    g: &Matrix,
    held: &[f32],
    s0: usize,
    chunk: &mut [f32],
) {
    let d = g.cols();
    for (i, out) in chunk.chunks_exact_mut(d).enumerate() {
        let s = s0 + i;
        for &t in &targets[src_ptr[s]..src_ptr[s + 1]] {
            let t = t as usize;
            let w = if mean {
                1.0 / adj.neighbors(t).len() as f32
            } else {
                1.0
            };
            for (o, &gv) in out.iter_mut().zip(g.row(t)) {
                *o += w * gv;
            }
        }
        if let Some(held) = held.get(s * d..(s + 1) * d) {
            for (o, &h) in out.iter_mut().zip(held) {
                *o += h;
            }
        }
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
