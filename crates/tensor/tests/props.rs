//! Property-based tests for the tensor engine.

// Tests assert by panicking; the workspace panic-family denies apply
// to library code only (see [workspace.lints] in Cargo.toml).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spp_pool::WorkerPool;
use spp_tensor::tape::{AggMode, CsrAdj};
use spp_tensor::{Matrix, NodeId, Tape};
use std::sync::Arc;

fn arb_matrix(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f32..5.0, r * c).prop_map(move |data| Matrix::from_flat(r, c, data))
}

/// The worker counts every bit-identity property is checked on.
const POOLS: [usize; 3] = [1, 2, 8];

/// A matrix drawn from `seed`: ordinary values with exact zeros and
/// `-0.0` mixed in, and NaN too when `nan` is set.
fn awkward(rows: usize, cols: usize, seed: u64, nan: bool) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| match rng.gen_range(0..16u32) {
            0 => 0.0,
            1 => -0.0,
            2 if nan => f32::NAN,
            _ => rng.gen::<f32>() * 10.0 - 5.0,
        })
        .collect();
    Matrix::from_flat(rows, cols, data)
}

/// Bit patterns, with every NaN mapped to one (the hardware picks which
/// operand's payload a NaN sum keeps; nothing here depends on it).
fn bits(m: &Matrix) -> Vec<u32> {
    let canon = |v: &f32| {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    };
    m.as_flat().iter().map(canon).collect()
}

/// What a [`linear_vs_chain`] case is made of.
#[derive(Clone, Debug)]
struct LinearCase {
    rows: usize,
    /// Per term: rows the operand has beyond `rows`, and its width.
    terms: Vec<(usize, usize)>,
    n: usize,
    bias: bool,
    relu: bool,
    /// Every term reads the same `x` node (widths forced equal).
    shared_x: bool,
    nan: bool,
    seed: u64,
}

fn arb_linear_case() -> impl Strategy<Value = LinearCase> {
    (
        1usize..14,
        prop::collection::vec((0usize..4, 1usize..11), 1..4usize),
        1usize..22,
        0u8..16,
        any::<u64>(),
    )
        .prop_map(|(rows, terms, n, flags, seed)| LinearCase {
            rows,
            terms,
            n,
            bias: flags & 1 != 0,
            relu: flags & 2 != 0,
            shared_x: flags & 4 != 0,
            nan: flags & 8 != 0,
            seed,
        })
}

/// Records `case` on `pool` — fused through [`Tape::linear`], or as the
/// `head_rows → matmul → add → add_bias → relu` chain it replaces — under
/// a classifier loss, runs `backward`, and returns the layer's value bits
/// followed by every operand's gradient bits.
fn linear_vs_chain(case: &LinearCase, pool: WorkerPool, fused: bool) -> Vec<Vec<u32>> {
    let LinearCase {
        rows, n, nan, seed, ..
    } = *case;
    let mut t = Tape::with_pool(pool);
    let mut leaves = Vec::new();
    let mut terms = Vec::new();
    for (i, &(extra, k)) in case.terms.iter().enumerate() {
        let k = if case.shared_x { case.terms[0].1 } else { k };
        let x = match terms.first() {
            Some(&(x0, _)) if case.shared_x => x0,
            _ => {
                let x = t.input(awkward(rows + extra, k, seed ^ (2 * i as u64), nan));
                leaves.push(x);
                x
            }
        };
        let w = t.input(awkward(k, n, seed ^ (2 * i as u64 + 1), nan));
        leaves.push(w);
        terms.push((x, w));
    }
    let bias = case.bias.then(|| t.input(awkward(1, n, seed ^ 99, nan)));
    leaves.extend(bias);
    let out = if fused {
        t.linear(rows, &terms, bias, case.relu)
    } else {
        let mut sum = None;
        for &(x, w) in &terms {
            let own = t.head_rows(x, rows);
            let p = t.matmul(own, w);
            sum = Some(sum.map_or(p, |s| t.add(s, p)));
        }
        let mut y = sum.unwrap();
        if let Some(b) = bias {
            y = t.add_bias(y, b);
        }
        if case.relu {
            y = t.relu(y);
        }
        y
    };
    let classes = t.constant(awkward(n, 3, seed ^ 7, false));
    let logits = t.matmul(out, classes);
    let labels = (0..rows as u32).map(|r| r % 3).collect();
    let loss = t.softmax_cross_entropy(logits, Arc::new(labels));
    t.backward(loss);
    let mut got = vec![bits(t.value(out))];
    got.extend(leaves.iter().map(|&l| bits(t.grad(l).unwrap())));
    got
}

/// A random hop: per target a neighbor list that may be empty and may
/// repeat a source; `sources` exceeds the largest id used, so the tail
/// sources have no in-edge.
fn random_adj(targets: usize, sources: usize, max_deg: usize, rng: &mut StdRng) -> Arc<CsrAdj> {
    let mut row_ptr = vec![0usize];
    let mut col = Vec::new();
    for _ in 0..targets {
        for _ in 0..rng.gen_range(0..=max_deg) {
            col.push(rng.gen_range(0..(sources - sources / 8) as u32));
        }
        row_ptr.push(col.len());
    }
    Arc::new(CsrAdj {
        num_targets: targets,
        num_sources: sources,
        row_ptr,
        col,
    })
}

/// The serial loops `sparse_agg` replaced, kept as the reference: the
/// per-target forward, and the backward that zero-fills a source-shaped
/// buffer and scatters `w · g[t]` into it, target by target.
fn agg_reference(x: &Matrix, g: &Matrix, adj: &CsrAdj, mode: AggMode) -> (Matrix, Matrix) {
    let d = x.cols();
    let mut fwd = Matrix::zeros(adj.num_targets, d);
    let mut gx = Matrix::zeros(x.rows(), d);
    for t in 0..adj.num_targets {
        let (lo, hi) = (adj.row_ptr[t], adj.row_ptr[t + 1]);
        if lo == hi {
            continue;
        }
        let w = if mode == AggMode::Mean {
            1.0 / (hi - lo) as f32
        } else {
            1.0
        };
        for &s in &adj.col[lo..hi] {
            for j in 0..d {
                fwd.set(t, j, fwd.get(t, j) + x.get(s as usize, j));
                gx.set(s as usize, j, gx.get(s as usize, j) + w * g.get(t, j));
            }
        }
        if mode == AggMode::Mean {
            fwd.row_mut(t).iter_mut().for_each(|o| *o *= w);
        }
    }
    (fwd, gx)
}

/// `sparse_agg` on `pool` against [`agg_reference`], value and input
/// gradient, bit for bit. `with_prefix` makes `x` also receive a
/// row-prefix gradient (through `head_rows`, arriving first, as in a GIN
/// layer) and `with_third` a full-size one arriving last; the expected
/// sum is built the way the zero-padding tape built it.
fn check_sparse_agg(
    (targets, sources, d, max_deg): (usize, usize, usize, usize),
    mode: AggMode,
    (with_prefix, with_third): (bool, bool),
    pool: WorkerPool,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let adj = random_adj(targets, sources, max_deg, &mut rng);
    let xm = awkward(sources, d, seed ^ 1, false);
    let wm = awkward(d, 3, seed ^ 2, false);

    let mut t = Tape::with_pool(pool);
    let x = t.input(xm.clone());
    let w = t.constant(wm.clone());
    let third = with_third.then(|| t.scale(x, 0.75));
    let agg = t.sparse_agg(x, Arc::clone(&adj), mode);
    let mut s = agg;
    if with_prefix {
        let own = t.head_rows(x, targets);
        s = t.add(own, agg);
    }
    let y = t.matmul(s, w);
    let mut loss = t.mean_all(y);
    if let Some(third) = third {
        let l3 = t.mean_all(third);
        loss = t.add(loss, l3);
    }
    t.backward(loss);

    // Upstream of `s`: `mean_all`'s constant through `matmul`'s `g·Wᵀ`.
    let gy = Matrix::from_flat(targets, 3, vec![1.0 / (targets * 3) as f32; targets * 3]);
    let gs = gy.matmul_t(&wm);
    let (fwd, scattered) = agg_reference(&xm, &gs, &adj, mode);
    assert_eq!(bits(t.value(agg)), bits(&fwd), "forward");
    let mut want = Matrix::zeros(sources, d);
    if with_prefix {
        want.as_flat_mut()[..targets * d].copy_from_slice(gs.as_flat());
        want.add_assign(&scattered);
    } else {
        want = scattered;
    }
    if with_third {
        let g3 = 1.0 / (sources * d) as f32 * 0.75;
        want.add_assign(&Matrix::from_flat(sources, d, vec![g3; sources * d]));
    }
    assert_eq!(bits(t.grad(x).unwrap()), bits(&want), "input gradient");
}

// MFG geometry of the SAGE-shaped tape below; the targets are a prefix
// of the sources.
const SOURCES: usize = 7;
const TARGETS: usize = 3;
const DIM: usize = 4;
const HIDDEN: usize = 5;
const CLASSES: usize = 3;

/// Per-target neighbor lists (possibly empty) over the sources.
fn arb_adj() -> impl Strategy<Value = Arc<CsrAdj>> {
    prop::collection::vec(prop::collection::vec(0..SOURCES as u32, 0..5), TARGETS).prop_map(
        |lists| {
            let mut row_ptr = vec![0usize];
            let mut col = Vec::new();
            for l in &lists {
                col.extend_from_slice(l);
                row_ptr.push(col.len());
            }
            Arc::new(CsrAdj {
                num_targets: TARGETS,
                num_sources: SOURCES,
                row_ptr,
                col,
            })
        },
    )
}

/// Records one GraphSAGE layer and a classifier — the op sequence
/// `GnnModel::forward` records per layer — with the features registered
/// by `leaf`, runs `backward`, and returns the tape, the feature node
/// and the parameter nodes.
fn sage_backward(
    leaf: fn(&mut Tape, Matrix) -> NodeId,
    x: &Matrix,
    params: &[Matrix; 4],
    adj: &Arc<CsrAdj>,
    labels: &[u32],
) -> (Tape, NodeId, [NodeId; 4]) {
    let mut t = Tape::new();
    let x = leaf(&mut t, x.clone());
    let [w_self, w_neigh, bias, w_out] = params.clone().map(|p| t.input(p));
    let neigh = t.sparse_agg(x, Arc::clone(adj), AggMode::Mean);
    let own = t.head_rows(x, adj.num_targets);
    let a = t.matmul(own, w_self);
    let b = t.matmul(neigh, w_neigh);
    let s = t.add(a, b);
    let sb = t.add_bias(s, bias);
    let r = t.relu(sb);
    let d = t.dropout(r, 0.5, &mut StdRng::seed_from_u64(9));
    let logits = t.matmul(d, w_out);
    let loss = t.softmax_cross_entropy(logits, Arc::new(labels.to_vec()));
    t.backward(loss);
    (t, x, [w_self, w_neigh, bias, w_out])
}

/// Shapes big enough that the row-parallel regions really fork (a cost of
/// a few million units; the proptests' stay serial on any pool), with row
/// and column counts off every tile grid.
#[test]
fn fused_ops_are_bit_identical_to_their_references_when_the_regions_fork() {
    let case = LinearCase {
        rows: 803,
        terms: vec![(5, 40), (0, 24)],
        n: 52,
        bias: true,
        relu: true,
        shared_x: false,
        nan: false,
        seed: 11,
    };
    let chain = linear_vs_chain(&case, WorkerPool::serial(), false);
    for workers in POOLS {
        let pool = WorkerPool::new(workers);
        assert!(
            linear_vs_chain(&case, pool, true) == chain,
            "workers={workers}"
        );
        for mode in [AggMode::Mean, AggMode::Sum] {
            check_sparse_agg((1500, 4003, 150, 20), mode, (true, false), pool, 5);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn linear_is_the_op_chain_bit_for_bit(case in arb_linear_case()) {
        let chain = linear_vs_chain(&case, WorkerPool::serial(), false);
        for workers in POOLS {
            let fused = linear_vs_chain(&case, WorkerPool::new(workers), true);
            prop_assert_eq!(&fused, &chain, "workers={}", workers);
        }
    }

    #[test]
    fn sparse_agg_is_the_serial_scatter_bit_for_bit(
        targets in 1usize..9,
        extra_sources in 0usize..9,
        d in 1usize..12,
        max_deg in 0usize..6,
        flags in 0u8..8,
        seed in any::<u64>(),
    ) {
        let mode = if flags & 1 != 0 { AggMode::Mean } else { AggMode::Sum };
        let (with_prefix, with_third) = (flags & 2 != 0, flags & 4 != 0);
        // `random_adj` keeps ids below 7/8 of the sources: ≥ 8 of them
        // leave at least one source without an in-edge.
        let shape = (targets, targets + 8 + extra_sources, d, max_deg);
        for workers in POOLS {
            let pool = WorkerPool::new(workers);
            check_sparse_agg(shape, mode, (with_prefix, with_third), pool, seed);
        }
    }

    #[test]
    fn constant_features_leave_parameter_gradients_bit_identical(
        x in arb_matrix(SOURCES, DIM),
        w_self in arb_matrix(DIM, HIDDEN),
        w_neigh in arb_matrix(DIM, HIDDEN),
        bias in arb_matrix(1, HIDDEN),
        w_out in arb_matrix(HIDDEN, CLASSES),
        adj in arb_adj(),
        labels in prop::collection::vec(0..CLASSES as u32, TARGETS),
    ) {
        let params = [w_self, w_neigh, bias, w_out];
        let (ti, xi, pi) = sage_backward(Tape::input, &x, &params, &adj, &labels);
        let (tc, xc, pc) = sage_backward(Tape::constant, &x, &params, &adj, &labels);
        prop_assert!(ti.grad(xi).is_some());
        prop_assert!(tc.grad(xc).is_none());
        for (&ni, &nc) in pi.iter().zip(&pc) {
            let bits = |t: &Tape, n| -> Vec<u32> {
                t.grad(n).unwrap().as_flat().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(bits(&ti, ni), bits(&tc, nc));
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in arb_matrix(3, 4),
        b in arb_matrix(4, 2),
        c in arb_matrix(4, 2),
    ) {
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.as_flat().iter().zip(rhs.as_flat()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_identities(a in arb_matrix(4, 3), b in arb_matrix(3, 5)) {
        // (AB)^T == B^T A^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_flat().iter().zip(rhs.as_flat()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        // t_matmul / matmul_t agree with explicit transposes.
        let tm = a.t_matmul(&a);
        let tm_ref = a.transpose().matmul(&a);
        for (x, y) in tm.as_flat().iter().zip(tm_ref.as_flat()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn relu_output_nonnegative_and_sparse_grad(a in arb_matrix(3, 5)) {
        let mut tape = Tape::new();
        let x = tape.input(a.clone());
        let y = tape.relu(x);
        prop_assert!(tape.value(y).as_flat().iter().all(|&v| v >= 0.0));
        let s = tape.mean_all(y);
        tape.backward(s);
        let g = tape.grad(x).unwrap();
        for (gv, &xv) in g.as_flat().iter().zip(a.as_flat()) {
            if xv < 0.0 {
                prop_assert_eq!(*gv, 0.0);
            }
        }
    }

    #[test]
    fn backward_is_linear_in_scale(a in arb_matrix(2, 3), s in 0.1f32..4.0) {
        // d(mean(s*x))/dx = s * d(mean(x))/dx
        let grad_of = |scale: f32| {
            let mut tape = Tape::new();
            let x = tape.input(a.clone());
            let y = tape.scale(x, scale);
            let m = tape.mean_all(y);
            tape.backward(m);
            tape.grad(x).unwrap().clone()
        };
        let g1 = grad_of(1.0);
        let gs = grad_of(s);
        for (x, y) in g1.as_flat().iter().zip(gs.as_flat()) {
            prop_assert!((x * s - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_cross_entropy_nonnegative(
        logits in arb_matrix(4, 3),
        labels in prop::collection::vec(0u32..3, 4),
    ) {
        let mut tape = Tape::new();
        let x = tape.input(logits);
        let l = tape.softmax_cross_entropy(x, std::sync::Arc::new(labels));
        prop_assert!(tape.value(l).get(0, 0) >= 0.0);
    }
}
