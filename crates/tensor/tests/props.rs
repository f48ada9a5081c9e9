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
use rand::SeedableRng;
use spp_tensor::tape::{AggMode, CsrAdj};
use spp_tensor::{Matrix, NodeId, Tape};
use std::sync::Arc;

fn arb_matrix(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f32..5.0, r * c).prop_map(move |data| Matrix::from_flat(r, c, data))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
