//! Property-based tests for the dense and sparse tensor kernels.

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
use spp_graph::{quant, QuantScheme};
use spp_pool::WorkerPool;
use spp_tensor::sage::{self, DropMask, HopView, Mask, RowSource, SourceLists};
use spp_tensor::{Matrix, RowTable, RowView};

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

/// `a · b` into a fresh matrix.
fn mm(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::empty();
    a.matmul_into(WorkerPool::serial(), b, &mut out);
    out
}

/// The materialized transpose: the reference `t_matmul_into` is checked
/// against.
fn transpose(a: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            t.set(j, i, a.get(i, j));
        }
    }
    t
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

/// Runs `case` on `pool` — fused through [`Matrix::linear_into`] into a
/// dirty scratch, or as the `head_rows → matmul → add → bias → relu`
/// chain of whole-matrix passes it replaces — and returns the output's
/// bits.
fn linear_vs_chain(case: &LinearCase, pool: WorkerPool, fused: bool) -> Vec<u32> {
    let LinearCase {
        rows, n, nan, seed, ..
    } = *case;
    let mut operands: Vec<(Matrix, Matrix)> = Vec::new();
    for (i, &(extra, k)) in case.terms.iter().enumerate() {
        let k = if case.shared_x { case.terms[0].1 } else { k };
        let x = match operands.first() {
            Some((x0, _)) if case.shared_x => x0.clone(),
            _ => awkward(rows + extra, k, seed ^ (2 * i as u64), nan),
        };
        operands.push((x, awkward(k, n, seed ^ (2 * i as u64 + 1), nan)));
    }
    let bias = case.bias.then(|| awkward(1, n, seed ^ 99, nan));
    if fused {
        let terms: Vec<_> = operands
            .iter()
            .map(|(x, w)| (RowView::Dense(x), w))
            .collect();
        let mut out = awkward(2, 3, seed ^ 5, true);
        Matrix::linear_into(pool, rows, &terms, bias.as_ref(), case.relu, &mut out);
        return bits(&out);
    }
    let mut sum: Option<Matrix> = None;
    for (x, w) in &operands {
        let mut p = Matrix::empty();
        x.head_rows(rows).matmul_into(pool, w, &mut p);
        match &mut sum {
            Some(s) => s.add_assign(&p),
            None => sum = Some(p),
        }
    }
    let mut y = sum.unwrap();
    if let Some(b) = &bias {
        for r in 0..rows {
            let row = y.row_mut(r);
            row.iter_mut().zip(b.row(0)).for_each(|(o, &b)| *o += b);
        }
    }
    if case.relu {
        y.as_flat_mut()
            .iter_mut()
            .filter(|v| **v < 0.0)
            .for_each(|v| *v = 0.0);
    }
    bits(&y)
}

/// A random hop as `(row_ptr, col)`: per target a neighbor list that
/// may be empty and may repeat a source, ids below 7/8 of `sources`, so
/// the tail sources have no in-edge.
fn random_hop(
    targets: usize,
    sources: usize,
    max_deg: usize,
    rng: &mut StdRng,
) -> (Vec<usize>, Vec<u32>) {
    let mut row_ptr = vec![0usize];
    let mut col = Vec::new();
    for _ in 0..targets {
        for _ in 0..rng.gen_range(0..=max_deg) {
            col.push(rng.gen_range(0..(sources - sources / 8) as u32));
        }
        row_ptr.push(col.len());
    }
    (row_ptr, col)
}

/// The serial loops the neighbor mean and its gradient replaced, kept
/// as the reference: the per-target forward, and the backward that
/// zero-fills a source-shaped buffer and scatters `w · g[t]` into it,
/// target by target, with `w` the reciprocal of `t`'s degree.
fn agg_reference(x: &Matrix, g: &Matrix, hop: HopView<'_>) -> (Matrix, Matrix) {
    let d = x.cols();
    let mut fwd = Matrix::zeros(hop.num_targets(), d);
    let mut gx = Matrix::zeros(x.rows(), d);
    for t in 0..hop.num_targets() {
        let nbrs = hop.neighbors(t);
        if nbrs.is_empty() {
            continue;
        }
        let w = 1.0 / nbrs.len() as f32;
        for &s in nbrs {
            for j in 0..d {
                fwd.set(t, j, fwd.get(t, j) + x.get(s as usize, j));
                gx.set(s as usize, j, gx.get(s as usize, j) + w * g.get(t, j));
            }
        }
        fwd.row_mut(t).iter_mut().for_each(|o| *o *= w);
    }
    (fwd, gx)
}

/// [`sage::agg_into`] and [`sage::agg_grad_into`] on `pool` against
/// [`agg_reference`], bit for bit, both into dirty buffers. `held` adds
/// a target-prefix contribution after the gathered sum (a layer's self
/// term); the gradient is masked by a ReLU activation with zeros of
/// both signs, negatives and NaNs, after inverted dropout when
/// `dropped`.
fn check_sparse_agg(
    (targets, sources, d, max_deg): (usize, usize, usize, usize),
    (held, dropped): (bool, bool),
    pool: WorkerPool,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (row_ptr, col) = random_hop(targets, sources, max_deg, &mut rng);
    let hop = HopView::new(targets, &row_ptr, &col);
    let x = awkward(sources, d, seed ^ 1, false);
    let g = awkward(targets, d, seed ^ 2, false);
    let prefix = held.then(|| awkward(targets, d, seed ^ 3, false));

    let mut agg = awkward(1, 1, seed, true);
    sage::agg_into(pool, &x, hop, &mut agg);
    let (fwd, mut want) = agg_reference(&x, &g, hop);
    assert_eq!(bits(&agg), bits(&fwd), "forward");

    if let Some(h) = &prefix {
        let rows = &mut want.as_flat_mut()[..targets * d];
        rows.iter_mut().zip(h.as_flat()).for_each(|(a, &b)| *a += b);
    }
    // Dropout's factor, then the ReLU mask read off the activation.
    let (p, act) = (0.3f32, awkward(sources, d, seed ^ 4, true));
    let keep = 1.0 - p;
    let mut draws = StdRng::seed_from_u64(seed ^ 5);
    for (w, &a) in want.as_flat_mut().iter_mut().zip(act.as_flat()) {
        if dropped {
            *w *= if draws.gen::<f32>() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        if a <= 0.0 {
            *w = 0.0;
        }
    }
    let mut out = act;
    let mut drop = DropMask::default();
    if dropped {
        drop.apply(&mut out, p, &mut StdRng::seed_from_u64(seed ^ 5));
    }
    let mut lists = SourceLists::default();
    lists.fill(hop, sources);
    let mask = if dropped {
        Mask::Dropout(&drop)
    } else {
        Mask::Relu
    };
    sage::agg_grad_into(pool, hop, &lists, &g, prefix.as_ref(), mask, &mut out);
    assert_eq!(bits(&out), bits(&want), "input gradient");
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
        check_sparse_agg((1500, 4003, 150, 20), (true, true), pool, 5);
    }
}

/// `f16` rows as `spp_graph::quant` stores them, each element decoded
/// as it is read: a store's encoded rows as a step reads them.
struct F16Rows {
    dim: usize,
    bytes: Vec<u8>,
}

impl RowSource for F16Rows {
    type Elem = [u8; 2];
    type Codec = ();

    fn num_rows(&self) -> usize {
        self.bytes.len() / (2 * self.dim)
    }

    fn cols(&self) -> usize {
        self.dim
    }

    fn row(&self, s: usize) -> ((), &[[u8; 2]]) {
        let b = 2 * self.dim;
        ((), self.bytes[s * b..(s + 1) * b].as_chunks().0)
    }

    fn value((): (), e: [u8; 2]) -> f32 {
        quant::f16_bits_to_f32(u16::from_le_bytes(e))
    }
}

/// `i8` rows as `spp_graph::quant` stores them, each element decoded
/// through its row's codebook as it is read.
struct I8Rows {
    dim: usize,
    bytes: Vec<u8>,
}

impl RowSource for I8Rows {
    type Elem = u8;
    type Codec = (f32, f32);

    fn num_rows(&self) -> usize {
        self.bytes.len() / QuantScheme::I8.row_bytes(self.dim)
    }

    fn cols(&self) -> usize {
        self.dim
    }

    fn row(&self, s: usize) -> ((f32, f32), &[u8]) {
        let b = QuantScheme::I8.row_bytes(self.dim);
        quant::i8_row(&self.bytes[s * b..(s + 1) * b])
    }

    fn value((lo, scale): (f32, f32), e: u8) -> f32 {
        quant::i8_value(e, lo, scale)
    }
}

/// `m`'s rows encoded under `scheme`, and the matrix they decode to.
fn encoded(m: &Matrix, scheme: QuantScheme) -> (Vec<u8>, Matrix) {
    let b = scheme.row_bytes(m.cols());
    let mut bytes = vec![0u8; m.rows() * b];
    let mut decoded = Matrix::zeros(m.rows(), m.cols());
    for (r, row) in bytes.chunks_exact_mut(b).enumerate() {
        quant::encode_row(scheme, m.row(r), row);
        quant::decode_row(scheme, row, decoded.row_mut(r));
    }
    (bytes, decoded)
}

/// Checks that [`Matrix::linear_into`] and
/// [`RowView::head_t_matmul_into`] over rows packed from a source that
/// is no matrix give the bits they give over the same values in one
/// contiguous matrix, on every pool: the self term of a first layer
/// whose input rows stay where they live. The sources are a
/// [`RowTable`] of a shuffled matrix's rows and those rows stored as
/// `f16` and as `i8` bytes, each against the matrix its rows decode
/// to. The sources have `extra` rows past the `rows` both products
/// read; `k` and `n` off the tile grid make the ragged tile edges.
/// With `nan`, the rows and the weights hold NaNs too; a tall product's
/// every output then sums one, so only small shapes are told apart.
fn check_row_table(rows: usize, extra: usize, k: usize, n: usize, seed: u64, nan: bool) {
    let source = awkward(2 * (rows + extra) + 3, k, seed, nan);
    let mut order: Vec<usize> = (0..source.rows()).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 7);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order.truncate(rows + extra);
    let table: Vec<&[f32]> = order.iter().map(|&r| source.row(r)).collect();
    let mut dense = Matrix::zeros(order.len(), k);
    for (i, row) in table.iter().enumerate() {
        dense.row_mut(i).copy_from_slice(row);
    }
    let check = |packed: RowView<'_>, dense: &Matrix| {
        check_packed(packed, dense, rows, n, seed, nan);
    };
    check(RowView::Rows(&RowTable::new(k, &table)), &dense);
    let (bytes, decoded) = encoded(&dense, QuantScheme::F16);
    check(RowView::Rows(&F16Rows { dim: k, bytes }), &decoded);
    let (bytes, decoded) = encoded(&dense, QuantScheme::I8);
    check(RowView::Rows(&I8Rows { dim: k, bytes }), &decoded);
}

/// [`check_row_table`]'s comparison of `packed` against `dense`, which
/// holds the values `packed`'s rows decode to.
fn check_packed(packed: RowView<'_>, dense: &Matrix, rows: usize, n: usize, seed: u64, nan: bool) {
    let k = dense.cols();
    let w = awkward(k, n, seed ^ 1, nan);
    let (neigh, w_neigh) = (
        awkward(rows, 9, seed ^ 2, false),
        awkward(9, n, seed ^ 3, false),
    );
    let bias = awkward(1, n, seed ^ 4, false);
    let g = awkward(rows, n, seed ^ 5, nan);
    for workers in POOLS {
        let pool = WorkerPool::new(workers);
        let mut want = Matrix::empty();
        let mut got = awkward(3, 2, seed ^ 6, true);
        for relu in [false, true] {
            let linear = |x: RowView<'_>, out: &mut Matrix| {
                let terms = [(x, &w), (RowView::Dense(&neigh), &w_neigh)];
                Matrix::linear_into(pool, rows, &terms, Some(&bias), relu, out);
            };
            linear(RowView::Dense(dense), &mut want);
            linear(packed, &mut got);
            assert_eq!(bits(&got), bits(&want), "linear, workers={workers}");
        }
        RowView::Dense(dense).head_t_matmul_into(pool, &g, &mut want);
        packed.head_t_matmul_into(pool, &g, &mut got);
        assert_eq!(bits(&got), bits(&want), "head_t_matmul, workers={workers}");
    }
}

/// Shapes big enough that both products fork into several jobs.
#[test]
fn row_table_operands_are_bit_identical_to_contiguous_ones() {
    for nan in [false, true] {
        check_row_table(1203, 40, 70, 45, 3, nan);
        check_row_table(901, 0, 33, 17, 4, nan);
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
    fn row_table_is_the_contiguous_operand_bit_for_bit(
        rows in 1usize..14,
        extra in 0usize..4,
        k in 1usize..20,
        n in 1usize..22,
        seed in any::<u64>(),
        nan in any::<bool>(),
    ) {
        check_row_table(rows, extra, k, n, seed, nan);
    }

    #[test]
    fn sparse_agg_is_the_serial_scatter_bit_for_bit(
        targets in 1usize..9,
        extra_sources in 0usize..9,
        d in 1usize..12,
        max_deg in 0usize..16,
        flags in 0u8..4,
        seed in any::<u64>(),
    ) {
        let (held, dropped) = (flags & 1 != 0, flags & 2 != 0);
        // `random_hop` keeps ids below 7/8 of the sources: ≥ 8 of them
        // leave at least one source without an in-edge.
        let shape = (targets, targets + 8 + extra_sources, d, max_deg);
        for workers in POOLS {
            let pool = WorkerPool::new(workers);
            check_sparse_agg(shape, (held, dropped), pool, seed);
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
        let lhs = mm(&a, &bc);
        let mut rhs = mm(&a, &b);
        rhs.add_assign(&mm(&a, &c));
        for (x, y) in lhs.as_flat().iter().zip(rhs.as_flat()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_identities(a in arb_matrix(4, 3), b in arb_matrix(3, 5)) {
        // (AB)^T == B^T A^T
        let lhs = transpose(&mm(&a, &b));
        let rhs = mm(&transpose(&b), &transpose(&a));
        for (x, y) in lhs.as_flat().iter().zip(rhs.as_flat()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        // t_matmul agrees with an explicit transpose.
        let mut tm = Matrix::empty();
        a.t_matmul_into(WorkerPool::serial(), &a, &mut tm);
        let tm_ref = mm(&transpose(&a), &a);
        for (x, y) in tm.as_flat().iter().zip(tm_ref.as_flat()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn relu_output_nonnegative_and_sparse_grad(
        a in arb_matrix(3, 5),
        g in arb_matrix(3, 5),
    ) {
        // `relu(a·I)` through the fused map, then a gradient gathered
        // over the identity hop and masked by that output.
        let pool = WorkerPool::serial();
        let mut eye = Matrix::zeros(5, 5);
        (0..5).for_each(|i| eye.set(i, i, 1.0));
        let mut y = Matrix::empty();
        Matrix::linear_into(pool, 3, &[(RowView::Dense(&a), &eye)], None, true, &mut y);
        prop_assert!(y.as_flat().iter().all(|&v| v >= 0.0));
        let (row_ptr, col) = ([0usize, 1, 2, 3], [0u32, 1, 2]);
        let hop = HopView::new(3, &row_ptr, &col);
        let mut lists = SourceLists::default();
        lists.fill(hop, 3);
        sage::agg_grad_into(pool, hop, &lists, &g, None, Mask::Relu, &mut y);
        for ((&gy, &gv), &av) in y.as_flat().iter().zip(g.as_flat()).zip(a.as_flat()) {
            prop_assert_eq!(gy, if av <= 0.0 { 0.0 } else { gv });
        }
    }
}
