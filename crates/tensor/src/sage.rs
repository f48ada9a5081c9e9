//! The non-dense half of a GraphSAGE layer, as `spp_gnn::SageStep` runs
//! it: the neighbor mean over a sampled hop, reading its source rows
//! wherever a [`RowSource`] keeps them, its input gradient as a
//! row-parallel *gather* that fuses the producing layer's ReLU (and
//! dropout) mask into the row it writes, and inverted dropout over a
//! ReLU output that records, one byte per element, everything that
//! backward needs.
//!
//! Every row is computed independently of how the rows are split into
//! jobs, so values are bit-identical for any worker count, and each
//! element sums in the order of the plain serial loops: the forward in
//! neighbor-list order from `+0.0`, the gradient in target order
//! ([`SourceLists`]), the order a target-major scatter adds it.

use crate::matrix::{par_row_blocks_by, refit};
use crate::{Matrix, RowTable, RowView};
use rand::Rng;
use spp_pool::WorkerPool;
use std::ops::Range;

/// Columns of a gradient row that the gather accumulates at once, on
/// the stack: a row of any width is walked in blocks of this many, each
/// block summing over the row's whole target list.
const COL_BLOCK: usize = 64;

/// A sampled hop as a borrowed CSR over local indices: `num_targets`
/// aggregating rows, target `t` listing its sources at
/// `col[row_ptr[t]..row_ptr[t + 1]]`.
#[derive(Clone, Copy, Debug)]
pub struct HopView<'a> {
    num_targets: usize,
    row_ptr: &'a [usize],
    col: &'a [u32],
}

impl<'a> HopView<'a> {
    /// Borrows a hop's CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics unless `row_ptr` has `num_targets + 1` entries.
    pub fn new(num_targets: usize, row_ptr: &'a [usize], col: &'a [u32]) -> Self {
        assert_eq!(row_ptr.len(), num_targets + 1, "row_ptr length mismatch");
        Self {
            num_targets,
            row_ptr,
            col,
        }
    }

    /// Number of aggregating rows.
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// The local source indices target `t` aggregates, in list order.
    #[inline]
    pub fn neighbors(&self, t: usize) -> &'a [u32] {
        &self.col[self.row_ptr[t]..self.row_ptr[t + 1]] // spp-hot: allow(h2-panic): row_ptr bounds are the adjacency's CSR invariants
    }

    fn num_edges(&self) -> usize {
        self.row_ptr.last().copied().unwrap_or(0)
    }
}

/// A hop's edges grouped by source row: source `s`'s targets, in edge
/// order, duplicates included. Built by a stable counting sort into
/// buffers that are recycled from hop to hop.
#[derive(Clone, Debug, Default)]
pub struct SourceLists {
    /// `src_ptr[s]..src_ptr[s + 1]` indexes `targets` for source `s`.
    src_ptr: Vec<usize>,
    targets: Vec<u32>,
}

impl SourceLists {
    /// Refills the lists from `hop` over `rows` source rows (every
    /// listed source must be below `rows`).
    pub fn fill(&mut self, hop: HopView<'_>, rows: usize) {
        // Counts land two slots up, so after the prefix sum `ptr[s + 1]`
        // is where `s` starts; used as the fill cursor it ends where `s`
        // ends — where `s + 1` starts — leaving `ptr[..=rows]` the CSR.
        let src_ptr = &mut self.src_ptr;
        refit(src_ptr, rows + 2);
        src_ptr.fill(0);
        for t in 0..hop.num_targets {
            for &s in hop.neighbors(t) {
                src_ptr[s as usize + 2] += 1;
            }
        }
        for s in 2..rows + 2 {
            src_ptr[s] += src_ptr[s - 1];
        }
        let targets = &mut self.targets;
        refit(targets, src_ptr[rows + 1]);
        for t in 0..hop.num_targets {
            for &s in hop.neighbors(t) {
                let cursor = &mut src_ptr[s as usize + 1];
                targets[*cursor] = t as u32;
                *cursor += 1;
            }
        }
        src_ptr.truncate(rows + 1);
    }

    /// Source rows the lists cover.
    fn rows(&self) -> usize {
        self.src_ptr.len().saturating_sub(1)
    }

    /// The targets listing source `s`, in edge order.
    #[inline]
    fn of(&self, s: usize) -> &[u32] {
        &self.targets[self.src_ptr[s]..self.src_ptr[s + 1]]
    }
}

/// How a gradient row is finished before it is stored: what the layer
/// that produced the aggregated activation ended with.
#[derive(Clone, Copy, Debug)]
pub enum Mask<'a> {
    /// A ReLU: zero where the element being overwritten — the
    /// activation itself — is `≤ 0` (`-0.0` and NaN as `relu`'s
    /// backward treats them).
    Relu,
    /// A ReLU, then the inverted dropout `mask` recorded.
    Dropout(&'a DropMask),
}

/// What [`DropMask::apply`] recorded per element of a ReLU output.
const RELU_ZERO: u8 = 0;
const DROPPED: u8 = 1;
const KEPT: u8 = 2;

/// Inverted dropout over a ReLU output, applied in place, with one byte
/// per element of what its backward needs: whether the ReLU zeroed the
/// element's gradient, and else whether dropout did.
#[derive(Clone, Debug, Default)]
pub struct DropMask {
    states: Vec<u8>,
    /// `1 / (1 - p)`, a kept element's factor.
    scale: f32,
}

impl DropMask {
    /// Drops each element of `out` with probability `p` and scales the
    /// rest by `1/(1-p)`, drawing one `f32` per element in row-major
    /// order, and records each element's state.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p < 1`.
    pub fn apply<R: Rng>(&mut self, out: &mut Matrix, p: f32, rng: &mut R) {
        assert!((0.0..1.0).contains(&p), "dropout probability out of range");
        let keep = 1.0 - p;
        self.scale = 1.0 / keep;
        let values = out.as_flat_mut();
        refit(&mut self.states, values.len());
        for (a, state) in values.iter_mut().zip(&mut self.states) {
            let m = if rng.gen::<f32>() < keep {
                self.scale
            } else {
                0.0
            };
            *state = if *a <= 0.0 {
                RELU_ZERO
            } else if m == 0.0 {
                DROPPED
            } else {
                KEPT
            };
            *a *= m;
        }
    }
}

/// Rows a first layer reads: a [`Matrix`]'s, or rows kept elsewhere —
/// a [`RowTable`] of rows borrowed where they live, rows in place in a
/// larger matrix, or a store's encoded bytes — each element decoded as
/// it is read, by the neighbor mean ([`agg_into`]) and by a dense
/// product packing them ([`PackRows`]). Decoding must be a pure
/// function of the stored element and its row's codec, so every source
/// of the same values gives the same sums, bit for bit.
pub trait RowSource: Sync {
    /// One stored element.
    type Elem: Copy;
    /// What decodes a row's elements: `()` for self-describing ones,
    /// an `i8` row's codebook.
    type Codec: Copy;
    /// Number of rows.
    fn num_rows(&self) -> usize;
    /// Row width in elements.
    fn cols(&self) -> usize;
    /// Row `s`: its codec and its `cols` elements.
    fn row(&self, s: usize) -> (Self::Codec, &[Self::Elem]);
    /// The value of element `e` of a row whose codec is `c`.
    fn value(c: Self::Codec, e: Self::Elem) -> f32;

    /// The rows as a dense product's left operand: packed block by
    /// block as the kernel reads them, except a matrix's, which are
    /// read in place.
    fn lhs(&self) -> RowView<'_>
    where
        Self: Sized,
    {
        RowView::Rows(self)
    }
}

/// A [`RowSource`] as the dense kernels read it: a block of its rows
/// and columns, decoded and packed side by side. Every source is one,
/// so [`RowView::Rows`] takes any of them behind one pointer.
pub trait PackRows: Sync {
    /// Number of rows and row width.
    fn pack_shape(&self) -> (usize, usize);
    /// Columns `cols` of rows `rows`, decoded into `out` row-major,
    /// `cols.len()` wide.
    fn pack_rows(&self, rows: Range<usize>, cols: Range<usize>, out: &mut [f32]);
}

impl<S: RowSource> PackRows for S {
    fn pack_shape(&self) -> (usize, usize) {
        (self.num_rows(), self.cols())
    }

    fn pack_rows(&self, rows: Range<usize>, cols: Range<usize>, out: &mut [f32]) {
        if cols.is_empty() {
            return;
        }
        for (o, s) in out.chunks_exact_mut(cols.len()).zip(rows) {
            let (c, row) = self.row(s);
            for (o, &e) in o.iter_mut().zip(&row[cols.start..cols.end]) {
                *o = S::value(c, e);
            }
        }
    }
}

impl RowSource for Matrix {
    type Elem = f32;
    type Codec = ();

    fn num_rows(&self) -> usize {
        self.rows()
    }

    fn cols(&self) -> usize {
        Matrix::cols(self)
    }

    #[inline]
    fn row(&self, s: usize) -> ((), &[f32]) {
        ((), Matrix::row(self, s))
    }

    #[inline(always)]
    fn value((): (), e: f32) -> f32 {
        e
    }

    fn lhs(&self) -> RowView<'_> {
        RowView::Dense(self)
    }
}

impl RowSource for RowTable<'_> {
    type Elem = f32;
    type Codec = ();

    fn num_rows(&self) -> usize {
        self.len()
    }

    fn cols(&self) -> usize {
        RowTable::cols(self)
    }

    #[inline]
    fn row(&self, s: usize) -> ((), &[f32]) {
        ((), self.rows()[s])
    }

    #[inline(always)]
    fn value((): (), e: f32) -> f32 {
        e
    }
}

/// The neighbor mean into `out`, reshaped to `hop.num_targets() ×
/// x.cols()` ([`Matrix::recycle`]): row `t` is the mean of `x`'s rows
/// listed for `t`, a zero row when the list is empty. One row-parallel
/// region, its jobs cut by edge count; each element sums its neighbors
/// in list order from `+0.0`, then is multiplied by the reciprocal of
/// the degree.
///
/// # Panics
///
/// Panics if a listed source is not a row of `x`.
// spp-hot(sage.agg)
pub fn agg_into<S: RowSource>(pool: WorkerPool, x: &S, hop: HopView<'_>, out: &mut Matrix) {
    let d = x.cols();
    let rows = hop.num_targets();
    out.recycle(rows, d);
    let jobs = pool
        .jobs_for_cost((hop.num_edges() * d) as u64)
        .min(rows.max(1));
    let cum = |t: usize| hop.row_ptr.get(t).map_or(0, |&e| e as u64);
    par_row_blocks_by(pool, out.as_flat_mut(), d, jobs, cum, |t0, chunk| {
        agg_rows(x, hop, t0, chunk);
    });
}

/// Target rows `t0..` of [`agg_into`] into `chunk`, overwriting it. A
/// row adds its neighbors four per pass, `(((o + a) + b) + c) + d` per
/// element, and the last `len % 4` one per pass: the order of adding
/// them one by one (each `f32` add rounds alike in a register or in
/// memory), with four rows streaming at once. The first pass starts
/// from `+0.0` instead of reading the row (`+0.0 + a` turns `-0.0` into
/// `+0.0`, as a sum into a zeroed row would), so each row is written
/// once before its passes add into it.
fn agg_rows<S: RowSource>(x: &S, hop: HopView<'_>, t0: usize, chunk: &mut [f32]) {
    let d = x.cols();
    if d == 0 {
        return;
    }
    for (i, out) in chunk.chunks_exact_mut(d).enumerate() {
        let list = hop.neighbors(t0 + i);
        if list.is_empty() {
            out.fill(0.0);
            continue;
        }
        let (fours, rest) = list.as_chunks::<4>();
        let mut fresh = true;
        for &four in fours {
            add4(x, four, fresh, out);
            fresh = false;
        }
        for &s in rest {
            add1(x, s, fresh, out);
            fresh = false;
        }
        let inv = 1.0 / list.len() as f32;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }
}

/// `out = (((o + a) + b) + c) + d` per element over source rows `[a, b,
/// c, d]`, with `o = +0.0` when `fresh` and `out`'s value otherwise.
#[inline(always)]
fn add4<S: RowSource>(x: &S, [a, b, c, d]: [u32; 4], fresh: bool, out: &mut [f32]) {
    let (ca, ra) = x.row(a as usize);
    let (cb, rb) = x.row(b as usize);
    let (cc, rc) = x.row(c as usize);
    let (cd, rd) = x.row(d as usize);
    let v = S::value;
    let rows = out.iter_mut().zip(ra).zip(rb).zip(rc).zip(rd);
    if fresh {
        for ((((o, &a), &b), &c), &d) in rows {
            *o = (((0.0 + v(ca, a)) + v(cb, b)) + v(cc, c)) + v(cd, d);
        }
    } else {
        for ((((o, &a), &b), &c), &d) in rows {
            *o = (((*o + v(ca, a)) + v(cb, b)) + v(cc, c)) + v(cd, d);
        }
    }
}

/// `out = o + a` per element over source row `a`, `o` as in [`add4`].
#[inline(always)]
fn add1<S: RowSource>(x: &S, a: u32, fresh: bool, out: &mut [f32]) {
    let (ca, ra) = x.row(a as usize);
    if fresh {
        for (o, &a) in out.iter_mut().zip(ra) {
            *o = 0.0 + S::value(ca, a);
        }
    } else {
        for (o, &a) in out.iter_mut().zip(ra) {
            *o += S::value(ca, a);
        }
    }
}

/// The gradient of [`agg_into`]'s input, written into `out`, whose rows
/// are the source rows (`lists` filled for that many). Row `s` is
/// `Σ w_t · g[t]` over the targets listing `s` in `lists` order, `w_t`
/// the reciprocal of target `t`'s degree, multiply then add from `+0.0`
/// — as a target-major scatter into a zeroed buffer would — plus
/// `held`'s row `s` if `held` reaches that far (one `f32` add: a
/// second contribution to the same input, the self term's), then
/// finished by `mask`: `out` holds the activation, and each row reads
/// its own mask from it just before it is overwritten. Jobs are cut by
/// each source row's list length plus one.
///
/// # Panics
///
/// Panics if `g` and `out` differ in width, `lists` covers fewer rows
/// than `out`, or a dropout mask is smaller than `out`.
// spp-hot(sage.agg_grad)
pub fn agg_grad_into(
    pool: WorkerPool,
    hop: HopView<'_>,
    lists: &SourceLists,
    g: &Matrix,
    held: Option<&Matrix>,
    mask: Mask<'_>,
    out: &mut Matrix,
) {
    let (rows, d) = out.shape();
    assert_eq!(g.cols(), d, "gradient width mismatch");
    assert!(lists.rows() >= rows, "source lists cover too few rows");
    if let Mask::Dropout(m) = mask {
        assert!(m.states.len() >= rows * d, "dropout mask too small");
    }
    let held = held.map_or(&[][..], Matrix::as_flat);
    let cost = (lists.targets.len() + rows) * d;
    let jobs = pool.jobs_for_cost(cost as u64).min(rows.max(1));
    // A source row's work is its target list plus the `held` add.
    let cum = |s: usize| lists.src_ptr.get(s).map_or(0, |&e| (e + s) as u64);
    par_row_blocks_by(pool, out.as_flat_mut(), d, jobs, cum, |s0, chunk| {
        agg_grad_rows(hop, lists, g, held, mask, s0, chunk);
    });
}

/// Source rows `s0..` of [`agg_grad_into`] into `chunk`.
fn agg_grad_rows(
    hop: HopView<'_>,
    lists: &SourceLists,
    g: &Matrix,
    held: &[f32],
    mask: Mask<'_>,
    s0: usize,
    chunk: &mut [f32],
) {
    let d = g.cols();
    if d == 0 {
        return;
    }
    for (i, out) in chunk.chunks_exact_mut(d).enumerate() {
        let s = s0 + i;
        let held_row = held.get(s * d..(s + 1) * d);
        for j0 in (0..d).step_by(COL_BLOCK) {
            let j1 = (j0 + COL_BLOCK).min(d);
            let mut block = [0.0f32; COL_BLOCK];
            let acc = &mut block[..j1 - j0];
            for &t in lists.of(s) {
                let t = t as usize;
                let w = 1.0 / hop.neighbors(t).len() as f32;
                for (a, &gv) in acc.iter_mut().zip(&g.row(t)[j0..j1]) {
                    *a += w * gv;
                }
            }
            if let Some(h) = held_row {
                for (a, &hv) in acc.iter_mut().zip(&h[j0..j1]) {
                    *a += hv;
                }
            }
            let dst = &mut out[j0..j1];
            match mask {
                Mask::Relu => {
                    for (o, &a) in dst.iter_mut().zip(acc.iter()) {
                        *o = if *o <= 0.0 { 0.0 } else { a };
                    }
                }
                Mask::Dropout(m) => {
                    let states = &m.states[s * d + j0..s * d + j1];
                    for ((o, &a), &state) in dst.iter_mut().zip(acc.iter()).zip(states) {
                        *o = match state {
                            KEPT => a * m.scale,
                            DROPPED => a * 0.0,
                            _ => 0.0,
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_mean_matches_a_sum_into_zeros_over_a_stale_buffer() {
        // Target 0 averages two rows holding -0.0 (a sum from +0.0 gives
        // +0.0), target 1 has no neighbors, target 2 repeats a source.
        let x = Matrix::from_flat(3, 2, vec![-0.0, 1.5, -0.0, -2.0, 3.0, 0.25]);
        let (row_ptr, col) = ([0usize, 2, 2, 5], [0u32, 1, 2, 0, 2]);
        let hop = HopView::new(3, &row_ptr, &col);
        let mut out = Matrix::from_flat(3, 2, vec![f32::NAN; 6]);
        for workers in [1, 2] {
            agg_into(WorkerPool::new(workers), &x, hop, &mut out);
            let mut expect = Vec::new();
            for t in 0..3 {
                let n = hop.neighbors(t);
                for j in 0..2 {
                    let sum = n.iter().fold(0.0f32, |a, &s| a + x.get(s as usize, j));
                    let inv = if n.is_empty() {
                        1.0
                    } else {
                        1.0 / n.len() as f32
                    };
                    expect.push(sum * inv);
                }
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(out.as_flat()), bits(&expect), "workers={workers}");
            assert_eq!(out.get(0, 0).to_bits(), 0.0f32.to_bits());
        }
    }
}
