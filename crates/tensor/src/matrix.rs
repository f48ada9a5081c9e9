//! Row-major dense `f32` matrices and their raw (non-autograd) kernels.
//!
//! Large products run on the workspace worker pool
//! ([`spp_pool::WorkerPool`]): the output is split into row blocks whose
//! boundaries depend only on the shapes (never on timing), each block is
//! computed by the same serial kernel, and blocks land in disjoint
//! regions of the output buffer — so results are bit-identical to the
//! serial kernels for any worker count. Whether a product parallelizes
//! at all is decided by the pool's single sizing policy
//! (`jobs_for_cost`), not per-call-site thresholds.

use crate::kernels;
use crate::sage::PackRows;
use spp_pool::{balanced_ends, WorkerPool};

/// A row-major dense `f32` matrix.
///
/// # Example
///
/// ```
/// use spp_tensor::Matrix;
///
/// use spp_pool::WorkerPool;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// let mut c = Matrix::empty();
/// a.matmul_into(WorkerPool::serial(), &b, &mut c);
/// assert_eq!(c, a);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            // spp-hot: alloc(fresh output buffer; hot callers reuse one via the *_into kernels)
            data: vec![0.0; rows * cols],
        }
    }

    /// A 0×0 matrix whose buffer is never allocated (also its
    /// `Default`): the scratch a `*_into` kernel's first call sizes, so
    /// the single allocation happens at the final size (a `Vec::new`
    /// never touches the heap).
    pub fn empty() -> Self {
        Self {
            rows: 0,
            cols: 0,
            data: Vec::new(), // spp-hot: alloc(capacity-0 Vec::new never touches the heap; pinned by tests/alloc_count.rs)
        }
    }

    /// Reshapes `self` to `rows x cols` and zero-fills, reusing the
    /// existing buffer. Allocation-free once the buffer has grown to
    /// the steady-state shape (`resize` only allocates on growth), so
    /// per-batch kernels that route through the `*_into` variants stop
    /// paying one heap allocation per call.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes `self` to `rows × cols` for a caller that overwrites
    /// every element it reads, by [`refit`]: a buffer whose capacity
    /// fits keeps whatever it held (nothing is cleared or refilled), and
    /// one too small is freed before a zeroed one of exactly `rows ×
    /// cols` replaces it. The `*_into` kernels size their output so.
    pub fn recycle(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        refit(&mut self.data, rows * cols);
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// The flat row-major buffer.
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn as_flat_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer (the inverse
    /// of [`Matrix::from_flat`]) so callers can recycle the storage.
    pub fn into_flat(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self @ other` into a caller-provided scratch
    /// matrix (allocation-free once its buffer has grown): the one-term
    /// case of [`Matrix::linear_into`], bit-identical to the serial
    /// kernel for any worker count.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    // spp-hot(tensor.matmul)
    pub fn matmul_into(&self, pool: WorkerPool, other: &Matrix, out: &mut Matrix) {
        Matrix::linear_into(
            pool,
            self.rows,
            &[(RowView::Dense(self), other)],
            None,
            false,
            out,
        );
    }

    /// The fused affine map `act(Σᵢ xᵢ[..rows] · wᵢ + bias)` over
    /// `terms = [(xᵢ, wᵢ), …]` into `out`: each `xᵢ` contributes its
    /// first `rows` rows, read where they live ([`RowView`]), `bias` is
    /// `1 × n`, `act` is ReLU when `relu` is set and the identity
    /// otherwise. One row-parallel region writes the output once
    /// ([`kernels::linear_rows`]); the result is bit-identical to
    /// `matmul`, element-wise sum left to right, bias add and clamp as
    /// separate whole-matrix passes, for any worker count and whether
    /// an `xᵢ` is a matrix or rows packed from another source.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty, an `xᵢ` has fewer than `rows` rows or
    /// its width differs from `wᵢ`'s height, the `wᵢ` widths differ, or
    /// `bias` is not `1 × n`.
    // spp-hot(tensor.linear)
    pub fn linear_into(
        pool: WorkerPool,
        rows: usize,
        terms: &[(RowView<'_>, &Matrix)],
        bias: Option<&Matrix>,
        relu: bool,
        out: &mut Matrix,
    ) {
        assert!(!terms.is_empty(), "linear needs at least one term");
        let n = terms[0].1.cols;
        let mut flops = 0u64;
        for (x, w) in terms {
            assert!(x.rows() >= rows, "linear operand has too few rows");
            assert_eq!(x.cols(), w.rows, "matmul dimension mismatch");
            assert_eq!(w.cols, n, "linear term widths differ");
            flops += (rows * x.cols() * n) as u64;
        }
        if let Some(b) = bias {
            assert_eq!(b.shape(), (1, n), "bias shape mismatch");
        }
        out.recycle(rows, n);
        let bias = bias.map(|b| &b.data[..]);
        let jobs = pool.jobs_for_cost(flops).min(rows.max(1));
        // Each block is whole output rows; it reads the same rows of
        // every operand.
        par_row_blocks(pool, &mut out.data, n, jobs, |r0, chunk| {
            kernels::linear_rows(terms, bias, relu, n, r0, chunk);
        });
    }

    /// `selfᵀ @ other` into a caller-provided scratch matrix, without
    /// materializing the transpose ([`RowView::head_t_matmul_into`] over
    /// all of `self`).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    // spp-hot(tensor.t_matmul)
    pub fn t_matmul_into(&self, pool: WorkerPool, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        RowView::Dense(self).head_t_matmul_into(pool, other, out);
    }

    /// `self @ otherᵀ` into a caller-provided scratch matrix, without
    /// materializing the transpose; output rows are independent dot
    /// products, so any row split is bit-identical to the serial loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    // spp-hot(tensor.matmul_t)
    pub fn matmul_t_into(&self, pool: WorkerPool, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        out.recycle(self.rows, other.rows);
        if out.data.is_empty() {
            return;
        }
        let flops = (self.rows * self.cols * other.rows) as u64;
        let jobs = pool.jobs_for_cost(flops).min(self.rows.max(1));
        let out_cols = other.rows;
        par_row_blocks(pool, &mut out.data, out_cols, jobs, |i0, chunk| {
            let rows = chunk.len() / out_cols;
            let a_rows = &self.data[i0 * self.cols..(i0 + rows) * self.cols];
            kernels::matmul_t_rows_dense(a_rows, self.cols, &other.data, other.rows, chunk);
        });
    }

    /// Column sums into `out`, reshaped to `1 × cols`: element `j` is
    /// `Σ_r self[r][j]` over the rows ascending from `+0.0` (a bias row's
    /// gradient). Split by columns, so any worker count is bit-identical.
    pub fn col_sums_into(&self, pool: WorkerPool, out: &mut Matrix) {
        out.recycle(1, self.cols);
        if self.cols == 0 {
            return;
        }
        let jobs = pool.jobs_for_cost(self.data.len() as u64).min(self.cols);
        par_row_blocks(pool, &mut out.data, 1, jobs, |j0, sums| {
            sums.fill(0.0);
            for row in self.data.chunks_exact(self.cols) {
                for (s, &v) in sums.iter_mut().zip(&row[j0..]) {
                    *s += v;
                }
            }
        });
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale by a constant.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Returns the first `n` rows as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n > rows`.
    pub fn head_rows(&self, n: usize) -> Matrix {
        assert!(n <= self.rows, "head_rows out of range");
        Matrix::from_flat(n, self.cols, self.data[..n * self.cols].to_vec())
    }
}

/// The left operand of [`Matrix::linear_into`] and
/// [`RowView::head_t_matmul_into`]: a row-major matrix, read in place,
/// or any other [`RowSource`](crate::sage::RowSource)'s rows, which the
/// kernels decode and pack a block at a time as they reach them
/// ([`PackRows`]). A packed block is laid out as the matrix is, so each
/// element sums the same products in the same order either way, bit
/// for bit.
#[derive(Clone, Copy)]
pub enum RowView<'a> {
    /// A row-major matrix's rows.
    Dense(&'a Matrix),
    /// Rows kept anywhere else, packed as they are read.
    Rows(&'a dyn PackRows),
}

impl RowView<'_> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            RowView::Dense(m) => m.rows,
            RowView::Rows(s) => s.pack_shape().0,
        }
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        match self {
            RowView::Dense(m) => m.cols,
            RowView::Rows(s) => s.pack_shape().1,
        }
    }

    /// `self[..other.rows]ᵀ @ other` into a caller-provided scratch
    /// matrix, without materializing the transpose or copying the rows
    /// out (a layer's weight gradient against its own-features term).
    /// Every output element `out[k][j] = Σ_r self[r][k]·other[r][j]`
    /// accumulates over `r` ascending, and jobs split the output by
    /// rows, so any worker count and either view is bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `self` has fewer rows than `other`.
    pub fn head_t_matmul_into(self, pool: WorkerPool, other: &Matrix, out: &mut Matrix) {
        let rows = other.rows;
        assert!(self.rows() >= rows, "t_matmul dimension mismatch");
        let (k, b, n) = (self.cols(), &other.data[..], other.cols);
        out.recycle(k, n);
        let flops = (rows * k * n) as u64;
        let jobs = pool.jobs_for_cost(flops).min(k.max(1));
        // Serial and parallel paths run the same kernel over column
        // ranges of `self`, so any worker count is bit-identical.
        par_row_blocks(pool, &mut out.data, n, jobs, |k0, chunk| match self {
            RowView::Dense(m) => {
                let a = &m.data[..rows * k];
                kernels::t_matmul_cols_dense(a, k, b, n, rows, k0, chunk);
            }
            RowView::Rows(s) => kernels::t_matmul_cols_packed(s, rows, b, n, k0, chunk),
        });
    }
}

/// Borrowed `f32` rows of one width, in the order a product reads
/// them: a batch's input rows read where each tier keeps them.
#[derive(Clone, Copy, Debug)]
pub struct RowTable<'a> {
    cols: usize,
    rows: &'a [&'a [f32]],
}

impl<'a> RowTable<'a> {
    /// A table of `rows`, each `cols` wide.
    ///
    /// # Panics
    ///
    /// Panics if a row is not `cols` wide.
    pub fn new(cols: usize, rows: &'a [&'a [f32]]) -> Self {
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row table entry {i} has the wrong width");
        }
        Self { cols, rows }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The rows.
    pub fn rows(&self) -> &'a [&'a [f32]] {
        self.rows
    }
}

/// Resizes `buf`, a reused buffer, to `len` elements
/// for a caller that overwrites every element it reads. One whose
/// capacity fits keeps its allocation and whatever it held. One too
/// small is freed first and replaced by `len` zeroed elements exactly
/// (the allocator's zeroed pages where it has them): nothing is copied,
/// and the two never coexist, as they would while a `Vec` growing in
/// place copies into a new block: for a layer's activation, a
/// transient as large as the buffer itself.
pub fn refit<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.capacity() < len {
        drop(std::mem::take(buf));
        *buf = vec![T::default(); len]; // spp-hot: alloc(fresh output buffer; hot callers reuse one via the *_into kernels)
    } else {
        buf.resize(len, T::default()); // spp-hot: alloc(never reallocates: capacity checked on the line above)
    }
}

/// Runs `f(first_row, block)` over `jobs` even blocks of whole rows of
/// `data` (rows `width` wide) as one region on `pool`, or once over all
/// of it on the caller when `jobs ≤ 1`: [`par_row_blocks_by`] with every
/// row costing the same.
pub(crate) fn par_row_blocks(
    pool: WorkerPool,
    data: &mut [f32],
    width: usize,
    jobs: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    par_row_blocks_by(pool, data, width, jobs, |i| i as u64, f);
}

/// [`par_row_blocks`] with the cuts placed by cost: `cum(i)` is the cost
/// of rows `..i` ([`spp_pool::balanced_ranges`]), so rows whose work
/// varies — a sparse row's edge count — still give each job an even
/// share. Blocks
/// are a pure function of the input and the job count, and every kernel
/// that runs here writes each row independently of the split, so the
/// result is the same for any worker count.
pub(crate) fn par_row_blocks_by(
    pool: WorkerPool,
    data: &mut [f32],
    width: usize,
    jobs: usize,
    cum: impl Fn(usize) -> u64,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let rows = data.len().checked_div(width).unwrap_or(0);
    if jobs <= 1 || rows <= 1 {
        f(0, data);
        return;
    }
    let cuts: Vec<usize> = balanced_ends(rows, jobs, cum)
        .map(|end| end * width)
        .collect(); // spp-hot: alloc(job-cut table, one word per job; bounded by pool width)
    pool.par_chunks(data, &cuts, |_, offset, chunk| f(offset / width, chunk));
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix {}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `a · b` on `pool`, into a fresh matrix.
    fn mm(pool: WorkerPool, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        a.matmul_into(pool, b, &mut out);
        out
    }

    /// `aᵀ · b` on `pool`, into a fresh matrix.
    fn tmm(pool: WorkerPool, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        a.t_matmul_into(pool, b, &mut out);
        out
    }

    /// `a · bᵀ` on `pool`, into a fresh matrix.
    fn mmt(pool: WorkerPool, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        a.matmul_t_into(pool, b, &mut out);
        out
    }

    /// The materialized transpose: the reference the transpose-free
    /// products are checked against.
    fn transpose(a: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(a.cols, a.rows);
        for i in 0..a.rows {
            for j in 0..a.cols {
                t.set(j, i, a.get(i, j));
            }
        }
        t
    }

    fn eye(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        (0..n).for_each(|i| m.set(i, i, 1.0));
        m
    }

    #[test]
    fn row_blocks_are_cut_by_cost() {
        // Row 0 costs as much as the other 99 together: two jobs split
        // after it, not at the middle row.
        let mut data = vec![0.0f32; 100 * 3];
        let cum = |i: usize| if i == 0 { 0 } else { 98 + i as u64 };
        let firsts = std::sync::Mutex::new(Vec::new());
        par_row_blocks_by(WorkerPool::new(2), &mut data, 3, 2, cum, |r0, chunk| {
            firsts.lock().unwrap().push((r0, chunk.len() / 3));
        });
        let mut firsts = firsts.into_inner().unwrap();
        firsts.sort_unstable();
        assert_eq!(firsts, [(0, 1), (1, 99)]);
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        // Big enough to cross the pool's per-job cost threshold.
        let r = 1200usize;
        let k = 96usize;
        let c = 96usize;
        let a = Matrix::from_flat(r, k, (0..r * k).map(|i| (i % 13) as f32 - 6.0).collect());
        let b = Matrix::from_flat(k, c, (0..k * c).map(|i| (i % 7) as f32 - 3.0).collect());
        let serial = mm(WorkerPool::serial(), &a, &b);
        for workers in [1usize, 2, 8] {
            let par = mm(WorkerPool::new(workers), &a, &b);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_never_allocates_and_resets_to_shape() {
        let m = Matrix::empty();
        assert_eq!(m.shape(), (0, 0));
        assert_eq!(m.data.capacity(), 0);
        let mut m = Matrix::empty();
        m.reset(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_flat().iter().all(|&x| x == 0.0));
    }

    /// Non-trivially-rounding values (1/3 scaled) so any change in
    /// accumulation order would show up at the bit level.
    fn fractious(rows: usize, cols: usize, salt: u32) -> Matrix {
        Matrix::from_flat(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| {
                    ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) % 97) as f32 / 3.0
                        - 16.0
                })
                .collect(),
        )
    }

    #[test]
    fn t_matmul_bit_identical_across_pools() {
        let a = fractious(600, 70, 1);
        let b = fractious(600, 50, 2);
        let serial = tmm(WorkerPool::serial(), &a, &b);
        for workers in [2usize, 8] {
            assert_eq!(
                tmm(WorkerPool::new(workers), &a, &b),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn matmul_t_bit_identical_across_pools() {
        let a = fractious(400, 90, 3);
        let b = fractious(320, 90, 4);
        let mut serial = Matrix::empty();
        a.matmul_t_into(WorkerPool::serial(), &b, &mut serial);
        for workers in [2usize, 8] {
            let mut out = Matrix::empty();
            a.matmul_t_into(WorkerPool::new(workers), &b, &mut out);
            assert_eq!(out, serial, "workers={workers}");
        }
    }

    #[test]
    fn into_variants_reuse_scratch_bit_identically() {
        let a = fractious(600, 70, 6);
        let b = fractious(70, 50, 7);
        let c = fractious(600, 50, 8);
        let d = fractious(320, 70, 9);
        let pool = WorkerPool::new(4);
        let mut scratch = Matrix::zeros(1, 1);
        // Run each kernel twice through the same scratch: the second
        // pass must be bit-identical to a fresh output even though the
        // buffer is dirty from the first.
        for _ in 0..2 {
            a.matmul_into(pool, &b, &mut scratch);
            assert_eq!(scratch, mm(pool, &a, &b));
            a.t_matmul_into(pool, &c, &mut scratch);
            assert_eq!(scratch, tmm(pool, &a, &c));
            a.matmul_t_into(pool, &d, &mut scratch);
            assert_eq!(scratch, mmt(pool, &a, &d));
        }
    }

    #[test]
    fn empty_sums_are_zeros_even_into_a_dirty_scratch() {
        // The `*_into` kernels no longer clear their output first, so the
        // shapes no tile writes must be zeroed by the kernels themselves.
        let pool = WorkerPool::new(2);
        let mut dirty = fractious(4, 6, 1);
        Matrix::zeros(4, 0).matmul_into(pool, &Matrix::zeros(0, 6), &mut dirty);
        assert_eq!(dirty, Matrix::zeros(4, 6));
        let mut dirty = fractious(4, 6, 2);
        Matrix::zeros(0, 4).t_matmul_into(pool, &Matrix::zeros(0, 6), &mut dirty);
        assert_eq!(dirty, Matrix::zeros(4, 6));
        let mut dirty = fractious(4, 6, 3);
        Matrix::zeros(4, 0).matmul_t_into(pool, &Matrix::zeros(6, 0), &mut dirty);
        assert_eq!(dirty, Matrix::zeros(4, 6));
    }

    #[test]
    fn linear_matches_separate_passes_on_every_pool() {
        // Big enough to split eight ways; 1203 rows and 100 columns keep
        // job seams off the tile grid, and the operands are taller than
        // the output (only their first 1203 rows are read).
        let (rows, n) = (1203usize, 100usize);
        let x0 = fractious(rows + 50, 70, 1);
        let x1 = fractious(rows + 7, 33, 2);
        let w0 = fractious(70, n, 3);
        let w1 = fractious(33, n, 4);
        let bias = fractious(1, n, 5);
        let serial = WorkerPool::serial();
        let mut want = mm(serial, &x0.head_rows(rows), &w0);
        want.add_assign(&mm(serial, &x1.head_rows(rows), &w1));
        for v in want.as_flat_mut().chunks_exact_mut(n) {
            v.iter_mut().zip(bias.row(0)).for_each(|(o, &b)| *o += b);
        }
        want.as_flat_mut()
            .iter_mut()
            .filter(|v| **v < 0.0)
            .for_each(|v| *v = 0.0);
        // Dirty scratch: `linear_into` overwrites without clearing.
        let mut out = fractious(3, 3, 6);
        for workers in [1usize, 2, 8] {
            let terms = [(RowView::Dense(&x0), &w0), (RowView::Dense(&x1), &w1)];
            let pool = WorkerPool::new(workers);
            Matrix::linear_into(pool, rows, &terms, Some(&bias), true, &mut out);
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn reset_reuses_capacity_without_reallocating() {
        let mut m = Matrix::zeros(10, 10);
        let cap = m.data.capacity();
        let ptr = m.data.as_ptr();
        m.reset(5, 8);
        assert_eq!(m.shape(), (5, 8));
        assert!(m.as_flat().iter().all(|&x| x == 0.0));
        assert_eq!(m.data.capacity(), cap);
        assert_eq!(m.data.as_ptr(), ptr);
    }

    #[test]
    fn zero_dimension_products_stay_empty() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(0, 5);
        let pool = WorkerPool::serial();
        assert_eq!(tmm(pool, &a, &b).shape(), (5, 5));
        assert_eq!(mmt(pool, &a, &b).shape(), (0, 0));
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = mm(WorkerPool::serial(), &a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let pool = WorkerPool::serial();
        assert_eq!(tmm(pool, &a, &b), mm(pool, &transpose(&a), &b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let pool = WorkerPool::serial();
        assert_eq!(mmt(pool, &a, &b), mm(pool, &a, &transpose(&b)));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_checks_dims() {
        mm(
            WorkerPool::serial(),
            &Matrix::zeros(2, 3),
            &Matrix::zeros(2, 3),
        );
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.0, 3.0]]);
        let pool = WorkerPool::serial();
        assert_eq!(mm(pool, &a, &eye(2)), a);
        assert_eq!(mm(pool, &eye(2), &a), a);
    }

    #[test]
    fn head_rows_takes_prefix() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(a.head_rows(2), Matrix::from_rows(&[&[1.0], &[2.0]]));
    }

    #[test]
    fn norm_and_sum() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    fn add_and_scale() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        a.add_assign(&Matrix::from_rows(&[&[3.0, 4.0]]));
        a.scale_assign(0.5);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 3.0]]));
    }
}
