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
use spp_pool::{even_ranges, WorkerPool};

/// A row-major dense `f32` matrix.
///
/// # Example
///
/// ```
/// use spp_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, Debug, PartialEq)]
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

    /// A 0×0 matrix whose buffer is never allocated: the shape-only
    /// constructor the `*_with` wrappers seed their output with, so the
    /// single allocation happens inside [`Matrix::reset`] at the final
    /// size (a `Vec::new` never touches the heap).
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

    /// Reshapes `self` to `rows x cols` for a kernel that overwrites
    /// every element: a buffer in use keeps whatever it held (only
    /// growth is zero-filled) instead of being cleared and refilled, and
    /// an empty one takes the allocator's zeroed pages rather than an
    /// explicit fill.
    fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        if self.data.is_empty() {
            self.data = vec![0.0; rows * cols]; // spp-hot: alloc(fresh output buffer; hot callers reuse one via the *_into kernels)
        } else {
            self.data.resize(rows * cols, 0.0);
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
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

    /// Matrix product `self @ other` with an ikj loop order (streams the
    /// output row, cache-friendly for row-major data), on the global
    /// worker pool.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with(WorkerPool::global(), other)
    }

    /// [`Matrix::matmul`] on an explicit pool. Output row blocks are a
    /// pure function of the shapes and the result is bit-identical to
    /// the serial kernel for any worker count.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    // spp-hot(tensor.matmul)
    pub fn matmul_with(&self, pool: WorkerPool, other: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        self.matmul_into(pool, other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-provided scratch matrix
    /// (allocation-free once its buffer has grown). Bit-identical to
    /// [`Matrix::matmul_with`]: the one-term case of
    /// [`Matrix::linear_into`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, pool: WorkerPool, other: &Matrix, out: &mut Matrix) {
        Matrix::linear_into(pool, self.rows, &[(self, other)], None, false, out);
    }

    /// The fused affine map `act(Σᵢ xᵢ[..rows] · wᵢ + bias)` over
    /// `terms = [(xᵢ, wᵢ), …]` into `out`: each `xᵢ` contributes its
    /// first `rows` rows, `bias` is `1 × n`, `act` is ReLU when `relu` is
    /// set and the identity otherwise. One row-parallel region writes
    /// the output once ([`kernels::linear_rows`]); the result is
    /// bit-identical to `matmul`, element-wise sum left to right, bias
    /// add and clamp as separate whole-matrix passes, for any worker
    /// count.
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
        terms: &[(&Matrix, &Matrix)],
        bias: Option<&Matrix>,
        relu: bool,
        out: &mut Matrix,
    ) {
        assert!(!terms.is_empty(), "linear needs at least one term");
        let n = terms[0].1.cols;
        let mut flops = 0u64;
        for (x, w) in terms {
            assert!(x.rows >= rows, "linear operand has too few rows");
            assert_eq!(x.cols, w.rows, "matmul dimension mismatch");
            assert_eq!(w.cols, n, "linear term widths differ");
            flops += (rows * x.cols * n) as u64;
        }
        if let Some(b) = bias {
            assert_eq!(b.shape(), (1, n), "bias shape mismatch");
        }
        out.resize_for_overwrite(rows, n);
        let slices: Vec<kernels::LinearTerm<'_>> = terms
            .iter()
            .map(|(x, w)| (&x.data[..rows * x.cols], x.cols, &w.data[..]))
            .collect(); // spp-hot: alloc(operand table, three words per term)
        let bias = bias.map(|b| &b.data[..]);
        let jobs = pool.jobs_for_cost(flops).min(rows.max(1));
        if jobs <= 1 {
            kernels::linear_rows(&slices, bias, relu, n, 0, &mut out.data);
            return;
        }
        // Each chunk is whole output rows; it reads the same rows of
        // every operand.
        let cuts: Vec<usize> = even_ranges(rows, jobs).iter().map(|r| r.end * n).collect(); // spp-hot: alloc(job-cut table, one word per job; bounded by pool width)
        pool.par_chunks(&mut out.data, &cuts, |_, offset, chunk| {
            kernels::linear_rows(&slices, bias, relu, n, offset / n, chunk);
        });
    }

    /// `selfᵀ @ other` without materializing the transpose, on the
    /// global worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        self.t_matmul_with(WorkerPool::global(), other)
    }

    /// [`Matrix::t_matmul`] on an explicit pool.
    ///
    /// Every output element `out[k][j] = Σ_r self[r][k]·other[r][j]`
    /// accumulates over `r` ascending in both the serial (r-outer,
    /// streaming) and parallel (k-outer, per-output-row) loop orders, so
    /// the two are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    // spp-hot(tensor.t_matmul)
    pub fn t_matmul_with(&self, pool: WorkerPool, other: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        self.t_matmul_into(pool, other, &mut out);
        out
    }

    /// [`Matrix::t_matmul`] into a caller-provided scratch matrix;
    /// bit-identical to [`Matrix::t_matmul_with`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn t_matmul_into(&self, pool: WorkerPool, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul dimension mismatch");
        self.head_t_matmul_into(pool, other, out);
    }

    /// `self[..other.rows]ᵀ @ other` into `out`: [`Matrix::t_matmul_into`]
    /// over a row prefix of `self`, without copying the prefix out.
    ///
    /// # Panics
    ///
    /// Panics if `self` has fewer rows than `other`.
    pub(crate) fn head_t_matmul_into(&self, pool: WorkerPool, other: &Matrix, out: &mut Matrix) {
        let rows = other.rows;
        assert!(self.rows >= rows, "t_matmul dimension mismatch");
        out.resize_for_overwrite(self.cols, other.cols);
        let flops = (rows * self.cols * other.cols) as u64;
        let jobs = pool.jobs_for_cost(flops).min(self.cols.max(1));
        let (a, b, k, n) = (
            &self.data[..rows * self.cols],
            &other.data,
            self.cols,
            other.cols,
        );
        if jobs <= 1 {
            kernels::t_matmul_cols_dense(a, k, b, n, rows, 0, &mut out.data);
            return;
        }
        // Serial and parallel paths run the same kernel over column
        // ranges of `self`, so any worker count is bit-identical.
        let cuts: Vec<usize> = even_ranges(self.cols, jobs)
            .iter()
            .map(|r| r.end * n)
            .collect(); // spp-hot: alloc(job-cut table, one word per job; bounded by pool width)
        pool.par_chunks(&mut out.data, &cuts, |_, offset, chunk| {
            kernels::t_matmul_cols_dense(a, k, b, n, rows, offset / n, chunk);
        });
    }

    /// `self @ otherᵀ` without materializing the transpose, on the
    /// global worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        self.matmul_t_with(WorkerPool::global(), other)
    }

    /// [`Matrix::matmul_t`] on an explicit pool; output rows are
    /// independent dot products, so any row split is bit-identical to
    /// the serial loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    // spp-hot(tensor.matmul_t)
    pub fn matmul_t_with(&self, pool: WorkerPool, other: &Matrix) -> Matrix {
        let mut out = Matrix::empty();
        self.matmul_t_into(pool, other, &mut out);
        out
    }

    /// [`Matrix::matmul_t`] into a caller-provided scratch matrix;
    /// bit-identical to [`Matrix::matmul_t_with`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_t_into(&self, pool: WorkerPool, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t dimension mismatch");
        out.resize_for_overwrite(self.rows, other.rows);
        if out.data.is_empty() {
            return;
        }
        let flops = (self.rows * self.cols * other.rows) as u64;
        let jobs = pool.jobs_for_cost(flops).min(self.rows.max(1));
        let out_cols = other.rows;
        let cuts: Vec<usize> = even_ranges(self.rows, jobs)
            .iter()
            .map(|r| r.end * out_cols)
            .collect(); // spp-hot: alloc(job-cut table, one word per job; bounded by pool width)
        pool.par_chunks(&mut out.data, &cuts, |_, offset, chunk| {
            let i0 = offset / out_cols;
            let rows = chunk.len() / out_cols;
            let a_rows = &self.data[i0 * self.cols..(i0 + rows) * self.cols];
            kernels::matmul_t_rows_dense(a_rows, self.cols, &other.data, other.rows, chunk);
        });
    }

    /// Materialized transpose, on the global worker pool.
    pub fn transpose(&self) -> Matrix {
        self.transpose_with(WorkerPool::global())
    }

    /// [`Matrix::transpose`] on an explicit pool; a pure permutation,
    /// split by output rows.
    pub fn transpose_with(&self, pool: WorkerPool) -> Matrix {
        let mut out = Matrix::empty();
        self.transpose_into(pool, &mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-provided scratch matrix
    /// (reshaped via [`Matrix::reset`]); bit-identical to
    /// [`Matrix::transpose_with`].
    pub fn transpose_into(&self, pool: WorkerPool, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        if out.data.is_empty() {
            return;
        }
        // Memory-bound: count ~4 units per element moved so transposes
        // parallelize at roughly the same byte volume as products.
        let jobs = pool
            .jobs_for_cost(4 * (self.rows * self.cols) as u64)
            .min(self.cols.max(1));
        let out_cols = self.rows;
        let cuts: Vec<usize> = even_ranges(self.cols, jobs)
            .iter()
            .map(|r| r.end * out_cols)
            .collect(); // spp-hot: alloc(job-cut table, one word per job; bounded by pool width)
        pool.par_chunks(&mut out.data, &cuts, |_, offset, chunk| {
            let j0 = offset / out_cols;
            for (ji, out_row) in chunk.chunks_mut(out_cols).enumerate() {
                let j = j0 + ji;
                for (i, o) in out_row.iter_mut().enumerate() {
                    *o = self.data[i * self.cols + j];
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

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Matrix {}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_parallel_matches_serial() {
        // Big enough to cross the pool's per-job cost threshold.
        let r = 1200usize;
        let k = 96usize;
        let c = 96usize;
        let a = Matrix::from_flat(r, k, (0..r * k).map(|i| (i % 13) as f32 - 6.0).collect());
        let b = Matrix::from_flat(k, c, (0..k * c).map(|i| (i % 7) as f32 - 3.0).collect());
        let serial = a.matmul_with(WorkerPool::serial(), &b);
        for workers in [1usize, 2, 8] {
            let par = a.matmul_with(WorkerPool::new(workers), &b);
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
        let serial = a.t_matmul_with(WorkerPool::serial(), &b);
        for workers in [2usize, 8] {
            assert_eq!(
                a.t_matmul_with(WorkerPool::new(workers), &b),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn matmul_t_bit_identical_across_pools() {
        let a = fractious(400, 90, 3);
        let b = fractious(320, 90, 4);
        let serial = a.matmul_t_with(WorkerPool::serial(), &b);
        for workers in [2usize, 8] {
            assert_eq!(
                a.matmul_t_with(WorkerPool::new(workers), &b),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn transpose_bit_identical_across_pools() {
        let a = fractious(700, 450, 5);
        let serial = a.transpose_with(WorkerPool::serial());
        assert_eq!(serial.shape(), (450, 700));
        for workers in [2usize, 8] {
            assert_eq!(a.transpose_with(WorkerPool::new(workers)), serial);
        }
        assert_eq!(serial.transpose(), a);
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
        // pass must be bit-identical to the allocating variant even
        // though the buffer is dirty from the first.
        for _ in 0..2 {
            a.matmul_into(pool, &b, &mut scratch);
            assert_eq!(scratch, a.matmul_with(pool, &b));
            a.t_matmul_into(pool, &c, &mut scratch);
            assert_eq!(scratch, a.t_matmul_with(pool, &c));
            a.matmul_t_into(pool, &d, &mut scratch);
            assert_eq!(scratch, a.matmul_t_with(pool, &d));
            a.transpose_into(pool, &mut scratch);
            assert_eq!(scratch, a.transpose_with(pool));
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
        let mut want = x0.head_rows(rows).matmul_with(serial, &w0);
        want.add_assign(&x1.head_rows(rows).matmul_with(serial, &w1));
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
            let terms = [(&x0, &w0), (&x1, &w1)];
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
        assert_eq!(a.t_matmul(&b).shape(), (5, 5));
        assert_eq!(a.matmul_t(&b).shape(), (0, 0));
        assert_eq!(Matrix::zeros(4, 0).transpose().shape(), (0, 4));
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_checks_dims() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.5, -2.0], &[0.0, 3.0]]);
        assert_eq!(a.matmul(&Matrix::eye(2)), a);
        assert_eq!(Matrix::eye(2).matmul(&a), a);
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
