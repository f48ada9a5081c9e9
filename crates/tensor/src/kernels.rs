//! Cache-blocked, autovectorizer-friendly inner product kernels.
//!
//! Every kernel here follows the same determinism discipline as the rest
//! of the workspace (DESIGN.md §9 and §14): the blocking scheme is a
//! *pure function of the operand shapes*, and each output element is
//! accumulated into a single accumulator in a fixed index order (`k`
//! ascending for `matmul`, `r` ascending for `t_matmul`, lane-partitioned
//! with a fixed reduction tree for `matmul_t`). Worker-pool chunking
//! splits these kernels along output rows/columns only, which never
//! changes any element's accumulation order — so results are
//! bit-identical for any worker count.
//!
//! The register tiles are plain `[f32; 8]` arrays sized so LLVM's
//! autovectorizer lowers the inner loops to 8-lane SIMD (one vector
//! register per accumulator on SSE2/NEON, half a register on AVX2) with
//! a scalar tail; no target-specific intrinsics are used. Every
//! accumulation step goes through [`fmadd`], which compiles to a fused
//! multiply-add on targets with hardware FMA (see `.cargo/config.toml`)
//! and to mul-then-add elsewhere — the choice is a pure function of the
//! build target, never of data or worker count.
//!
//! The kernels are branch-free register-blocked micro-kernels: a zero
//! entry costs one multiply-add like any other.

/// SIMD lane width the register tiles are built from. Eight `f32`s is
/// one SSE2/NEON register pair and half an AVX2 register; the
/// autovectorizer maps `[f32; LANES]` loops onto whichever is available.
pub const LANES: usize = 8;

/// Output-row tile height of the dense `matmul` micro-kernel: four
/// output rows share each `b` load, quartering B-side bandwidth.
pub const MM_I_TILE: usize = 4;

/// Output-column tile width for the dense `matmul` micro-kernel: two
/// 8-lane accumulators per output row — a 4×16 register tile (eight
/// accumulator vectors), enough independent FMA chains to cover the
/// FMA latency instead of serializing on one chain per lane.
pub const MM_J_TILE: usize = 2 * LANES;

/// Output-row (k-direction) tile height for the dense `t_matmul`
/// micro-kernel: a 4×16 outer-product register tile.
pub const TM_K_TILE: usize = 4;

/// Row-panel height of the dense `t_matmul` kernel: the reduction over
/// `r` is walked in panels of this many rows so one panel of both
/// operands (16 KB + 64 KB at `k = 64`, `n = 256`) stays in cache across
/// every register tile. 16…128 all measured 38–51 GFLOP/s on the
/// 24 000×64×256 training shape; 256 drops off, and a single pass over
/// all rows (the pre-panel kernel) ran at 5.5.
pub const TM_R_PANEL: usize = 64;

/// Simultaneous dot products in the dense `matmul_t` micro-kernel:
/// four `b` rows share each `a` load.
pub const MT_J_TILE: usize = 4;

/// The single accumulation step every kernel in this module is built
/// from: `acc + a·b`. On targets with hardware FMA (x86-64-v3 builds —
/// the workspace default per `.cargo/config.toml` — and aarch64, where
/// FMA is baseline) this lowers to one fused instruction with a single
/// rounding, doubling per-port FLOPs over separate mul+add. On targets
/// without it we fall back to mul-then-add rather than the libm
/// software `fma` (correct but ~100× slower). The operation is fixed at
/// compile time per build target; within a build, every element's value
/// remains a pure function of the operand shapes — worker-count
/// bit-identity (DESIGN.md §9) is unaffected.
#[inline(always)]
pub fn fmadd(a: f32, b: f32, acc: f32) -> f32 {
    #[cfg(any(target_feature = "fma", target_arch = "aarch64"))]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(any(target_feature = "fma", target_arch = "aarch64")))]
    {
        acc + a * b
    }
}

// ---------------------------------------------------------------------
// matmul: out[i][j] = Σ_k a[i][k] · b[k][j]
// ---------------------------------------------------------------------

/// Dense row kernel for `a @ b`: computes `chunk.len() / n` output rows
/// into `chunk`, where `a_rows` holds the matching rows of `a`
/// (row-major, `k` columns) and `b` is `k × n` row-major.
///
/// Per output element the sum runs over `k` ascending in a single
/// accumulator, in every tile path — bit-identical to a scalar `ikj`
/// loop without zero-skipping, for any row split and any `n`. Every
/// element of `chunk` is overwritten, whatever it held.
// spp-hot(kernel.matmul_dense)
pub fn matmul_rows_dense(a_rows: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32]) {
    debug_assert_eq!(b.len(), k * n, "b shape mismatch");
    if n == 0 || k == 0 {
        chunk.fill(0.0); // empty sum: no tile below would write it
        return;
    }
    let rows = chunk.len() / n;
    let mut i = 0usize;
    while i + MM_I_TILE <= rows {
        matmul_block_dense(
            &a_rows[i * k..(i + MM_I_TILE) * k],
            k,
            b,
            n,
            &mut chunk[i * n..(i + MM_I_TILE) * n],
        );
        i += MM_I_TILE;
    }
    while i < rows {
        matmul_row_tail(
            &a_rows[i * k..(i + 1) * k],
            b,
            n,
            0,
            &mut chunk[i * n..(i + 1) * n],
        );
        i += 1;
    }
}

/// 4×16 register-tiled block: `MM_I_TILE` output rows over 16-wide
/// column tiles. Eight accumulator vectors stay in registers across the
/// whole `k` loop; every `b` load feeds all four rows.
#[inline]
fn matmul_block_dense(a4: &[f32], k: usize, b: &[f32], n: usize, out4: &mut [f32]) {
    let mut j = 0usize;
    while j + MM_J_TILE <= n {
        let mut acc = [[0.0f32; LANES]; 2 * MM_I_TILE];
        for kk in 0..k {
            let b_tile = &b[kk * n + j..kk * n + j + MM_J_TILE];
            for r in 0..MM_I_TILE {
                let av = a4[r * k + kk];
                for l in 0..LANES {
                    acc[2 * r][l] = fmadd(av, b_tile[l], acc[2 * r][l]);
                }
                for l in 0..LANES {
                    acc[2 * r + 1][l] = fmadd(av, b_tile[LANES + l], acc[2 * r + 1][l]);
                }
            }
        }
        for r in 0..MM_I_TILE {
            out4[r * n + j..r * n + j + LANES].copy_from_slice(&acc[2 * r]);
            out4[r * n + j + LANES..r * n + j + MM_J_TILE].copy_from_slice(&acc[2 * r + 1]);
        }
        j += MM_J_TILE;
    }
    if j < n {
        for r in 0..MM_I_TILE {
            matmul_row_tail(
                &a4[r * k..(r + 1) * k],
                b,
                n,
                j,
                &mut out4[r * n..(r + 1) * n],
            );
        }
    }
}

/// Columns `j0..n` of one output row: 8-wide tiles, then a scalar tail.
/// Same per-element `k`-ascending order as the 4×16 block path.
#[inline]
fn matmul_row_tail(a_row: &[f32], b: &[f32], n: usize, j0: usize, out_row: &mut [f32]) {
    let mut j = j0;
    while j + LANES <= n {
        let mut acc = [0.0f32; LANES];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_lane = &b[kk * n + j..kk * n + j + LANES];
            for l in 0..LANES {
                acc[l] = fmadd(av, b_lane[l], acc[l]);
            }
        }
        out_row[j..j + LANES].copy_from_slice(&acc);
        j += LANES;
    }
    while j < n {
        let mut acc = 0.0f32;
        for (kk, &av) in a_row.iter().enumerate() {
            acc = fmadd(av, b[kk * n + j], acc);
        }
        out_row[j] = acc;
        j += 1;
    }
}

// ---------------------------------------------------------------------
// linear: out[i][j] = act(Σ_t Σ_k x_t[i][k] · w_t[k][j] + bias[j])
// ---------------------------------------------------------------------

/// One `x · w` term of [`linear_rows`]: `x` row-major with `k` columns
/// (a row prefix of it is read), `k`, and `w` as `k × n` row-major.
pub type LinearTerm<'a> = (&'a [f32], usize, &'a [f32]);

/// Output elements per row block of [`linear_rows`]: 128 KiB of `f32`,
/// so a block one term wrote is still in L2 when the next term, the
/// bias and the ReLU pass over it — the output goes to memory once.
pub const LINEAR_BLOCK_ELEMS: usize = 32 * 1024;

/// Fused affine row kernel: output rows `r0 .. r0 + chunk.len() / n` of
/// `act(Σ_t x_t · w_t + bias)` into `chunk`, overwriting it.
///
/// Per row block each product is fully accumulated by
/// [`matmul_rows_dense`] — the first term straight into the output, a
/// later one into a scratch block that is then added to it — so an
/// element is `((p₀ + p₁) + p₂ …) + bias`, then clamped: exactly the
/// association of separate `matmul`, `add`, `add_bias` and `relu`
/// passes over whole matrices (an `f32` stored and reloaded is exact),
/// with no intermediate matrix. The ReLU is `v < 0 → 0`, so `-0.0` and
/// NaN pass through as they do there.
// spp-hot(kernel.linear)
pub fn linear_rows(
    terms: &[LinearTerm<'_>],
    bias: Option<&[f32]>,
    relu: bool,
    n: usize,
    r0: usize,
    chunk: &mut [f32],
) {
    let Some((&(x0, k0, w0), later)) = terms.split_first() else {
        return;
    };
    if n == 0 {
        return;
    }
    let block = (LINEAR_BLOCK_ELEMS / n).max(MM_I_TILE) / MM_I_TILE * MM_I_TILE * n;
    let mut scratch = if later.is_empty() {
        Vec::new() // spp-hot: alloc(capacity-0 Vec::new never touches the heap)
    } else {
        vec![0.0f32; block.min(chunk.len())] // spp-hot: alloc(one L2-sized scratch block per job, reused by every row block and term)
    };
    let mut lo = r0;
    for out in chunk.chunks_mut(block) {
        let hi = lo + out.len() / n;
        matmul_rows_dense(&x0[lo * k0..hi * k0], k0, w0, n, out);
        for &(x, k, w) in later {
            let product = &mut scratch[..out.len()];
            matmul_rows_dense(&x[lo * k..hi * k], k, w, n, product);
            for (o, &p) in out.iter_mut().zip(product.iter()) {
                *o += p;
            }
        }
        if let Some(bias) = bias {
            for row in out.chunks_exact_mut(n) {
                for (o, &b) in row.iter_mut().zip(bias) {
                    *o += b;
                }
            }
        }
        if relu {
            for o in out.iter_mut() {
                if *o < 0.0 {
                    *o = 0.0;
                }
            }
        }
        lo = hi;
    }
}

// ---------------------------------------------------------------------
// t_matmul: out[kk][j] = Σ_r a[r][kk] · b[r][j]
// ---------------------------------------------------------------------

/// Dense column-chunk kernel for `aᵀ @ b`: computes output rows
/// `k0 .. k0 + chunk.len() / n` (i.e. a column range of `a`) into
/// `chunk`, overwriting whatever it held. `a` is `rows × k` row-major,
/// `b` is `rows × n` row-major.
///
/// The rows are walked in panels of [`TM_R_PANEL`]: within a panel every
/// register tile loads its accumulators (zeros in the first panel, from
/// `chunk` after it), runs `r` over the panel and stores them back, so
/// the panel's slices of `a` and `b` stay cache-resident across all
/// tiles instead of both operands being streamed once per tile. Per
/// output element the sum still runs over `r` ascending in a single
/// accumulator in every tile path (an `f32` store/load between panels is
/// exact), so any row count and any column split is bit-identical to the
/// scalar `r`-ascending loop.
// spp-hot(kernel.t_matmul_dense)
pub fn t_matmul_cols_dense(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    rows: usize,
    k0: usize,
    chunk: &mut [f32],
) {
    debug_assert_eq!(a.len(), rows * k, "a shape mismatch");
    debug_assert_eq!(b.len(), rows * n, "b shape mismatch");
    if rows == 0 {
        chunk.fill(0.0); // empty sum: no panel below would write it
    }
    let mut r0 = 0usize;
    while r0 < rows {
        let r1 = (r0 + TM_R_PANEL).min(rows);
        let (ap, bp) = (&a[r0 * k..r1 * k], &b[r0 * n..r1 * n]);
        t_matmul_panel(ap, k, bp, n, k0, r0 == 0, chunk);
        r0 = r1;
    }
}

/// One row panel of [`t_matmul_cols_dense`]: `chunk += aᵀ @ b` over the
/// panel's rows of both operands (`chunk = aᵀ @ b` for the `first`
/// panel, which never reads `chunk`), through the 4×16 outer-product
/// register tile (four consecutive `a` columns, contiguous within each
/// `a` row, against a 16-wide `b` column slice), then 4×8, then scalar
/// tails.
#[inline]
fn t_matmul_panel(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    k0: usize,
    first: bool,
    chunk: &mut [f32],
) {
    let rows = b.len().checked_div(n).unwrap_or(0);
    let kn = chunk.len().checked_div(n).unwrap_or(0);
    let mut kt = 0usize;
    while kt + TM_K_TILE <= kn {
        let mut j = 0usize;
        while j + 2 * LANES <= n {
            let mut acc = [[0.0f32; LANES]; 2 * TM_K_TILE];
            if !first {
                for t in 0..TM_K_TILE {
                    acc[2 * t].copy_from_slice(&chunk[(kt + t) * n + j..(kt + t) * n + j + LANES]);
                    acc[2 * t + 1].copy_from_slice(
                        &chunk[(kt + t) * n + j + LANES..(kt + t) * n + j + 2 * LANES],
                    );
                }
            }
            for r in 0..rows {
                let a4 = &a[r * k + k0 + kt..r * k + k0 + kt + TM_K_TILE];
                let b16 = &b[r * n + j..r * n + j + 2 * LANES];
                for t in 0..TM_K_TILE {
                    let av = a4[t];
                    for l in 0..LANES {
                        acc[2 * t][l] = fmadd(av, b16[l], acc[2 * t][l]);
                    }
                    for l in 0..LANES {
                        acc[2 * t + 1][l] = fmadd(av, b16[LANES + l], acc[2 * t + 1][l]);
                    }
                }
            }
            for t in 0..TM_K_TILE {
                chunk[(kt + t) * n + j..(kt + t) * n + j + LANES].copy_from_slice(&acc[2 * t]);
                chunk[(kt + t) * n + j + LANES..(kt + t) * n + j + 2 * LANES]
                    .copy_from_slice(&acc[2 * t + 1]);
            }
            j += 2 * LANES;
        }
        while j + LANES <= n {
            let mut acc = [[0.0f32; LANES]; TM_K_TILE];
            if !first {
                for (t, lane_acc) in acc.iter_mut().enumerate() {
                    lane_acc.copy_from_slice(&chunk[(kt + t) * n + j..(kt + t) * n + j + LANES]);
                }
            }
            for r in 0..rows {
                let a4 = &a[r * k + k0 + kt..r * k + k0 + kt + TM_K_TILE];
                let b8 = &b[r * n + j..r * n + j + LANES];
                for (t, lane_acc) in acc.iter_mut().enumerate() {
                    let av = a4[t];
                    for l in 0..LANES {
                        lane_acc[l] = fmadd(av, b8[l], lane_acc[l]);
                    }
                }
            }
            for (t, lane_acc) in acc.iter().enumerate() {
                chunk[(kt + t) * n + j..(kt + t) * n + j + LANES].copy_from_slice(lane_acc);
            }
            j += LANES;
        }
        // Scalar j tail for this 4-row band.
        while j < n {
            let mut acc = [0.0f32; TM_K_TILE];
            if !first {
                for (t, v) in acc.iter_mut().enumerate() {
                    *v = chunk[(kt + t) * n + j];
                }
            }
            for r in 0..rows {
                let a4 = &a[r * k + k0 + kt..r * k + k0 + kt + TM_K_TILE];
                let bv = b[r * n + j];
                for (t, &av) in a4.iter().enumerate() {
                    acc[t] = fmadd(av, bv, acc[t]);
                }
            }
            for (t, &v) in acc.iter().enumerate() {
                chunk[(kt + t) * n + j] = v;
            }
            j += 1;
        }
        kt += TM_K_TILE;
    }
    // Remaining output rows, one at a time with 8-wide column tiles.
    while kt < kn {
        let mut j = 0usize;
        while j + LANES <= n {
            let mut acc = [0.0f32; LANES];
            if !first {
                acc.copy_from_slice(&chunk[kt * n + j..kt * n + j + LANES]);
            }
            for r in 0..rows {
                let av = a[r * k + k0 + kt];
                let b8 = &b[r * n + j..r * n + j + LANES];
                for l in 0..LANES {
                    acc[l] = fmadd(av, b8[l], acc[l]);
                }
            }
            chunk[kt * n + j..kt * n + j + LANES].copy_from_slice(&acc);
            j += LANES;
        }
        while j < n {
            let mut acc = if first { 0.0 } else { chunk[kt * n + j] };
            for r in 0..rows {
                acc = fmadd(a[r * k + k0 + kt], b[r * n + j], acc);
            }
            chunk[kt * n + j] = acc;
            j += 1;
        }
        kt += 1;
    }
}

// ---------------------------------------------------------------------
// matmul_t: out[i][j] = dot(a_row_i, b_row_j)
// ---------------------------------------------------------------------

/// Dense row kernel for `a @ bᵀ`: computes `chunk.len() / b_rows`
/// output rows into `chunk`, where `a_rows` holds the matching rows of
/// `a` and `b` is `b_rows × k` row-major. Each element is a
/// lane-partitioned dot product ([`dot_blocked`]); every element of
/// `chunk` is overwritten.
// spp-hot(kernel.matmul_t_dense)
pub fn matmul_t_rows_dense(a_rows: &[f32], k: usize, b: &[f32], b_rows: usize, chunk: &mut [f32]) {
    debug_assert_eq!(b.len(), b_rows * k, "b shape mismatch");
    if k == 0 {
        chunk.fill(0.0); // empty dots: `a_rows` has no row to iterate
        return;
    }
    let kv = k - k % LANES;
    for (a_row, out_row) in a_rows.chunks_exact(k).zip(chunk.chunks_mut(b_rows.max(1))) {
        // Four dots at a time: the `a` row vector is loaded once per
        // 8-lane step and feeds four independent accumulator sets, each
        // of which reduces exactly like [`dot_blocked`] (same fixed
        // pairwise tree, same ascending tail) — bit-identical per
        // element to the one-dot-at-a-time path below.
        let mut j = 0usize;
        while j + MT_J_TILE <= b_rows {
            let mut acc = [[0.0f32; LANES]; MT_J_TILE];
            matmul_t_tile(a_row, b, k, j, kv, &mut acc);
            for (t, a8) in acc.iter().enumerate() {
                let mut sum =
                    ((a8[0] + a8[1]) + (a8[2] + a8[3])) + ((a8[4] + a8[5]) + (a8[6] + a8[7]));
                for p in kv..k {
                    sum = fmadd(a_row[p], b[(j + t) * k + p], sum);
                }
                out_row[j + t] = sum;
            }
            j += MT_J_TILE;
        }
        while j < b_rows {
            out_row[j] = dot_blocked(a_row, &b[j * k..j * k + k]);
            j += 1;
        }
    }
}

/// Vector body of the `matmul_t` tile: accumulates the first `kv`
/// (a multiple of `LANES`) elements of four dot products — `a_row`
/// against `b` rows `j .. j + MT_J_TILE` — into `acc`, lane-partitioned
/// exactly like [`dot_blocked`]. Deliberately *not* inlined: with the
/// callers' horizontal reduction visible in the same function, the SLP
/// vectorizer packs the accumulators across the `t` axis (a shuffle per
/// step and a stack spill per accumulator); kept opaque, the lane loops
/// lower to one vector FMA per dot with no shuffles, and the call cost
/// is amortized over the whole `kv` loop.
#[inline(never)]
fn matmul_t_tile(
    a_row: &[f32],
    b: &[f32],
    k: usize,
    j: usize,
    kv: usize,
    acc: &mut [[f32; LANES]; MT_J_TILE],
) {
    let mut p = 0usize;
    while p < kv {
        let x8 = &a_row[p..p + LANES];
        for t in 0..MT_J_TILE {
            let y8 = &b[(j + t) * k + p..(j + t) * k + p + LANES];
            for l in 0..LANES {
                acc[t][l] = fmadd(x8[l], y8[l], acc[t][l]);
            }
        }
        p += LANES;
    }
}

/// Lane-partitioned dot product: `k` is split into 8-lane chunks with
/// one accumulator per lane (breaking the serial FP dependency chain the
/// scalar loop suffers from), the lanes are combined in a fixed pairwise
/// reduction tree, and the scalar tail is appended in ascending order.
/// The association is a pure function of `k` — deterministic for a given
/// shape, independent of callers and worker counts.
#[inline]
pub fn dot_blocked(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len(), "dot length mismatch");
    let mut acc = [0.0f32; LANES];
    let x_chunks = x.chunks_exact(LANES);
    let y_chunks = y.chunks_exact(LANES);
    let x_tail = x_chunks.remainder();
    let y_tail = y_chunks.remainder();
    for (x8, y8) in x_chunks.zip(y_chunks) {
        for l in 0..LANES {
            acc[l] = fmadd(x8[l], y8[l], acc[l]);
        }
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (&xv, &yv) in x_tail.iter().zip(y_tail) {
        sum = fmadd(xv, yv, sum);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference scalar ikj kernel without zero-skipping: the dense
    /// blocked kernel must match it bit-for-bit (same per-element
    /// accumulation order, same [`fmadd`] step).
    fn matmul_scalar(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * n];
        for i in 0..rows {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] = fmadd(av, b[kk * n + j], out[i * n + j]);
                }
            }
        }
        out
    }

    fn fractious(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) % 97) as f32 / 3.0 - 16.0
            })
            .collect()
    }

    #[test]
    fn dense_matmul_matches_scalar_bitwise_over_awkward_shapes() {
        for (rows, k, n) in [
            (3, 5, 1),
            (4, 7, 8),
            (2, 9, 31),
            (5, 16, 32),
            (3, 11, 45),
            (6, 1, 37),
            // Empty sums are zeros the kernel itself must write.
            (3, 0, 5),
        ] {
            let a = fractious(rows * k, 1);
            let b = fractious(k * n, 2);
            // The kernel overwrites: garbage in `out` must not survive.
            let mut out = vec![f32::NAN; rows * n];
            matmul_rows_dense(&a, k, &b, n, &mut out);
            assert_eq!(out, matmul_scalar(&a, rows, k, &b, n), "{rows}x{k}x{n}");
        }
    }

    #[test]
    fn linear_rows_matches_separate_passes_bitwise_across_blocks_and_splits() {
        // n = 45 leaves every column-tile path a remainder; 800 rows of
        // it span two row blocks, and the mid-block split below starts a
        // job at a row that is not a multiple of the tile height.
        let (rows, n) = (800usize, 45usize);
        assert!(rows * n > LINEAR_BLOCK_ELEMS);
        let ks = [7usize, 16, 0];
        let xs: Vec<Vec<f32>> = (0..3).map(|t| fractious(rows * ks[t], t as u32)).collect();
        let ws: Vec<Vec<f32>> = (0..3).map(|t| fractious(ks[t] * n, 7 + t as u32)).collect();
        let bias = fractious(n, 20);
        for terms in 1..=3usize {
            for (with_bias, relu) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut want = matmul_scalar(&xs[0], rows, ks[0], &ws[0], n);
                for t in 1..terms {
                    let p = matmul_scalar(&xs[t], rows, ks[t], &ws[t], n);
                    want.iter_mut().zip(&p).for_each(|(o, &v)| *o += v);
                }
                if with_bias {
                    want.iter_mut()
                        .enumerate()
                        .for_each(|(i, o)| *o += bias[i % n]);
                }
                if relu {
                    want.iter_mut().filter(|o| **o < 0.0).for_each(|o| *o = 0.0);
                }
                let table: Vec<LinearTerm<'_>> = (0..terms)
                    .map(|t| (&xs[t][..], ks[t], &ws[t][..]))
                    .collect();
                let b = with_bias.then_some(&bias[..]);
                let mut out = vec![f32::NAN; rows * n];
                let (head, tail) = out.split_at_mut(301 * n);
                linear_rows(&table, b, relu, n, 0, head);
                linear_rows(&table, b, relu, n, 301, tail);
                assert_eq!(out, want, "terms={terms} bias={with_bias} relu={relu}");
            }
        }
    }

    /// Row counts on both sides of every panel seam, plus a multi-panel
    /// count that ends mid-panel.
    const PANEL_ROWS: [usize; 4] = [
        TM_R_PANEL - 1,
        TM_R_PANEL,
        TM_R_PANEL + 1,
        3 * TM_R_PANEL + 5,
    ];

    /// The `r`-ascending scalar loop `t_matmul` is pinned against.
    fn t_matmul_scalar(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; k * n];
        for r in 0..rows {
            for kk in 0..k {
                let av = a[r * k + kk];
                for j in 0..n {
                    out[kk * n + j] = fmadd(av, b[r * n + j], out[kk * n + j]);
                }
            }
        }
        out
    }

    #[test]
    fn dense_t_matmul_matches_r_ascending_scalar_bitwise() {
        // Zero rows: an empty sum the kernel itself must write.
        let small = [
            (9, 5, 3),
            (16, 4, 8),
            (21, 13, 19),
            (40, 1, 9),
            (7, 6, 1),
            (0, 5, 3),
        ];
        // (k, n) = (13, 27) reaches every tile path: 4×16, 4×8, the scalar
        // column tail, and the one-row band in both widths.
        let seams = PANEL_ROWS.map(|rows| (rows, 13, 27));
        for (rows, k, n) in small.into_iter().chain(seams) {
            let a = fractious(rows * k, 3);
            let b = fractious(rows * n, 4);
            // The kernel overwrites: garbage in `chunk` must not leak into
            // the first panel's accumulators.
            let mut out = vec![f32::NAN; k * n];
            t_matmul_cols_dense(&a, k, &b, n, rows, 0, &mut out);
            assert_eq!(out, t_matmul_scalar(&a, rows, k, &b, n), "{rows}x{k}x{n}");
        }
    }

    #[test]
    fn t_matmul_column_splits_are_bit_identical() {
        let (k, n) = (14, 10);
        for rows in [33usize].into_iter().chain(PANEL_ROWS) {
            let a = fractious(rows * k, 5);
            let b = fractious(rows * n, 6);
            let whole = t_matmul_scalar(&a, rows, k, &b, n);
            for split in [1usize, 3, 5, 13, 14] {
                let mut pieced = vec![f32::NAN; k * n];
                let mut k0 = 0usize;
                while k0 < k {
                    let kn = split.min(k - k0);
                    t_matmul_cols_dense(&a, k, &b, n, rows, k0, &mut pieced[k0 * n..(k0 + kn) * n]);
                    k0 += kn;
                }
                assert_eq!(pieced, whole, "rows={rows} split={split}");
            }
        }
    }

    #[test]
    fn dot_blocked_is_shape_deterministic_and_close_to_serial() {
        for len in [0usize, 1, 7, 8, 9, 16, 63, 64, 200] {
            let x = fractious(len, 10);
            let y = fractious(len, 11);
            let serial: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let blocked = dot_blocked(&x, &y);
            assert_eq!(blocked, dot_blocked(&x, &y), "len={len} not deterministic");
            let scale = 1.0 + serial.abs();
            assert!(
                (blocked - serial).abs() / scale < 1e-4,
                "len={len}: {blocked} vs {serial}"
            );
        }
    }

    #[test]
    fn matmul_t_rows_dense_matches_dot() {
        // k = 0: empty dots are zeros the kernel itself must write.
        for (rows, k, bn) in [(5, 37, 9), (5, 0, 9)] {
            let a = fractious(rows * k, 12);
            let b = fractious(bn * k, 13);
            let mut out = vec![f32::NAN; rows * bn];
            matmul_t_rows_dense(&a, k, &b, bn, &mut out);
            for i in 0..rows {
                for j in 0..bn {
                    assert_eq!(
                        out[i * bn + j],
                        dot_blocked(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k])
                    );
                }
            }
        }
    }
}
