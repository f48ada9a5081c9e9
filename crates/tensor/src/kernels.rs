//! Cache-blocked, autovectorizer-friendly inner product kernels.
//!
//! Every kernel here follows the same determinism discipline as the rest
//! of the workspace (DESIGN.md §9 and §14): the blocking scheme is a
//! *pure function of the operand shapes*, and each output element is
//! accumulated in a fixed index order: one accumulator over `k`
//! ascending for `matmul` and over `r` ascending for `t_matmul`; for
//! `matmul_t`, [`dot_blocked`]'s eight lane accumulators, each over its
//! lane's indices ascending, combined in a fixed tree, then the `k % 8`
//! tail. Worker-pool chunking splits these kernels along output
//! rows/columns only, which never changes any element's accumulation
//! order — so results are bit-identical for any worker count.
//!
//! All three products run one register tile, `tile`: `R` output rows
//! (4, or 1 for the rows left over) by 16 columns, its right operand a
//! panel of 16 columns packed on the stack (`[[f32; 16]; KC]`, 16 KiB,
//! the last panel zero-padded so `n % 16` needs no tail path) and its
//! left operand rows sliced to their exact span, so the FMA loop
//! carries no bounds check. A left operand whose rows are no matrix's
//! ([`crate::RowView::Rows`]) is decoded and packed side by side a
//! block at a time first, so `matmul` and `t_matmul` give the same bits
//! for it as for a contiguous matrix. A product deeper than
//! [`KC`] is blocked over `k`; a block stores its accumulators to the
//! output and the next reloads them, and an `f32` stored and reloaded
//! is exact. No product kernel touches the heap (only `linear_rows`
//! keeps a scratch block).
//!
//! The tile's rows are `[f32; 16]` arrays that LLVM's autovectorizer
//! lowers to two 8-lane FMA vectors each (AVX2 ymm registers; four
//! SSE2/NEON registers); no target-specific intrinsics are used. Every
//! accumulation step goes through [`fmadd`], which compiles to a fused
//! multiply-add on targets with hardware FMA (see `.cargo/config.toml`)
//! and to mul-then-add elsewhere — the choice is a pure function of the
//! build target, never of data or worker count. A zero entry costs one
//! multiply-add like any other.

use crate::sage::PackRows;
use crate::{Matrix, RowView};
use std::array::from_fn;

/// SIMD lane width of `dot_blocked`'s accumulators, and so of
/// `matmul_t`'s lane split. Eight `f32`s is one AVX2 register.
pub const LANES: usize = 8;

/// Output-row tile height: four output rows share each panel load.
pub const MM_I_TILE: usize = 4;

/// Output-column tile width: one packed panel row, two 8-lane vectors
/// per output row — a 4×16 tile is eight accumulator vectors, enough
/// independent FMA chains to cover the FMA latency.
pub const MM_J_TILE: usize = 2 * LANES;

/// Depth of the on-stack weight panel: `KC` rows of 16 columns (16 KiB)
/// stay in L1 while every row group of a block streams past them. Every
/// layer of the benchmark workloads is at most this deep; a deeper
/// product is blocked over `k` in steps of `KC`.
pub const KC: usize = 256;

/// Row-panel height of `t_matmul`: the reduction over `r` is walked in
/// panels of this many rows, so one panel of `a` and the packed panel of
/// `b` (4 KiB) stay in cache across every register tile. 64, 128 and 256
/// measured within host noise of each other on both training shapes.
pub const TM_R_PANEL: usize = 64;

/// Elements of `a` per row block of `matmul_t` (512 KiB): the block stays
/// in L2 while every 16-row panel of `b` is packed, transposed, once for
/// it. Without row blocks the 24 000-row `G·Wᵀ` streamed all of `a` from
/// memory once per panel (23–31 GFLOP/s against 37–47 with them, on a
/// 2-core x86-64 host).
pub const MT_BLOCK_ELEMS: usize = 128 * 1024;

/// One row of a packed panel: 16 columns of the right operand.
type PanelRow = [f32; MM_J_TILE];

/// A packed panel at full depth, the stack buffer every product packs into.
type Panel = [PanelRow; KC];

/// An `R`×16 register tile: one accumulator per output element.
type Tile<const R: usize> = [PanelRow; R];

/// The tile's left operand at one step: one value per output row.
type Lhs<const R: usize> = [f32; R];

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

/// The `R`×16 register tile every product is built from: `acc[r][c] =
/// fmadd(a_s[r], b[s][c], acc[r][c])` for `s` ascending over the panel
/// `b`, `a_s` the `s`-th item of `a` — one accumulator per element,
/// resumed from `acc`. At `R = 4` its eight accumulator vectors stay in
/// registers across the loop, and every panel row feeds all four rows.
#[inline(always)]
fn tile<const R: usize>(
    mut acc: Tile<R>,
    b: &[PanelRow],
    a: impl Iterator<Item = Lhs<R>>,
) -> Tile<R> {
    for (b16, av) in b.iter().zip(a) {
        for (acc_r, x) in acc.iter_mut().zip(av) {
            for (o, &y) in acc_r.iter_mut().zip(b16) {
                *o = fmadd(x, y, *o);
            }
        }
    }
    acc
}

/// Packs columns `j..j + 16` of consecutive `ld`-wide rows of `src` into
/// `panel`, zero-padding the columns past `ld`.
#[inline]
fn pack_panel(panel: &mut [PanelRow], src: &[f32], ld: usize, j: usize) {
    let w = MM_J_TILE.min(ld - j);
    for (p, row) in panel.iter_mut().zip(src.chunks_exact(ld)) {
        let cols = &row[j..j + w];
        *p = match cols.first_chunk() {
            Some(cols) => *cols,
            None => padded(cols),
        };
    }
}

/// Columns `j..j + 16` of `R` consecutive `n`-wide rows of `out` as a
/// tile's accumulators when `resume` is set (the past-`n` columns zero),
/// all zeros otherwise.
#[inline(always)]
fn load_tile<const R: usize>(out: &[f32], n: usize, j: usize, resume: bool) -> Tile<R> {
    let mut acc = [[0.0f32; MM_J_TILE]; R];
    if resume {
        let w = MM_J_TILE.min(n - j);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let src = &out[r * n + j..][..w];
            *acc_r = match src.first_chunk() {
                Some(src) => *src,
                None => padded(src),
            };
        }
    }
    acc
}

/// Stores a tile's columns that fall inside the `n`-wide rows of `out`.
/// A full-width row is one fixed-size store and the narrow last panel
/// goes out of line, so the accumulators never pass through the stack.
#[inline(always)]
fn store_tile<const R: usize>(acc: Tile<R>, out: &mut [f32], n: usize, j: usize) {
    let w = MM_J_TILE.min(n - j);
    for (r, acc_r) in acc.into_iter().enumerate() {
        let dst = &mut out[r * n + j..][..w];
        match dst.first_chunk_mut() {
            Some(dst) => *dst = acc_r,
            None => store_narrow(dst, &acc_r),
        }
    }
}

/// `src` (at most 16 elements) zero-padded to a panel row.
#[cold]
#[inline(never)]
fn padded(src: &[f32]) -> PanelRow {
    let mut row = [0.0; MM_J_TILE];
    row.iter_mut().zip(src).for_each(|(o, &v)| *o = v);
    row
}

/// The first `dst.len()` (< 16) columns of a tile row.
#[cold]
#[inline(never)]
fn store_narrow(dst: &mut [f32], row: &PanelRow) {
    dst.iter_mut().zip(row).for_each(|(o, &v)| *o = v);
}

// ---------------------------------------------------------------------
// matmul: out[i][j] = Σ_k a[i][k] · b[k][j]
// ---------------------------------------------------------------------

/// Dense row kernel for `a @ b`: computes `chunk.len() / n` output rows
/// into `chunk`, where `a_rows` holds the matching rows of `a`
/// (row-major, `k` columns) and `b` is `k × n` row-major.
///
/// One 16-column panel of `b` at a time, one `KC`-deep block of it at a
/// time, is packed on the stack and every row group of `chunk` runs the
/// tile over it. Per output element the sum runs over `k` ascending in a
/// single accumulator (stored and reloaded between blocks) —
/// bit-identical to a scalar `ikj` loop without zero-skipping, for any
/// row split and any `n`. Every element of `chunk` is overwritten,
/// whatever it held.
// spp-hot(kernel.matmul_dense)
pub fn matmul_rows_dense(a_rows: &[f32], k: usize, b: &[f32], n: usize, chunk: &mut [f32]) {
    debug_assert_eq!(b.len(), k * n, "b shape mismatch");
    if chunk.is_empty() {
        return;
    }
    if k == 0 {
        chunk.fill(0.0); // empty sum: no tile below would write it
        return;
    }
    let split = chunk.len() / n / MM_I_TILE * MM_I_TILE;
    let (a4, a1) = a_rows.split_at(split * k);
    let (out4, out1) = chunk.split_at_mut(split * n);
    let mut panel: Panel = [[0.0; MM_J_TILE]; KC];
    for j in (0..n).step_by(MM_J_TILE) {
        for kb in (0..k).step_by(KC) {
            let panel = &mut panel[..KC.min(k - kb)];
            pack_panel(panel, &b[kb * n..], n, j);
            let groups = a4
                .chunks_exact(MM_I_TILE * k)
                .zip(out4.chunks_exact_mut(MM_I_TILE * n));
            for (a, out) in groups {
                let steps = row_steps(a, k, kb, panel.len());
                let acc: Tile<MM_I_TILE> = tile(load_tile(out, n, j, kb > 0), panel, steps);
                store_tile(acc, out, n, j);
            }
            for (a, out) in a1.chunks_exact(k).zip(out1.chunks_exact_mut(n)) {
                let steps = row_steps(a, k, kb, panel.len());
                let acc: Tile<1> = tile(load_tile(out, n, j, kb > 0), panel, steps);
                store_tile(acc, out, n, j);
            }
        }
    }
}

/// The tile's left operand for `R` consecutive `k`-wide rows of `a`:
/// step `s` is column `kb + s` of each, for `depth` steps. Each row is
/// sliced to its exact span once, so no step checks a bound.
#[inline(always)]
fn row_steps<const R: usize>(
    a: &[f32],
    k: usize,
    kb: usize,
    depth: usize,
) -> impl Iterator<Item = Lhs<R>> + '_ {
    let rows: [&[f32]; R] = from_fn(|r| &a[r * k + kb..][..depth]);
    (0..depth).map(move |s| rows.map(|row| row[s]))
}

// ---------------------------------------------------------------------
// linear: out[i][j] = act(Σ_t Σ_k x_t[i][k] · w_t[k][j] + bias[j])
// ---------------------------------------------------------------------

/// Output elements per row block of [`linear_rows`]: 128 KiB of `f32`,
/// so a block one term wrote is still in L2 when the next term, the
/// bias and the ReLU pass over it — the output goes to memory once.
pub const LINEAR_BLOCK_ELEMS: usize = 32 * 1024;

/// Fused affine row kernel: output rows `r0 .. r0 + chunk.len() / n` of
/// `act(Σ_t x_t · w_t + bias)` into `chunk`, overwriting it. Each term
/// is `(x, w)` with `w` `k × n`; `x` has `k` columns and at least as
/// many rows as the output, and only the rows of the chunk are read,
/// from a matrix or any other row source alike ([`RowView`]).
///
/// Per row block each product is fully accumulated by
/// [`matmul_rows_dense`] — the first term straight into the output, a
/// later one into a scratch block that is then added to it — so an
/// element is `((p₀ + p₁) + p₂ …) + bias`, then clamped: exactly the
/// association of separate `matmul`, `add`, `add_bias` and `relu`
/// passes over whole matrices (an `f32` stored and reloaded is exact),
/// with no intermediate matrix. The ReLU is `v < 0 → 0`, so `-0.0` and
/// NaN pass through as they do there. A [`RowView::Rows`] operand's
/// rows of the block are first decoded and packed side by side into the
/// scratch, as a blocked product packs its operands: every 16-column
/// panel re-reads the block, and rows scattered over memory would miss
/// the cache on the first of those reads (0.72× the contiguous speed at
/// 24 000×64×256, unpacked).
// spp-hot(kernel.linear)
pub fn linear_rows(
    terms: &[(RowView<'_>, &Matrix)],
    bias: Option<&[f32]>,
    relu: bool,
    n: usize,
    r0: usize,
    chunk: &mut [f32],
) {
    let Some((&(x0, w0), later)) = terms.split_first() else {
        return;
    };
    if n == 0 {
        return;
    }
    let block = (LINEAR_BLOCK_ELEMS / n).max(MM_I_TILE) / MM_I_TILE * MM_I_TILE * n;
    let products = if later.is_empty() {
        0
    } else {
        block.min(chunk.len())
    };
    let packed_k = terms.iter().map(|(x, _)| match x {
        RowView::Dense(_) => 0,
        RowView::Rows(_) => x.cols(),
    });
    let packed = block.min(chunk.len()) / n * packed_k.max().unwrap_or(0);
    let mut scratch = if products + packed == 0 {
        Vec::new() // spp-hot: alloc(capacity-0 Vec::new never touches the heap)
    } else {
        vec![0.0f32; products + packed] // spp-hot: alloc(one L2-sized scratch block per job, reused by every row block and term)
    };
    let (product, pack) = scratch.split_at_mut(products);
    let mut lo = r0;
    for out in chunk.chunks_mut(block) {
        let hi = lo + out.len() / n;
        view_rows(x0, lo..hi, w0, n, out, pack);
        for &(x, w) in later {
            let product = &mut product[..out.len()];
            view_rows(x, lo..hi, w, n, product, pack);
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

/// Rows `rows` of `x · w` into `out`, wherever `x`'s rows live: a
/// [`RowView::Rows`] operand's are packed into `pack` first.
#[inline]
fn view_rows(
    x: RowView<'_>,
    rows: std::ops::Range<usize>,
    w: &Matrix,
    n: usize,
    out: &mut [f32],
    pack: &mut [f32],
) {
    let k = x.cols();
    let a = match x {
        RowView::Dense(m) => &m.as_flat()[rows.start * k..rows.end * k],
        RowView::Rows(s) => {
            let pack = &mut pack[..rows.len() * k];
            s.pack_rows(rows, 0..k, pack);
            pack
        }
    };
    matmul_rows_dense(a, k, w.as_flat(), n, out);
}

// ---------------------------------------------------------------------
// t_matmul: out[kk][j] = Σ_r a[r][kk] · b[r][j]
// ---------------------------------------------------------------------

/// Dense column-chunk kernel for `aᵀ @ b`: computes output rows
/// `k0 .. k0 + chunk.len() / n` (i.e. a column range of `a`) into
/// `chunk`, overwriting whatever it held. `a` is `rows × k` row-major,
/// `b` is `rows × n` row-major.
///
/// The rows are walked in panels of [`TM_R_PANEL`]. Per panel, each
/// 16-column slice of `b` is packed on the stack and every group of
/// output rows runs the tile over it, reading `R` consecutive columns of
/// each `a` row per step; the accumulators start at zero in the first
/// panel and are reloaded from `chunk` after it. Per output element the
/// sum runs over `r` ascending in a single accumulator (an `f32`
/// store/load between panels is exact), so any row count and any column
/// split is bit-identical to the scalar `r`-ascending loop.
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
    t_matmul_panels(a, k, b, n, rows, k0, chunk, false);
}

/// Columns of `a` per block of [`t_matmul_cols_packed`]: one block of a
/// row panel, [`TM_R_PANEL`] × 64 `f32`s (16 KiB), packed on the stack.
pub(crate) const TM_PACK_COLS: usize = 64;

/// [`t_matmul_cols_dense`] over the first `rows` rows of a source that
/// is no matrix ([`crate::RowView::Rows`]). Per row panel and block of
/// at most [`TM_PACK_COLS`] of the chunk's columns, the rows' columns
/// are decoded and packed side by side on the stack
/// ([`PackRows::pack_rows`]) and the dense kernel runs over the pack,
/// resuming the accumulators the panel before stored: every element
/// still sums over `r` ascending in one accumulator, so the bits are
/// the dense kernel's. Read in place, rows scattered over memory would
/// miss the cache where the kernel walks the panel again for each
/// 16-column slice of `b`.
pub(crate) fn t_matmul_cols_packed(
    a: &dyn PackRows,
    rows: usize,
    b: &[f32],
    n: usize,
    k0: usize,
    chunk: &mut [f32],
) {
    debug_assert_eq!(b.len(), rows * n, "b shape mismatch");
    if chunk.is_empty() {
        return;
    }
    if rows == 0 {
        chunk.fill(0.0); // empty sum: no panel below would write it
        return;
    }
    let mut pack = [0.0f32; TM_R_PANEL * TM_PACK_COLS];
    for r0 in (0..rows).step_by(TM_R_PANEL) {
        let r1 = (r0 + TM_R_PANEL).min(rows);
        for (cb, out) in chunk.chunks_mut(TM_PACK_COLS * n).enumerate() {
            let (c0, w) = (k0 + cb * TM_PACK_COLS, out.len() / n);
            let pack = &mut pack[..(r1 - r0) * w];
            a.pack_rows(r0..r1, c0..c0 + w, pack);
            t_matmul_panels(pack, w, &b[r0 * n..r1 * n], n, r1 - r0, 0, out, r0 > 0);
        }
    }
}

/// The one body of [`t_matmul_cols_dense`] and [`t_matmul_cols_packed`]:
/// the rows are walked in panels of [`TM_R_PANEL`], and the first
/// panel's accumulators start at zero unless `resume`, when they are
/// reloaded from `chunk` as every later panel's are.
#[inline(always)]
#[allow(
    clippy::too_many_arguments,
    reason = "the dense kernel's seven shape arguments plus the resume flag its packed form sets"
)]
fn t_matmul_panels(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    rows: usize,
    k0: usize,
    chunk: &mut [f32],
    resume: bool,
) {
    debug_assert_eq!(b.len(), rows * n, "b shape mismatch");
    if chunk.is_empty() {
        return;
    }
    if rows == 0 {
        chunk.fill(0.0); // empty sum: no panel below would write it
        return;
    }
    let split = chunk.len() / n / MM_I_TILE * MM_I_TILE;
    let (out4, out1) = chunk.split_at_mut(split * n);
    let mut panel = [[0.0f32; MM_J_TILE]; TM_R_PANEL];
    for r0 in (0..rows).step_by(TM_R_PANEL) {
        let r1 = (r0 + TM_R_PANEL).min(rows);
        let (ap, panel) = (&a[r0 * k..r1 * k], &mut panel[..r1 - r0]);
        let resume = resume || r0 > 0;
        for j in (0..n).step_by(MM_J_TILE) {
            pack_panel(panel, &b[r0 * n..r1 * n], n, j);
            for (g, out) in out4.chunks_exact_mut(MM_I_TILE * n).enumerate() {
                let steps = col_steps(ap, k, k0 + g * MM_I_TILE);
                let acc: Tile<MM_I_TILE> = tile(load_tile(out, n, j, resume), panel, steps);
                store_tile(acc, out, n, j);
            }
            for (g, out) in out1.chunks_exact_mut(n).enumerate() {
                let steps = col_steps(ap, k, k0 + split + g);
                let acc: Tile<1> = tile(load_tile(out, n, j, resume), panel, steps);
                store_tile(acc, out, n, j);
            }
        }
    }
}

/// The tile's left operand for output rows `c0 .. c0 + R` of
/// `t_matmul`: step `r` is columns `c0 .. c0 + R` of `a` row `r`.
#[inline(always)]
fn col_steps<const R: usize>(a: &[f32], k: usize, c0: usize) -> impl Iterator<Item = Lhs<R>> + '_ {
    a.chunks_exact(k).map(move |row| {
        let cols = &row[c0..c0 + R];
        from_fn(|r| cols[r])
    })
}

// ---------------------------------------------------------------------
// matmul_t: out[i][j] = dot(a_row_i, b_row_j)
// ---------------------------------------------------------------------

/// Dense row kernel for `a @ bᵀ`: overwrites `chunk` with its
/// `chunk.len() / b_rows` output rows, from the matching rows `a_rows`
/// of `a` and the `b_rows × k` row-major operand `b`.
///
/// Each element is bit-identical to [`dot_blocked`] of its two rows:
/// that dot's lane-`l` partial, `Σ_q a[8q + l]·b[8q + l]` over `q`
/// ascending from 0.0, is a `k/8`-deep `matmul` element of `a`'s lane-`l`
/// columns against `b`'s. So per 16 rows of `b` the kernel packs them
/// transposed on the stack, lane-major (panel row `l·(k/8) + q` is column
/// `8q + l`, the `k % 8` tail columns after them), runs `tile` once per
/// lane into an on-stack `[lane][R][16]` partial tile, combines the
/// partials in `dot_blocked`'s tree and runs the tile once more over the
/// tail, from the combined sums. `a` is walked in row blocks of
/// [`MT_BLOCK_ELEMS`] elements, each panel packed once per block. A `k` deeper
/// than [`KC`] is blocked too, but the partials cannot be parked in the
/// output, so each row group then repacks every block.
// spp-hot(kernel.matmul_t_dense)
pub fn matmul_t_rows_dense(a_rows: &[f32], k: usize, b: &[f32], b_rows: usize, chunk: &mut [f32]) {
    debug_assert_eq!(b.len(), b_rows * k, "b shape mismatch");
    if chunk.is_empty() {
        return;
    }
    if k == 0 {
        chunk.fill(0.0); // empty dots: no panel below would write them
        return;
    }
    let block = (MT_BLOCK_ELEMS / k).max(1).div_ceil(MM_I_TILE) * MM_I_TILE;
    let mut panel: Panel = [[0.0; MM_J_TILE]; KC];
    for (a_rows, chunk) in a_rows
        .chunks(block * k)
        .zip(chunk.chunks_mut(block * b_rows))
    {
        let split = chunk.len() / b_rows / MM_I_TILE * MM_I_TILE;
        let (a4, a1) = a_rows.split_at(split * k);
        let (out4, out1) = chunk.split_at_mut(split * b_rows);
        for (j, bp) in (0..b_rows).step_by(MM_J_TILE).zip(b.chunks(MM_J_TILE * k)) {
            let mut packed = None;
            let groups = a4
                .chunks_exact(MM_I_TILE * k)
                .zip(out4.chunks_exact_mut(MM_I_TILE * b_rows));
            for (a, out) in groups {
                let sums: Tile<MM_I_TILE> = matmul_t_group(a, k, bp, &mut panel, &mut packed);
                store_tile(sums, out, b_rows, j);
            }
            for (a, out) in a1.chunks_exact(k).zip(out1.chunks_exact_mut(b_rows)) {
                let sums: Tile<1> = matmul_t_group(a, k, bp, &mut panel, &mut packed);
                store_tile(sums, out, b_rows, j);
            }
        }
    }
}

/// The dots of `R` rows `a` with the (up to 16) rows `bp` of `b`, as a
/// tile. `packed` names the `k` block `panel` holds, so a block is
/// packed once for every row group that reads it in turn.
#[inline(always)]
fn matmul_t_group<const R: usize>(
    a: &[f32],
    k: usize,
    bp: &[f32],
    panel: &mut Panel,
    packed: &mut Option<usize>,
) -> Tile<R> {
    let (tail, mut part) = (k % LANES, [[[0.0f32; MM_J_TILE]; R]; LANES]);
    let mut tail_rows = 0..0;
    for kb in (0..k).step_by(KC) {
        let kc = KC.min(k - kb);
        let qc = (kc - if kb + kc == k { tail } else { 0 }) / LANES;
        if *packed != Some(kb) {
            pack_lanes(&mut panel[..kc], bp, k, kb, qc);
            *packed = Some(kb);
        }
        let rows: [&[[f32; LANES]]; R] = from_fn(|r| &a[r * k + kb..].as_chunks().0[..qc]);
        for (l, part_l) in part.iter_mut().enumerate() {
            let steps = (0..qc).map(|q| rows.map(|row| row[q][l]));
            *part_l = tile(*part_l, &panel[l * qc..][..qc], steps);
        }
        tail_rows = qc * LANES..kc;
    }
    let sum = from_fn(|r| {
        from_fn(|c| {
            let p = |l: usize| part[l][r][c];
            ((p(0) + p(1)) + (p(2) + p(3))) + ((p(4) + p(5)) + (p(6) + p(7)))
        })
    });
    let steps = (k - tail..k).map(|s| from_fn(|r| a[r * k + s]));
    tile(sum, &panel[tail_rows], steps)
}

/// Packs columns `kb .. kb + panel.len()` of the (up to 16) `k`-wide
/// rows `bp` into `panel` transposed: the first `8·qc` lane-major (panel
/// row `l·qc + q` is column `kb + 8q + l`), the rest in order, and the
/// columns past the last row of `bp` zero.
#[inline]
fn pack_lanes(panel: &mut [PanelRow], bp: &[f32], k: usize, kb: usize, qc: usize) {
    if bp.len() < MM_J_TILE * k {
        panel.fill([0.0; MM_J_TILE]);
    }
    for (c, row) in bp.chunks_exact(k).enumerate() {
        for (s, &v) in row[kb..][..panel.len()].iter().enumerate() {
            let p = if s < qc * LANES {
                s % LANES * qc + s / LANES
            } else {
                s
            };
            panel[p][c] = v;
        }
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

    /// The depths every sweep covers: each `k` up to 17 (below, at and
    /// past one lane chunk and one 16-column panel), wider layers, and
    /// both sides of the `KC` block seam (`KC` = 256, the widest layer here).
    fn sweep_k() -> impl Iterator<Item = usize> {
        (0..=17).chain([31, 64, 100, KC, KC + 1, 2 * KC + 3])
    }

    /// Output widths around every panel seam.
    const SWEEP_N: [usize; 7] = [1, 7, 15, 16, 17, 33, 256];

    /// Row counts around the 4-row group and `TM_R_PANEL` seams. From
    /// 64 deep the sweeps keep four of them, which still cross every
    /// seam, at a fraction of an unoptimized test build's time.
    fn sweep_rows(k: usize) -> Vec<usize> {
        if k >= 64 {
            return vec![1, 7, 8, 65];
        }
        (1..=9).chain([63, 64, 65, 130]).collect()
    }

    #[test]
    fn dense_matmul_matches_scalar_bitwise_over_awkward_shapes() {
        for k in sweep_k() {
            for n in SWEEP_N {
                let b = odd_values(k, n, 2);
                for rows in sweep_rows(k) {
                    let a = odd_values(rows, k, 1);
                    // The kernel overwrites: garbage in `out` must not survive.
                    let mut out = vec![f32::NAN; rows * n];
                    matmul_rows_dense(&a, k, &b, n, &mut out);
                    let want = matmul_scalar(&a, rows, k, &b, n);
                    assert_same_bits(&out, &want, &format!("{rows}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn matmul_row_splits_are_bit_identical() {
        let (rows, k, n) = (13usize, KC + 9, 33usize);
        let (a, b) = (fractious(rows * k, 18), fractious(k * n, 19));
        let whole = matmul_scalar(&a, rows, k, &b, n);
        for cut in 0..=rows {
            let mut pieced = vec![f32::NAN; rows * n];
            let (head, tail) = pieced.split_at_mut(cut * n);
            matmul_rows_dense(&a[..cut * k], k, &b, n, head);
            matmul_rows_dense(&a[cut * k..], k, &b, n, tail);
            assert_eq!(pieced, whole, "cut {cut}");
        }
    }

    #[test]
    fn linear_rows_matches_separate_passes_bitwise_across_blocks_and_splits() {
        // n = 45 ends in a narrow (13-column) panel; 800 rows of
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
                let xm: Vec<Matrix> = (0..terms)
                    .map(|t| Matrix::from_flat(rows, ks[t], xs[t].clone()))
                    .collect();
                let wm: Vec<Matrix> = (0..terms)
                    .map(|t| Matrix::from_flat(ks[t], n, ws[t].clone()))
                    .collect();
                let table: Vec<(RowView, &Matrix)> =
                    xm.iter().map(RowView::Dense).zip(&wm).collect();
                let b = with_bias.then_some(&bias[..]);
                let mut out = vec![f32::NAN; rows * n];
                let (head, tail) = out.split_at_mut(301 * n);
                linear_rows(&table, b, relu, n, 0, head);
                linear_rows(&table, b, relu, n, 301, tail);
                assert_eq!(out, want, "terms={terms} bias={with_bias} relu={relu}");
            }
        }
    }

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
        // `rows` is the reduction: zero rows is an empty sum the kernel
        // itself must write, and 63…130 cross the row-panel seams.
        for k in sweep_k() {
            for n in SWEEP_N {
                for rows in sweep_rows(k).into_iter().chain([0]) {
                    let a = odd_values(rows, k, 3);
                    let b = odd_values(rows, n, 4);
                    // The kernel overwrites: garbage in `chunk` must not
                    // leak into the first panel's accumulators.
                    let mut out = vec![f32::NAN; k * n];
                    t_matmul_cols_dense(&a, k, &b, n, rows, 0, &mut out);
                    let want = t_matmul_scalar(&a, rows, k, &b, n);
                    assert_same_bits(&out, &want, &format!("{rows}x{k}x{n}"));
                }
            }
        }
    }

    #[test]
    fn t_matmul_column_splits_are_bit_identical() {
        let (k, n) = (14, 10);
        for rows in [33usize, 63, 64, 65, 197] {
            let a = fractious(rows * k, 5);
            let b = fractious(rows * n, 6);
            let whole = t_matmul_scalar(&a, rows, k, &b, n);
            for cut in 0..=k {
                let mut pieced = vec![f32::NAN; k * n];
                let (head, tail) = pieced.split_at_mut(cut * n);
                t_matmul_cols_dense(&a, k, &b, n, rows, 0, head);
                t_matmul_cols_dense(&a, k, &b, n, rows, cut, tail);
                assert_eq!(pieced, whole, "rows={rows} cut={cut}");
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

    /// `a @ bᵀ` through the kernel, into a NaN-prefilled output.
    fn matmul_t_kernel(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; rows * n];
        matmul_t_rows_dense(a, k, b, n, &mut out);
        out
    }

    /// `dot_blocked` per element: the order `matmul_t` is pinned to.
    fn matmul_t_dots(a: &[f32], rows: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let row = |m: &[f32], i: usize| m[i * k..(i + 1) * k].to_vec();
        (0..rows * n)
            .map(|e| dot_blocked(&row(a, e / n), &row(b, e % n)))
            .collect()
    }

    /// Bit equality, except that any NaN equals any NaN: which NaN
    /// payload an `fmadd` over two NaN operands keeps is the hardware's.
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (e, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(
                same,
                "{what}: element {e} is {g:e}, the reference gives {w:e}"
            );
        }
    }

    #[test]
    fn matmul_t_rows_dense_matches_dot() {
        // k = 0: empty dots are zeros the kernel itself must write. Every
        // k below 8 runs no lane tile, n = 256 fills whole panels, and
        // past KC every row group repacks each block.
        for k in sweep_k() {
            for n in SWEEP_N {
                let b = fractious(n * k, 13);
                for rows in sweep_rows(k) {
                    let a = fractious(rows * k, 12);
                    assert_same_bits(
                        &matmul_t_kernel(&a, rows, k, &b, n),
                        &matmul_t_dots(&a, rows, k, &b, n),
                        &format!("{rows}x{k}x{n}"),
                    );
                }
            }
        }
    }

    /// Rows of signed zeros, subnormals and sparse ±inf / NaN among
    /// finite rows: row kind `i % 4`.
    fn odd_values(rows: usize, k: usize, salt: u32) -> Vec<f32> {
        const ODD: [f32; 6] = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -1e-45,
        ];
        let mut v = fractious(rows * k, salt);
        for (i, row) in v.chunks_mut(k.max(1)).enumerate() {
            for (c, x) in row.iter_mut().enumerate() {
                match i % 4 {
                    0 => {}
                    1 => *x = -0.0,
                    2 => *x = if c % 2 == 0 { 1e-40 } else { -3e-39 },
                    _ if c % 5 == i % 5 => *x = ODD[(c + i) % ODD.len()],
                    _ => {}
                }
            }
        }
        v
    }

    #[test]
    fn matmul_t_matches_dot_blocked_on_zeros_infinities_nan_and_subnormals() {
        for (rows, k, n) in [
            (8, 5, 9),
            (12, 8, 16),
            (9, 37, 33),
            (16, 64, 20),
            (8, KC + 11, 17),
        ] {
            let (a, b) = (odd_values(rows, k, 14), odd_values(n, k, 15));
            let got = matmul_t_kernel(&a, rows, k, &b, n);
            assert_same_bits(&got, &matmul_t_dots(&a, rows, k, &b, n), "odd values");
            // An all-(-0.0) row against finite rows is a sum of -0.0
            // products from +0.0 accumulators: +0.0, not -0.0.
            assert_eq!(got[n].to_bits(), 0.0f32.to_bits(), "{rows}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_t_row_splits_are_bit_identical() {
        let (rows, k, n) = (13usize, KC + 37, 33usize);
        let (a, b) = (fractious(rows * k, 16), fractious(n * k, 17));
        let whole = matmul_t_kernel(&a, rows, k, &b, n);
        for cut in 0..=rows {
            let mut pieced = vec![f32::NAN; rows * n];
            let (head, tail) = pieced.split_at_mut(cut * n);
            matmul_t_rows_dense(&a[..cut * k], k, &b, n, head);
            matmul_t_rows_dense(&a[cut * k..], k, &b, n, tail);
            assert_same_bits(&pieced, &whole, &format!("cut {cut}"));
        }
    }
}
