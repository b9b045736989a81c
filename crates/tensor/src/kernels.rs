//! Blocked, autovectorizable compute kernels with deterministic parallel
//! dispatch.
//!
//! Every kernel here obeys the workspace determinism contract (DESIGN.md
//! "Threading & determinism"): the floating-point evaluation order of each
//! output element is fixed by the *kernel structure* — k-panels of four,
//! eight-lane dot accumulators, fixed-size reduction blocks — and never by
//! the thread count. Parallel dispatch only distributes disjoint output row
//! ranges (or fixed reduction blocks) across the pool, so a result is
//! bit-identical whether it was computed by one thread or many.
//!
//! Sizing: small operands stay serial (`PAR_FLOPS_MIN`, `PAR_ELEMS_MIN`)
//! because fan-out costs more than the work saved below those points.

use std::cell::Cell;

use stuq_parallel::{par_map, par_ranges, SendPtr};

thread_local! {
    static REFERENCE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Routes the matmul-family kernels on the *current thread* through the
/// seed's scalar reference implementations — and the tanh/sigmoid
/// activations ([`crate::Tensor::tanh`], [`crate::Tensor::sigmoid`]) back
/// to libm — for the duration of `f`.
///
/// This is a benchmark hook: `stuq-bench` uses it (combined with
/// [`stuq_parallel::with_serial`]) to time a seed-equivalent baseline for
/// whole-model inference in-process, so its speedups are measured
/// against the actual pre-engine code path rather than a synthetic stand-in.
pub fn with_reference_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            REFERENCE_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    REFERENCE_DEPTH.with(|d| d.set(d.get() + 1));
    let _g = Guard;
    f()
}

pub(crate) fn reference_mode() -> bool {
    REFERENCE_DEPTH.with(|d| d.get()) > 0
}

/// Minimum `m·k·n` before a matmul fans out to the pool.
pub const PAR_FLOPS_MIN: usize = 1 << 18;
/// Minimum element count before an elementwise op fans out.
pub const PAR_ELEMS_MIN: usize = 1 << 16;
/// Output rows per parallel matmul chunk (fixed: never thread-dependent).
pub const ROW_CHUNK: usize = 16;
/// Elements per parallel elementwise chunk.
pub const ELEM_CHUNK: usize = 1 << 14;
/// Elements per reduction block; partial sums are combined in block order.
pub const SUM_BLOCK: usize = 1 << 12;
/// Square tile edge for the cache-blocked transpose.
pub const TRANSPOSE_TILE: usize = 32;

/// Columns per register tile: the accumulators for a 4-row group are
/// `4 × J_TILE` floats, sized to stay in vector registers on AVX-512/NEON.
const J_TILE: usize = 32;

/// Scalar-panel fallback for the trailing `n % J_TILE` columns of one row.
///
/// `orow` is the tail slice `out[row][j0..n]`; `b` is the full `k × n`
/// right-hand side, entered at column offset `j0`.
fn mm_row_tail(arow: &[f32], b: &[f32], orow: &mut [f32], k: usize, n: usize, j0: usize) {
    let width = n - j0;
    if width < 8 {
        // Narrow tail (1–2 columns is common for the model's gate widths):
        // the row-major panel below would leave too few independent outputs
        // in flight and serialize into k-long dependent FMA chains. Go
        // column-major with four accumulator chains per output instead.
        for (o, j) in orow.iter_mut().zip(j0..n) {
            let col = &b[j..];
            let mut s = [0.0f32; 4];
            let mut kk = 0;
            while kk + 4 <= k {
                s[0] = arow[kk].mul_add(col[kk * n], s[0]);
                s[1] = arow[kk + 1].mul_add(col[(kk + 1) * n], s[1]);
                s[2] = arow[kk + 2].mul_add(col[(kk + 2) * n], s[2]);
                s[3] = arow[kk + 3].mul_add(col[(kk + 3) * n], s[3]);
                kk += 4;
            }
            while kk < k {
                s[0] = arow[kk].mul_add(col[kk * n], s[0]);
                kk += 1;
            }
            *o = (s[0] + s[1]) + (s[2] + s[3]);
        }
        return;
    }
    // Wide tail: row-major k-panels of four vectorize across the columns,
    // and the many outputs in flight hide the per-element chain latency.
    let mut kk = 0;
    while kk + 4 <= k {
        let (a0, a1, a2, a3) = (arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]);
        let b0 = &b[kk * n + j0..kk * n + n];
        let b1 = &b[(kk + 1) * n + j0..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n + j0..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n + j0..(kk + 3) * n + n];
        for ((((o, &x0), &x1), &x2), &x3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *o = a3.mul_add(x3, a2.mul_add(x2, a1.mul_add(x1, a0.mul_add(x0, *o))));
        }
        kk += 4;
    }
    while kk < k {
        let aik = arow[kk];
        let brow = &b[kk * n + j0..kk * n + n];
        for (o, &x) in orow.iter_mut().zip(brow) {
            *o = aik.mul_add(x, *o);
        }
        kk += 1;
    }
}

/// Register-tiled single row: full `J_TILE` column tiles, k unrolled by two
/// into independent accumulator sets (combined in a fixed order at the end).
fn mm_row_tiles(arow: &[f32], b: &[f32], orow: &mut [f32], k: usize, n: usize) {
    for (t, otile) in orow.chunks_exact_mut(J_TILE).enumerate() {
        let jb = t * J_TILE;
        let mut acc_e = [0.0f32; J_TILE];
        let mut acc_o = [0.0f32; J_TILE];
        let mut kk = 0;
        while kk + 2 <= k {
            let be: &[f32; J_TILE] = b[kk * n + jb..kk * n + jb + J_TILE].try_into().unwrap();
            let bo: &[f32; J_TILE] =
                b[(kk + 1) * n + jb..(kk + 1) * n + jb + J_TILE].try_into().unwrap();
            let (xe, xo) = (arow[kk], arow[kk + 1]);
            for l in 0..J_TILE {
                acc_e[l] = xe.mul_add(be[l], acc_e[l]);
                acc_o[l] = xo.mul_add(bo[l], acc_o[l]);
            }
            kk += 2;
        }
        if kk < k {
            let bv: &[f32; J_TILE] = b[kk * n + jb..kk * n + jb + J_TILE].try_into().unwrap();
            let x = arow[kk];
            for l in 0..J_TILE {
                acc_e[l] = x.mul_add(bv[l], acc_e[l]);
            }
        }
        for (o, l) in otile.iter_mut().zip(0..J_TILE) {
            *o = acc_e[l] + acc_o[l];
        }
    }
}

/// `C[rows] = A[rows] @ B` for a contiguous block of rows.
///
/// `a` holds `rows·k` elements, `out` holds `rows·n`; `b` is the full
/// `k × n` right-hand side, and `out` must be zeroed on entry (the register
/// tiles overwrite their columns outright — sparing a read pass of `out` —
/// but the wide-tail path and the `k == 0` early return rely on the zeros).
/// Rows are processed in groups of four with a
/// `4 × J_TILE` register tile: the output accumulators live in vector
/// registers for the whole k-loop, so each loaded `B` vector feeds four FMAs
/// and the output is touched once per tile — the seed kernel's
/// load-FMA-store round-trip per `(k, j)` step is what limited it. There is
/// deliberately no zero-skip branch (the seed's `if aik == 0.0 { continue }`
/// defeated vectorization on dense data — see EXPERIMENTS.md for the
/// measured cost).
///
/// Tiling is fixed by position in the block (parallel callers hand over row
/// ranges aligned to [`ROW_CHUNK`], a multiple of four), so the per-element
/// evaluation order never depends on the thread count.
fn mm_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    let rows = a.len() / k;
    let jt = n - n % J_TILE;
    let mut r = 0;
    while r + 4 <= rows {
        let (arows, orows) = (&a[r * k..(r + 4) * k], &mut out[r * n..(r + 4) * n]);
        let (a0, arest) = arows.split_at(k);
        let (a1, arest) = arest.split_at(k);
        let (a2, a3) = arest.split_at(k);
        let (o0, orest) = orows.split_at_mut(n);
        let (o1, orest) = orest.split_at_mut(n);
        let (o2, o3) = orest.split_at_mut(n);
        for t in 0..jt / J_TILE {
            let jb = t * J_TILE;
            let mut c0 = [0.0f32; J_TILE];
            let mut c1 = [0.0f32; J_TILE];
            let mut c2 = [0.0f32; J_TILE];
            let mut c3 = [0.0f32; J_TILE];
            for kk in 0..k {
                let bv: &[f32; J_TILE] = b[kk * n + jb..kk * n + jb + J_TILE].try_into().unwrap();
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                for l in 0..J_TILE {
                    c0[l] = x0.mul_add(bv[l], c0[l]);
                    c1[l] = x1.mul_add(bv[l], c1[l]);
                    c2[l] = x2.mul_add(bv[l], c2[l]);
                    c3[l] = x3.mul_add(bv[l], c3[l]);
                }
            }
            o0[jb..jb + J_TILE].copy_from_slice(&c0);
            o1[jb..jb + J_TILE].copy_from_slice(&c1);
            o2[jb..jb + J_TILE].copy_from_slice(&c2);
            o3[jb..jb + J_TILE].copy_from_slice(&c3);
        }
        if jt < n {
            mm_row_tail(a0, b, &mut o0[jt..], k, n, jt);
            mm_row_tail(a1, b, &mut o1[jt..], k, n, jt);
            mm_row_tail(a2, b, &mut o2[jt..], k, n, jt);
            mm_row_tail(a3, b, &mut o3[jt..], k, n, jt);
        }
        r += 4;
    }
    while r < rows {
        let arow = &a[r * k..(r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        mm_row_tiles(arow, b, &mut orow[..jt], k, n);
        if jt < n {
            mm_row_tail(arow, b, &mut orow[jt..], k, n, jt);
        }
        r += 1;
    }
}

/// `A (m×k) @ B (k×n)`, row-parallel above [`PAR_FLOPS_MIN`].
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().kernel_matmul.inc();
    }
    if reference_mode() {
        return matmul_reference(a, b, m, k, n);
    }
    let t_start = stuq_obs::trace_enabled().then(std::time::Instant::now);
    let mut out = vec![0.0f32; m * n];
    if m.saturating_mul(k).saturating_mul(n) >= PAR_FLOPS_MIN && m > ROW_CHUNK {
        let optr = SendPtr::new(out.as_mut_ptr());
        par_ranges(m, ROW_CHUNK, |r| {
            // SAFETY: row ranges are disjoint, so the output slices never alias.
            let ob = unsafe {
                std::slice::from_raw_parts_mut(optr.get().add(r.start * n), (r.end - r.start) * n)
            };
            mm_block(&a[r.start * k..r.end * k], b, ob, k, n);
        });
    } else {
        mm_block(a, b, &mut out, k, n);
    }
    if let Some(t) = t_start {
        record_gflops(m, k, n, t);
    }
    out
}

/// Sets the traced GFLOP/s gauge for a `2·m·k·n`-flop kernel dispatch.
fn record_gflops(m: usize, k: usize, n: usize, start: std::time::Instant) {
    let secs = start.elapsed().as_secs_f64();
    if secs > 0.0 {
        let flops = 2.0 * (m as f64) * (k as f64) * (n as f64);
        stuq_obs::metrics().kernel_gflops.set(flops / secs / 1e9);
    }
}

/// Eight-lane dot product with a fixed lane-reduction order.
#[inline]
pub fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
    const L: usize = 8;
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f32; L];
    let whole = x.len() - x.len() % L;
    let mut i = 0;
    while i < whole {
        let xs = &x[i..i + L];
        let ys = &y[i..i + L];
        for l in 0..L {
            lanes[l] = xs[l].mul_add(ys[l], lanes[l]);
        }
        i += L;
    }
    let mut tail = 0.0f32;
    for (xv, yv) in x[whole..].iter().zip(&y[whole..]) {
        tail += xv * yv;
    }
    (((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7])))
        + tail
}

/// Flop count (`m·k·n`) below which `matmul_tb` keeps the dot-product loop:
/// the tiled path pays an up-front `O(n·k)` transpose of `b`, which only
/// amortizes once there is real arithmetic behind it.
pub const TB_TILE_MIN: usize = 1 << 14;

fn mm_tb_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        debug_assert_eq!(b.len(), n * k);
        for (o, brow) in orow.iter_mut().zip(b.chunks_exact(k)) {
            *o = dot_f32(arow, brow);
        }
    }
}

/// `A (m×k) @ Bᵀ` where `b` is stored as `n × k`.
///
/// Above [`TB_TILE_MIN`] flops this transposes `b` once (cache-blocked) and
/// runs the same register-tiled `4 × J_TILE` micro-kernel as [`matmul`] —
/// each loaded `B` vector feeds four FMAs instead of one eight-lane dot per
/// output — with deterministic [`ROW_CHUNK`] row parallelism above
/// [`PAR_FLOPS_MIN`]. Below it the eight-lane dot loop stays, since a
/// transpose would dominate. Both thresholds depend only on the shape, so
/// the evaluation order — hence the result, bit-for-bit — never depends on
/// the thread count.
pub fn matmul_tb(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().kernel_matmul_tb.inc();
    }
    if reference_mode() {
        return matmul_tb_reference(a, b, m, k, n);
    }
    let flops = m.saturating_mul(k).saturating_mul(n);
    let mut out = vec![0.0f32; m * n];
    if flops < TB_TILE_MIN {
        mm_tb_block(a, b, &mut out, k, n);
        return out;
    }
    let t_start = stuq_obs::trace_enabled().then(std::time::Instant::now);
    let bt = transpose(b, n, k); // k × n: the layout the tiled kernel wants
    if flops >= PAR_FLOPS_MIN && m > ROW_CHUNK {
        let optr = SendPtr::new(out.as_mut_ptr());
        par_ranges(m, ROW_CHUNK, |r| {
            // SAFETY: disjoint output row ranges.
            let ob = unsafe {
                std::slice::from_raw_parts_mut(optr.get().add(r.start * n), (r.end - r.start) * n)
            };
            mm_block(&a[r.start * k..r.end * k], &bt, ob, k, n);
        });
    } else {
        mm_block(a, &bt, &mut out, k, n);
    }
    if let Some(t) = t_start {
        record_gflops(m, k, n, t);
    }
    out
}

/// `Aᵀ (m×k from a k×m input) @ B (k×n)` — the transposed-A product both
/// matmul adjoints need (`db = aᵀ g` and `db = gᵀ a`).
///
/// `a` is stored `ar × ac` row-major; the result is `ac × n`. The kernel is
/// the cache-blocked [`transpose`] followed by the same register-tiled
/// dispatch as [`matmul`] with `m = ac, k = ar` — element for element the
/// arithmetic the previous `a.transpose().matmul(g)` composition performed
/// (the transpose is pure data movement), just as a single kernel entry
/// with its own dispatch counter instead of an intermediate tensor. The
/// reference path is likewise transpose + [`matmul_reference`], so the seed
/// baseline is unchanged too.
pub fn matmul_ta(a: &[f32], b: &[f32], ar: usize, ac: usize, n: usize) -> Vec<f32> {
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().kernel_matmul_ta.inc();
    }
    let at = transpose(a, ar, ac); // ac × ar
    let (m, k) = (ac, ar);
    if reference_mode() {
        return matmul_reference(&at, b, m, k, n);
    }
    let t_start = stuq_obs::trace_enabled().then(std::time::Instant::now);
    let mut out = vec![0.0f32; m * n];
    if m.saturating_mul(k).saturating_mul(n) >= PAR_FLOPS_MIN && m > ROW_CHUNK {
        let optr = SendPtr::new(out.as_mut_ptr());
        par_ranges(m, ROW_CHUNK, |r| {
            // SAFETY: row ranges are disjoint, so the output slices never alias.
            let ob = unsafe {
                std::slice::from_raw_parts_mut(optr.get().add(r.start * n), (r.end - r.start) * n)
            };
            mm_block(&at[r.start * k..r.end * k], b, ob, k, n);
        });
    } else {
        mm_block(&at, b, &mut out, k, n);
    }
    if let Some(t) = t_start {
        record_gflops(m, k, n, t);
    }
    out
}

/// NAPL row-wise matmul forward (paper Eq. 5): output row `r` is
/// `z[r, :] @ W_r` with `W_r = w[r, :]` viewed as `ci × co`. Row-parallel;
/// each row reuses the blocked [`mm_block`] micro-kernel.
pub fn rowwise_matmul(z: &[f32], w: &[f32], rows: usize, ci: usize, co: usize) -> Vec<f32> {
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().kernel_rowwise.inc();
    }
    if reference_mode() {
        return rowwise_matmul_reference(z, w, rows, ci, co);
    }
    let mut out = vec![0.0f32; rows * co];
    let per_row = |row: usize, orow: &mut [f32]| {
        mm_block(
            &z[row * ci..(row + 1) * ci],
            &w[row * ci * co..(row + 1) * ci * co],
            orow,
            ci,
            co,
        );
    };
    if rows.saturating_mul(ci).saturating_mul(co) >= PAR_FLOPS_MIN && rows > ROW_CHUNK {
        let optr = SendPtr::new(out.as_mut_ptr());
        par_ranges(rows, ROW_CHUNK, |r| {
            for row in r {
                // SAFETY: each row's output slice is disjoint.
                let orow = unsafe { std::slice::from_raw_parts_mut(optr.get().add(row * co), co) };
                per_row(row, orow);
            }
        });
    } else {
        for (row, orow) in out.chunks_exact_mut(co).enumerate() {
            per_row(row, orow);
        }
    }
    out
}

/// NAPL row-wise matmul backward: given upstream grad `g` (`rows × co`),
/// returns `(dz, dw)` with `dz[r, i] = g[r, :] · W_r[i, :]` and
/// `dw[r, i·co + j] = z[r, i] · g[r, j]`. Row-parallel (rows are disjoint in
/// both outputs).
pub fn rowwise_matmul_grad(
    z: &[f32],
    w: &[f32],
    g: &[f32],
    rows: usize,
    ci: usize,
    co: usize,
) -> (Vec<f32>, Vec<f32>) {
    let mut dz = vec![0.0f32; rows * ci];
    let mut dw = vec![0.0f32; rows * ci * co];
    let per_row = |row: usize, dz_row: &mut [f32], dw_row: &mut [f32]| {
        let g_row = &g[row * co..(row + 1) * co];
        let z_row = &z[row * ci..(row + 1) * ci];
        let w_row = &w[row * ci * co..(row + 1) * ci * co];
        for i in 0..ci {
            let w_chunk = &w_row[i * co..(i + 1) * co];
            let dw_chunk = &mut dw_row[i * co..(i + 1) * co];
            let zri = z_row[i];
            dz_row[i] = dot_f32(g_row, w_chunk);
            for (dwv, &gv) in dw_chunk.iter_mut().zip(g_row) {
                *dwv = zri * gv;
            }
        }
    };
    if rows.saturating_mul(ci).saturating_mul(co) >= PAR_FLOPS_MIN && rows > ROW_CHUNK {
        let zptr = SendPtr::new(dz.as_mut_ptr());
        let wptr = SendPtr::new(dw.as_mut_ptr());
        par_ranges(rows, ROW_CHUNK, |r| {
            for row in r {
                // SAFETY: per-row slices of dz and dw are disjoint.
                let (dz_row, dw_row) = unsafe {
                    (
                        std::slice::from_raw_parts_mut(zptr.get().add(row * ci), ci),
                        std::slice::from_raw_parts_mut(wptr.get().add(row * ci * co), ci * co),
                    )
                };
                per_row(row, dz_row, dw_row);
            }
        });
    } else {
        for row in 0..rows {
            per_row(
                row,
                &mut dz[row * ci..(row + 1) * ci],
                &mut dw[row * ci * co..(row + 1) * ci * co],
            );
        }
    }
    (dz, dw)
}

/// The seed's scalar i-k-j matmul, zero-skip branch included.
///
/// Kept verbatim as the reference implementation: correctness property tests
/// compare the blocked kernels against it, and `stuq-bench` measures the
/// speedup over it (it *is* the pre-parallel-engine baseline).
pub fn matmul_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bkj) in orow.iter_mut().zip(brow) {
                *o += aik * bkj;
            }
        }
    }
    out
}

/// The seed's scalar `A @ Bᵀ` (`b` stored `n × k`): one plain dot per output.
pub fn matmul_tb_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// The seed's scalar NAPL row-wise matmul: per row, a naive i-j loop.
pub fn rowwise_matmul_reference(
    z: &[f32],
    w: &[f32],
    rows: usize,
    ci: usize,
    co: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows * co];
    for row in 0..rows {
        let z_row = &z[row * ci..(row + 1) * ci];
        let w_row = &w[row * ci * co..(row + 1) * ci * co];
        let o_row = &mut out[row * co..(row + 1) * co];
        for (i, &zv) in z_row.iter().enumerate() {
            if zv == 0.0 {
                continue;
            }
            let w_chunk = &w_row[i * co..(i + 1) * co];
            for (o, &wv) in o_row.iter_mut().zip(w_chunk) {
                *o += zv * wv;
            }
        }
    }
    out
}

/// Cache-blocked transpose of an `m × n` row-major matrix.
pub fn transpose(src: &[f32], m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    let t = TRANSPOSE_TILE;
    for ib in (0..m).step_by(t) {
        let i_end = (ib + t).min(m);
        for jb in (0..n).step_by(t) {
            let j_end = (jb + t).min(n);
            for i in ib..i_end {
                for j in jb..j_end {
                    out[j * m + i] = src[i * n + j];
                }
            }
        }
    }
    out
}

/// Elementwise map into a fresh buffer, chunk-parallel above [`PAR_ELEMS_MIN`].
pub fn map_elems(src: &[f32], f: impl Fn(f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    if src.len() >= PAR_ELEMS_MIN {
        let optr = SendPtr::new(out.as_mut_ptr());
        par_ranges(src.len(), ELEM_CHUNK, |r| {
            // SAFETY: disjoint output ranges.
            let ob = unsafe { std::slice::from_raw_parts_mut(optr.get().add(r.start), r.len()) };
            for (o, &v) in ob.iter_mut().zip(&src[r]) {
                *o = f(v);
            }
        });
    } else {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = f(v);
        }
    }
    out
}

/// Elementwise binary map into a fresh buffer, chunk-parallel.
pub fn zip_elems(x: &[f32], y: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    debug_assert_eq!(x.len(), y.len());
    let mut out = vec![0.0f32; x.len()];
    if x.len() >= PAR_ELEMS_MIN {
        let optr = SendPtr::new(out.as_mut_ptr());
        par_ranges(x.len(), ELEM_CHUNK, |r| {
            // SAFETY: disjoint output ranges.
            let ob = unsafe { std::slice::from_raw_parts_mut(optr.get().add(r.start), r.len()) };
            for ((o, &a), &b) in ob.iter_mut().zip(&x[r.clone()]).zip(&y[r]) {
                *o = f(a, b);
            }
        });
    } else {
        for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
            *o = f(a, b);
        }
    }
    out
}

/// In-place elementwise map, chunk-parallel.
pub fn map_inplace_elems(dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    if dst.len() >= PAR_ELEMS_MIN {
        let len = dst.len();
        let dptr = SendPtr::new(dst.as_mut_ptr());
        par_ranges(len, ELEM_CHUNK, |r| {
            // SAFETY: disjoint ranges of dst.
            let db = unsafe { std::slice::from_raw_parts_mut(dptr.get().add(r.start), r.len()) };
            for v in db {
                *v = f(*v);
            }
        });
    } else {
        for v in dst {
            *v = f(*v);
        }
    }
}

/// `dst[i] = f(dst[i], src[i])`, chunk-parallel (covers `+=` and AXPY).
pub fn zip_assign_elems(dst: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(dst.len(), src.len());
    if dst.len() >= PAR_ELEMS_MIN {
        let len = dst.len();
        let dptr = SendPtr::new(dst.as_mut_ptr());
        par_ranges(len, ELEM_CHUNK, |r| {
            // SAFETY: disjoint ranges of dst.
            let db = unsafe { std::slice::from_raw_parts_mut(dptr.get().add(r.start), r.len()) };
            for (d, &s) in db.iter_mut().zip(&src[r]) {
                *d = f(*d, s);
            }
        });
    } else {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f(*d, s);
        }
    }
}

/// Sum of `map(x[i])` accumulated in `f64` over fixed [`SUM_BLOCK`]-sized
/// blocks; block partials are combined in block order, so the result is
/// independent of the thread count.
pub fn blocked_sum(x: &[f32], map: impl Fn(f32) -> f64 + Sync) -> f64 {
    if x.len() <= SUM_BLOCK {
        return x.iter().map(|&v| map(v)).sum();
    }
    let n_blocks = x.len().div_ceil(SUM_BLOCK);
    let partials = par_map(n_blocks, |b| {
        let start = b * SUM_BLOCK;
        x[start..(start + SUM_BLOCK).min(x.len())].iter().map(|&v| map(v)).sum::<f64>()
    });
    partials.iter().sum()
}

/// Row softmax in place, with the max-subtraction trick. Rows are
/// independent, so the loop is row-parallel above [`PAR_ELEMS_MIN`]
/// without affecting the per-row summation order. Outside
/// [`with_reference_kernels`] the exp calls go through
/// [`crate::fastmath::exp_f32`] — the adaptive-adjacency softmax is a full
/// `n × n` pass per forward, and libm `exp` is a measurable slice of it.
pub fn softmax_rows_inplace(buf: &mut [f32], m: usize, n: usize) {
    debug_assert_eq!(buf.len(), m * n);
    if n == 0 {
        return;
    }
    let refmode = reference_mode();
    let one_row = |row: &mut [f32]| {
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        if refmode {
            for x in row.iter_mut() {
                let e = (*x - mx).exp();
                *x = e;
                denom += e;
            }
            for x in row {
                *x /= denom;
            }
        } else {
            for x in row.iter_mut() {
                let e = crate::fastmath::exp_f32(*x - mx);
                *x = e;
                denom += e;
            }
            let inv = 1.0 / denom;
            for x in row {
                *x *= inv;
            }
        }
    };
    if m * n >= PAR_ELEMS_MIN && m > 1 {
        let bptr = SendPtr::new(buf.as_mut_ptr());
        let rows_per_chunk = (ELEM_CHUNK / n).max(1);
        par_ranges(m, rows_per_chunk, |rr| {
            for i in rr {
                // SAFETY: each row index is visited by exactly one chunk.
                one_row(unsafe { std::slice::from_raw_parts_mut(bptr.get().add(i * n), n) });
            }
        });
    } else {
        for row in buf.chunks_exact_mut(n) {
            one_row(row);
        }
    }
}

/// Blocked `f64` dot product with the same ordered-reduction guarantee.
pub fn blocked_dot(x: &[f32], y: &[f32]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let block = |r: std::ops::Range<usize>| {
        x[r.clone()].iter().zip(&y[r]).map(|(&a, &b)| (a as f64) * (b as f64)).sum::<f64>()
    };
    if x.len() <= SUM_BLOCK {
        return block(0..x.len());
    }
    let n_blocks = x.len().div_ceil(SUM_BLOCK);
    let partials = par_map(n_blocks, |b| block(b * SUM_BLOCK..((b + 1) * SUM_BLOCK).min(x.len())));
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StuqRng;

    fn randv(rng: &mut StuqRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.normal_f32()).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            let denom = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() / denom <= tol, "elem {i}: {x} vs {y}");
        }
    }

    /// Softmax rows: fast-exp path tracks the libm reference closely, rows
    /// sum to 1, and the pooled result is bit-identical to the serial one.
    #[test]
    fn softmax_rows_fast_matches_reference_and_is_deterministic() {
        let mut rng = StuqRng::new(0x50F7);
        for &(m, n) in &[(3usize, 7usize), (307, 307), (1, 513)] {
            let src: Vec<f32> = (0..m * n).map(|_| rng.normal_f32() * 4.0).collect();
            let softmax_rows = |src: &[f32], m, n| {
                let mut out = src.to_vec();
                softmax_rows_inplace(&mut out, m, n);
                out
            };
            let fast = softmax_rows(&src, m, n);
            let reference = with_reference_kernels(|| softmax_rows(&src, m, n));
            assert_close(&fast, &reference, 1e-5);
            for row in fast.chunks_exact(n) {
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "row sum {s}");
            }
            let serial = stuq_parallel::with_serial(|| softmax_rows(&src, m, n));
            assert_eq!(fast, serial, "softmax must not depend on thread count");
        }
    }

    /// Property: blocked/parallel matmul matches the scalar reference within
    /// 1e-5 relative tolerance across random shapes (including shapes that
    /// cross the parallel threshold and k % 4 != 0 remainders).
    #[test]
    fn matmul_matches_reference_across_random_shapes() {
        let mut rng = StuqRng::new(0xA11);
        for case in 0..40 {
            let m = 1 + rng.uniform_usize(97);
            let k = 1 + rng.uniform_usize(67);
            let n = 1 + rng.uniform_usize(83);
            let a = randv(&mut rng, m * k);
            let b = randv(&mut rng, k * n);
            let fast = matmul(&a, &b, m, k, n);
            let slow = matmul_reference(&a, &b, m, k, n);
            assert_close(&fast, &slow, 1e-5);
            if case == 0 {
                // One guaranteed-large case above the parallel threshold.
                let (m, k, n) = (307, 64, 307);
                let a = randv(&mut rng, m * k);
                let b = randv(&mut rng, k * n);
                assert_close(&matmul(&a, &b, m, k, n), &matmul_reference(&a, &b, m, k, n), 1e-5);
            }
        }
    }

    #[test]
    fn matmul_tb_matches_reference_across_random_shapes() {
        let mut rng = StuqRng::new(0xB22);
        for case in 0..40 {
            let m = 1 + rng.uniform_usize(70);
            let k = 1 + rng.uniform_usize(90);
            let n = 1 + rng.uniform_usize(60);
            let a = randv(&mut rng, m * k);
            let bt = randv(&mut rng, n * k);
            let b = transpose(&bt, n, k); // k × n
            let fast = matmul_tb(&a, &bt, m, k, n);
            let slow = matmul_reference(&a, &b, m, k, n);
            assert_close(&fast, &slow, 1e-5);
            if case == 0 {
                // Guaranteed-large cases: tiled + row-parallel path. The
                // square one sums 307 terms per output, so it gets the
                // looser reassociation bound.
                for (m, k, n, tol) in [(307, 64, 307, 1e-5), (307, 307, 307, 1e-4)] {
                    let a = randv(&mut rng, m * k);
                    let bt = randv(&mut rng, n * k);
                    assert_close(
                        &matmul_tb(&a, &bt, m, k, n),
                        &matmul_tb_reference(&a, &bt, m, k, n),
                        tol,
                    );
                }
            }
        }
    }

    /// Property: parallel and forced-serial execution are bit-identical.
    #[test]
    fn parallel_kernels_are_bit_identical_to_serial() {
        let mut rng = StuqRng::new(0xC33);
        let (m, k, n) = (307, 64, 307);
        let a = randv(&mut rng, m * k);
        let b = randv(&mut rng, k * n);
        let par = matmul(&a, &b, m, k, n);
        let ser = stuq_parallel::with_serial(|| matmul(&a, &b, m, k, n));
        assert_eq!(par, ser, "matmul must not depend on thread count");

        let tb_par = matmul_tb(&a, &a, m, k, m);
        let tb_ser = stuq_parallel::with_serial(|| matmul_tb(&a, &a, m, k, m));
        assert_eq!(tb_par, tb_ser);

        let big = randv(&mut rng, PAR_ELEMS_MIN + 123);
        let mp = map_elems(&big, |v| v * 1.5 - 0.25);
        let ms = stuq_parallel::with_serial(|| map_elems(&big, |v| v * 1.5 - 0.25));
        assert_eq!(mp, ms);

        let sum_p = blocked_sum(&big, |v| v as f64);
        let sum_s = stuq_parallel::with_serial(|| blocked_sum(&big, |v| v as f64));
        assert_eq!(sum_p.to_bits(), sum_s.to_bits(), "ordered reduction must be exact");
    }

    /// The bench hook must route to the reference kernels bit-for-bit and
    /// restore the fast path afterwards (including across a panic).
    #[test]
    fn with_reference_kernels_routes_and_restores() {
        let mut rng = StuqRng::new(0xE55);
        let (m, k, n) = (40, 13, 21);
        let a = randv(&mut rng, m * k);
        let b = randv(&mut rng, k * n);
        let routed = with_reference_kernels(|| matmul(&a, &b, m, k, n));
        assert_eq!(routed, matmul_reference(&a, &b, m, k, n), "must be the same code path");
        let bt = transpose(&b, k, n);
        let routed_tb = with_reference_kernels(|| matmul_tb(&a, &bt, m, k, n));
        assert_eq!(routed_tb, matmul_tb_reference(&a, &bt, m, k, n));
        assert!(!reference_mode(), "guard must pop on exit");
        assert_close(&matmul(&a, &b, m, k, n), &routed, 1e-5);

        let rw = with_reference_kernels(|| rowwise_matmul(&a, &b, 1, 13, 21));
        assert_eq!(rw, rowwise_matmul_reference(&a, &b, 1, 13, 21));
    }

    #[test]
    fn rowwise_reference_matches_blocked() {
        let mut rng = StuqRng::new(0xF66);
        let (rows, ci, co) = (33, 17, 12);
        let z = randv(&mut rng, rows * ci);
        let w = randv(&mut rng, rows * ci * co);
        assert_close(
            &rowwise_matmul(&z, &w, rows, ci, co),
            &rowwise_matmul_reference(&z, &w, rows, ci, co),
            1e-5,
        );
    }

    #[test]
    fn transpose_blocked_matches_naive() {
        let mut rng = StuqRng::new(0xD44);
        for _ in 0..20 {
            let m = 1 + rng.uniform_usize(100);
            let n = 1 + rng.uniform_usize(100);
            let src = randv(&mut rng, m * n);
            let out = transpose(&src, m, n);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(out[j * m + i], src[i * n + j]);
                }
            }
        }
    }

    #[test]
    fn dot_f32_handles_remainders() {
        for len in [0usize, 1, 7, 8, 9, 16, 31] {
            let x: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let y = vec![2.0f32; len];
            let expect: f32 = (0..len).map(|i| 2.0 * i as f32).sum();
            assert!((dot_f32(&x, &y) - expect).abs() < 1e-3);
        }
    }

    #[test]
    fn zip_assign_covers_axpy() {
        let mut d = vec![1.0f32; 100];
        let s: Vec<f32> = (0..100).map(|i| i as f32).collect();
        zip_assign_elems(&mut d, &s, |a, b| a + 0.5 * b);
        assert_eq!(d[10], 6.0);
    }
}
