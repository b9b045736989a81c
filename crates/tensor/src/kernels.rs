//! Blocked, autovectorizable compute kernels with deterministic parallel
//! dispatch.
//!
//! Every kernel here obeys the workspace determinism contract (DESIGN.md
//! "Threading & determinism"): the floating-point evaluation order of each
//! output element is fixed by the *kernel structure* — one FMA chain over
//! k per matmul element, eight-lane dot accumulators, fixed-size reduction
//! blocks — and never by the thread count. Parallel dispatch only
//! distributes disjoint output row ranges (or fixed reduction blocks)
//! across the pool, so a result is bit-identical whether it was computed
//! by one thread or many.
//!
//! Sizing: small operands stay serial (`PAR_FLOPS_MIN`, `PAR_ELEMS_MIN`)
//! because fan-out costs more than the work saved below those points.

use std::cell::Cell;

use stuq_parallel::{par_map, par_ranges, SendPtr};

thread_local! {
    static REFERENCE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Routes the matmul-family kernels through the seed's scalar reference
/// implementations — and the tanh/sigmoid activations
/// ([`crate::Tensor::tanh`], [`crate::Tensor::sigmoid`]) back to libm — for
/// the duration of `f`, and runs `f` under [`stuq_parallel::with_serial`].
///
/// The mode is per thread, so `f` has to stay on the calling thread: a
/// fan-out would run its chunks on pool threads with the fast kernels and
/// return mixed-mode bits that depend on scheduling. Hence the serial pool.
///
/// This is a benchmark hook: `stuq-bench` uses it to time a seed-equivalent
/// baseline for whole-model training in-process, so its speedups are
/// measured against the actual pre-engine code path rather than a synthetic
/// stand-in.
pub fn with_reference_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            REFERENCE_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    REFERENCE_DEPTH.with(|d| d.set(d.get() + 1));
    let _g = Guard;
    stuq_parallel::with_serial(f)
}

/// Whether the current thread runs inside [`with_reference_kernels`]. A
/// cache of kernel outputs keeps one entry per mode, since the two modes
/// round differently.
pub fn reference_mode() -> bool {
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

/// Columns per register tile: a 4-row group's accumulators are
/// `4 × J_TILE` floats, sized to stay in vector registers on AVX-512/NEON.
const J_TILE: usize = 32;

/// Columns per tail tile: the columns past the last full [`J_TILE`] tile
/// run in tiles this wide, the last one ending at `n`.
const TAIL_TILE: usize = 8;

/// Columns `jb..jb + W` of `R` rows of `A @ B`, each row an `(A row,
/// output row)` pair: `R × W` accumulators stay in registers over the
/// whole k-loop, so each loaded `B` vector feeds `R` independent FMA
/// chains. Each element is one FMA chain over k in order from `+0.0`;
/// the tile overwrites its columns.
#[inline(always)]
fn mm_tile<const R: usize, const W: usize>(
    rows: &mut [(&[f32], &mut [f32]); R],
    b: &[f32],
    k: usize,
    n: usize,
    jb: usize,
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &rows[r].0[..k]);
    let mut c = [[0.0f32; W]; R];
    for kk in 0..k {
        let bv: &[f32; W] = b[kk * n + jb..kk * n + jb + W].try_into().unwrap();
        let x: [f32; R] = std::array::from_fn(|r| a[r][kk]);
        for l in 0..W {
            for r in 0..R {
                c[r][l] = x[r].mul_add(bv[l], c[r][l]);
            }
        }
    }
    for ((_, orow), cr) in rows.iter_mut().zip(&c) {
        orow[jb..jb + W].copy_from_slice(cr);
    }
}

/// `R` whole rows of `A @ B`: full [`J_TILE`] column tiles, then
/// [`TAIL_TILE`] tiles whose last one ends at `n` and may overlap the one
/// before (an overlapped column is computed twice to the same bits), and
/// a plain scalar chain per element when `n < TAIL_TILE`.
///
/// Every element is one FMA chain over k in order from `+0.0`, whatever
/// its tile, so `R` only sets how many rows share each loaded `B` vector:
/// a row's bits are its one-row product's for any `R` and any position.
fn mm_rows<const R: usize>(mut rows: [(&[f32], &mut [f32]); R], b: &[f32], k: usize, n: usize) {
    if n < TAIL_TILE {
        for (arow, orow) in &mut rows {
            for (j, o) in orow[..n].iter_mut().enumerate() {
                *o = (0..k).fold(0.0, |acc, kk| arow[kk].mul_add(b[kk * n + j], acc));
            }
        }
        return;
    }
    let jt = n - n % J_TILE;
    for jb in (0..jt).step_by(J_TILE) {
        mm_tile::<R, J_TILE>(&mut rows, b, k, n, jb);
    }
    let mut j = jt;
    while j < n {
        let jb = j.min(n - TAIL_TILE);
        mm_tile::<R, TAIL_TILE>(&mut rows, b, k, n, jb);
        j = jb + TAIL_TILE;
    }
}

/// `rows` of `A @ B` through [`mm_rows`] in groups of four, then the
/// leftover rows as one group.
fn mm_groups<'a>(
    mut rows: impl ExactSizeIterator<Item = (&'a [f32], &'a mut [f32])>,
    b: &[f32],
    k: usize,
    n: usize,
) {
    fn take<const R: usize, T>(rows: &mut impl Iterator<Item = T>) -> [T; R] {
        std::array::from_fn(|_| rows.next().expect("counted by rows.len()"))
    }
    while rows.len() >= 4 {
        mm_rows::<4>(take(&mut rows), b, k, n);
    }
    match rows.len() {
        3 => mm_rows::<3>(take(&mut rows), b, k, n),
        2 => mm_rows::<2>(take(&mut rows), b, k, n),
        1 => mm_rows::<1>(take(&mut rows), b, k, n),
        _ => {}
    }
}

/// `C[rows] = A[rows] @ B` for a contiguous block of rows.
///
/// `a` holds `rows·k` elements, `out` holds `rows·n` and is overwritten;
/// `b` is the full `k × n` right-hand side. Rows run in groups of four
/// ([`mm_groups`]): each group's accumulators live in vector registers
/// for the whole k-loop, so each loaded `B` vector feeds four FMAs and the
/// output is touched once per tile — the seed kernel's load-FMA-store
/// round-trip per `(k, j)` step is what limited it. There is deliberately
/// no zero-skip branch (the seed's `if aik == 0.0 { continue }` defeated
/// vectorization on dense data — see EXPERIMENTS.md for the measured
/// cost).
///
/// Every element is one FMA chain over k in order, so neither the row
/// grouping nor the parallel callers' row ranges change a bit.
fn mm_block(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    let rows = (0..out.len() / n).map(|r| &a[r * k..(r + 1) * k]);
    mm_groups(rows.zip(out.chunks_exact_mut(n)), b, k, n);
}

/// `A (m×k) @ B (k×n)`, row-parallel above [`PAR_FLOPS_MIN`].
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_into(a, b, &mut out, m, k, n);
    out
}

/// [`matmul`] into `out` (`m·n` floats, overwritten), so a sample
/// block's per-sample products land side by side in one buffer.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().kernel_matmul.inc();
    }
    assert_eq!(out.len(), m * n, "matmul_into: {} floats for a {m}x{n} product", out.len());
    if reference_mode() {
        out.copy_from_slice(&matmul_reference(a, b, m, k, n));
        return;
    }
    let t_start = stuq_obs::trace_enabled().then(std::time::Instant::now);
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
        mm_block(a, b, out, k, n);
    }
    if let Some(t) = t_start {
        record_gflops(m, k, n, t);
    }
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
    if k == 0 {
        return; // the zeroed `out` is the product
    }
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

/// The sample count of a sample-major block: `len` floats of `per_sample`
/// each (one sample when a sample holds nothing).
fn block_samples(len: usize, per_sample: usize) -> usize {
    if per_sample == 0 {
        return 1;
    }
    assert!(
        len.is_multiple_of(per_sample),
        "block of {len} floats is not whole samples of {per_sample}"
    );
    len / per_sample
}

/// NAPL row-wise matmul forward (paper Eq. 5) over a block of samples.
///
/// `w` holds `rows` per-node weights, `W_n = w[n, :]` viewed as `ci × co`.
/// `z` holds `s = z.len() / (rows·ci)` samples of `rows × ci`, stacked
/// sample-major, and output row `i·rows + n` is `z[i·rows + n, :] @ W_n`.
/// The loop runs node-outer, sample-inner, so each `W_n` is loaded once per
/// block instead of once per sample, and samples share the register tile
/// in groups of up to four (`mm_groups`). Every output element is the
/// one-row product's FMA chain, so a sample's rows are bit-identical
/// however many samples share its block. Fans out over node ranges above
/// [`PAR_FLOPS_MIN`].
pub fn rowwise_matmul(z: &[f32], w: &[f32], rows: usize, ci: usize, co: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; block_samples(z.len(), rows * ci) * rows * co];
    rowwise_matmul_into(z, w, &mut out, rows, ci, co);
    out
}

/// [`rowwise_matmul`] into `out` (`s·rows·co` floats, overwritten), so a
/// caller can reuse one buffer across calls.
pub fn rowwise_matmul_into(
    z: &[f32],
    w: &[f32],
    out: &mut [f32],
    rows: usize,
    ci: usize,
    co: usize,
) {
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().kernel_rowwise.inc();
    }
    let s = block_samples(z.len(), rows * ci);
    assert_eq!(
        out.len(),
        s * rows * co,
        "rowwise_matmul_into: {} floats for {s} samples",
        out.len()
    );
    if reference_mode() {
        out.copy_from_slice(&rowwise_matmul_reference(z, w, rows, ci, co));
        return;
    }
    if out.is_empty() {
        return;
    }
    if s.saturating_mul(rows).saturating_mul(ci).saturating_mul(co) >= PAR_FLOPS_MIN
        && rows > ROW_CHUNK
    {
        let optr = SendPtr::new(out.as_mut_ptr());
        par_ranges(rows, ROW_CHUNK, |r| {
            let mut outs: Vec<&mut [f32]> = (0..s)
                .map(|i| {
                    // SAFETY: sample i's rows of the node range r; node
                    // ranges are disjoint, so no two slices alias.
                    unsafe {
                        std::slice::from_raw_parts_mut(
                            optr.get().add((i * rows + r.start) * co),
                            r.len() * co,
                        )
                    }
                })
                .collect();
            rowwise_nodes(z, w, &mut outs, r, rows, ci, co);
        });
    } else {
        let mut outs: Vec<&mut [f32]> = out.chunks_exact_mut(rows * co).collect();
        rowwise_nodes(z, w, &mut outs, 0..rows, rows, ci, co);
    }
}

/// The nodes `nodes` of a [`rowwise_matmul`] block: `outs[i]` holds sample
/// `i`'s output rows for those nodes.
fn rowwise_nodes(
    z: &[f32],
    w: &[f32],
    outs: &mut [&mut [f32]],
    nodes: std::ops::Range<usize>,
    rows: usize,
    ci: usize,
    co: usize,
) {
    for (local, node) in nodes.enumerate() {
        let wn = &w[node * ci * co..(node + 1) * ci * co];
        let samples = outs.iter_mut().enumerate().map(|(i, o)| {
            let zrow = &z[(i * rows + node) * ci..(i * rows + node + 1) * ci];
            (zrow, &mut o[local * co..(local + 1) * co])
        });
        mm_groups(samples, wn, ci, co);
    }
}

/// Runs `f(row, &mut out[row·width..][..width])` for every row, on the
/// pool over [`ROW_CHUNK`] row ranges when the work crosses
/// [`PAR_FLOPS_MIN`]. Rows are disjoint, so the split never changes a result.
fn for_rows(out: &mut [f32], width: usize, flops: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    let rows = out.len().checked_div(width).unwrap_or(0);
    if flops >= PAR_FLOPS_MIN && rows > ROW_CHUNK {
        let optr = SendPtr::new(out.as_mut_ptr());
        par_ranges(rows, ROW_CHUNK, |r| {
            for row in r {
                // SAFETY: row < out.len() / width, so each slice lies in
                // out, and slices of distinct rows are disjoint.
                f(row, unsafe {
                    std::slice::from_raw_parts_mut(optr.get().add(row * width), width)
                });
            }
        });
    } else {
        for (row, o) in out.chunks_exact_mut(width.max(1)).enumerate() {
            f(row, o);
        }
    }
}

/// NAPL row-wise matmul backward into `z`: given the upstream gradient `g`
/// (`rows × co`), adds `g[r, :] · W_r[i, :]` to `dz[r, i]`.
pub fn rowwise_matmul_grad_z(
    w: &[f32],
    g: &[f32],
    dz: &mut [f32],
    rows: usize,
    ci: usize,
    co: usize,
) {
    assert_eq!(dz.len(), rows * ci, "rowwise_matmul_grad_z: dz is not rows x ci");
    for_rows(dz, ci, rows.saturating_mul(ci).saturating_mul(co), |row, dz_row| {
        let g_row = &g[row * co..(row + 1) * co];
        let w_row = &w[row * ci * co..(row + 1) * ci * co];
        for (i, d) in dz_row.iter_mut().enumerate() {
            *d += dot_f32(g_row, &w_row[i * co..(i + 1) * co]);
        }
    });
}

/// NAPL row-wise matmul backward into `w`: given the upstream gradient `g`
/// (`rows × co`), adds `z[r, i] · g[r, j]` to `dw[r, i·co + j]`.
pub fn rowwise_matmul_grad_w(
    z: &[f32],
    g: &[f32],
    dw: &mut [f32],
    rows: usize,
    ci: usize,
    co: usize,
) {
    assert_eq!(dw.len(), rows * ci * co, "rowwise_matmul_grad_w: dw is not rows x ci*co");
    for_rows(dw, ci * co, rows.saturating_mul(ci).saturating_mul(co), |row, dw_row| {
        let g_row = &g[row * co..(row + 1) * co];
        let z_row = &z[row * ci..(row + 1) * ci];
        for (dw_chunk, &zri) in dw_row.chunks_exact_mut(co.max(1)).zip(z_row) {
            for (d, &gv) in dw_chunk.iter_mut().zip(g_row) {
                *d += zri * gv;
            }
        }
    });
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

/// The seed's scalar NAPL row-wise matmul: per row, a naive i-j loop, run
/// once per sample of a [`rowwise_matmul`] block.
pub fn rowwise_matmul_reference(
    z: &[f32],
    w: &[f32],
    rows: usize,
    ci: usize,
    co: usize,
) -> Vec<f32> {
    let s = block_samples(z.len(), rows * ci);
    let mut out = vec![0.0f32; s * rows * co];
    for r in 0..s * rows {
        let node = r % rows;
        let z_row = &z[r * ci..(r + 1) * ci];
        let w_row = &w[node * ci * co..(node + 1) * ci * co];
        let o_row = &mut out[r * co..(r + 1) * co];
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

/// Runs `f(range, &mut dst[range])` over [`ELEM_CHUNK`]-element chunks of
/// `dst` on the pool above [`PAR_ELEMS_MIN`] elements, and once over all
/// of `dst` below it. Each element is computed alone, so the split never
/// changes a result.
fn for_elem_chunks(dst: &mut [f32], f: impl Fn(std::ops::Range<usize>, &mut [f32]) + Sync) {
    if dst.len() >= PAR_ELEMS_MIN {
        let dptr = SendPtr::new(dst.as_mut_ptr());
        par_ranges(dst.len(), ELEM_CHUNK, |r| {
            // SAFETY: disjoint ranges of dst.
            let db = unsafe { std::slice::from_raw_parts_mut(dptr.get().add(r.start), r.len()) };
            f(r, db);
        });
    } else {
        f(0..dst.len(), dst);
    }
}

/// Elementwise map into a fresh buffer, chunk-parallel above [`PAR_ELEMS_MIN`].
pub fn map_elems(src: &[f32], f: impl Fn(f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    for_elem_chunks(&mut out, |r, ob| {
        for (o, &v) in ob.iter_mut().zip(&src[r]) {
            *o = f(v);
        }
    });
    out
}

/// Elementwise binary map into a fresh buffer, chunk-parallel.
pub fn zip_elems(x: &[f32], y: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    debug_assert_eq!(x.len(), y.len());
    let mut out = vec![0.0f32; x.len()];
    for_elem_chunks(&mut out, |r, ob| {
        for ((o, &a), &b) in ob.iter_mut().zip(&x[r.clone()]).zip(&y[r]) {
            *o = f(a, b);
        }
    });
    out
}

/// In-place elementwise map, chunk-parallel.
pub fn map_inplace_elems(dst: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    for_elem_chunks(dst, |_, db| {
        for v in db {
            *v = f(*v);
        }
    });
}

/// `dst[i] = f(dst[i], src[i])`, chunk-parallel (covers `+=` and AXPY).
pub fn zip_assign_elems(dst: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(dst.len(), src.len());
    for_elem_chunks(dst, |r, db| {
        for (d, &s) in db.iter_mut().zip(&src[r]) {
            *d = f(*d, s);
        }
    });
}

/// `dst[i] = f(dst[i], x[i], y[i])`, chunk-parallel: how the backward walk
/// adds an element-wise adjoint such as `g ⊙ m` into a gradient in place.
pub fn zip2_assign_elems(
    dst: &mut [f32],
    x: &[f32],
    y: &[f32],
    f: impl Fn(f32, f32, f32) -> f32 + Sync,
) {
    debug_assert!(dst.len() == x.len() && dst.len() == y.len());
    for_elem_chunks(dst, |r, db| {
        for ((d, &a), &b) in db.iter_mut().zip(&x[r.clone()]).zip(&y[r]) {
            *d = f(*d, a, b);
        }
    });
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

    /// The sample-block NAPL kernel against one-row products: sample `i`'s
    /// row `n` is bit for bit `matmul(z_i[n], W_n)`, and sample `i` is its
    /// lone block, for 1 to 11 samples (groups of four and leftover groups
    /// of one to three), every column tiling (full tiles, tail tiles that
    /// overlap or not, scalar chains below 8 columns), odd and even `ci`,
    /// node counts above `ROW_CHUNK` and blocks above `PAR_FLOPS_MIN`,
    /// serial or pooled; in reference mode it is the seed loop once per
    /// sample.
    #[test]
    fn rowwise_block_matches_one_row_products_bitwise() {
        let mut rng = StuqRng::new(0x5A3);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cases = Vec::new();
        for s in 1..=11 {
            for ci in [5, 8] {
                for co in [1, 3, 7, 8, 12, 32, 33, 40, 64] {
                    cases.push((s, 5, ci, co));
                }
            }
        }
        for s in [1, 2, 5, 11] {
            for ci in [33, 64] {
                for co in [8, 32, 40, 64] {
                    cases.push((s, ROW_CHUNK + 5, ci, co));
                }
            }
        }
        cases.push((10, 43, 33, 32));
        let mut crossed = false;
        for (s, rows, ci, co) in cases {
            let z = randv(&mut rng, s * rows * ci);
            let w = randv(&mut rng, rows * ci * co);
            let got = rowwise_matmul(&z, &w, rows, ci, co);
            crossed |= s * rows * ci * co >= PAR_FLOPS_MIN;
            let what = format!("s {s}, rows {rows}, ci {ci}, co {co}");
            let want: Vec<f32> = (0..s * rows)
                .flat_map(|r| {
                    let n = r % rows;
                    matmul(&z[r * ci..(r + 1) * ci], &w[n * ci * co..(n + 1) * ci * co], 1, ci, co)
                })
                .collect();
            assert_eq!(bits(&got), bits(&want), "{what}: block vs one-row products");
            let lone: Vec<f32> = z
                .chunks_exact(rows * ci)
                .flat_map(|zs| rowwise_matmul(zs, &w, rows, ci, co))
                .collect();
            assert_eq!(bits(&got), bits(&lone), "{what}: block vs lone samples");
            let serial = stuq_parallel::with_serial(|| rowwise_matmul(&z, &w, rows, ci, co));
            assert_eq!(bits(&got), bits(&serial), "{what}: pooled vs serial");
            let reference = with_reference_kernels(|| rowwise_matmul(&z, &w, rows, ci, co));
            let per_sample: Vec<f32> = z
                .chunks_exact(rows * ci)
                .flat_map(|zs| rowwise_matmul_reference(zs, &w, rows, ci, co))
                .collect();
            assert_eq!(bits(&reference), bits(&per_sample), "{what}: reference mode");
        }
        assert!(crossed, "some block must cross PAR_FLOPS_MIN");
    }

    /// With no inner dimension, one row's product overwrites its row with
    /// `+0.0` at every width: the register tiles, the tail tiles and the
    /// scalar chains alike.
    #[test]
    fn mm_rows_with_k_zero_is_zero() {
        for n in 1..=40 {
            let mut out = vec![f32::NAN; n];
            mm_rows([(&[][..], &mut out[..])], &[], 0, n);
            assert!(out.iter().all(|&v| v.to_bits() == 0), "n {n}: {out:?}");
        }
    }

    /// `matmul_tb` with no inner dimension is the all-zero product.
    #[test]
    fn matmul_tb_with_k_zero_is_zero() {
        for (m, n) in [(1, 1), (3, 7), (5, 40)] {
            assert_eq!(matmul_tb(&[], &[], m, 0, n), vec![0.0f32; m * n], "m {m}, n {n}");
        }
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
