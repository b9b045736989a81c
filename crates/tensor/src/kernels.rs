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

/// Columns per register tile: the accumulators for a 4-row group are
/// `4 × J_TILE` floats, sized to stay in vector registers on AVX-512/NEON.
const J_TILE: usize = 32;

/// The wide tail, columns `j0..n` with `n - j0 >= TAIL_TILE`, of one row:
/// row-major k-panels of four vectorize across the columns, and the many
/// outputs in flight hide the per-element chain latency. Each element is
/// one FMA chain over k in order from zero, accumulated into `orow`, the
/// zeroed tail slice `out[row][j0..n]`; `b` is the full `k × n` right-hand
/// side, entered at column offset `j0`.
fn mm_row_tail(arow: &[f32], b: &[f32], orow: &mut [f32], k: usize, n: usize, j0: usize) {
    debug_assert!(n - j0 >= TAIL_TILE);
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

/// k values per gathered column chunk of [`mm_narrow_tail`]: a multiple of
/// four, so every chunk starts on chain 0.
const NARROW_CHUNK: usize = 64;

/// Rows whose chains [`mm_narrow_tail`] carries across its k chunks at once.
const NARROW_ROWS: usize = 64;

/// The narrow tail, columns `j0..n` with `n - j0 < TAIL_TILE`, of rows
/// `0..rows`: row `r` is `arow(r)`, and `put(r, j, v)` stores element
/// `(r, j)`.
///
/// A row-major panel would leave too few outputs in flight and serialize
/// into k-long dependent FMA chains, so each element runs four chains
/// instead: chain `c` takes the k with `k ≡ c (mod 4)` in order, a leftover
/// `k % 4` goes on chain 0, and the result is `(s0 + s1) + (s2 + s3)`.
/// Column `j` of `b` is gathered into a stack chunk of [`NARROW_CHUNK`] k
/// once for up to [`NARROW_ROWS`] rows, so each row's four chains run as
/// one 4-lane vector over contiguous data instead of strided scalar loads;
/// the chains carry across chunks.
fn mm_narrow_tail<'a>(
    rows: usize,
    arow: impl Fn(usize) -> &'a [f32],
    b: &[f32],
    k: usize,
    n: usize,
    j0: usize,
    mut put: impl FnMut(usize, usize, f32),
) {
    let mut col = [0.0f32; NARROW_CHUNK];
    let mut chains = [[0.0f32; 4]; NARROW_ROWS];
    for r0 in (0..rows).step_by(NARROW_ROWS) {
        let chains = &mut chains[..NARROW_ROWS.min(rows - r0)];
        for j in j0..n {
            chains.fill([0.0; 4]);
            for k0 in (0..k).step_by(NARROW_CHUNK) {
                let len = NARROW_CHUNK.min(k - k0);
                for (c, &x) in col[..len].iter_mut().zip(b[k0 * n + j..].iter().step_by(n)) {
                    *c = x;
                }
                let (col, quads) = (&col[..len], len - len % 4);
                for (r, s) in (r0..).zip(chains.iter_mut()) {
                    let row = &arow(r)[k0..k0 + len];
                    let mut v = *s;
                    for (aq, cq) in row[..quads].chunks_exact(4).zip(col[..quads].chunks_exact(4)) {
                        v = std::array::from_fn(|c| aq[c].mul_add(cq[c], v[c]));
                    }
                    for (&x, &y) in row[quads..].iter().zip(&col[quads..]) {
                        v[0] = x.mul_add(y, v[0]);
                    }
                    *s = v;
                }
            }
            for (r, s) in (r0..).zip(chains.iter()) {
                put(r, j, (s[0] + s[1]) + (s[2] + s[3]));
            }
        }
    }
}

/// Columns per register tile of a 4-row group's wide tail.
const TAIL_TILE: usize = 8;

/// The wide tail, columns `j0..n` with `n - j0 >= TAIL_TILE`, of four rows
/// at once: `4 × TAIL_TILE` accumulators stay in registers over the whole
/// k-loop, so four independent FMA chains are in flight per loaded `B`
/// vector instead of one. The last tile ends at `n` and may overlap the one
/// before; an overlapped column is computed twice to the same bits.
///
/// Each element is one FMA chain over k in order from zero, exactly
/// [`mm_row_tail`]'s order, so a row's tail has the same bits whether
/// it runs here or alone. Overwrites its columns of `o`.
fn mm_tail_tile(a: [&[f32]; 4], b: &[f32], mut o: [&mut [f32]; 4], k: usize, n: usize, j0: usize) {
    debug_assert!(n - j0 >= TAIL_TILE);
    let mut j = j0;
    while j < n {
        let jb = j.min(n - TAIL_TILE);
        let mut c = [[0.0f32; TAIL_TILE]; 4];
        for kk in 0..k {
            let bv: &[f32; TAIL_TILE] = b[kk * n + jb..kk * n + jb + TAIL_TILE].try_into().unwrap();
            for (cr, ar) in c.iter_mut().zip(&a) {
                let x = ar[kk];
                for l in 0..TAIL_TILE {
                    cr[l] = x.mul_add(bv[l], cr[l]);
                }
            }
        }
        for (orow, cr) in o.iter_mut().zip(&c) {
            orow[jb..jb + TAIL_TILE].copy_from_slice(cr);
        }
        j = jb + TAIL_TILE;
    }
}

/// Whole rows against one right-hand side in the one-row order: full
/// `J_TILE` column tiles, k unrolled by two into independent accumulator
/// sets combined in a fixed order at the end, then the tail, wide
/// ([`mm_row_tail`]) or narrow ([`mm_narrow_tail`]).
///
/// Each tiled element of row `r` is an even-k chain and an odd-k chain,
/// both from zero, with an odd leftover k on the even chain, then
/// `acc_e + acc_o`. `R` only sets how many rows share each loaded `B`
/// vector, so a row's bits are the same for any `R`: the sample-block
/// [`rowwise_matmul`] runs its samples through this in pairs. The tile's
/// sums are formed in a register array and stored whole, so the epilogue
/// runs at vector width too.
fn mm_rows<const R: usize>(a: [&[f32]; R], b: &[f32], o: [&mut [f32]; R], k: usize, n: usize) {
    let jt = n - n % J_TILE;
    for jb in (0..jt).step_by(J_TILE) {
        let mut acc_e = [[0.0f32; J_TILE]; R];
        let mut acc_o = [[0.0f32; J_TILE]; R];
        let pairs = b[..k * n].chunks_exact(2 * n);
        let odd = pairs.remainder();
        for (kk, bk) in (0..k).step_by(2).zip(pairs) {
            let be: &[f32; J_TILE] = bk[jb..jb + J_TILE].try_into().unwrap();
            let bo: &[f32; J_TILE] = bk[n + jb..n + jb + J_TILE].try_into().unwrap();
            for r in 0..R {
                let (xe, xo) = (a[r][kk], a[r][kk + 1]);
                for l in 0..J_TILE {
                    acc_e[r][l] = xe.mul_add(be[l], acc_e[r][l]);
                    acc_o[r][l] = xo.mul_add(bo[l], acc_o[r][l]);
                }
            }
        }
        if !odd.is_empty() {
            let bv: &[f32; J_TILE] = odd[jb..jb + J_TILE].try_into().unwrap();
            for r in 0..R {
                let x = a[r][k - 1];
                for l in 0..J_TILE {
                    acc_e[r][l] = x.mul_add(bv[l], acc_e[r][l]);
                }
            }
        }
        for r in 0..R {
            let mut sum = [0.0f32; J_TILE];
            for l in 0..J_TILE {
                sum[l] = acc_e[r][l] + acc_o[r][l];
            }
            o[r][jb..jb + J_TILE].copy_from_slice(&sum);
        }
    }
    if n - jt >= TAIL_TILE {
        for r in 0..R {
            mm_row_tail(a[r], b, &mut o[r][jt..], k, n, jt);
        }
    } else if jt < n {
        mm_narrow_tail(R, |r| a[r], b, k, n, jt, |r, j, v| o[r][j] = v);
    }
}

/// `C[rows] = A[rows] @ B` for a contiguous block of rows.
///
/// `a` holds `rows·k` elements, `out` holds `rows·n`; `b` is the full
/// `k × n` right-hand side, and `out` must be zeroed on entry (the register
/// tiles overwrite their columns outright — sparing a read pass of `out` —
/// but a leftover row's wide tail, [`mm_row_tail`], accumulates into the
/// zeros, and the `k == 0` early return leaves them).
/// Rows are processed in groups of four with a
/// `4 × J_TILE` register tile: the output accumulators live in vector
/// registers for the whole k-loop, so each loaded `B` vector feeds four FMAs
/// and the output is touched once per tile — the seed kernel's
/// load-FMA-store round-trip per `(k, j)` step is what limited it. A group's
/// tail of 8 to 31 columns runs the same way in `4 × 8` tiles
/// ([`mm_tail_tile`]); a narrower tail runs for all the groups' rows in
/// one [`mm_narrow_tail`], so each narrow column of `b` is gathered once
/// per [`NARROW_ROWS`] rows. Leftover rows run through [`mm_rows`]. There is
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
        if n - jt >= TAIL_TILE {
            mm_tail_tile([a0, a1, a2, a3], b, [o0, o1, o2, o3], k, n, jt);
        }
        r += 4;
    }
    if jt < n && n - jt < TAIL_TILE {
        mm_narrow_tail(r, |i| &a[i * k..(i + 1) * k], b, k, n, jt, |i, j, v| out[i * n + j] = v);
    }
    while r < rows {
        let arow = &a[r * k..(r + 1) * k];
        let orow = &mut out[r * n..(r + 1) * n];
        mm_rows([arow], b, [orow], k, n);
        r += 1;
    }
}

/// `A (m×k) @ B (k×n)`, row-parallel above [`PAR_FLOPS_MIN`].
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_into(a, b, &mut out, m, k, n);
    out
}

/// [`matmul`] into `out` (`m·n` floats, zeroed on entry), so a sample
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
/// in pairs (`mm_rows`). Every output element keeps the one-row order, so
/// a sample's rows are bit-identical however many samples share its
/// block, and `s = 1` is the one-row kernel itself. Fans out over node
/// ranges above [`PAR_FLOPS_MIN`].
pub fn rowwise_matmul(z: &[f32], w: &[f32], rows: usize, ci: usize, co: usize) -> Vec<f32> {
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().kernel_rowwise.inc();
    }
    if reference_mode() {
        return rowwise_matmul_reference(z, w, rows, ci, co);
    }
    let s = block_samples(z.len(), rows * ci);
    let mut out = vec![0.0f32; s * rows * co];
    if out.is_empty() {
        return out;
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
    out
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
    let zrow = |i: usize, node: usize| &z[(i * rows + node) * ci..(i * rows + node + 1) * ci];
    for (local, node) in nodes.enumerate() {
        let wn = &w[node * ci * co..(node + 1) * ci * co];
        let at = local * co..(local + 1) * co;
        for (p, pair) in outs.chunks_mut(2).enumerate() {
            let (z0, at) = (zrow(2 * p, node), at.clone());
            match pair {
                [o0, o1] => mm_rows(
                    [z0, zrow(2 * p + 1, node)],
                    wn,
                    [&mut o0[at.clone()], &mut o1[at]],
                    ci,
                    co,
                ),
                [o0] => mm_rows([z0], wn, [&mut o0[at]], ci, co),
                _ => unreachable!("chunks of one or two"),
            }
        }
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
    /// row `n` is bit for bit `matmul(z_i[n], W_n)` for every sample count,
    /// column tiling (full tiles, wide and narrow tails), odd and even
    /// `ci`, node counts above `ROW_CHUNK` and blocks above
    /// `PAR_FLOPS_MIN`, serial or pooled; in reference mode it is the seed
    /// loop once per sample.
    #[test]
    fn rowwise_block_matches_one_row_products_bitwise() {
        let mut rng = StuqRng::new(0x5A3);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cases = Vec::new();
        for s in 1..=11 {
            for ci in [5, 8] {
                for co in [3, 8, 32, 40, 64] {
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

    /// With no inner dimension, one row's product is all zeros at every
    /// width: the register tiles, the wide tail and the narrow tail alike.
    #[test]
    fn mm_rows_with_k_zero_is_zero() {
        for n in 1..=40 {
            let mut out = vec![0.0f32; n];
            mm_rows([&[]], &[], [&mut out[..]], 0, n);
            assert!(out.iter().all(|&v| v == 0.0), "n {n}: {out:?}");
        }
    }

    /// A 4-row group's tail columns, register-tiled when 8 or more wide,
    /// hold the bits of the same row run alone through `mm_rows::<1>`, for
    /// tails of 1 to 31 columns after zero, one or two full tiles, short
    /// and long k, and row counts with leftover rows.
    #[test]
    fn mm_block_rows_match_the_one_row_order_bitwise() {
        let mut rng = StuqRng::new(0x7A11);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 40, 45, 63, 64 + 13, 64 + 31] {
            for k in [1, 2, 3, 5, 8, 33, 301] {
                for rows in [4, 7, 8, 13] {
                    let a = randv(&mut rng, rows * k);
                    let b = randv(&mut rng, k * n);
                    let mut tile = vec![0.0f32; rows * n];
                    mm_block(&a, &b, &mut tile, k, n);
                    let jt = n - n % J_TILE;
                    for r in 0..rows {
                        let mut alone = vec![0.0f32; n];
                        mm_rows([&a[r * k..(r + 1) * k]], &b, [&mut alone[..]], k, n);
                        assert_eq!(
                            bits(&tile[r * n + jt..(r + 1) * n]),
                            bits(&alone[jt..]),
                            "n {n}, k {k}, rows {rows}: row {r}'s tail"
                        );
                    }
                }
            }
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
