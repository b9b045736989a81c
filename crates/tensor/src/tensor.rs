//! Row-major dense `f32` tensors.
//!
//! [`Tensor`] is intentionally simple: a `Vec<f32>` plus a shape. All tape
//! operations work on 2-D tensors; 1-D tensors are treated as `1 × n` row
//! vectors where a matrix is expected. Reductions accumulate in `f64` to keep
//! long sums stable.

use crate::kernels;
use crate::rng::StuqRng;

/// A dense, row-major `f32` tensor.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, …; n={}]", self.data[0], self.data[1], self.data.len())
        }
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape. Panics if they disagree.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self { data, shape: shape.to_vec() }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Self { data: vec![0.0; numel], shape: shape.to_vec() }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Self { data: vec![value; numel], shape: shape.to_vec() }
    }

    /// A `1 × 1` tensor holding one scalar.
    pub fn scalar(value: f32) -> Self {
        Self { data: vec![value], shape: vec![1, 1] }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Standard-normal samples scaled by `std`.
    pub fn randn(shape: &[usize], std: f32, rng: &mut StuqRng) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.normal_f32() * std).collect();
        Self { data, shape: shape.to_vec() }
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut StuqRng) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| lo + (hi - lo) * rng.uniform_f32()).collect();
        Self { data, shape: shape.to_vec() }
    }

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows when viewed as a matrix (1-D tensors are row vectors).
    #[inline]
    pub fn rows(&self) -> usize {
        match self.shape.len() {
            1 => 1,
            2 => self.shape[0],
            _ => panic!("rows() called on {}-d tensor", self.shape.len()),
        }
    }

    /// Number of columns when viewed as a matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        match self.shape.len() {
            1 => self.shape[0],
            2 => self.shape[1],
            _ => panic!("cols() called on {}-d tensor", self.shape.len()),
        }
    }

    /// Raw data slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The raw data, giving up the shape.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element access for a matrix.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows() && c < self.cols());
        self.data[r * self.cols() + c]
    }

    /// Element assignment for a matrix.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        let cols = self.cols();
        debug_assert!(r < self.rows() && c < cols);
        self.data[r * cols + c] = v;
    }

    /// Returns a new tensor with the same data and a different shape.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        Self::from_vec(self.data.clone(), shape)
    }

    /// Applies `f` element-wise, producing a new tensor.
    ///
    /// Large tensors are processed chunk-parallel with fixed chunk
    /// boundaries, so the result never depends on the thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        Self { data: kernels::map_elems(&self.data, f), shape: self.shape.clone() }
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        kernels::map_inplace_elems(&mut self.data, f);
    }

    /// Element-wise combination of two same-shaped tensors.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32 + Sync) -> Self {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        Self { data: kernels::zip_elems(&self.data, &other.data, f), shape: self.shape.clone() }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// `self += other` element-wise.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        kernels::zip_assign_elems(&mut self.data, &other.data, |a, b| a + b);
    }

    /// `self += alpha * other` element-wise (AXPY).
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        kernels::zip_assign_elems(&mut self.data, &other.data, move |a, b| a + alpha * b);
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Self {
        self.map(|x| x * c)
    }

    /// Matrix product `self @ other`.
    ///
    /// Uses the register-tiled kernel in [`crate::kernels`]: one FMA chain
    /// over k per element, vectorized across columns, fanned out over disjoint output row chunks on the
    /// global pool when the problem crosses `kernels::PAR_FLOPS_MIN`.
    pub fn matmul(&self, other: &Self) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dims: {}x{} @ {}x{}", m, k, k2, n);
        Self { data: kernels::matmul(&self.data, &other.data, m, k, n), shape: vec![m, n] }
    }

    /// The seed's scalar reference matmul (serial, zero-skip branch intact).
    ///
    /// Exists so property tests and `stuq-bench` can compare the blocked
    /// parallel kernel against the original baseline; not for production use.
    pub fn matmul_reference(&self, other: &Self) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dims: {}x{} @ {}x{}", m, k, k2, n);
        Self {
            data: kernels::matmul_reference(&self.data, &other.data, m, k, n),
            shape: vec![m, n],
        }
    }

    /// Matrix product `self @ other^T`, avoiding an explicit transpose.
    pub fn matmul_tb(&self, other: &Self) -> Self {
        let (m, k) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_tb inner dims: {}x{} @ ({}x{})^T", m, k, n, k2);
        Self { data: kernels::matmul_tb(&self.data, &other.data, m, k, n), shape: vec![m, n] }
    }

    /// Matrix product `self^T @ other` — the adjoint-side transposed product
    /// (`aᵀ g` / `gᵀ a`), fused into one kernel dispatch.
    ///
    /// Numerically identical to `self.transpose().matmul(other)` in both the
    /// fast and reference kernel modes (see [`kernels::matmul_ta`]).
    pub fn matmul_ta(&self, other: &Self) -> Self {
        let (k, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul_ta inner dims: ({}x{})^T @ {}x{}", k, m, k2, n);
        Self { data: kernels::matmul_ta(&self.data, &other.data, k, m, n), shape: vec![m, n] }
    }

    /// Matrix transpose (cache-blocked tile-wise copy).
    pub fn transpose(&self) -> Self {
        let (m, n) = (self.rows(), self.cols());
        Self { data: kernels::transpose(&self.data, m, n), shape: vec![n, m] }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Self) -> Self {
        let m = self.rows();
        assert_eq!(m, other.rows(), "concat_cols row mismatch");
        let (ca, cb) = (self.cols(), other.cols());
        let mut out = Vec::with_capacity(m * (ca + cb));
        for i in 0..m {
            out.extend_from_slice(&self.data[i * ca..(i + 1) * ca]);
            out.extend_from_slice(&other.data[i * cb..(i + 1) * cb]);
        }
        Self { data: out, shape: vec![m, ca + cb] }
    }

    /// Copies the column range `[from, to)` into a new matrix.
    pub fn slice_cols(&self, from: usize, to: usize) -> Self {
        let (m, n) = (self.rows(), self.cols());
        assert!(from <= to && to <= n, "slice_cols range {}..{} out of {}", from, to, n);
        let w = to - from;
        let mut out = Vec::with_capacity(m * w);
        for i in 0..m {
            out.extend_from_slice(&self.data[i * n + from..i * n + to]);
        }
        Self { data: out, shape: vec![m, w] }
    }

    /// Copies the row range `[from, to)` into a new matrix.
    pub fn slice_rows(&self, from: usize, to: usize) -> Self {
        let (m, n) = (self.rows(), self.cols());
        assert!(from <= to && to <= m, "slice_rows range {}..{} out of {}", from, to, m);
        Self { data: self.data[from * n..to * n].to_vec(), shape: vec![to - from, n] }
    }

    /// One row as a `1 × n` matrix.
    pub fn row(&self, r: usize) -> Self {
        self.slice_rows(r, r + 1)
    }

    /// Sum of all elements (accumulated in `f64` over fixed blocks, so the
    /// result is independent of the thread count).
    pub fn sum(&self) -> f64 {
        kernels::blocked_sum(&self.data, |x| x as f64)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Largest element, or `-inf` when empty.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element, or `+inf` when empty.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Sum over rows: produces a `1 × n` row of column sums.
    pub fn sum_rows(&self) -> Self {
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for (o, &v) in out.iter_mut().zip(&self.data[i * n..(i + 1) * n]) {
                *o += v;
            }
        }
        Self { data: out, shape: vec![1, n] }
    }

    /// Row-wise soft-max (each row sums to one), numerically stabilised.
    pub fn softmax_rows(&self) -> Self {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// [`Tensor::softmax_rows`] in place.
    pub fn softmax_rows_inplace(&mut self) {
        let (m, n) = (self.rows(), self.cols());
        kernels::softmax_rows_inplace(&mut self.data, m, n);
    }

    /// Rectified linear unit, element-wise.
    pub fn relu(&self) -> Self {
        let mut out = self.clone();
        out.relu_inplace();
        out
    }

    /// [`Tensor::relu`] in place.
    pub fn relu_inplace(&mut self) {
        self.map_inplace(|x| x.max(0.0));
    }

    /// Logistic sigmoid, element-wise.
    pub fn sigmoid(&self) -> Self {
        let mut out = self.clone();
        out.sigmoid_inplace();
        out
    }

    /// Logistic sigmoid in place ([`Activation::Sigmoid`]).
    pub fn sigmoid_inplace(&mut self) {
        Activation::Sigmoid.map_inplace(&mut self.data);
    }

    /// Hyperbolic tangent, element-wise.
    pub fn tanh(&self) -> Self {
        let mut out = self.clone();
        out.tanh_inplace();
        out
    }

    /// Hyperbolic tangent in place ([`Activation::Tanh`]).
    pub fn tanh_inplace(&mut self) {
        Activation::Tanh.map_inplace(&mut self.data);
    }

    /// `self + bias` with the `1×n` row `bias` added to every row.
    pub fn add_row_broadcast(&self, bias: &Self) -> Self {
        let mut out = self.clone();
        out.add_row_broadcast_inplace(bias);
        out
    }

    /// [`Tensor::add_row_broadcast`] in place.
    pub fn add_row_broadcast_inplace(&mut self, bias: &Self) {
        assert_eq!(bias.rows(), 1, "bias must be a 1×n row");
        assert_eq!(self.cols(), bias.cols(), "bias width mismatch");
        for row in self.data.chunks_exact_mut(bias.cols()) {
            for (o, &b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// NAPL row-wise matmul (paper Eq. 5): row `n` of the output is
    /// `self[n, :] @ W_n` where `W_n` is `w[n, :]` reshaped to `c_in × c_out`.
    ///
    /// `self` may stack `s` samples of `w.rows()` rows sample-major; row
    /// `i·N + n` then meets `W_n`, and each sample's rows come out
    /// bit-identical to a call on that sample alone
    /// ([`kernels::rowwise_matmul`]).
    pub fn rowwise_matmul(&self, w: &Self, c_in: usize, c_out: usize) -> Self {
        let rows = self.rows();
        assert_eq!(self.cols(), c_in, "rowwise_matmul: z cols != c_in");
        assert!(
            w.rows() > 0 && rows.is_multiple_of(w.rows()),
            "rowwise_matmul: {rows} rows are not whole samples of {} nodes",
            w.rows()
        );
        assert_eq!(w.cols(), c_in * c_out, "rowwise_matmul: w cols != c_in*c_out");
        let data = kernels::rowwise_matmul(&self.data, &w.data, w.rows(), c_in, c_out);
        Self { data, shape: vec![rows, c_out] }
    }

    /// Inverted dropout in place at drop rate `p ∈ (0, 1)`: each element
    /// `v` becomes `v * m` with `m = 1/keep` (`keep = 1 − p`) or `m = 0`,
    /// from one `bernoulli(keep)` draw per element in row-major order.
    ///
    /// This is [`Tensor::dropout_blocks_inplace`] with one block.
    pub fn dropout_inplace(&mut self, p: f32, rng: &mut StuqRng) {
        self.dropout_blocks_inplace(p, std::slice::from_mut(rng));
    }

    /// Inverted dropout in place for a sample block: the data splits into
    /// `rngs.len()` equal blocks (samples stacked sample-major), and block
    /// `i` is drawn from `rngs[i]` exactly as [`Tensor::dropout_inplace`]
    /// draws a lone sample: [`Tensor::dropout_blocks_with`] multiplying
    /// each element by its multiplier.
    pub fn dropout_blocks_inplace(&mut self, p: f32, rngs: &mut [StuqRng]) {
        self.dropout_blocks_with(p, rngs, |block, mults| {
            for (v, &m) in block.iter_mut().zip(mults) {
                *v *= m;
            }
        });
    }

    /// Draws inverted-dropout multipliers at rate `p ∈ (0, 1)` for each
    /// sample block (as in [`Tensor::dropout_blocks_inplace`]) and hands
    /// each block with its multipliers to `apply`, in sample order. Each
    /// multiplier is `1/keep` (`keep = 1 − p`) or `0`, from one
    /// `bernoulli(keep)` draw per element in row-major order; dropout is
    /// `v · m`, and `apply` may fold other element-wise work around it.
    ///
    /// This is the only place a dropout draw is written: the tape's stored
    /// mask is this applied to ones ([`Tensor::dropout_mask`]), so any two
    /// forward passes that drop the same shapes in the same order consume
    /// each stream identically and produce the same bits.
    ///
    /// `bernoulli(keep)` is `(x >> 11)·2⁻⁵³ < keep` for the next raw draw
    /// `x`. Both sides scale exactly by 2⁵³, so for the integer `x >> 11`
    /// it is `x >> 11 < ⌈keep·2⁵³⌉`, one integer compare per element.
    ///
    /// On x86-64 builds with AVX2, a block of two or more samples draws its
    /// streams in lockstep groups of eight ([`StuqRng`]'s lane kernel) to
    /// the same bits and final states; a lone stream, and every other
    /// build, takes the scalar loop.
    pub fn dropout_blocks_with(
        &mut self,
        p: f32,
        rngs: &mut [StuqRng],
        mut apply: impl FnMut(&mut [f32], &[f32]),
    ) {
        assert!(p > 0.0 && p < 1.0, "dropout rate must be in (0, 1)");
        assert!(
            !rngs.is_empty() && self.data.len().is_multiple_of(rngs.len()),
            "{} elements do not split into {} sample blocks",
            self.data.len(),
            rngs.len()
        );
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let below = (keep as f64 * (1u64 << 53) as f64).ceil() as u64;
        let per_block = (self.data.len() / rngs.len()).max(1);
        let mut mults = vec![0.0f32; per_block];
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        if rngs.len() >= 2 {
            use crate::rng::LOCKSTEP_LANES;
            let mut masks = vec![0u8; per_block];
            let groups = self.data.chunks_mut(LOCKSTEP_LANES * per_block);
            for (group, rngs) in groups.zip(rngs.chunks_mut(LOCKSTEP_LANES)) {
                StuqRng::keep_masks(rngs, below, &mut masks);
                for (lane, block) in group.chunks_mut(per_block).enumerate() {
                    for (m, &bits) in mults.iter_mut().zip(&masks) {
                        *m = if bits >> lane & 1 == 1 { scale } else { 0.0 };
                    }
                    apply(block, &mults);
                }
            }
            return;
        }
        for (block, rng) in self.data.chunks_mut(per_block).zip(rngs) {
            for m in mults.iter_mut() {
                *m = if rng.next_u64() >> 11 < below { scale } else { 0.0 };
            }
            apply(block, &mults);
        }
    }

    /// The inverted-dropout mask of `shape` at rate `p`: ones through
    /// [`Tensor::dropout_inplace`], so each entry is `1/keep` or `0`.
    pub fn dropout_mask(shape: &[usize], p: f32, rng: &mut StuqRng) -> Self {
        let mut mask = Self::ones(shape);
        mask.dropout_inplace(p, rng);
        mask
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        kernels::blocked_sum(&self.data, |x| (x as f64) * (x as f64)).sqrt()
    }

    /// Dot product of two same-shaped tensors, accumulated in `f64`.
    pub fn dot(&self, other: &Self) -> f64 {
        assert_eq!(self.shape, other.shape, "dot shape mismatch");
        kernels::blocked_dot(&self.data, &other.data)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// A gate activation in the kernel the current mode picks: the
/// vectorizable rationals of [`crate::fastmath`], or libm inside
/// [`kernels::with_reference_kernels`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

/// The libm sigmoid of reference mode.
fn sigmoid_libm(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Activation {
    /// `v = act(v)` for every element of `dst`.
    pub fn map_inplace(self, dst: &mut [f32]) {
        match (self, kernels::reference_mode()) {
            (Self::Sigmoid, false) => kernels::map_inplace_elems(dst, crate::fastmath::sigmoid_f32),
            (Self::Sigmoid, true) => kernels::map_inplace_elems(dst, sigmoid_libm),
            (Self::Tanh, false) => kernels::map_inplace_elems(dst, crate::fastmath::tanh_f32),
            (Self::Tanh, true) => kernels::map_inplace_elems(dst, f32::tanh),
        }
    }

    /// `dst[i] = act(f(dst[i], x[i], y[i]))` in one pass: an element-wise
    /// prologue folded into the activation, each element rounded as the
    /// separate passes would round it.
    pub fn zip2_assign(
        self,
        dst: &mut [f32],
        x: &[f32],
        y: &[f32],
        f: impl Fn(f32, f32, f32) -> f32 + Sync,
    ) {
        use crate::fastmath::{sigmoid_f32, tanh_f32};
        use kernels::zip2_assign_elems as zip2;
        match (self, kernels::reference_mode()) {
            (Self::Sigmoid, false) => zip2(dst, x, y, |d, a, b| sigmoid_f32(f(d, a, b))),
            (Self::Sigmoid, true) => zip2(dst, x, y, |d, a, b| sigmoid_libm(f(d, a, b))),
            (Self::Tanh, false) => zip2(dst, x, y, |d, a, b| tanh_f32(f(d, a, b))),
            (Self::Tanh, true) => zip2(dst, x, y, |d, a, b| f(d, a, b).tanh()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3, 3]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0], &[2, 3]);
        let b = Tensor::from_vec(vec![3.0, 1.0, 2.0, 1.0, 1.0, 0.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[5.0, 1.0, 4.0, 2.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).data(), a.data());
        assert_eq!(i.matmul(&a).data(), a.data());
    }

    #[test]
    fn matmul_tb_matches_explicit_transpose() {
        let mut rng = StuqRng::new(7);
        let a = Tensor::randn(&[3, 5], 1.0, &mut rng);
        let b = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let lhs = a.matmul_tb(&b);
        let rhs = a.matmul(&b.transpose());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StuqRng::new(1);
        let a = Tensor::randn(&[4, 7], 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn concat_and_slice_cols_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0], &[2, 3]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let sum: f32 = (0..3).map(|j| s.get(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone: larger logits get larger probability.
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_rows_handles_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = t.softmax_rows();
        assert!(s.all_finite());
        assert!((s.get(0, 0) + s.get(0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sum_rows_matches_manual() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.sum_rows().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[2, 2]);
        let b = Tensor::full(&[2, 2], 3.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.5, 2.5, 2.5, 2.5]);
    }

    /// A NAPL product with no input columns is zeros for every output
    /// width, the scalar chains under 8 columns included, for one sample or
    /// two.
    #[test]
    fn rowwise_matmul_with_no_input_columns_is_zero() {
        for rows in [3, 6] {
            for c_out in 1..=9 {
                let out =
                    Tensor::zeros(&[rows, 0]).rowwise_matmul(&Tensor::zeros(&[3, 0]), 0, c_out);
                assert_eq!(out.shape(), &[rows, c_out]);
                assert!(out.data().iter().all(|&v| v == 0.0), "{rows} rows, c_out {c_out}");
            }
        }
    }

    /// The in-place draw is the tape's `x ⊙ mask` bit for bit, including
    /// on ±0, ±inf, NaN and subnormals, matches the `bernoulli(keep)` draw
    /// rule written out here at rates from 1e-9 (where `keep` rounds to 1
    /// in f32) to 1 − 1e-7, and leaves the generator where the mask draw
    /// leaves it.
    ///
    /// A sample block draws each sample's elements from its own stream by
    /// the same rule, whatever path the build takes for the block, and
    /// leaves every stream's whole state where the rule leaves it. The
    /// table crosses block sizes around the lockstep group of 8 with
    /// per-sample lengths from 1 to a 43×32 gate, and stream 1 of every
    /// block holds a pending Box–Muller spare, which the draw must keep.
    #[test]
    fn dropout_inplace_matches_the_mask_product_bitwise() {
        let specials =
            [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e-40, -1e-45, f32::MAX];
        let mut rng = StuqRng::new(17);
        let mut x = Tensor::randn(&[5, 7], 3.0, &mut rng);
        for (v, &s) in x.data_mut().iter_mut().step_by(3).zip(specials.iter().cycle()) {
            *v = s;
        }
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let rates = [1e-9f32, 1e-7, 0.05, 0.2, 0.5, 0.9, 1.0 - 1e-7];
        for p in rates {
            let stream = rng.fork(1);
            let (mut r1, mut r2, mut r3) = (stream.clone(), stream.clone(), stream);
            let mut got = x.clone();
            got.dropout_inplace(p, &mut r1);
            let via_mask = x.mul(&Tensor::dropout_mask(x.shape(), p, &mut r2));
            let keep = 1.0 - p;
            let by_rule: Vec<f32> = x
                .data()
                .iter()
                .map(|&v| v * if r3.bernoulli(keep as f64) { 1.0 / keep } else { 0.0 })
                .collect();
            assert_eq!(bits(got.data()), bits(via_mask.data()), "p = {p}: in place vs mask");
            assert_eq!(bits(got.data()), bits(&by_rule), "p = {p}: in place vs draw rule");
            assert_eq!(r1.export_state(), r2.export_state(), "p = {p}: RNG position");
            assert_eq!(r1.export_state(), r3.export_state(), "p = {p}: RNG position");

            // The integer threshold is the float compare at the boundary
            // raw draws, up to the last 53-bit value.
            let below = (keep as f64 * (1u64 << 53) as f64).ceil() as u64;
            let last = (1u64 << 53) - 1;
            for m in [0, 1, below.saturating_sub(1), below, below + 1, last - 1, last] {
                let m = m.min(last);
                let float = (m as f64) * (1.0 / (1u64 << 53) as f64) < keep as f64;
                assert_eq!(m < below, float, "p = {p}: draw {m}");
            }
        }

        for samples in [2, 3, 4, 5, 7, 8, 9, 16, 17] {
            for len in [1, 7, 33, 1376] {
                for p in rates {
                    let mut streams: Vec<StuqRng> =
                        (0..samples as u64).map(|i| rng.fork(10 + i)).collect();
                    let _ = streams[1].normal_f64();
                    let stacked = Tensor::randn(&[samples, len], 1.0, &mut rng);
                    let mut block = stacked.clone();
                    let mut block_rngs = streams.clone();
                    block.dropout_blocks_inplace(p, &mut block_rngs);
                    let keep = 1.0 - p;
                    for (i, r) in streams.iter_mut().enumerate() {
                        let by_rule: Vec<f32> = stacked.data()[len * i..len * (i + 1)]
                            .iter()
                            .map(|&v| v * if r.bernoulli(keep as f64) { 1.0 / keep } else { 0.0 })
                            .collect();
                        let at = format!("{samples} samples of {len}, p = {p}: stream {i}");
                        let rows = &block.data()[len * i..len * (i + 1)];
                        assert_eq!(bits(rows), bits(&by_rule), "{at}: draws");
                        assert_eq!(block_rngs[i].export_state(), r.export_state(), "{at}: state");
                    }
                    assert!(block_rngs[1].export_state().spare_normal_bits.is_some());
                }
            }
        }
    }

    #[test]
    fn randn_has_roughly_unit_variance() {
        let mut rng = StuqRng::new(42);
        let t = Tensor::randn(&[100, 100], 1.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>()
            / (t.len() as f64 - 1.0);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
