//! Layers: linear maps, GRU cells, and the NAPL adaptive-graph GRU cell.
//!
//! Layers follow a *bind-then-step* pattern: a layer owns parameter slots;
//! [`Linear::bind`] (etc.) binds the parameters **once** and returns a bound
//! handle whose `forward`/`step` can be called many times (e.g. for each of
//! the 12 time steps) without re-binding them. This is also how the NAPL
//! weight pools of AGCRN are hoisted: the per-node weight matrices
//! `E·W_pool` (paper Eq. 5) are computed once per bind — once per tape when
//! training, and at inference once per parameter state: the model keeps the
//! bound cell until its parameters change (DESIGN.md §17).
//!
//! The linear map, the AGCRN cell and the decoder heads are written once
//! over an [`Exec`]utor: on a [`Tape`] they record nodes for the backward
//! pass; on [`Eager`] they run a block of MC samples in lockstep straight
//! from borrowed parameters and keep nothing they do not return: each
//! intermediate's buffer goes back to a per-thread free list for the next
//! op, pass and request.

use std::borrow::{Borrow, Cow};
use std::cell::RefCell;
use std::sync::OnceLock;

use crate::init;
use crate::params::ParamSet;
use stuq_tensor::{kernels, Activation, NodeId, StuqRng, Tape, Tensor};

/// The tensor operations a forward pass is written against, so one
/// definition of each layer serves both training and inference.
///
/// [`Tape`] records every op (values are [`NodeId`]s; parameters are copied
/// onto the tape) so gradients can flow. [`Eager`] computes [`Block`]s —
/// one value per sample of a block, or one shared by all — borrows
/// parameters, and drops each intermediate with its last reader. Both run
/// the same per-element arithmetic per sample and draw dropout through the
/// one rule in [`Tensor::dropout_blocks_inplace`], so a pass written
/// against `Exec` yields the same bits — and leaves each sample's RNG
/// stream at the same position — on either.
///
/// Operands that the layers never read again are taken by value, so the
/// eager executor can write its result into their buffers.
pub trait Exec {
    /// A value: a tape node id, or a sample block.
    type Val: Clone;
    /// A bound parameter: a tape node id, or a borrow of the parameter.
    type Param<'p>: Borrow<Self::Val>;
    /// Where dropout draws from: one stream, or one stream per sample.
    type Rng: ?Sized;

    /// Binds parameter `slot` holding `value`.
    fn param<'p>(&mut self, slot: usize, value: &'p Tensor) -> Self::Param<'p>;
    /// A value that receives no gradient.
    fn constant(&mut self, value: Tensor) -> Self::Val;
    /// `a @ b`.
    fn matmul(&mut self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// `a @ bᵀ`.
    fn matmul_tb(&mut self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// NAPL row-wise matmul (see [`Tensor::rowwise_matmul`]).
    fn rowwise_matmul(
        &mut self,
        z: &Self::Val,
        w: &Self::Val,
        c_in: usize,
        c_out: usize,
    ) -> Self::Val;
    /// `[a | b]`.
    fn concat_cols(&mut self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// Element-wise product.
    fn mul(&mut self, a: &Self::Val, b: &Self::Val) -> Self::Val;
    /// Element-wise sum.
    fn add(&mut self, a: Self::Val, b: &Self::Val) -> Self::Val;
    /// Adds the `1×n` row `bias` to every row of `x`.
    fn add_row_broadcast(&mut self, x: Self::Val, bias: &Self::Val) -> Self::Val;
    /// `1 − a` (paper Eq. 6d).
    fn one_minus(&mut self, a: Self::Val) -> Self::Val;
    /// Rectified linear unit.
    fn relu(&mut self, a: Self::Val) -> Self::Val;
    /// Row-wise soft-max.
    fn softmax_rows(&mut self, a: Self::Val) -> Self::Val;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Self::Val) -> Self::Val;
    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Self::Val) -> Self::Val;
    /// Inverted dropout at rate `p > 0`.
    fn dropout(&mut self, a: Self::Val, p: f32, rng: &mut Self::Rng) -> Self::Val;

    /// A gate's epilogue `act(dropout(x + bias))`, with dropout at rate `p`
    /// from `rng` when `p` is given.
    fn gate_epilogue(
        &mut self,
        x: Self::Val,
        bias: &Self::Val,
        p: Option<f32>,
        rng: &mut Self::Rng,
        act: Activation,
    ) -> Self::Val {
        let x = self.add(x, bias);
        let x = match p {
            Some(p) => self.dropout(x, p, rng),
            None => x,
        };
        match act {
            Activation::Sigmoid => self.sigmoid(x),
            Activation::Tanh => self.tanh(x),
        }
    }

    /// The GRU blend `z ⊙ h + (1 − z) ⊙ c` (paper Eq. 6d).
    fn gru_blend(&mut self, z: Self::Val, h: &Self::Val, c: &Self::Val) -> Self::Val {
        let zh = self.mul(&z, h);
        let omz = self.one_minus(z);
        let oc = self.mul(&omz, c);
        self.add(zh, &oc)
    }
}

impl Exec for Tape {
    type Val = NodeId;
    type Param<'p> = NodeId;
    type Rng = StuqRng;

    fn param(&mut self, slot: usize, value: &Tensor) -> NodeId {
        Tape::param(self, slot, value.clone())
    }
    fn constant(&mut self, value: Tensor) -> NodeId {
        Tape::constant(self, value)
    }
    fn matmul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Tape::matmul(self, *a, *b)
    }
    fn matmul_tb(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Tape::matmul_tb(self, *a, *b)
    }
    fn rowwise_matmul(&mut self, z: &NodeId, w: &NodeId, c_in: usize, c_out: usize) -> NodeId {
        Tape::rowwise_matmul(self, *z, *w, c_in, c_out)
    }
    fn concat_cols(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Tape::concat_cols(self, *a, *b)
    }
    fn mul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        Tape::mul(self, *a, *b)
    }
    fn add(&mut self, a: NodeId, b: &NodeId) -> NodeId {
        Tape::add(self, a, *b)
    }
    fn add_row_broadcast(&mut self, x: NodeId, bias: &NodeId) -> NodeId {
        Tape::add_row_broadcast(self, x, *bias)
    }
    fn one_minus(&mut self, a: NodeId) -> NodeId {
        Tape::one_minus(self, a)
    }
    fn relu(&mut self, a: NodeId) -> NodeId {
        Tape::relu(self, a)
    }
    fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        Tape::softmax_rows(self, a)
    }
    fn sigmoid(&mut self, a: NodeId) -> NodeId {
        Tape::sigmoid(self, a)
    }
    fn tanh(&mut self, a: NodeId) -> NodeId {
        Tape::tanh(self, a)
    }
    fn dropout(&mut self, a: NodeId, p: f32, rng: &mut StuqRng) -> NodeId {
        Tape::dropout(self, a, p, rng)
    }
}

/// A value on [`Eager`]: one tensor every sample of the block shares, or
/// one row block per sample.
///
/// Parameters (borrowed), the window input, `h = 0` and everything
/// computed from them alone are shared; a value splits at the first
/// dropout, which draws each sample's block from that sample's stream.
///
/// An op's result lives in a buffer from its thread's free list, and goes
/// back there when the block drops, so repeated passes and requests reuse
/// the same memory instead of faulting fresh pages in (DESIGN.md §17).
#[derive(Debug)]
pub struct Block<'p> {
    /// The shared value, or `samples` values of one shape stacked
    /// sample-major into `[samples·rows, cols]`.
    data: Cow<'p, Tensor>,
    /// `None` while every sample shares `data`.
    samples: Option<usize>,
    /// Whether `data`'s buffer returns to the free list on drop.
    recycled: bool,
}

thread_local! {
    /// Buffers of dropped blocks, kept for the next op on this thread.
    static FREE: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
    /// Takes that had to allocate.
    #[cfg(test)]
    static MISSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `len` floats from this thread's free list: the smallest free buffer
/// that holds them, else the largest one grown, else a new one. The
/// contents are stale: every op writes each element of its result.
///
/// A new buffer is only allocated while every recycled buffer is in use,
/// so the list never holds more buffers than one block had live at once.
/// It outlives the request: handing the memory back to the allocator at
/// the end of each would let glibc return it to the kernel, and the next
/// request would fault it in again (DESIGN.md §17).
fn take_buffer(len: usize) -> Vec<f32> {
    let mut buf = FREE.with_borrow_mut(|free| {
        let fit = (0..free.len())
            .filter(|&i| free[i].capacity() >= len)
            .min_by_key(|&i| free[i].capacity());
        let pick = fit.or_else(|| (0..free.len()).max_by_key(|&i| free[i].capacity()));
        pick.map(|i| free.swap_remove(i)).unwrap_or_default()
    });
    if buf.capacity() < len {
        #[cfg(test)]
        MISSES.set(MISSES.get() + 1);
        buf.clear();
        buf.reserve_exact(len);
    }
    buf.resize(len, 0.0);
    buf
}

/// What a block's data is swapped for when it is moved out of the block.
fn placeholder() -> &'static Tensor {
    static EMPTY: OnceLock<Tensor> = OnceLock::new();
    EMPTY.get_or_init(|| Tensor::zeros(&[0, 0]))
}

impl Drop for Block<'_> {
    fn drop(&mut self) {
        if !self.recycled {
            return;
        }
        if let Cow::Owned(t) = std::mem::replace(&mut self.data, Cow::Borrowed(placeholder())) {
            let buf = t.into_data();
            // After the thread's list is gone, the buffer is simply freed.
            let _ = FREE.try_with(|free| {
                if let Ok(mut free) = free.try_borrow_mut() {
                    free.push(buf);
                }
            });
        }
    }
}

impl Clone for Block<'_> {
    /// An op's result is copied into a recycled buffer; anything else (a
    /// borrow, a constant, a value made owned) is cloned as it is, so a
    /// clone of a kept bind never hands its buffers to the free list.
    fn clone(&self) -> Self {
        if !self.recycled {
            return Self { data: self.data.clone(), samples: self.samples, recycled: false };
        }
        let mut buf = take_buffer(self.data.len());
        buf.copy_from_slice(self.data.data());
        Self::recycled(Tensor::from_vec(buf, self.data.shape()), self.samples)
    }
}

impl<'p> Block<'p> {
    fn shared(data: Cow<'p, Tensor>) -> Self {
        Self { data, samples: None, recycled: false }
    }

    /// An op's result, in a buffer from [`take_buffer`].
    fn recycled(data: Tensor, samples: Option<usize>) -> Self {
        Self { data: Cow::Owned(data), samples, recycled: true }
    }

    /// One sample's `[rows, cols]`.
    fn sample_shape(&self) -> [usize; 2] {
        [self.data.rows() / self.samples.unwrap_or(1), self.data.cols()]
    }

    /// Sample `i`'s data (a shared value's data for every `i`).
    fn sample(&self, i: usize) -> &[f32] {
        let len = self.data.len() / self.samples.unwrap_or(1);
        match self.samples {
            None => self.data.data(),
            Some(_) => &self.data.data()[i * len..(i + 1) * len],
        }
    }

    /// The value as `s` samples; a shared value is repeated.
    fn split(self, s: usize) -> Self {
        match self.samples {
            None => {
                let t = &self.data;
                let mut buf = take_buffer(s * t.len());
                for chunk in buf.chunks_exact_mut(t.len().max(1)) {
                    chunk.copy_from_slice(t.data());
                }
                Self::recycled(Tensor::from_vec(buf, &[s * t.rows(), t.cols()]), Some(s))
            }
            Some(samples) => {
                assert_eq!(samples, s, "a block of {samples} samples used as {s}");
                self
            }
        }
    }

    /// The value with its data owned, so it can outlive the parameters it
    /// was computed from. An op's result is owned already and only moves;
    /// its buffer then stays with the value instead of being recycled.
    pub fn into_owned(mut self) -> Block<'static> {
        self.recycled = false;
        let data = std::mem::replace(&mut self.data, Cow::Borrowed(placeholder()));
        Block { data: Cow::Owned(data.into_owned()), samples: self.samples, recycled: false }
    }

    /// One tensor per sample for a block of `s` samples.
    pub fn into_samples(self, s: usize) -> Vec<Tensor> {
        if let Some(samples) = self.samples {
            assert_eq!(samples, s, "a block of {samples} samples read as {s}");
        }
        let [rows, cols] = self.sample_shape();
        (0..s).map(|i| Tensor::from_vec(self.sample(i).to_vec(), &[rows, cols])).collect()
    }

    /// Applies `f` to the underlying tensor in place.
    fn update(mut self, f: impl FnOnce(&mut Tensor)) -> Self {
        f(self.data.to_mut());
        self
    }

    /// The tensor of a value every sample shares.
    fn expect_shared(&self, what: &str) -> &Tensor {
        assert!(self.samples.is_none(), "{what} must be shared by every sample");
        &self.data
    }

    /// `product` of each sample's operands (a shared operand stands for
    /// every sample) into that sample's `shape` block, computed once while
    /// both are shared. The block's contents are stale: `product` writes
    /// every element. Each call sees one sample's operands alone, so a
    /// sample's bits do not depend on the block.
    fn per_sample(
        a: &Self,
        b: &Self,
        shape: [usize; 2],
        product: impl Fn(&[f32], &[f32], &mut [f32]),
    ) -> Self {
        let samples = Self::common_samples(&[a, b]);
        let s = samples.unwrap_or(1);
        let len = shape[0] * shape[1];
        let mut data = take_buffer(s * len);
        for (i, out) in data.chunks_exact_mut(len.max(1)).enumerate() {
            product(a.sample(i), b.sample(i), out);
        }
        Self::recycled(Tensor::from_vec(data, &[s * shape[0], shape[1]]), samples)
    }

    /// `f(a, b)` element-wise into `a`'s buffer; a shared `b` repeats for
    /// every sample.
    fn zip_into(self, b: &Self, f: impl Fn(f32, f32) -> f32 + Sync + Copy) -> Self {
        let a = match Self::common_samples(&[&self, b]) {
            Some(s) => self.split(s),
            None => self,
        };
        let blocks = a.samples.unwrap_or(1);
        a.update(|t| {
            let per = t.len() / blocks;
            for (i, chunk) in t.data_mut().chunks_mut(per.max(1)).enumerate() {
                kernels::zip_assign_elems(chunk, b.sample(i), f);
            }
        })
    }

    /// The sample count of an op on `operands`: `None` while all are
    /// shared.
    fn common_samples(operands: &[&Self]) -> Option<usize> {
        let mut counts = operands.iter().filter_map(|v| v.samples);
        let first = counts.next();
        for other in counts {
            assert_eq!(first, Some(other), "operands of {first:?} and {other} samples");
        }
        first
    }
}

/// Runs a block of MC samples in lockstep on owned tensors: a forward pass
/// without a tape, for inference. A lone pass is a block of one.
///
/// Values are [`Block`]s. Row-independent ops (element-wise, bias,
/// concatenation, soft-max) run once over the stacked rows; matmuls run
/// once per sample, so their tiling — hence their bits — is a lone pass's;
/// the NAPL product runs the whole block through
/// [`kernels::rowwise_matmul_into`], which loads each node's weights once
/// per block. Element-wise ops write into the buffer of the operand they
/// take by value, and every new result takes a recycled buffer (see
/// [`Block`]). A gate's bias, dropout and activation run as one pass per
/// sample once its dropout multipliers are drawn, and the GRU blend as one
/// pass ([`Exec::gate_epilogue`], [`Exec::gru_blend`]).
pub struct Eager<'p> {
    params: &'p ParamSet,
}

impl<'p> Eager<'p> {
    /// An executor binding parameters from `params` by borrow.
    pub fn new(params: &'p ParamSet) -> Self {
        Self { params }
    }
}

impl<'p> Exec for Eager<'p> {
    type Val = Block<'p>;
    type Param<'q> = Block<'p>;
    type Rng = [StuqRng];

    fn param<'q>(&mut self, slot: usize, value: &'q Tensor) -> Block<'p> {
        let bound = self.params.get(slot);
        assert!(std::ptr::eq(bound, value), "slot {slot} is not read from the executor's ParamSet");
        Block::shared(Cow::Borrowed(bound))
    }
    fn constant(&mut self, value: Tensor) -> Block<'p> {
        Block::shared(Cow::Owned(value))
    }
    fn matmul(&mut self, a: &Block<'p>, b: &Block<'p>) -> Block<'p> {
        let ([m, k], [k2, n]) = (a.sample_shape(), b.sample_shape());
        assert_eq!(k, k2, "matmul inner dims: {m}x{k} @ {k2}x{n}");
        Block::per_sample(a, b, [m, n], |x, y, out| kernels::matmul_into(x, y, out, m, k, n))
    }
    fn matmul_tb(&mut self, a: &Block<'p>, b: &Block<'p>) -> Block<'p> {
        let ([m, k], [n, k2]) = (a.sample_shape(), b.sample_shape());
        assert_eq!(k, k2, "matmul_tb inner dims: {m}x{k} @ ({n}x{k2})^T");
        Block::per_sample(a, b, [m, n], |x, y, out| {
            out.copy_from_slice(&kernels::matmul_tb(x, y, m, k, n));
        })
    }
    fn rowwise_matmul(
        &mut self,
        z: &Block<'p>,
        w: &Block<'p>,
        c_in: usize,
        c_out: usize,
    ) -> Block<'p> {
        let w = w.expect_shared("NAPL weights");
        let rows = z.data.rows();
        assert_eq!(z.data.cols(), c_in, "rowwise_matmul: z cols != c_in");
        assert_eq!(w.cols(), c_in * c_out, "rowwise_matmul: w cols != c_in*c_out");
        let mut out = take_buffer(rows * c_out);
        kernels::rowwise_matmul_into(z.data.data(), w.data(), &mut out, w.rows(), c_in, c_out);
        Block::recycled(Tensor::from_vec(out, &[rows, c_out]), z.samples)
    }
    fn concat_cols(&mut self, a: &Block<'p>, b: &Block<'p>) -> Block<'p> {
        let ([rows, ca], [rb, cb]) = (a.sample_shape(), b.sample_shape());
        assert_eq!(rows, rb, "concat_cols row mismatch");
        Block::per_sample(a, b, [rows, ca + cb], |x, y, out| {
            for (r, o) in out.chunks_exact_mut((ca + cb).max(1)).enumerate() {
                o[..ca].copy_from_slice(&x[r * ca..(r + 1) * ca]);
                o[ca..].copy_from_slice(&y[r * cb..(r + 1) * cb]);
            }
        })
    }
    fn mul(&mut self, a: &Block<'p>, b: &Block<'p>) -> Block<'p> {
        let ([m, n], shape_b) = (a.sample_shape(), b.sample_shape());
        assert_eq!([m, n], shape_b, "mul shape mismatch");
        Block::per_sample(a, b, [m, n], |x, y, out| {
            for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                *o = x * y;
            }
        })
    }
    fn add(&mut self, a: Block<'p>, b: &Block<'p>) -> Block<'p> {
        a.zip_into(b, |x, y| x + y)
    }
    fn add_row_broadcast(&mut self, x: Block<'p>, bias: &Block<'p>) -> Block<'p> {
        let bias = bias.expect_shared("a bias row");
        x.update(|t| t.add_row_broadcast_inplace(bias))
    }
    fn one_minus(&mut self, a: Block<'p>) -> Block<'p> {
        // The tape's `neg` then `add_scalar` in one pass; negation is
        // exact, so it rounds as they do.
        a.update(|t| t.map_inplace(|x| -x + 1.0))
    }
    fn relu(&mut self, a: Block<'p>) -> Block<'p> {
        a.update(Tensor::relu_inplace)
    }
    fn softmax_rows(&mut self, a: Block<'p>) -> Block<'p> {
        a.update(Tensor::softmax_rows_inplace)
    }
    fn sigmoid(&mut self, a: Block<'p>) -> Block<'p> {
        a.update(Tensor::sigmoid_inplace)
    }
    fn tanh(&mut self, a: Block<'p>) -> Block<'p> {
        a.update(Tensor::tanh_inplace)
    }
    fn dropout(&mut self, a: Block<'p>, p: f32, rngs: &mut [StuqRng]) -> Block<'p> {
        a.split(rngs.len()).update(|t| t.dropout_blocks_inplace(p, rngs))
    }
    /// One pass per sample after its multipliers are drawn; the bias must
    /// be shared.
    fn gate_epilogue(
        &mut self,
        x: Block<'p>,
        bias: &Block<'p>,
        p: Option<f32>,
        rngs: &mut [StuqRng],
        act: Activation,
    ) -> Block<'p> {
        let bias = bias.expect_shared("a gate bias").data();
        let Some(p) = p else {
            return x.update(|t| {
                for v in t.data_mut().chunks_exact_mut(bias.len().max(1)) {
                    act.zip2_assign(v, bias, bias, |v, b, _| v + b);
                }
            });
        };
        x.split(rngs.len()).update(|t| {
            t.dropout_blocks_with(p, rngs, |v, m| {
                act.zip2_assign(v, bias, m, |v, b, m| (v + b) * m)
            });
        })
    }
    /// One pass into `z`'s buffer.
    fn gru_blend(&mut self, z: Block<'p>, h: &Block<'p>, c: &Block<'p>) -> Block<'p> {
        let z = match Block::common_samples(&[&z, h, c]) {
            Some(s) => z.split(s),
            None => z,
        };
        let blocks = z.samples.unwrap_or(1);
        z.update(|t| {
            let per = (t.len() / blocks).max(1);
            for (i, zs) in t.data_mut().chunks_mut(per).enumerate() {
                let (hs, cs) = (h.sample(i), c.sample(i));
                for ((z, &h), &c) in zs.iter_mut().zip(hs).zip(cs) {
                    *z = *z * h + (-*z + 1.0) * c;
                }
            }
        })
    }
}

/// Forward-pass context: controls dropout behaviour.
///
/// * training: dropout on (standard stochastic regularisation / variational
///   learning, paper Eq. 11–13);
/// * MC-dropout inference: dropout also on (paper §IV-C2);
/// * deterministic inference (`DeepSTUQ/S` in Table III): dropout off.
///
/// `R` is the executor's [`Exec::Rng`]: one stream on a tape, one stream
/// per sample on [`Eager`].
pub struct FwdCtx<'a, R: ?Sized = StuqRng> {
    /// True during gradient-producing passes.
    pub train: bool,
    /// True when sampling with MC dropout at inference time.
    pub mc_dropout: bool,
    /// Randomness source for dropout masks.
    pub rng: &'a mut R,
}

impl<'a, R: ?Sized> FwdCtx<'a, R> {
    /// Training-mode context.
    pub fn train(rng: &'a mut R) -> Self {
        Self { train: true, mc_dropout: false, rng }
    }

    /// Deterministic evaluation context (dropout off).
    pub fn eval(rng: &'a mut R) -> Self {
        Self { train: false, mc_dropout: false, rng }
    }

    /// MC-dropout sampling context (dropout on, no training).
    pub fn mc_sample(rng: &'a mut R) -> Self {
        Self { train: false, mc_dropout: true, rng }
    }

    /// Whether dropout masks should be drawn.
    pub fn dropout_active(&self) -> bool {
        self.train || self.mc_dropout
    }

    /// The rate dropout at `p` runs at: `None` when it is the identity.
    pub(crate) fn drop_rate(&self, p: f32) -> Option<f32> {
        (self.dropout_active() && p > 0.0).then_some(p)
    }

    /// Applies dropout to `x` when active; identity otherwise.
    pub fn dropout<E: Exec<Rng = R>>(&mut self, ex: &mut E, x: E::Val, p: f32) -> E::Val {
        match self.drop_rate(p) {
            Some(p) => ex.dropout(x, p, self.rng),
            None => x,
        }
    }
}

/// A dense layer `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    w: usize,
    b: usize,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Allocates Glorot-initialised parameters.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut StuqRng,
    ) -> Self {
        let w = ps.add(
            format!("{name}.w"),
            init::glorot_uniform(in_dim, out_dim, &[in_dim, out_dim], rng),
        );
        let b = ps.add(format!("{name}.b"), stuq_tensor::Tensor::zeros(&[1, out_dim]));
        Self { w, b, in_dim, out_dim }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Binds the weight and bias on `ex`.
    pub fn bind<'p, E: Exec>(&self, ex: &mut E, ps: &'p ParamSet) -> BoundLinear<E::Param<'p>> {
        BoundLinear { w: ex.param(self.w, ps.get(self.w)), b: ex.param(self.b, ps.get(self.b)) }
    }
}

/// A [`Linear`] with bound parameters (tape nodes by default).
#[derive(Clone, Copy, Debug)]
pub struct BoundLinear<P = NodeId> {
    w: P,
    b: P,
}

impl<P> BoundLinear<P> {
    /// `x @ W + b` for `x` of shape `[m, in_dim]`.
    pub fn forward<E: Exec>(&self, ex: &mut E, x: impl Borrow<E::Val>) -> E::Val
    where
        P: Borrow<E::Val>,
    {
        let xw = ex.matmul(x.borrow(), self.w.borrow());
        ex.add_row_broadcast(xw, self.b.borrow())
    }
}

/// A standard GRU cell over node-major states (`[N, hidden]`).
///
/// Used by the plain-GRU ablation model and the CFRNN baseline; the adaptive
/// graph variant is [`AgcrnCell`].
#[derive(Clone, Debug)]
pub struct GruCell {
    wz: Linear,
    wr: Linear,
    wc: Linear,
    in_dim: usize,
    hidden: usize,
}

impl GruCell {
    /// Allocates cell parameters.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut StuqRng,
    ) -> Self {
        Self {
            wz: Linear::new(ps, &format!("{name}.z"), in_dim + hidden, hidden, rng),
            wr: Linear::new(ps, &format!("{name}.r"), in_dim + hidden, hidden, rng),
            wc: Linear::new(ps, &format!("{name}.c"), in_dim + hidden, hidden, rng),
            in_dim,
            hidden,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Pushes parameter nodes onto the tape.
    pub fn bind(&self, tape: &mut Tape, ps: &ParamSet) -> BoundGruCell {
        BoundGruCell {
            wz: self.wz.bind(tape, ps),
            wr: self.wr.bind(tape, ps),
            wc: self.wc.bind(tape, ps),
        }
    }
}

/// A [`GruCell`] with parameters on a tape.
#[derive(Clone, Copy, Debug)]
pub struct BoundGruCell {
    wz: BoundLinear,
    wr: BoundLinear,
    wc: BoundLinear,
}

impl BoundGruCell {
    /// One recurrence step: `(x_t [N,in], h [N,hidden]) → h' [N,hidden]`.
    pub fn step(&self, tape: &mut Tape, x: NodeId, h: NodeId) -> NodeId {
        let xh = tape.concat_cols(x, h);
        let z = self.wz.forward(tape, xh);
        let z = tape.sigmoid(z);
        let r = self.wr.forward(tape, xh);
        let r = tape.sigmoid(r);
        let rh = tape.mul(r, h);
        let xrh = tape.concat_cols(x, rh);
        let c = self.wc.forward(tape, xrh);
        let c = tape.tanh(c);
        // h' = z ⊙ h + (1 − z) ⊙ c  (paper Eq. 6d).
        let zh = tape.mul(z, h);
        let omz = tape.one_minus(z);
        let oc = tape.mul(omz, c);
        tape.add(zh, oc)
    }
}

/// The NAPL adaptive-graph GRU cell of AGCRN (paper Eq. 5–6).
///
/// All three gates share the node-embedding matrix `E ∈ R^{N×d}`; each gate
/// has a weight pool `W ∈ R^{d×(c_in+h)·h}` and bias pool `b ∈ R^{d×h}` from
/// which per-node weights are generated as `E·W` (Node Adaptive Parameter
/// Learning). Spatial mixing multiplies by the support `I + Â` where
/// `Â = softmax(ReLU(E Eᵀ))` (Eq. 4) is built by the owning model.
#[derive(Clone, Debug)]
pub struct AgcrnCell {
    pools: [GatePool; 3],
    in_dim: usize,
    hidden: usize,
    /// Dropout rate applied inside the graph convolution (paper Eq. 13).
    dropout_p: f32,
}

#[derive(Clone, Debug)]
struct GatePool {
    w: usize,
    b: usize,
}

impl AgcrnCell {
    /// Allocates gate pools. `embed_dim` is `d` in the paper.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        hidden: usize,
        embed_dim: usize,
        dropout_p: f32,
        rng: &mut StuqRng,
    ) -> Self {
        let cat = in_dim + hidden;
        let mut pool = |gate: &str, rng: &mut StuqRng| GatePool {
            w: ps.add(
                format!("{name}.{gate}.w_pool"),
                init::glorot_uniform(cat, hidden, &[embed_dim, cat * hidden], rng),
            ),
            b: ps.add(
                format!("{name}.{gate}.b_pool"),
                stuq_tensor::Tensor::zeros(&[embed_dim, hidden]),
            ),
        };
        let pools = [pool("z", rng), pool("r", rng), pool("c", rng)];
        Self { pools, in_dim, hidden, dropout_p }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Binds the cell: computes per-node gate weights `E·W_pool` once.
    ///
    /// `e` must be the `[N, d]` embedding, `support` the `[N, N]`
    /// propagation matrix (`I + Â`).
    pub fn bind<E: Exec>(
        &self,
        ex: &mut E,
        ps: &ParamSet,
        e: impl Borrow<E::Val>,
        support: E::Val,
    ) -> BoundAgcrnCell<E::Val> {
        let e = e.borrow();
        let gates = self.pools.each_ref().map(|pool| {
            let wp = ex.param(pool.w, ps.get(pool.w));
            let bp = ex.param(pool.b, ps.get(pool.b));
            BoundGate { wn: ex.matmul(e, wp.borrow()), bn: ex.matmul(e, bp.borrow()) }
        });
        BoundAgcrnCell {
            gates,
            support,
            c_in: self.in_dim,
            hidden: self.hidden,
            dropout_p: self.dropout_p,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct BoundGate<V> {
    /// `[N, (c_in+h)·h]` per-node weights.
    wn: V,
    /// `[N, h]` per-node bias.
    bn: V,
}

/// An [`AgcrnCell`] with its weights hoisted: tape nodes by default, owned
/// tensors for tapeless inference.
#[derive(Clone, Copy, Debug)]
pub struct BoundAgcrnCell<V = NodeId> {
    gates: [BoundGate<V>; 3],
    support: V,
    c_in: usize,
    hidden: usize,
    dropout_p: f32,
}

impl<V> BoundAgcrnCell<V> {
    /// Applies `f` to every bound value, keeping the cell's shape.
    pub fn map<U>(self, mut f: impl FnMut(V) -> U) -> BoundAgcrnCell<U> {
        let gates = self.gates.map(|g| BoundGate { wn: f(g.wn), bn: f(g.bn) });
        BoundAgcrnCell {
            gates,
            support: f(self.support),
            c_in: self.c_in,
            hidden: self.hidden,
            dropout_p: self.dropout_p,
        }
    }

    /// Gate `idx` on its spatially mixed input `(I + Â) · [x, h]`.
    fn gate<E: Exec>(
        &self,
        ex: &mut E,
        ctx: &mut FwdCtx<'_, E::Rng>,
        idx: usize,
        mixed: &E::Val,
    ) -> E::Val
    where
        V: Borrow<E::Val>,
    {
        let g = &self.gates[idx];
        // Per-node NAPL weights (Eq. 5), then bias, M ⊙ (·) (dropout inside
        // the graph convolution, Eq. 13) and the gate's activation.
        let pre = ex.rowwise_matmul(mixed, g.wn.borrow(), self.c_in + self.hidden, self.hidden);
        let p = ctx.drop_rate(self.dropout_p);
        let act = if idx == 2 { Activation::Tanh } else { Activation::Sigmoid };
        ex.gate_epilogue(pre, g.bn.borrow(), p, ctx.rng, act)
    }

    /// One recurrence step (paper Eq. 6): `(x_t [N,c_in], h [N,h]) → h'`.
    pub fn step<E: Exec>(
        &self,
        ex: &mut E,
        ctx: &mut FwdCtx<'_, E::Rng>,
        x: impl Borrow<E::Val>,
        h: impl Borrow<E::Val>,
    ) -> E::Val
    where
        V: Borrow<E::Val>,
    {
        let (x, h) = (x.borrow(), h.borrow());
        let support: &E::Val = self.support.borrow();
        let xh = ex.concat_cols(x, h);
        // z and r read the same mixed input (Eq. 6a–b).
        let mixed = ex.matmul(support, &xh);
        let z = self.gate(ex, ctx, 0, &mixed);
        let r = self.gate(ex, ctx, 1, &mixed);
        let rh = ex.mul(&r, h);
        let xrh = ex.concat_cols(x, &rh);
        let mixed = ex.matmul(support, &xrh);
        let c = self.gate(ex, ctx, 2, &mixed);
        ex.gru_blend(z, h, &c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_tensor::{StuqRng, Tensor};

    #[test]
    fn linear_forward_shape_and_value() {
        let mut rng = StuqRng::new(1);
        let mut ps = ParamSet::new();
        let lin = Linear::new(&mut ps, "l", 3, 2, &mut rng);
        // Overwrite with known weights.
        *ps.get_mut(0) = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0], &[3, 2]);
        *ps.get_mut(1) = Tensor::from_vec(vec![0.5, -0.5], &[1, 2]);
        let mut tape = Tape::new();
        let bound = lin.bind(&mut tape, &ps);
        let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let y = bound.forward(&mut tape, x);
        assert_eq!(tape.value(y).data(), &[1.5, 1.5]);
    }

    #[test]
    fn gru_step_bounded_output() {
        let mut rng = StuqRng::new(2);
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, "g", 1, 4, &mut rng);
        let mut tape = Tape::new();
        let bound = cell.bind(&mut tape, &ps);
        let x = tape.constant(Tensor::randn(&[5, 1], 1.0, &mut rng));
        let h0 = tape.constant(Tensor::zeros(&[5, 4]));
        let h1 = bound.step(&mut tape, x, h0);
        assert_eq!(tape.value(h1).shape(), &[5, 4]);
        // With h0=0, h' = (1−z)·tanh(…) ∈ (−1, 1).
        assert!(tape.value(h1).max() < 1.0 && tape.value(h1).min() > -1.0);
    }

    #[test]
    fn gru_gradients_reach_all_parameters() {
        let mut rng = StuqRng::new(3);
        let mut ps = ParamSet::new();
        let cell = GruCell::new(&mut ps, "g", 2, 3, &mut rng);
        let mut tape = Tape::new();
        let bound = cell.bind(&mut tape, &ps);
        let x = tape.constant(Tensor::randn(&[4, 2], 1.0, &mut rng));
        let mut h = tape.constant(Tensor::zeros(&[4, 3]));
        for _ in 0..3 {
            h = bound.step(&mut tape, x, h);
        }
        let sq = tape.square(h);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        assert_eq!(grads.len(), ps.len(), "every GRU parameter should get a gradient");
    }

    fn agcrn_fixture(dropout_p: f32) -> (ParamSet, AgcrnCell, Tensor, Tensor, StuqRng) {
        agcrn_fixture_with(1, 4, dropout_p)
    }

    fn agcrn_fixture_with(
        c_in: usize,
        hidden: usize,
        dropout_p: f32,
    ) -> (ParamSet, AgcrnCell, Tensor, Tensor, StuqRng) {
        let mut rng = StuqRng::new(4);
        let mut ps = ParamSet::new();
        let cell = AgcrnCell::new(&mut ps, "a", c_in, hidden, 3, dropout_p, &mut rng);
        let n = 6;
        let e = Tensor::randn(&[n, 3], 0.3, &mut rng);
        // Simple support: I + ring adjacency / 2.
        let mut s = Tensor::eye(n);
        for i in 0..n {
            let j = (i + 1) % n;
            s.set(i, j, 0.5);
            s.set(j, i, 0.5);
        }
        (ps, cell, e, s, rng)
    }

    #[test]
    fn agcrn_step_shapes() {
        let (ps, cell, e, s, mut rng) = agcrn_fixture(0.0);
        let mut tape = Tape::new();
        let en = tape.constant(e);
        let sn = tape.constant(s);
        let bound = cell.bind(&mut tape, &ps, en, sn);
        let x = tape.constant(Tensor::randn(&[6, 1], 1.0, &mut rng));
        let h0 = tape.constant(Tensor::zeros(&[6, 4]));
        let mut ctx = FwdCtx::eval(&mut rng);
        let h1 = bound.step(&mut tape, &mut ctx, x, h0);
        assert_eq!(tape.value(h1).shape(), &[6, 4]);
        assert!(tape.value(h1).all_finite());
    }

    #[test]
    fn agcrn_gradients_reach_all_pools() {
        let (ps, cell, e, s, mut rng) = agcrn_fixture(0.0);
        let mut tape = Tape::new();
        let en = tape.constant(e);
        let sn = tape.constant(s);
        let bound = cell.bind(&mut tape, &ps, en, sn);
        let x = tape.constant(Tensor::randn(&[6, 1], 1.0, &mut rng));
        let h0 = tape.constant(Tensor::zeros(&[6, 4]));
        let mut ctx = FwdCtx::train(&mut rng);
        let h1 = bound.step(&mut tape, &mut ctx, x, h0);
        let sq = tape.square(h1);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        assert_eq!(grads.len(), 6, "3 gates × (w_pool, b_pool)");
    }

    /// The pooled backward must not change a single gradient bit against a
    /// serial pool on a real multi-step AGCRN training tape (dropout masks
    /// included).
    #[test]
    fn agcrn_backward_pooled_bitwise_vs_serial_pool() {
        let (ps, cell, e, s, mut rng) = agcrn_fixture(0.2);
        let mut tape = Tape::new();
        let en = tape.constant(e);
        let sn = tape.constant(s);
        let bound = cell.bind(&mut tape, &ps, en, sn);
        let mut h = tape.constant(Tensor::zeros(&[6, 4]));
        let mut ctx = FwdCtx::train(&mut rng);
        for _ in 0..4 {
            let x = tape.constant(Tensor::ones(&[6, 1]));
            h = bound.step(&mut tape, &mut ctx, x, h);
        }
        let sq = tape.square(h);
        let loss = tape.mean_all(sq);
        let pooled = tape.backward(loss);
        let serial = stuq_parallel::with_serial(|| tape.backward(loss));
        assert_eq!(pooled.len(), serial.len(), "slot count");
        for (slot, g) in pooled.iter() {
            let o = serial.get(slot).unwrap();
            assert_eq!(g.shape(), o.shape(), "slot {slot} shape");
            for (a, b) in g.data().iter().zip(o.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "slot {slot}");
            }
        }
    }

    /// Four steps of one cell give the same bits and leave the RNG at the
    /// same position on `Eager` (one shared z/r mixing, in-place and fused
    /// ops, recycled buffers, a block of samples in lockstep) as on `Tape`,
    /// one tape per sample stream. Widths: `c_in = 1` puts the mixed input
    /// in the matmul's scalar chains (under 8 columns); `c_in = hidden = 32`
    /// is layer 2's full-tile width in the paper configuration;
    /// `hidden = 12` puts the NAPL product in two overlapping tail tiles,
    /// with nonzero gate biases. Blocks of 1, 2, 8, 9 and 16 streams cover the
    /// scalar draw, one lockstep group, the 8 → 9 group boundary and a full
    /// `BLOCK`; in eval mode the block's values stay shared.
    #[test]
    fn agcrn_eager_steps_match_tape_bitwise() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (c_in, hidden, biased) in [(1, 4, false), (32, 32, false), (2, 12, true)] {
            let (mut ps, cell, e, s, mut rng) = agcrn_fixture_with(c_in, hidden, 0.2);
            if biased {
                let pools: Vec<usize> =
                    (0..ps.len()).filter(|&i| ps.name(i).ends_with("b_pool")).collect();
                for slot in pools {
                    *ps.get_mut(slot) = Tensor::randn(&[3, hidden], 0.3, &mut rng);
                }
            }
            let xs: Vec<Tensor> =
                (0..4).map(|_| Tensor::randn(&[6, c_in], 1.0, &mut rng)).collect();
            let h0 = Tensor::randn(&[6, hidden], 0.5, &mut rng);
            for (mc, block) in [1, 2, 8, 9, 16].into_iter().flat_map(|b| [(true, b), (false, b)]) {
                let mut forks = rng.clone();
                let streams: Vec<StuqRng> = (0..block).map(|k| forks.fork(7 + k)).collect();

                let mut ex = Eager::new(&ps);
                let (en, sn) = (ex.constant(e.clone()), ex.constant(s.clone()));
                let bound = cell.bind(&mut ex, &ps, en, sn);
                let mut r_eager = streams.clone();
                let mut ctx = FwdCtx { train: false, mc_dropout: mc, rng: &mut r_eager[..] };
                let h = ex.constant(h0.clone());
                let h = xs.iter().fold(h, |h, x| {
                    let x = ex.constant(x.clone());
                    bound.step(&mut ex, &mut ctx, x, &h)
                });
                let got = h.into_samples(streams.len());

                for (i, stream) in streams.iter().enumerate() {
                    let mut r_tape = stream.clone();
                    let mut tape = Tape::new();
                    let (en, sn) = (tape.constant(e.clone()), tape.constant(s.clone()));
                    let bound = cell.bind(&mut tape, &ps, en, sn);
                    let mut h = tape.constant(h0.clone());
                    let mut ctx = FwdCtx { train: false, mc_dropout: mc, rng: &mut r_tape };
                    for x in &xs {
                        let x = tape.constant(x.clone());
                        h = bound.step(&mut tape, &mut ctx, x, h);
                    }
                    let want = tape.value(h);
                    let what = format!("c_in {c_in}, mc {mc}, block {block}, sample {i}");
                    assert_eq!(bits(&got[i]), bits(want), "{what}: hidden state");
                    assert_eq!(
                        r_eager[i].export_state(),
                        r_tape.export_state(),
                        "{what}: RNG position"
                    );
                }
                if c_in == 1 && mc {
                    // Both executors share one draw rule, so a change to it
                    // passes the comparison above; this checksum catches it.
                    let fnv = bits(&got[0]).iter().fold(0xcbf2_9ce4_8422_2325u64, |a, &b| {
                        (a ^ b as u64).wrapping_mul(0x100_0000_01b3)
                    });
                    assert_eq!(fnv, 0x116d_4811_5724_0520, "pinned 4-step MC hidden state");
                }
            }
        }
    }

    /// Once one forward of a shape has run on a thread, the next one of
    /// that shape takes every block buffer from the thread's free list, so
    /// it allocates (and page-faults) nothing for its activations.
    #[test]
    fn a_repeated_forward_allocates_no_block_buffer() {
        let (mut ps, cell, e, s, mut rng) = agcrn_fixture_with(32, 32, 0.2);
        let head = Linear::new(&mut ps, "head", 32, 12, &mut rng);
        let xs: Vec<Tensor> = (0..4).map(|_| Tensor::randn(&[6, 32], 1.0, &mut rng)).collect();
        let forward = |block: u64| {
            let mut streams: Vec<StuqRng> = (0..block).map(StuqRng::new).collect();
            let mut ctx = FwdCtx::mc_sample(&mut streams[..]);
            let mut ex = Eager::new(&ps);
            let (en, sn) = (ex.constant(e.clone()), ex.constant(s.clone()));
            let bound = cell.bind(&mut ex, &ps, en, sn);
            let h = ex.constant(Tensor::zeros(&[6, 32]));
            let h = xs.iter().fold(h, |h, x| {
                let x = ex.constant(x.clone());
                bound.step(&mut ex, &mut ctx, x, &h)
            });
            let hd = ctx.dropout(&mut ex, h, 0.2);
            head.bind(&mut ex, &ps).forward(&mut ex, &hd).into_samples(block as usize)
        };
        for block in [2, 8, 16] {
            let first = forward(block);
            MISSES.set(0);
            assert_eq!(forward(block), first, "block {block}: same streams, same forward");
            assert_eq!(MISSES.get(), 0, "block {block}: buffers allocated on the second forward");
        }
        // A bind kept past its executor (as a model keeps it) owns its
        // buffers: a clone of it that drops, on a thread with an empty
        // list, leaves the list empty.
        let mut ex = Eager::new(&ps);
        let (en, sn) = (ex.constant(e.clone()), ex.constant(s.clone()));
        let kept = cell.bind(&mut ex, &ps, en, sn).map(Block::into_owned);
        let kept = &kept;
        let listed = std::thread::scope(|sc| {
            sc.spawn(|| {
                drop(kept.clone());
                FREE.with_borrow(Vec::len)
            })
            .join()
            .expect("the clone thread panicked")
        });
        assert_eq!(listed, 0, "a dropped clone of a kept bind filled the free list");
    }

    #[test]
    fn dropout_only_active_in_train_and_mc_modes() {
        let (ps, cell, e, s, mut rng) = agcrn_fixture(0.9);
        let run = |mode: u8, rng: &mut StuqRng| {
            let mut tape = Tape::new();
            let en = tape.constant(e.clone());
            let sn = tape.constant(s.clone());
            let bound = cell.bind(&mut tape, &ps, en, sn);
            let x = tape.constant(Tensor::ones(&[6, 1]));
            let h0 = tape.constant(Tensor::zeros(&[6, 4]));
            let mut ctx = match mode {
                0 => FwdCtx::eval(rng),
                1 => FwdCtx::train(rng),
                _ => FwdCtx::mc_sample(rng),
            };
            let h1 = bound.step(&mut tape, &mut ctx, x, h0);
            tape.value(h1).clone()
        };
        let e1 = run(0, &mut rng);
        let e2 = run(0, &mut rng);
        assert_eq!(e1.data(), e2.data(), "eval mode must be deterministic");
        let m1 = run(2, &mut rng);
        let m2 = run(2, &mut rng);
        assert_ne!(m1.data(), m2.data(), "MC-dropout samples must differ");
    }
}
