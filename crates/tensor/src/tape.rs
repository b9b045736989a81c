//! Reverse-mode automatic differentiation on a flat tape.
//!
//! A [`Tape`] records a topologically-ordered list of nodes; each node holds
//! its forward value and the operation (plus parent indices) that produced
//! it. [`Tape::backward`] seeds the scalar loss with gradient `1` and sweeps
//! the tape in reverse, accumulating gradients into a [`GradStore`] keyed by
//! parameter slot.
//!
//! The design trades generality for predictability: the op set is exactly
//! what the DeepSTUQ models need, each op has a hand-derived adjoint, and all
//! adjoints are validated against central finite differences in
//! `tests/gradcheck.rs`. Fused domain kernels (e.g. the NAPL row-wise matmul
//! of AGCRN, Eq. 5 of the paper) are first-class ops so that a GRU step stays
//! a handful of tape nodes instead of dozens.
//!
//! The reverse sweep is one descending-id walk (DESIGN.md §9). It
//! accumulates every gradient in a fixed order (consumers by descending id,
//! inputs in declaration order, parameter slots by descending node id), and
//! its adjoint products run on the pooled kernels, whose chunking never
//! depends on the thread count, so gradients are bit-identical for any
//! thread count.

use crate::rng::StuqRng;
use crate::tensor::Tensor;
use std::collections::HashMap;

/// Index of a node on the tape.
pub type NodeId = usize;

/// A user-defined fused operation.
///
/// The forward value is computed by the caller and pushed with
/// [`Tape::custom`]; the tape only needs the adjoint.
pub trait CustomOp: std::fmt::Debug + Send + Sync {
    /// Human-readable kernel name (for debugging).
    fn name(&self) -> &'static str;
    /// Given `d loss / d output`, the inputs and the output value, returns
    /// `d loss / d input_i` for every input, in order.
    fn backward(&self, grad: &Tensor, inputs: &[&Tensor], output: &Tensor) -> Vec<Tensor>;
}

#[derive(Debug)]
enum OpKind {
    /// A value with no gradient (data, fixed adjacency, …).
    Constant,
    /// A learnable parameter; gradient is reported under this slot id.
    Param(usize),
    Add,
    Sub,
    Mul,
    /// Element-wise maximum; gradient follows the winning side (ties → lhs).
    MaxElem,
    Neg,
    Scale(f32),
    /// The offset is kept for Debug output; the adjoint is the identity.
    AddScalar(#[allow(dead_code)] f32),
    Matmul,
    /// `A @ B^T` without materialising the transpose.
    MatmulTB,
    Transpose,
    Sigmoid,
    Tanh,
    Relu,
    LeakyRelu(f32),
    Exp,
    Ln,
    Abs,
    Sqrt,
    /// Clamp with straight-through-zero gradient outside the range.
    Clamp(f32, f32),
    SoftmaxRows,
    ConcatCols,
    SliceCols(usize, usize),
    SliceRows(usize, usize),
    /// Strided column gather: columns `start, start+stride, …` (`count` of them).
    SliceColsStrided {
        start: usize,
        stride: usize,
        count: usize,
    },
    MeanAll,
    SumAll,
    /// `X (m×n) + b (1×n)` broadcast over rows.
    AddRowBroadcast,
    /// Per-row matmul: `z (N×ci)`, `w (N×ci·co)` → `out (N×co)` where each row
    /// of `w` is that node's private `ci×co` weight (NAPL, paper Eq. 5).
    RowwiseMatmul {
        c_in: usize,
        c_out: usize,
    },
    /// Inverted dropout; the mask (entries `0` or `1/(1-p)`) is stored.
    Dropout(Tensor),
    Custom(Box<dyn CustomOp>),
}

struct Node {
    value: Tensor,
    op: OpKind,
    parents: Vec<NodeId>,
}

/// Gradients produced by [`Tape::backward`], keyed by parameter slot.
#[derive(Debug, Default)]
pub struct GradStore {
    grads: HashMap<usize, Tensor>,
}

impl GradStore {
    /// Gradient for a parameter slot, if that parameter influenced the loss.
    pub fn get(&self, slot: usize) -> Option<&Tensor> {
        self.grads.get(&slot)
    }

    /// Iterates over `(slot, gradient)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Tensor)> {
        self.grads.iter().map(|(&k, v)| (k, v))
    }

    /// Number of parameters that received a gradient.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// True when no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Adds `g` into a slot's gradient (or installs it if the slot is new).
    pub fn accumulate_slot(&mut self, slot: usize, g: Tensor) {
        match self.grads.get_mut(&slot) {
            Some(acc) => acc.add_assign(&g),
            None => {
                self.grads.insert(slot, g);
            }
        }
    }

    /// Merges another gradient store into this one (summing overlaps).
    pub fn merge(&mut self, other: GradStore) {
        for (slot, g) in other.grads {
            match self.grads.get_mut(&slot) {
                Some(acc) => acc.add_assign(&g),
                None => {
                    self.grads.insert(slot, g);
                }
            }
        }
    }

    /// Scales every gradient by `c` (used to average over mini-batches).
    pub fn scale(&mut self, c: f32) {
        for g in self.grads.values_mut() {
            g.map_inplace(|x| x * c);
        }
    }

    /// Global L2 norm over all gradients.
    pub fn global_norm(&self) -> f64 {
        self.grads.values().map(|g| g.norm().powi(2)).sum::<f64>().sqrt()
    }

    /// Clips all gradients so the global norm is at most `max_norm`.
    pub fn clip_global_norm(&mut self, max_norm: f64) {
        let norm = self.global_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale((max_norm / norm) as f32);
        }
    }
}

/// A reverse-mode autodiff tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(256) }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id].value
    }

    fn push(&mut self, value: Tensor, op: OpKind, parents: Vec<NodeId>) -> NodeId {
        self.nodes.push(Node { value, op, parents });
        self.nodes.len() - 1
    }

    /// Registers a constant (no gradient flows into it).
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.push(value, OpKind::Constant, vec![])
    }

    /// Registers a parameter leaf; its gradient is reported under `slot`.
    pub fn param(&mut self, slot: usize, value: Tensor) -> NodeId {
        self.push(value, OpKind::Param(slot), vec![])
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.add(&self.nodes[b].value);
        self.push(v, OpKind::Add, vec![a, b])
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.sub(&self.nodes[b].value);
        self.push(v, OpKind::Sub, vec![a, b])
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.mul(&self.nodes[b].value);
        self.push(v, OpKind::Mul, vec![a, b])
    }

    /// Element-wise maximum.
    pub fn max_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.zip(&self.nodes[b].value, f32::max);
        self.push(v, OpKind::MaxElem, vec![a, b])
    }

    /// Negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.scale(-1.0);
        self.push(v, OpKind::Neg, vec![a])
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.nodes[a].value.scale(c);
        self.push(v, OpKind::Scale(c), vec![a])
    }

    /// Addition of a constant scalar.
    pub fn add_scalar(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.nodes[a].value.map(|x| x + c);
        self.push(v, OpKind::AddScalar(c), vec![a])
    }

    /// `1 - a`, a common idiom in gate updates (paper Eq. 6d).
    pub fn one_minus(&mut self, a: NodeId) -> NodeId {
        let n = self.neg(a);
        self.add_scalar(n, 1.0)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.matmul(&self.nodes[b].value);
        self.push(v, OpKind::Matmul, vec![a, b])
    }

    /// Matrix product with the second operand transposed.
    pub fn matmul_tb(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.matmul_tb(&self.nodes[b].value);
        self.push(v, OpKind::MatmulTB, vec![a, b])
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.transpose();
        self.push(v, OpKind::Transpose, vec![a])
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.sigmoid();
        self.push(v, OpKind::Sigmoid, vec![a])
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.tanh();
        self.push(v, OpKind::Tanh, vec![a])
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.relu();
        self.push(v, OpKind::Relu, vec![a])
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: NodeId, alpha: f32) -> NodeId {
        let v = self.nodes[a].value.map(|x| if x > 0.0 { x } else { alpha * x });
        self.push(v, OpKind::LeakyRelu(alpha), vec![a])
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.map(f32::exp);
        self.push(v, OpKind::Exp, vec![a])
    }

    /// Element-wise natural logarithm.
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.map(f32::ln);
        self.push(v, OpKind::Ln, vec![a])
    }

    /// Element-wise absolute value.
    pub fn abs(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.map(f32::abs);
        self.push(v, OpKind::Abs, vec![a])
    }

    /// Element-wise square root.
    pub fn sqrt(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.map(f32::sqrt);
        self.push(v, OpKind::Sqrt, vec![a])
    }

    /// Element-wise square.
    pub fn square(&mut self, a: NodeId) -> NodeId {
        self.mul(a, a)
    }

    /// Clamp to `[lo, hi]` (gradient is zero outside the range).
    pub fn clamp(&mut self, a: NodeId, lo: f32, hi: f32) -> NodeId {
        let v = self.nodes[a].value.map(|x| x.clamp(lo, hi));
        self.push(v, OpKind::Clamp(lo, hi), vec![a])
    }

    /// Row-wise soft-max.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.nodes[a].value.softmax_rows();
        self.push(v, OpKind::SoftmaxRows, vec![a])
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a].value.concat_cols(&self.nodes[b].value);
        self.push(v, OpKind::ConcatCols, vec![a, b])
    }

    /// Column slice `[from, to)`.
    pub fn slice_cols(&mut self, a: NodeId, from: usize, to: usize) -> NodeId {
        let v = self.nodes[a].value.slice_cols(from, to);
        self.push(v, OpKind::SliceCols(from, to), vec![a])
    }

    /// Row slice `[from, to)`.
    pub fn slice_rows(&mut self, a: NodeId, from: usize, to: usize) -> NodeId {
        let v = self.nodes[a].value.slice_rows(from, to);
        self.push(v, OpKind::SliceRows(from, to), vec![a])
    }

    /// Strided column gather (`count` columns starting at `start`, step `stride`).
    pub fn slice_cols_strided(
        &mut self,
        a: NodeId,
        start: usize,
        stride: usize,
        count: usize,
    ) -> NodeId {
        let src = &self.nodes[a].value;
        let (m, n) = (src.rows(), src.cols());
        assert!(stride > 0, "stride must be positive");
        assert!(
            count == 0 || start + (count - 1) * stride < n,
            "strided slice out of bounds: start {start}, stride {stride}, count {count}, cols {n}"
        );
        let mut out = Tensor::zeros(&[m, count]);
        for i in 0..m {
            for j in 0..count {
                out.set(i, j, src.get(i, start + j * stride));
            }
        }
        self.push(out, OpKind::SliceColsStrided { start, stride, count }, vec![a])
    }

    /// Mean over all elements (a `1×1` node).
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let v = Tensor::scalar(self.nodes[a].value.mean() as f32);
        self.push(v, OpKind::MeanAll, vec![a])
    }

    /// Sum over all elements (a `1×1` node).
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let v = Tensor::scalar(self.nodes[a].value.sum() as f32);
        self.push(v, OpKind::SumAll, vec![a])
    }

    /// Adds a `1×n` bias row to every row of an `m×n` matrix.
    pub fn add_row_broadcast(&mut self, x: NodeId, bias: NodeId) -> NodeId {
        let v = self.nodes[x].value.add_row_broadcast(&self.nodes[bias].value);
        self.push(v, OpKind::AddRowBroadcast, vec![x, bias])
    }

    /// NAPL row-wise matmul (paper Eq. 5): row `n` of the output is
    /// `z[n, :] @ W_n` where `W_n` is `w[n, :]` reshaped to `c_in × c_out`.
    pub fn rowwise_matmul(&mut self, z: NodeId, w: NodeId, c_in: usize, c_out: usize) -> NodeId {
        let (zr, wr) = (self.nodes[z].value.rows(), self.nodes[w].value.rows());
        assert_eq!(zr, wr, "rowwise_matmul on a tape takes one sample: {zr} rows, {wr} nodes");
        let v = self.nodes[z].value.rowwise_matmul(&self.nodes[w].value, c_in, c_out);
        self.push(v, OpKind::RowwiseMatmul { c_in, c_out }, vec![z, w])
    }

    /// Inverted dropout with keep-probability `1 - p`.
    ///
    /// With `p == 0` this is the identity. The mask comes from
    /// [`Tensor::dropout_mask`], which tapeless MC-dropout inference (paper
    /// §IV-C2: dropout left on at test time) draws from too.
    pub fn dropout(&mut self, a: NodeId, p: f32, rng: &mut StuqRng) -> NodeId {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        if p == 0.0 {
            return self.scale(a, 1.0);
        }
        let mask = Tensor::dropout_mask(self.nodes[a].value.shape(), p, rng);
        let v = self.nodes[a].value.mul(&mask);
        self.push(v, OpKind::Dropout(mask), vec![a])
    }

    /// Pushes a fused [`CustomOp`] whose forward value was computed by the caller.
    pub fn custom(&mut self, op: Box<dyn CustomOp>, parents: Vec<NodeId>, value: Tensor) -> NodeId {
        self.push(value, OpKind::Custom(op), parents)
    }

    /// Runs the reverse sweep from the scalar node `loss`: one
    /// descending-id pass, accumulating each node's gradient in place as its
    /// consumers are visited.
    ///
    /// Panics if `loss` is not a `1×1` tensor.
    pub fn backward(&self, loss: NodeId) -> GradStore {
        if stuq_obs::summary_enabled() {
            stuq_obs::metrics().backward_runs.inc();
        }
        assert_eq!(self.nodes[loss].value.len(), 1, "backward() needs a scalar loss node");
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss] = Some(Tensor::scalar(1.0));

        let mut store = GradStore::default();
        for id in (0..=loss).rev() {
            let Some(grad) = grads[id].take() else { continue };
            let node = &self.nodes[id];
            match &node.op {
                OpKind::Constant => {}
                OpKind::Param(slot) => store.accumulate_slot(*slot, grad),
                _ => {
                    for (pid, delta) in node.parents.iter().zip(self.node_adjoints(id, &grad)) {
                        Self::accumulate(&mut grads, *pid, delta);
                    }
                }
            }
        }
        store
    }

    fn accumulate(grads: &mut [Option<Tensor>], id: NodeId, delta: Tensor) {
        match &mut grads[id] {
            Some(g) => g.add_assign(&delta),
            slot @ None => *slot = Some(delta),
        }
    }

    /// Computes `d loss / d input_k` for every input of node `id`, in input
    /// declaration order, given the node's fully-accumulated upstream
    /// gradient. Pure with respect to the tape.
    #[allow(clippy::too_many_lines)]
    fn node_adjoints(&self, id: NodeId, grad: &Tensor) -> Vec<Tensor> {
        let node = &self.nodes[id];
        let p = &node.parents;
        let val = |nid: NodeId| &self.nodes[nid].value;
        match &node.op {
            OpKind::Constant | OpKind::Param(_) => unreachable!("handled by caller"),
            OpKind::Add => vec![grad.clone(), grad.clone()],
            OpKind::Sub => vec![grad.clone(), grad.scale(-1.0)],
            OpKind::Mul => vec![grad.mul(val(p[1])), grad.mul(val(p[0]))],
            OpKind::MaxElem => {
                let a = val(p[0]);
                let b = val(p[1]);
                let ga = grad.zip(&a.zip(b, |x, y| if x >= y { 1.0 } else { 0.0 }), |g, m| g * m);
                let gb = grad.zip(&a.zip(b, |x, y| if x >= y { 0.0 } else { 1.0 }), |g, m| g * m);
                vec![ga, gb]
            }
            OpKind::Neg => vec![grad.scale(-1.0)],
            OpKind::Scale(c) => vec![grad.scale(*c)],
            OpKind::AddScalar(_) => vec![grad.clone()],
            OpKind::Matmul => {
                // y = a b  ⇒  da = g bᵀ, db = aᵀ g
                vec![grad.matmul_tb(val(p[1])), val(p[0]).matmul_ta(grad)]
            }
            OpKind::MatmulTB => {
                // y = a bᵀ  ⇒  da = g b, db = gᵀ a
                vec![grad.matmul(val(p[1])), grad.matmul_ta(val(p[0]))]
            }
            OpKind::Transpose => vec![grad.transpose()],
            OpKind::Sigmoid => {
                let y = &node.value;
                vec![grad.zip(y, |g, s| g * s * (1.0 - s))]
            }
            OpKind::Tanh => {
                let y = &node.value;
                vec![grad.zip(y, |g, t| g * (1.0 - t * t))]
            }
            OpKind::Relu => {
                let x = val(p[0]);
                vec![grad.zip(x, |g, xv| if xv > 0.0 { g } else { 0.0 })]
            }
            OpKind::LeakyRelu(alpha) => {
                let x = val(p[0]);
                let a = *alpha;
                vec![grad.zip(x, |g, xv| if xv > 0.0 { g } else { a * g })]
            }
            OpKind::Exp => vec![grad.mul(&node.value)],
            OpKind::Ln => {
                let x = val(p[0]);
                vec![grad.zip(x, |g, xv| g / xv)]
            }
            OpKind::Abs => {
                let x = val(p[0]);
                vec![grad.zip(x, |g, xv| if xv >= 0.0 { g } else { -g })]
            }
            OpKind::Sqrt => {
                let y = &node.value;
                vec![grad.zip(y, |g, s| g * 0.5 / s.max(1e-12))]
            }
            OpKind::Clamp(lo, hi) => {
                let x = val(p[0]);
                let (lo, hi) = (*lo, *hi);
                vec![grad.zip(x, |g, xv| if xv > lo && xv < hi { g } else { 0.0 })]
            }
            OpKind::SoftmaxRows => {
                let y = &node.value;
                let (m, n) = (y.rows(), y.cols());
                let mut dx = Tensor::zeros(&[m, n]);
                for i in 0..m {
                    let mut dot = 0.0f32;
                    for j in 0..n {
                        dot += grad.get(i, j) * y.get(i, j);
                    }
                    for j in 0..n {
                        dx.set(i, j, y.get(i, j) * (grad.get(i, j) - dot));
                    }
                }
                vec![dx]
            }
            OpKind::ConcatCols => {
                let ca = val(p[0]).cols();
                let cb = val(p[1]).cols();
                vec![grad.slice_cols(0, ca), grad.slice_cols(ca, ca + cb)]
            }
            OpKind::SliceCols(from, to) => {
                let src = val(p[0]);
                let (m, n) = (src.rows(), src.cols());
                let mut dx = Tensor::zeros(&[m, n]);
                for i in 0..m {
                    for (jj, j) in (*from..*to).enumerate() {
                        dx.set(i, j, grad.get(i, jj));
                    }
                }
                vec![dx]
            }
            OpKind::SliceRows(from, to) => {
                let src = val(p[0]);
                let (m, n) = (src.rows(), src.cols());
                let mut dx = Tensor::zeros(&[m, n]);
                for (ii, i) in (*from..*to).enumerate() {
                    for j in 0..n {
                        dx.set(i, j, grad.get(ii, j));
                    }
                }
                vec![dx]
            }
            OpKind::SliceColsStrided { start, stride, count } => {
                let src = val(p[0]);
                let (m, n) = (src.rows(), src.cols());
                let mut dx = Tensor::zeros(&[m, n]);
                for i in 0..m {
                    for j in 0..*count {
                        dx.set(i, start + j * stride, grad.get(i, j));
                    }
                }
                vec![dx]
            }
            OpKind::MeanAll => {
                let src = val(p[0]);
                let g = grad.get(0, 0) / src.len() as f32;
                vec![Tensor::full(src.shape(), g)]
            }
            OpKind::SumAll => {
                let src = val(p[0]);
                vec![Tensor::full(src.shape(), grad.get(0, 0))]
            }
            OpKind::AddRowBroadcast => vec![grad.clone(), grad.sum_rows()],
            OpKind::RowwiseMatmul { c_in, c_out } => {
                let z = val(p[0]);
                let w = val(p[1]);
                let n = z.rows();
                let (ci, co) = (*c_in, *c_out);
                let (dz, dw) =
                    crate::kernels::rowwise_matmul_grad(z.data(), w.data(), grad.data(), n, ci, co);
                vec![Tensor::from_vec(dz, &[n, ci]), Tensor::from_vec(dw, &[n, ci * co])]
            }
            OpKind::Dropout(mask) => vec![grad.mul(mask)],
            OpKind::Custom(op) => {
                let inputs: Vec<&Tensor> = p.iter().map(|&pid| val(pid)).collect();
                let deltas = op.backward(grad, &inputs, &node.value);
                assert_eq!(
                    deltas.len(),
                    p.len(),
                    "custom op {} returned {} grads for {} inputs",
                    op.name(),
                    deltas.len(),
                    p.len()
                );
                deltas
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_gradient() {
        // loss = mean(3 * x) over 4 elements ⇒ d/dx = 3/4 each.
        let mut tape = Tape::new();
        let x = tape.param(0, Tensor::ones(&[2, 2]));
        let s = tape.scale(x, 3.0);
        let loss = tape.mean_all(s);
        let grads = tape.backward(loss);
        let g = grads.get(0).unwrap();
        for &v in g.data() {
            assert!((v - 0.75).abs() < 1e-6);
        }
    }

    #[test]
    fn param_used_twice_accumulates() {
        // loss = sum(x + x) ⇒ d/dx = 2.
        let mut tape = Tape::new();
        let x = tape.param(0, Tensor::ones(&[1, 3]));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        for &v in grads.get(0).unwrap().data() {
            assert!((v - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn constant_receives_no_grad() {
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::ones(&[1, 1]));
        let x = tape.param(0, Tensor::ones(&[1, 1]));
        let y = tape.mul(c, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.len(), 1);
        assert!(grads.get(0).is_some());
    }

    #[test]
    fn matmul_grad_matches_formula() {
        // loss = sum(A B); dA = 1 Bᵀ, dB = Aᵀ 1.
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let mut tape = Tape::new();
        let ai = tape.param(0, a.clone());
        let bi = tape.param(1, b.clone());
        let y = tape.matmul(ai, bi);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        let ones = Tensor::ones(&[2, 2]);
        let da = ones.matmul_tb(&b);
        let db = a.transpose().matmul(&ones);
        assert_eq!(grads.get(0).unwrap().data(), da.data());
        assert_eq!(grads.get(1).unwrap().data(), db.data());
    }

    #[test]
    fn dropout_zero_rate_is_identity() {
        let mut rng = StuqRng::new(3);
        let mut tape = Tape::new();
        let x = tape.param(0, Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]));
        let d = tape.dropout(x, 0.0, &mut rng);
        assert_eq!(tape.value(d).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut rng = StuqRng::new(11);
        let n = 20_000;
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, n]));
        let d = tape.dropout(x, 0.3, &mut rng);
        let mean = tape.value(d).mean();
        assert!((mean - 1.0).abs() < 0.02, "inverted dropout mean {mean}");
    }

    #[test]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.param(0, Tensor::ones(&[2, 2]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.backward(x);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn grad_clip_bounds_global_norm() {
        let mut store = GradStore::default();
        store.grads.insert(0, Tensor::full(&[2, 2], 10.0));
        store.grads.insert(1, Tensor::full(&[2, 2], -10.0));
        store.clip_global_norm(1.0);
        assert!((store.global_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rowwise_matmul_forward() {
        // Two nodes, c_in=2, c_out=1: out[r] = z[r,0]*w[r,0] + z[r,1]*w[r,1].
        let mut tape = Tape::new();
        let z = tape.constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let w = tape.constant(Tensor::from_vec(vec![10.0, 1.0, 0.5, 2.0], &[2, 2]));
        let y = tape.rowwise_matmul(z, w, 2, 1);
        assert_eq!(tape.value(y).data(), &[12.0, 9.5]);
    }

    #[test]
    fn strided_slice_gathers_expected_columns() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[2, 6]));
        let y = tape.slice_cols_strided(x, 1, 2, 3);
        assert_eq!(tape.value(y).data(), &[1.0, 3.0, 5.0, 7.0, 9.0, 11.0]);
    }
}
