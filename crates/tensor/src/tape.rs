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
//! The reverse sweep has two interchangeable engines (DESIGN.md §9):
//! [`Tape::backward_serial`], the plain descending-id walk, and
//! [`Tape::backward_levels`], which extracts topological levels from the
//! reverse graph and dispatches each level's independent adjoints onto the
//! `stuq-parallel` pool. Both accumulate every gradient in the *same* fixed
//! order (children by descending id, inputs in declaration order, parameter
//! slots by descending node id), so their results are bit-identical for any
//! thread count; [`Tape::backward`] picks between them automatically.

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
pub(crate) enum OpKind {
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

pub(crate) struct Node {
    pub(crate) value: Tensor,
    pub(crate) op: OpKind,
    pub(crate) parents: Vec<NodeId>,
}

/// Below this many tape nodes the level scheduler's bookkeeping costs more
/// than the fan-out buys; [`Tape::backward`] stays on the serial walk.
const PAR_BACKWARD_MIN_NODES: usize = 48;

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
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    /// Incremental structural signature (see [`Tape::structural_sig`]).
    sig: u64,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit offset basis / prime, folding whole `u64` words at a time.
const SIG_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const SIG_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn sig_fold(sig: &mut u64, word: u64) {
    *sig = (*sig ^ word).wrapping_mul(SIG_PRIME);
}

/// Folds the *adjoint-relevant* identity of an op into the signature: the op
/// discriminant plus every constant the backward pass reads. Data values
/// (tensor contents, dropout mask draws) are deliberately excluded — two
/// tapes that differ only in values share a replay plan.
fn sig_fold_op(sig: &mut u64, op: &OpKind) {
    match op {
        OpKind::Constant => sig_fold(sig, 1),
        OpKind::Param(slot) => {
            sig_fold(sig, 2);
            sig_fold(sig, *slot as u64);
        }
        OpKind::Add => sig_fold(sig, 3),
        OpKind::Sub => sig_fold(sig, 4),
        OpKind::Mul => sig_fold(sig, 5),
        OpKind::MaxElem => sig_fold(sig, 6),
        OpKind::Neg => sig_fold(sig, 7),
        OpKind::Scale(c) => {
            sig_fold(sig, 8);
            sig_fold(sig, u64::from(c.to_bits()));
        }
        // The offset never enters the adjoint (identity gradient).
        OpKind::AddScalar(_) => sig_fold(sig, 9),
        OpKind::Matmul => sig_fold(sig, 10),
        OpKind::MatmulTB => sig_fold(sig, 11),
        OpKind::Transpose => sig_fold(sig, 12),
        OpKind::Sigmoid => sig_fold(sig, 13),
        OpKind::Tanh => sig_fold(sig, 14),
        OpKind::Relu => sig_fold(sig, 15),
        OpKind::LeakyRelu(a) => {
            sig_fold(sig, 16);
            sig_fold(sig, u64::from(a.to_bits()));
        }
        OpKind::Exp => sig_fold(sig, 17),
        OpKind::Ln => sig_fold(sig, 18),
        OpKind::Abs => sig_fold(sig, 19),
        OpKind::Sqrt => sig_fold(sig, 20),
        OpKind::Clamp(lo, hi) => {
            sig_fold(sig, 21);
            sig_fold(sig, u64::from(lo.to_bits()));
            sig_fold(sig, u64::from(hi.to_bits()));
        }
        OpKind::SoftmaxRows => sig_fold(sig, 22),
        OpKind::ConcatCols => sig_fold(sig, 23),
        OpKind::SliceCols(from, to) => {
            sig_fold(sig, 24);
            sig_fold(sig, *from as u64);
            sig_fold(sig, *to as u64);
        }
        OpKind::SliceRows(from, to) => {
            sig_fold(sig, 25);
            sig_fold(sig, *from as u64);
            sig_fold(sig, *to as u64);
        }
        OpKind::SliceColsStrided { start, stride, count } => {
            sig_fold(sig, 26);
            sig_fold(sig, *start as u64);
            sig_fold(sig, *stride as u64);
            sig_fold(sig, *count as u64);
        }
        OpKind::MeanAll => sig_fold(sig, 27),
        OpKind::SumAll => sig_fold(sig, 28),
        OpKind::AddRowBroadcast => sig_fold(sig, 29),
        OpKind::RowwiseMatmul { c_in, c_out } => {
            sig_fold(sig, 30);
            sig_fold(sig, *c_in as u64);
            sig_fold(sig, *c_out as u64);
        }
        // The mask's *values* are data; its shape is folded with the node
        // shape below. Mask-value differences across batches are exactly
        // what plan reuse must tolerate.
        OpKind::Dropout(_) => sig_fold(sig, 31),
        OpKind::Custom(op) => {
            sig_fold(sig, 32);
            for b in op.name().bytes() {
                sig_fold(sig, u64::from(b));
            }
        }
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(256), sig: SIG_BASIS }
    }

    /// Structural signature of the recorded graph: a 64-bit hash over every
    /// node's op discriminant, adjoint-relevant constants, parent ids and
    /// value shape — maintained incrementally by [`Tape::push`]. Two tapes
    /// with equal signatures (and equal lengths) describe the same backward
    /// *schedule*, even when their data differ; the replay cache
    /// (DESIGN.md §14) keys compiled plans on it.
    pub fn structural_sig(&self) -> u64 {
        self.sig
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
        sig_fold_op(&mut self.sig, &op);
        sig_fold(&mut self.sig, parents.len() as u64);
        for &p in &parents {
            sig_fold(&mut self.sig, p as u64);
        }
        sig_fold(&mut self.sig, value.shape().len() as u64);
        for &d in value.shape() {
            sig_fold(&mut self.sig, d as u64);
        }
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

    /// Runs the reverse sweep from the scalar node `loss`.
    ///
    /// Dispatch (DESIGN.md §14): tapes large enough to amortise scheduling
    /// go through the thread-local replay cache — a compiled
    /// [`crate::replay::ReplayPlan`] keyed on [`Tape::structural_sig`], so
    /// the static schedule is derived once per graph shape and replayed with
    /// preallocated buffers on every later batch. With replay disabled
    /// (`STUQ_REPLAY=0` or [`crate::replay::with_replay_disabled`]) the
    /// pre-replay dispatch applies: [`Tape::backward_levels`] on a
    /// multi-thread pool, [`Tape::backward_serial`] otherwise. Inside
    /// [`crate::kernels::with_reference_kernels`] the seed's serial walk
    /// always runs, so benchmark baselines time the genuine pre-engine code
    /// path. Every engine is bit-identical to [`Tape::backward_serial`], so
    /// the choice never changes a result.
    ///
    /// Panics if `loss` is not a `1×1` tensor.
    pub fn backward(&self, loss: NodeId) -> GradStore {
        if stuq_obs::summary_enabled() {
            stuq_obs::metrics().backward_runs.inc();
        }
        if crate::kernels::reference_mode() || loss + 1 < PAR_BACKWARD_MIN_NODES {
            return self.backward_serial(loss);
        }
        if crate::replay::replay_enabled() {
            if let Some(store) = crate::replay::cached_backward(self, loss) {
                return store;
            }
        }
        if stuq_parallel::num_threads() == 1 || stuq_parallel::serial_forced() {
            self.backward_serial(loss)
        } else {
            self.backward_levels(loss)
        }
    }

    /// The seed's reverse sweep: one descending-id pass, accumulating each
    /// node's gradient in place as its consumers are visited.
    ///
    /// Panics if `loss` is not a `1×1` tensor.
    pub fn backward_serial(&self, loss: NodeId) -> GradStore {
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

    /// Branch-parallel reverse sweep: walks the reverse graph in topological
    /// levels and fans each level's independent adjoints out onto the
    /// `stuq-parallel` pool.
    ///
    /// Level extraction: `level(loss) = 0` and `level(n)` is the longest
    /// reverse-path distance from the loss, so no node shares a level with
    /// any of its consumers — by the time a level runs, every consumer's
    /// delta is final. Each node's task (a) assembles its upstream gradient
    /// by summing the per-edge deltas of its consumers in the *serial walk's
    /// order* (descending consumer id, inputs in declaration order) and (b)
    /// computes its own parent deltas into private slots. Parameter
    /// gradients are reduced into the [`GradStore`] afterwards in descending
    /// node-id order per slot — again the serial order. Every float is
    /// therefore added in exactly the sequence the serial walk uses, which
    /// makes the result bit-identical to [`Tape::backward_serial`] for any
    /// thread count (property-tested in `tests/backward_determinism.rs`).
    ///
    /// Panics if `loss` is not a `1×1` tensor.
    #[allow(clippy::too_many_lines)]
    pub fn backward_levels(&self, loss: NodeId) -> GradStore {
        assert_eq!(self.nodes[loss].value.len(), 1, "backward() needs a scalar loss node");
        const UNREACHED: usize = usize::MAX;
        let n = loss + 1;

        // Longest-path levels over the reverse graph. Consumers have higher
        // ids than their inputs, so one descending pass finalises each
        // node's level before its inputs are bumped.
        let mut level = vec![UNREACHED; n];
        level[loss] = 0;
        let mut n_levels = 0usize;
        for id in (0..=loss).rev() {
            if level[id] == UNREACHED {
                continue;
            }
            n_levels = n_levels.max(level[id] + 1);
            let l1 = level[id] + 1;
            for &p in &self.nodes[id].parents {
                level[p] = if level[p] == UNREACHED { l1 } else { level[p].max(l1) };
            }
        }

        // One delta slot per (op node, input) edge, in a flat arena so tasks
        // can address disjoint slots through a single base pointer.
        let mut edge_off = vec![0usize; n + 1];
        for id in 0..=loss {
            let slots = match self.nodes[id].op {
                OpKind::Constant | OpKind::Param(_) => 0,
                _ if level[id] == UNREACHED => 0,
                _ => self.nodes[id].parents.len(),
            };
            edge_off[id + 1] = edge_off[id] + slots;
        }
        let mut edge_deltas: Vec<Option<Tensor>> = (0..edge_off[n]).map(|_| None).collect();

        // Consumer edges per node, recorded in the serial accumulation
        // order: descending consumer id, then input declaration order.
        let mut consumers: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); n];
        for id in (0..=loss).rev() {
            if edge_off[id + 1] > edge_off[id] {
                for (k, &p) in self.nodes[id].parents.iter().enumerate() {
                    consumers[p].push((id, k));
                }
            }
        }

        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); n_levels];
        for id in 0..=loss {
            if level[id] != UNREACHED && !matches!(self.nodes[id].op, OpKind::Constant) {
                buckets[level[id]].push(id);
            }
        }

        if stuq_obs::summary_enabled() {
            let m = stuq_obs::metrics();
            m.backward_levels.add(n_levels as u64);
            m.backward_nodes.add(buckets.iter().map(|b| b.len() as u64).sum());
            m.backward_edge_slots.add(edge_off[n] as u64);
        }

        let mut param_grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        let eptr = stuq_parallel::SendPtr::new(edge_deltas.as_mut_ptr());
        let pptr = stuq_parallel::SendPtr::new(param_grads.as_mut_ptr());
        for bucket in &buckets {
            // Single-node levels run inline inside the pool's fast path;
            // wider levels are where the branch parallelism lives.
            stuq_parallel::par_for(bucket.len(), |bi| {
                let id = bucket[bi];
                let grad = if id == loss {
                    Tensor::scalar(1.0)
                } else {
                    let mut acc: Option<Tensor> = None;
                    for &(c, k) in &consumers[id] {
                        // SAFETY: slot (c, k) was written when consumer `c`
                        // ran in an earlier level, and `id` is the only node
                        // that reads it (it is input `k` of `c`).
                        let slot = unsafe { &mut *eptr.get().add(edge_off[c] + k) };
                        let delta = slot.take().expect("consumer delta missing");
                        match &mut acc {
                            Some(g) => g.add_assign(&delta),
                            empty @ None => *empty = Some(delta),
                        }
                    }
                    acc.expect("reachable node received no deltas")
                };
                match &self.nodes[id].op {
                    OpKind::Constant => unreachable!("constants are never scheduled"),
                    OpKind::Param(_) => {
                        // SAFETY: each node id is processed by exactly one task.
                        unsafe { *pptr.get().add(id) = Some(grad) };
                    }
                    _ => {
                        for (k, delta) in self.node_adjoints(id, &grad).into_iter().enumerate() {
                            // SAFETY: this node's slots are written only here.
                            unsafe { *eptr.get().add(edge_off[id] + k) = Some(delta) };
                        }
                    }
                }
            });
        }

        // Slot-ordered reduction: per parameter slot, contributions combine
        // in descending node-id order — the serial walk's order exactly.
        let mut store = GradStore::default();
        for id in (0..=loss).rev() {
            if let Some(g) = param_grads[id].take() {
                let OpKind::Param(slot) = self.nodes[id].op else {
                    unreachable!("only Param nodes store gradients")
                };
                store.accumulate_slot(slot, g);
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
    /// gradient. Pure with respect to the tape — all three backward engines
    /// (serial, levels, replay) call this, which is what keeps them
    /// numerically interchangeable.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn node_adjoints(&self, id: NodeId, grad: &Tensor) -> Vec<Tensor> {
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
