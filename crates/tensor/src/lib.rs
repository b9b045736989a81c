//! Dense f32 tensor algebra and reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate of the DeepSTUQ reproduction. It
//! provides:
//!
//! * [`Tensor`] — a row-major, heap-allocated `f32` tensor with the linear
//!   algebra needed by graph recurrent networks (mat-mul, transposition,
//!   element-wise maps, row soft-max, …);
//! * [`StuqRng`] — a small, fully deterministic `xoshiro256**` generator with
//!   Box–Muller normal sampling, so that every experiment in the repository is
//!   bit-reproducible from a single seed;
//! * [`Tape`] — a reverse-mode autodiff tape recording a computation graph of
//!   tensor ops and computing gradients with respect to registered parameters.
//!
//! The tape is deliberately minimal: it supports exactly the operations the
//! paper's models need (GRU gates, adaptive graph convolutions, Gaussian
//! negative log-likelihood losses) plus a [`CustomOp`] escape hatch for fused
//! kernels. Gradients of every op are validated against central finite
//! differences in the `gradcheck` tests.
//!
//! # Example
//!
//! ```
//! use stuq_tensor::{Tape, Tensor};
//!
//! let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let w = Tensor::from_vec(vec![0.5, -0.5, 1.0, 1.5], &[2, 2]);
//!
//! let mut tape = Tape::new();
//! let xi = tape.constant(x);
//! let wi = tape.param(0, w);
//! let h = tape.matmul(xi, wi);
//! let y = tape.sigmoid(h);
//! let loss = tape.mean_all(y);
//! let grads = tape.backward(loss);
//! assert!(grads.get(0).is_some());
//! ```

pub mod fastmath;
pub mod gradcheck;
pub mod kernels;
pub mod rng;
pub mod tape;
pub mod tensor;

pub use rng::{RngState, StuqRng};
pub use tape::{CustomOp, GradStore, NodeId, Tape};
pub use tensor::Tensor;

/// Always `(0, 0)`. The backward pass has one engine, the descending-id
/// walk of [`Tape::backward`], so there are no compiled plans to hit or
/// compile. Kept only so the benchmark's traced run, which still reports a
/// plan hit ratio, builds unchanged; it goes when that row does.
pub fn replay_stats() -> (u64, u64) {
    (0, 0)
}
