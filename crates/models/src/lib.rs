//! Spatio-temporal forecasting architectures.
//!
//! [`agcrn`] is the paper's base model (adaptive-graph GRU with NAPL,
//! §IV-A/IV-B) on which DeepSTUQ and all uncertainty baselines are built.
//! The remaining modules are compact re-implementations of the
//! point-prediction baselines of Table III, each keeping the architectural
//! idea the paper cites it for (see the module docs for the exact
//! simplifications made at this scale):
//!
//! | module | paper baseline | key idea reproduced |
//! |---|---|---|
//! | [`dcrnn`] | DCRNN | diffusion convolution inside GRU gates |
//! | [`stgcn`] | ST-GCN | gated temporal conv + Chebyshev graph conv blocks |
//! | [`gwnet`] | GraphWaveNet | dilated gated TCN + self-adaptive adjacency |
//! | [`astgcn`] | ASTGCN | spatial & temporal attention over GCN features |
//! | [`stsgcn`] | STSGCN | localized spatio-temporal synchronous convolution |
//! | [`stfgnn`] | STFGNN | spatial-temporal fusion graph + gated dilated CNN |
//! | [`gru`] | (ablation) | plain per-node GRU, no spatial mixing |
//!
//! Every model implements [`Forecaster`]: a single `forward` that records the
//! computation for one input window onto a [`stuq_tensor::Tape`] and returns
//! a [`Prediction`] head output. Inference runs through
//! [`Forecaster::session`]; [`Agcrn`]'s session runs without a tape.

pub mod agcrn;
pub mod astgcn;
pub mod common;
pub mod dcrnn;
pub mod gru;
pub mod gwnet;
pub mod heads;
pub mod stfgnn;
pub mod stgcn;
pub mod stsgcn;
pub mod traits;

pub use agcrn::{Agcrn, AgcrnConfig};
pub use heads::{Head, HeadKind};
pub use traits::{Forecaster, InferenceSession, Prediction};
