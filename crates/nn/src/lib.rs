//! Neural-network building blocks on the DeepSTUQ autodiff tape.
//!
//! The paper's models are assembled from a small set of components, all
//! implemented here from scratch:
//!
//! * [`params::ParamSet`] — named parameter storage with snapshot/restore
//!   (needed by SWA-style weight averaging and FGE snapshot ensembles);
//! * [`layers`] — `Linear`, a standard GRU cell, and the NAPL adaptive graph
//!   convolution GRU cell of AGCRN (paper Eq. 5–6), plus dropout plumbing for
//!   MC-dropout (Eq. 11–13);
//! * [`loss`] — MAE/MSE, the heteroscedastic Gaussian NLL (Eq. 8), the
//!   paper's weighted combined loss (Eq. 9 / Eq. 14) and the pinball loss for
//!   the quantile baseline;
//! * [`opt`] — SGD and Adam with L2 weight decay (the `λ_W/2p‖w‖²` term of
//!   Eq. 12), plus gradient clipping helpers;
//! * [`sched`] — the cosine schedule of AWA re-training (Eq. 16) and the
//!   cyclic schedule used by the FGE baseline;
//! * [`swa`] — running weight averaging (Eq. 15);
//! * [`lbfgs`] — a dense L-BFGS minimiser used by temperature-scaling
//!   calibration (Eq. 18).

pub mod init;
pub mod layers;
pub mod lbfgs;
pub mod loss;
pub mod opt;
pub mod params;
pub mod sched;
pub mod serialize;
pub mod swa;

pub use layers::{Block, Eager, Exec, FwdCtx};
pub use params::ParamSet;
