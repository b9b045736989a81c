//! **DeepSTUQ** — Deep Spatio-Temporal Uncertainty Quantification.
//!
//! A from-scratch Rust reproduction of *"Uncertainty Quantification for
//! Traffic Forecasting: A Unified Approach"* (Qian et al., ICDE 2023). The
//! crate implements the paper's unified pipeline:
//!
//! 1. **Pre-training** (§IV-C, Eq. 14): an adaptive-graph recurrent model
//!    with a heteroscedastic Gaussian head is trained with the combined
//!    loss — `λ`-weighted Gaussian NLL + L1 — under MC dropout (variational
//!    learning of epistemic uncertainty) and L2 weight decay.
//! 2. **AWA re-training** (§IV-C2, Algorithm 1): cosine "escape" epochs
//!    alternate with constant-rate fine-tuning epochs; the fine-tuned weights
//!    are folded into a running average (Eq. 15), approximating a deep
//!    ensemble with a single stored model.
//! 3. **Calibration** (§IV-C3, Eq. 17–18): a single temperature `T` is fit
//!    on the validation split with L-BFGS, rescaling the aleatoric variance.
//!
//! At inference time, `N_MC` Monte-Carlo dropout samples provide the
//! predictive mean and the decomposition of Eq. 7 / Eq. 19: aleatoric
//! variance (mean of per-sample variances, temperature-scaled) plus
//! epistemic variance (variance of per-sample means).
//!
//! [`methods`] additionally implements every uncertainty baseline of the
//! paper's Table II (Point, Quantile, MVE, MCDO, Combined, TS, FGE,
//! locally-weighted Conformal, CFRNN) on the same base model, and [`eval`]
//! reproduces the evaluation protocol of §V.
//!
//! # Quickstart
//!
//! ```
//! use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
//! use stuq_traffic::{DatasetSpec, Preset};
//!
//! // A tiny scaled-down PEMS08-like dataset (fast enough for doctests).
//! let spec = Preset::Pems08Like.spec().scaled(0.08, 0.02);
//! let ds = spec.generate(7);
//! let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
//! let model = DeepStuq::train(&ds, cfg, 7);
//! let starts = ds.window_starts(stuq_traffic::Split::Test);
//! let w = ds.window(starts[0]);
//! let mut rng = stuq_tensor::StuqRng::new(1);
//! let f = model.predict(&w.x, ds.scaler(), &mut rng);
//! assert_eq!(f.mu.shape(), &[ds.n_nodes(), ds.horizon()]);
//! assert!(f.sigma_total.data().iter().all(|&s| s > 0.0));
//! ```

pub mod awa;
pub mod calibrate;
pub mod checkpoint;
pub mod config;
pub mod conformal;
pub mod ensemble;
pub mod error;
pub mod eval;
pub mod guard;
pub mod io;
pub mod mc;
pub mod methods;
pub mod pipeline;
pub mod trainer;

pub use config::{AwaConfig, CalibConfig, TrainConfig};
pub use error::{Stage, TrainError};
pub use guard::{GuardConfig, GuardState};
pub use io::{load_model, load_model_bytes, save_model};
pub use mc::{
    mc_forecast, mc_forecast_anytime, mc_passes, reduce_anytime, AnytimeForecast, Forecast,
    GaussianForecast, SampleBudget, SamplePass, UnlimitedBudget,
};
pub use pipeline::{DeepStuq, DeepStuqConfig, FitOptions, FitOutcome};
