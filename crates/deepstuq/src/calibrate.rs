//! Post-hoc temperature calibration (paper §IV-C3, Eq. 17–18).
//!
//! A single positive temperature `T` rescales the predicted standard
//! deviation to `σ/T`. `T` is fit on the **validation** split by maximising
//! the calibrated Gaussian log-likelihood, which reduces (Eq. 18) to
//!
//! ```text
//! T* = argmin_T  mean( −log T² + T² · r² ),   r² = (y − μ)² / σ²
//! ```
//!
//! solved with L-BFGS as in the paper. The objective has the closed form
//! optimum `T* = 1 / rms(r)`, which the tests use as an oracle.

use crate::config::CalibConfig;
use crate::error::TrainError;
use crate::mc::mc_forecast_with_cov;
use stuq_models::Forecaster;
use stuq_nn::lbfgs::{minimize, LbfgsOptions};
use stuq_tensor::StuqRng;
use stuq_traffic::{Split, SplitDataset};

/// Fits the temperature from standardised squared residuals `r²`.
///
/// The objective of Eq. 18 is optimised in log-space (`T = e^u`), where it
/// is smooth, convex and unconstrained — the positivity constraint on `T`
/// then never interacts with the line search. Degenerate residuals and a
/// diverged optimiser surface as typed [`TrainError`]s so a long pipeline
/// run can report (or checkpoint around) the failure instead of aborting.
pub fn fit_temperature(residual_sq: &[f64], max_iters: usize) -> Result<f32, TrainError> {
    if residual_sq.is_empty() {
        return Err(TrainError::EmptySplit { what: "residuals to calibrate on".into() });
    }
    let n = residual_sq.len() as f64;
    let mean_r2 = residual_sq.iter().sum::<f64>() / n;
    if !(mean_r2.is_finite() && mean_r2 > 0.0) {
        return Err(TrainError::CalibrationDegenerate { mean_r2 });
    }
    let result = minimize(
        |u| {
            // J(u) = −2u + e^{2u}·mean(r²);  dJ/du = −2 + 2 e^{2u}·mean(r²).
            let e2u = (2.0 * u[0]).exp();
            (-2.0 * u[0] + e2u * mean_r2, vec![-2.0 + 2.0 * e2u * mean_r2])
        },
        &[0.0],
        &LbfgsOptions { max_iters, ..Default::default() },
    );
    let t = result.x[0].exp();
    if !(t.is_finite() && t > 0.0) {
        return Err(TrainError::CalibrationDiverged { t });
    }
    Ok(t as f32)
}

/// Standardised squared residuals `r² = (y − μ)² / σ²` of `model` over
/// `split`'s windows (every `cfg.stride`-th), with `σ²` the total
/// uncalibrated variance of `cfg.mc_samples` MC passes, as in Eq. 18.
pub fn calibration_residuals(
    model: &dyn Forecaster,
    ds: &SplitDataset,
    split: Split,
    cfg: &CalibConfig,
    rng: &mut StuqRng,
) -> Result<Vec<f64>, TrainError> {
    let starts = ds.window_starts(split);
    if starts.is_empty() {
        return Err(TrainError::EmptySplit { what: format!("{split:?}-split windows") });
    }
    let mut residual_sq = Vec::new();
    for &s in starts.iter().step_by(cfg.stride.max(1)) {
        let w = ds.window(s);
        let f = mc_forecast_with_cov(model, &w.x, w.cov.as_ref(), cfg.mc_samples, rng);
        let y_norm = ds.normalize_target(&w.y_raw).transpose(); // [N, τ]
        let var = f.var_total(1.0);
        for i in 0..y_norm.len() {
            let mu = f.mu.data()[i] as f64;
            let v = (var.data()[i] as f64).max(1e-9);
            let y = y_norm.data()[i] as f64;
            residual_sq.push((y - mu).powi(2) / v);
        }
    }
    Ok(residual_sq)
}

/// Fits `T` on the validation split's [`calibration_residuals`]. Uses
/// `cfg.mc_samples` MC passes per window (paper: 10) so the calibrated
/// quantity is the same predictive distribution used at test time.
pub fn calibrate_on_validation(
    model: &dyn Forecaster,
    ds: &SplitDataset,
    cfg: &CalibConfig,
    rng: &mut StuqRng,
) -> Result<f32, TrainError> {
    let residual_sq = calibration_residuals(model, ds, Split::Val, cfg, rng)?;
    let t = fit_temperature(&residual_sq, cfg.max_iters)?;
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().calib_temperature.set(t as f64);
        stuq_obs::emit(stuq_obs::Event::new("calibrate").num("temperature", t as f64));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_closed_form() {
        let residual_sq: Vec<f64> = (1..=50).map(|i| 0.1 * i as f64).collect();
        let mean_r2 = residual_sq.iter().sum::<f64>() / residual_sq.len() as f64;
        let expected = (1.0 / mean_r2).sqrt() as f32;
        let t = fit_temperature(&residual_sq, 500).unwrap();
        assert!((t - expected).abs() < 1e-4, "T {t} vs closed form {expected}");
    }

    #[test]
    fn overconfident_model_gets_t_below_one() {
        // r² ≫ 1 means σ underestimates the residuals → T < 1 widens σ/T.
        let residual_sq = vec![4.0; 100];
        let t = fit_temperature(&residual_sq, 500).unwrap();
        assert!(t < 1.0, "T {t}");
        assert!((t - 0.5).abs() < 1e-4, "closed form is 1/2");
    }

    #[test]
    fn underconfident_model_gets_t_above_one() {
        let residual_sq = vec![0.25; 100];
        let t = fit_temperature(&residual_sq, 500).unwrap();
        assert!((t - 2.0).abs() < 1e-4, "T {t}");
    }

    #[test]
    fn perfectly_calibrated_model_keeps_t_one() {
        let residual_sq = vec![1.0; 64];
        let t = fit_temperature(&residual_sq, 500).unwrap();
        assert!((t - 1.0).abs() < 1e-5, "T {t}");
    }

    #[test]
    fn degenerate_residuals_are_a_typed_error() {
        let err = fit_temperature(&[0.0; 8], 100).unwrap_err();
        assert!(matches!(err, TrainError::CalibrationDegenerate { .. }), "{err:?}");
        let err = fit_temperature(&[f64::NAN; 8], 100).unwrap_err();
        assert!(matches!(err, TrainError::CalibrationDegenerate { .. }), "{err:?}");
        let err = fit_temperature(&[], 100).unwrap_err();
        assert!(matches!(err, TrainError::EmptySplit { .. }), "{err:?}");
    }

    #[test]
    fn calibration_improves_validation_nll() {
        // Synthetic Gaussians with σ under-estimated by 2×: calibration must
        // roughly halve T and reduce the NLL of the calibrated predictions.
        let mut rng = StuqRng::new(9);
        let n = 2000;
        let sigma_true = 2.0f64;
        let sigma_pred = 1.0f64;
        let residual_sq: Vec<f64> = (0..n)
            .map(|_| {
                let y = sigma_true * rng.normal_f64();
                (y / sigma_pred).powi(2)
            })
            .collect();
        let t = fit_temperature(&residual_sq, 500).unwrap() as f64;
        assert!((t - 0.5).abs() < 0.05, "T {t} should be ≈ 1/2");
        let nll = |scale: f64| {
            residual_sq
                .iter()
                .map(|r2| 0.5 * ((sigma_pred / scale).powi(2).ln() + r2 * scale * scale))
                .sum::<f64>()
                / n as f64
        };
        assert!(nll(t) < nll(1.0), "calibrated NLL must improve");
    }
}
