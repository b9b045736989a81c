//! The evaluation protocol of §V: sliding test windows, raw-scale metrics.

use stuq_metrics::{PointAccumulator, PointMetrics, UqAccumulator, UqMetrics, Z_95};
use stuq_tensor::Tensor;
use stuq_traffic::{Split, SplitDataset};

/// One raw-scale forecast for a window.
///
/// `sigma` (when present) is the Gaussian predictive standard deviation used
/// for MNLL and, absent explicit `bounds`, for the 95 % interval.
/// `bounds` (when present) overrides the interval used for PICP/MPIW —
/// that is how the conformal and quantile baselines report coverage while
/// (for Conformal) MNLL still reflects the underlying Gaussian σ, matching
/// the paper's Table IV.
#[derive(Clone, Debug)]
pub struct RawForecast {
    /// Point forecast, `[N, τ]`, raw units.
    pub mu: Tensor,
    /// Optional Gaussian predictive σ, `[N, τ]`, raw units.
    pub sigma: Option<Tensor>,
    /// Optional explicit `(lower, upper)` interval bounds, `[N, τ]` each.
    pub bounds: Option<(Tensor, Tensor)>,
}

/// Aggregated evaluation output for one method on one dataset.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Headline point metrics (all horizons pooled).
    pub point: PointMetrics,
    /// Headline UQ metrics; `None` for point-only methods.
    pub uq: Option<UqMetrics>,
    /// Per-horizon point metrics (Fig. 7).
    pub point_by_horizon: Vec<PointMetrics>,
    /// Per-horizon UQ metrics (Fig. 10 companion).
    pub uq_by_horizon: Option<Vec<UqMetrics>>,
    /// Number of windows evaluated.
    pub n_windows: usize,
}

/// Evaluates `predict` over the test split with the given window stride.
///
/// The closure receives the normalised history window `[t_h, N]` and the
/// window start index, and returns a raw-scale [`RawForecast`].
pub fn evaluate(
    ds: &SplitDataset,
    split: Split,
    stride: usize,
    mut predict: impl FnMut(&Tensor, usize) -> RawForecast,
) -> EvalResult {
    let starts: Vec<usize> =
        ds.window_starts(split).iter().copied().step_by(stride.max(1)).collect();
    let forecasts: Vec<RawForecast> = starts.iter().map(|&s| predict(&ds.window(s).x, s)).collect();
    score_forecasts(ds, &starts, forecasts)
}

/// [`evaluate`] under sensor faults (DESIGN.md §8): the predictor sees the
/// **corrupted** history from `fs`, while the metrics score against the
/// clean ground-truth targets. Comparing this result with [`evaluate`] on
/// the same model quantifies how gracefully its accuracy and uncertainty
/// estimates degrade when the input feed fails.
pub fn evaluate_faulted(
    ds: &SplitDataset,
    split: Split,
    stride: usize,
    fs: &stuq_traffic::FaultedSeries,
    mut predict: impl FnMut(&Tensor, usize) -> RawForecast,
) -> EvalResult {
    let starts: Vec<usize> =
        ds.window_starts(split).iter().copied().step_by(stride.max(1)).collect();
    let forecasts: Vec<RawForecast> =
        starts.iter().map(|&s| predict(&ds.faulted_window(s, fs).x, s)).collect();
    score_forecasts(ds, &starts, forecasts)
}

/// Ordered metric accumulation shared by [`evaluate`] and [`evaluate_faulted`].
fn score_forecasts(ds: &SplitDataset, starts: &[usize], forecasts: Vec<RawForecast>) -> EvalResult {
    assert!(!starts.is_empty(), "no windows in split");
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().eval_windows.add(starts.len() as u64);
    }
    let tau = ds.horizon();
    let n = ds.n_nodes();
    let mut point = PointAccumulator::new(tau);
    let mut nll = UqAccumulator::new(tau);
    let mut interval = UqAccumulator::new(tau);
    let mut any_sigma = false;
    let mut any_bounds = false;
    let mut n_windows = 0usize;

    for (&s, f) in starts.iter().zip(forecasts) {
        let w = ds.window(s);
        assert_eq!(f.mu.shape(), &[n, tau], "forecast shape mismatch");
        n_windows += 1;
        for h in 0..tau {
            for i in 0..n {
                let truth = w.y_raw.get(h, i) as f64;
                let mu = f.mu.get(i, h) as f64;
                point.update(h, mu as f32, truth as f32);
                if let Some(sig) = &f.sigma {
                    any_sigma = true;
                    nll.update(h, mu, sig.get(i, h) as f64, truth);
                }
                match (&f.bounds, &f.sigma) {
                    (Some((lo, hi)), _) => {
                        any_bounds = true;
                        interval.update_interval(
                            h,
                            lo.get(i, h) as f64,
                            hi.get(i, h) as f64,
                            truth,
                        );
                    }
                    (None, Some(sig)) => {
                        let sd = sig.get(i, h) as f64;
                        interval.update_interval(h, mu - Z_95 * sd, mu + Z_95 * sd, truth);
                    }
                    (None, None) => {}
                }
            }
        }
    }

    let has_uq = any_sigma || any_bounds;
    let compose = |h: Option<usize>| -> UqMetrics {
        let (nm, im) = match h {
            Some(h) => {
                (if any_sigma { nll.at_horizon(h).mnll } else { f64::NAN }, interval.at_horizon(h))
            }
            None => (if any_sigma { nll.overall().mnll } else { f64::NAN }, interval.overall()),
        };
        UqMetrics { mnll: nm, picp: im.picp, mpiw: im.mpiw }
    };

    EvalResult {
        point: point.overall(),
        uq: has_uq.then(|| compose(None)),
        point_by_horizon: point.horizon_series(),
        uq_by_horizon: has_uq.then(|| (0..tau).map(|h| compose(Some(h))).collect()),
        n_windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_traffic::Preset;

    fn tiny_ds() -> SplitDataset {
        Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(3)
    }

    /// An oracle that predicts the truth exactly with constant σ.
    fn oracle(ds: &SplitDataset, sigma: f32) -> impl FnMut(&Tensor, usize) -> RawForecast + '_ {
        move |_, start| {
            let w = ds.window(start);
            RawForecast {
                mu: w.y_raw.transpose(),
                sigma: Some(Tensor::full(&[ds.n_nodes(), ds.horizon()], sigma)),
                bounds: None,
            }
        }
    }

    #[test]
    fn oracle_has_zero_point_error_and_full_coverage() {
        let ds = tiny_ds();
        let r = evaluate(&ds, Split::Test, 7, oracle(&ds, 5.0));
        assert!(r.point.mae < 1e-4, "oracle MAE {}", r.point.mae);
        let uq = r.uq.unwrap();
        assert!((uq.picp - 100.0).abs() < 1e-9);
        assert!((uq.mpiw - 2.0 * Z_95 * 5.0).abs() < 1e-3);
        assert_eq!(r.point_by_horizon.len(), ds.horizon());
    }

    #[test]
    fn point_only_forecast_has_no_uq() {
        let ds = tiny_ds();
        let r = evaluate(&ds, Split::Test, 7, |_, start| RawForecast {
            mu: ds.window(start).y_raw.transpose(),
            sigma: None,
            bounds: None,
        });
        assert!(r.uq.is_none());
        assert!(r.uq_by_horizon.is_none());
    }

    #[test]
    fn explicit_bounds_override_sigma_interval() {
        let ds = tiny_ds();
        let (n, tau) = (ds.n_nodes(), ds.horizon());
        let r = evaluate(&ds, Split::Test, 7, |_, start| {
            let w = ds.window(start);
            let mu = w.y_raw.transpose();
            // Tiny σ but huge explicit bounds → PICP from bounds, MNLL from σ.
            let lo = mu.map(|v| v - 1000.0);
            let hi = mu.map(|v| v + 1000.0);
            RawForecast { mu, sigma: Some(Tensor::full(&[n, tau], 0.1)), bounds: Some((lo, hi)) }
        });
        let uq = r.uq.unwrap();
        assert!((uq.picp - 100.0).abs() < 1e-9);
        assert!((uq.mpiw - 2000.0).abs() < 1e-3);
        assert!(uq.mnll.is_finite());
    }

    #[test]
    fn stride_reduces_window_count() {
        let ds = tiny_ds();
        let r1 = evaluate(&ds, Split::Test, 1, oracle(&ds, 1.0));
        let r5 = evaluate(&ds, Split::Test, 5, oracle(&ds, 1.0));
        assert!(r5.n_windows < r1.n_windows);
        assert_eq!(r5.n_windows, r1.n_windows.div_ceil(5));
    }

    #[test]
    fn biased_oracle_has_expected_mae() {
        let ds = tiny_ds();
        let r = evaluate(&ds, Split::Test, 7, |_, start| {
            let w = ds.window(start);
            RawForecast { mu: w.y_raw.transpose().map(|v| v + 3.0), sigma: None, bounds: None }
        });
        assert!((r.point.mae - 3.0).abs() < 1e-4);
    }
}
