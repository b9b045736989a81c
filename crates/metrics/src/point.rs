//! Point-prediction metrics: MAE, RMSE, MAPE (paper Eq. 20–22).

/// Finalised point metrics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PointMetrics {
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Mean absolute percentage error, in percent.
    pub mape: f64,
}

/// Streaming accumulator with per-horizon buckets.
///
/// MAPE skips ground-truth values below `mape_floor` (the standard PEMS
/// convention — percentage error is meaningless against near-zero flow).
#[derive(Clone, Debug)]
pub struct PointAccumulator {
    horizon: usize,
    n: Vec<u64>,
    abs_sum: Vec<f64>,
    sq_sum: Vec<f64>,
    ape_sum: Vec<f64>,
    ape_n: Vec<u64>,
    mape_floor: f32,
}

impl PointAccumulator {
    /// Creates an accumulator for `horizon` forecast steps.
    pub fn new(horizon: usize) -> Self {
        Self::with_mape_floor(horizon, 10.0)
    }

    /// Creates an accumulator with an explicit MAPE masking floor.
    pub fn with_mape_floor(horizon: usize, mape_floor: f32) -> Self {
        assert!(horizon > 0, "horizon must be positive");
        Self {
            horizon,
            n: vec![0; horizon],
            abs_sum: vec![0.0; horizon],
            sq_sum: vec![0.0; horizon],
            ape_sum: vec![0.0; horizon],
            ape_n: vec![0; horizon],
            mape_floor,
        }
    }

    /// Number of forecast steps tracked.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Adds one `(prediction, truth)` pair at forecast step `h` (0-based).
    #[inline]
    pub fn update(&mut self, h: usize, pred: f32, truth: f32) {
        assert!(h < self.horizon, "horizon index {h} out of range");
        let e = (pred - truth) as f64;
        self.n[h] += 1;
        self.abs_sum[h] += e.abs();
        self.sq_sum[h] += e * e;
        if truth.abs() >= self.mape_floor {
            self.ape_sum[h] += (e / truth as f64).abs();
            self.ape_n[h] += 1;
        }
    }

    /// Metrics for a single forecast step.
    pub fn at_horizon(&self, h: usize) -> PointMetrics {
        assert!(h < self.horizon, "horizon index {h} out of range");
        let n = self.n[h] as f64;
        assert!(n > 0.0, "no samples at horizon {h}");
        PointMetrics {
            mae: self.abs_sum[h] / n,
            rmse: (self.sq_sum[h] / n).sqrt(),
            mape: if self.ape_n[h] > 0 {
                100.0 * self.ape_sum[h] / self.ape_n[h] as f64
            } else {
                f64::NAN
            },
        }
    }

    /// Metrics aggregated over every forecast step (the tables' headline numbers).
    pub fn overall(&self) -> PointMetrics {
        let n: f64 = self.n.iter().map(|&x| x as f64).sum();
        assert!(n > 0.0, "no samples accumulated");
        let ape_n: f64 = self.ape_n.iter().map(|&x| x as f64).sum();
        PointMetrics {
            mae: self.abs_sum.iter().sum::<f64>() / n,
            rmse: (self.sq_sum.iter().sum::<f64>() / n).sqrt(),
            mape: if ape_n > 0.0 {
                100.0 * self.ape_sum.iter().sum::<f64>() / ape_n
            } else {
                f64::NAN
            },
        }
    }

    /// Per-horizon series of `(mae, rmse, mape)` — the data behind Fig. 7.
    pub fn horizon_series(&self) -> Vec<PointMetrics> {
        (0..self.horizon).map(|h| self.at_horizon(h)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_example() {
        let mut acc = PointAccumulator::with_mape_floor(1, 0.5);
        acc.update(0, 3.0, 1.0); // err 2
        acc.update(0, 1.0, 2.0); // err -1
        let m = acc.overall();
        assert!((m.mae - 1.5).abs() < 1e-12);
        assert!((m.rmse - (2.5f64).sqrt()).abs() < 1e-12);
        // APE: 2/1 and 1/2 → mean 1.25 → 125 %.
        assert!((m.mape - 125.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_prediction_is_zero() {
        let mut acc = PointAccumulator::new(2);
        for h in 0..2 {
            acc.update(h, 10.0, 10.0);
            acc.update(h, 20.0, 20.0);
        }
        let m = acc.overall();
        assert_eq!((m.mae, m.rmse, m.mape), (0.0, 0.0, 0.0));
    }

    #[test]
    fn mape_floor_masks_small_truth() {
        let mut acc = PointAccumulator::with_mape_floor(1, 10.0);
        acc.update(0, 5.0, 0.1); // masked: would be 4900 %
        acc.update(0, 110.0, 100.0); // kept: 10 %
        assert!((acc.overall().mape - 10.0).abs() < 1e-9);
    }

    #[test]
    fn horizons_are_independent() {
        let mut acc = PointAccumulator::new(3);
        acc.update(0, 1.0, 0.0);
        acc.update(1, 2.0, 0.0);
        acc.update(2, 4.0, 0.0);
        assert!((acc.at_horizon(0).mae - 1.0).abs() < 1e-12);
        assert!((acc.at_horizon(1).mae - 2.0).abs() < 1e-12);
        assert!((acc.at_horizon(2).mae - 4.0).abs() < 1e-12);
        assert_eq!(acc.horizon_series().len(), 3);
    }

    #[test]
    fn rmse_dominates_mae() {
        // RMSE ≥ MAE always (Jensen).
        let mut acc = PointAccumulator::new(1);
        for (p, t) in [(1.0, 0.0), (5.0, 0.0), (2.0, 1.0)] {
            acc.update(0, p, t);
        }
        let m = acc.overall();
        assert!(m.rmse >= m.mae);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_accumulator_panics() {
        let acc = PointAccumulator::new(1);
        let _ = acc.overall();
    }
}
