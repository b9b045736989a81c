//! Datasets, scaling and sliding-window extraction.
//!
//! Mirrors the paper's protocol (§V-A): data aggregated to 5-minute steps,
//! one hour of history (12 points) predicts the next hour (12 points), and
//! every dataset is split 6:2:2 into train / validation–calibration / test
//! along the time axis.

use stuq_graph::RoadNetwork;
use stuq_tensor::Tensor;

/// A full multivariate flow series on a road network (row-major `[T, N]`).
#[derive(Clone, Debug)]
pub struct TrafficData {
    name: String,
    values: Vec<f32>,
    n_steps: usize,
    n_nodes: usize,
    network: RoadNetwork,
    /// Row-major `[T, c]` exogenous covariates (e.g. rain intensity);
    /// `n_covariates == 0` when absent.
    covariates: Vec<f32>,
    n_covariates: usize,
}

impl TrafficData {
    /// Wraps raw `[T, N]` data. Panics if sizes disagree.
    pub fn new(
        name: impl Into<String>,
        values: Vec<f32>,
        n_steps: usize,
        network: RoadNetwork,
    ) -> Self {
        Self::with_covariates(name, values, n_steps, network, Vec::new(), 0)
    }

    /// Wraps raw data plus `[T, c]` exogenous covariates (the weather
    /// extension; DESIGN.md §4).
    pub fn with_covariates(
        name: impl Into<String>,
        values: Vec<f32>,
        n_steps: usize,
        network: RoadNetwork,
        covariates: Vec<f32>,
        n_covariates: usize,
    ) -> Self {
        let n_nodes = network.n_nodes();
        assert_eq!(values.len(), n_steps * n_nodes, "data length != T*N");
        assert_eq!(covariates.len(), n_steps * n_covariates, "covariate length != T*c");
        Self { name: name.into(), values, n_steps, n_nodes, network, covariates, n_covariates }
    }

    /// Number of exogenous covariate channels (0 when none).
    pub fn n_covariates(&self) -> usize {
        self.n_covariates
    }

    /// Covariate channel `k` at time `t`.
    #[inline]
    pub fn covariate(&self, t: usize, k: usize) -> f32 {
        debug_assert!(k < self.n_covariates);
        self.covariates[t * self.n_covariates + k]
    }

    /// Dataset name (e.g. `PEMS04-like`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of time steps.
    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// Number of sensors.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The underlying road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }

    /// Flow at `(t, node)`.
    #[inline]
    pub fn get(&self, t: usize, node: usize) -> f32 {
        self.values[t * self.n_nodes + node]
    }

    /// Overwrites the flow at `(t, node)` — the hook fault-injection tests
    /// use to corrupt individual readings in place.
    #[inline]
    pub fn set(&mut self, t: usize, node: usize, v: f32) {
        self.values[t * self.n_nodes + node] = v;
    }

    /// The raw row-major `[T, N]` values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// All sensors at time `t`.
    pub fn step(&self, t: usize) -> &[f32] {
        &self.values[t * self.n_nodes..(t + 1) * self.n_nodes]
    }
}

/// Global z-score scaler fit on the training segment only (no test leakage).
#[derive(Clone, Copy, Debug)]
pub struct Scaler {
    mean: f64,
    std: f64,
}

impl Scaler {
    /// Fits mean/std over `data[t]` for `t ∈ [0, fit_until)`.
    pub fn fit(data: &TrafficData, fit_until: usize) -> Self {
        let n = data.n_nodes();
        let count = (fit_until * n) as f64;
        assert!(count > 1.0, "cannot fit a scaler on an empty segment");
        let slice = &data.values[..fit_until * n];
        let mean = slice.iter().map(|&x| x as f64).sum::<f64>() / count;
        let var = slice.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / count;
        Self { mean, std: var.sqrt().max(1e-9) }
    }

    /// Training-segment mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Training-segment standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Raw → normalised.
    #[inline]
    pub fn transform(&self, x: f32) -> f32 {
        ((x as f64 - self.mean) / self.std) as f32
    }

    /// Normalised → raw.
    #[inline]
    pub fn inverse(&self, z: f32) -> f32 {
        (z as f64 * self.std + self.mean) as f32
    }
}

/// Which segment of the 6:2:2 split a window comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// First 60 % — gradient updates.
    Train,
    /// Middle 20 % — calibration / model selection.
    Val,
    /// Final 20 % — held-out evaluation.
    Test,
}

/// One supervised example: normalised history and raw-scale target.
#[derive(Clone, Debug)]
pub struct Window {
    /// Normalised history, `[t_h, N]`.
    pub x: Tensor,
    /// Raw-scale target, `[horizon, N]`.
    pub y_raw: Tensor,
    /// Exogenous covariates for the **forecast period**, `[horizon, c]`
    /// (`None` when the dataset has none). For the weather channel this is
    /// the rain forecast for the target hour — the information the paper's
    /// future-work section proposes to incorporate; it is known at
    /// prediction time from meteorology, so this is not target leakage.
    pub cov: Option<Tensor>,
    /// Validity mask for the history, `[t_h, N]` with 1 = healthy reading
    /// and 0 = corrupted. `None` for clean windows (the common case); set by
    /// [`SplitDataset::faulted_window`].
    pub valid: Option<Tensor>,
}

/// A traffic dataset with its split boundaries, scaler and window geometry.
#[derive(Clone, Debug)]
pub struct SplitDataset {
    data: TrafficData,
    scaler: Scaler,
    t_h: usize,
    horizon: usize,
    train_end: usize,
    val_end: usize,
}

impl SplitDataset {
    /// Splits 6:2:2 and fits the scaler on the training segment.
    pub fn new(data: TrafficData, t_h: usize, horizon: usize) -> Self {
        let t = data.n_steps();
        assert!(t >= (t_h + horizon) * 5, "series too short for windows in every split");
        let train_end = t * 6 / 10;
        let val_end = t * 8 / 10;
        let scaler = Scaler::fit(&data, train_end);
        Self { data, scaler, t_h, horizon, train_end, val_end }
    }

    /// The underlying data.
    pub fn data(&self) -> &TrafficData {
        &self.data
    }

    /// Mutable access to the underlying data.
    ///
    /// The scaler stays as fit at construction time, so corrupting readings
    /// here (as the fault-injection tests do) degrades the *inputs* without
    /// silently re-normalising around the corruption.
    pub fn data_mut(&mut self) -> &mut TrafficData {
        &mut self.data
    }

    /// The training-fit scaler.
    pub fn scaler(&self) -> &Scaler {
        &self.scaler
    }

    /// History length (paper: 12).
    pub fn t_h(&self) -> usize {
        self.t_h
    }

    /// Forecast horizon (paper: 12).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Number of sensors.
    pub fn n_nodes(&self) -> usize {
        self.data.n_nodes()
    }

    /// `[start, end)` step range of a split segment.
    pub fn segment(&self, split: Split) -> (usize, usize) {
        match split {
            Split::Train => (0, self.train_end),
            Split::Val => (self.train_end, self.val_end),
            Split::Test => (self.val_end, self.data.n_steps()),
        }
    }

    /// Valid window start indices for a split. A window occupies
    /// `[start, start + t_h + horizon)` and must lie entirely in the segment.
    pub fn window_starts(&self, split: Split) -> Vec<usize> {
        let (lo, hi) = self.segment(split);
        let span = self.t_h + self.horizon;
        if hi - lo < span {
            return Vec::new();
        }
        (lo..=hi - span).collect()
    }

    /// Materialises the window starting at `start`.
    pub fn window(&self, start: usize) -> Window {
        let n = self.data.n_nodes();
        let mut x = Tensor::zeros(&[self.t_h, n]);
        for t in 0..self.t_h {
            for i in 0..n {
                x.set(t, i, self.scaler.transform(self.data.get(start + t, i)));
            }
        }
        let mut y = Tensor::zeros(&[self.horizon, n]);
        for t in 0..self.horizon {
            for i in 0..n {
                y.set(t, i, self.data.get(start + self.t_h + t, i));
            }
        }
        let cov = (self.data.n_covariates() > 0).then(|| {
            let c = self.data.n_covariates();
            let mut m = Tensor::zeros(&[self.horizon, c]);
            for t in 0..self.horizon {
                for k in 0..c {
                    m.set(t, k, self.data.covariate(start + self.t_h + t, k));
                }
            }
            m
        });
        Window { x, y_raw: y, cov, valid: None }
    }

    /// Like [`SplitDataset::window`], but the **history** is read from a
    /// corrupted [`FaultedSeries`](crate::FaultedSeries) while the target stays the clean ground
    /// truth — the evaluation setting for sensor-fault robustness
    /// (DESIGN.md §8). The returned window carries the validity mask of its
    /// history cells.
    pub fn faulted_window(&self, start: usize, fs: &crate::faults::FaultedSeries) -> Window {
        assert_eq!(fs.n_steps(), self.data.n_steps(), "faulted series length mismatch");
        assert_eq!(fs.n_nodes(), self.data.n_nodes(), "faulted series width mismatch");
        let clean = self.window(start);
        let n = self.data.n_nodes();
        let mut x = Tensor::zeros(&[self.t_h, n]);
        let mut valid = Tensor::zeros(&[self.t_h, n]);
        for t in 0..self.t_h {
            for i in 0..n {
                x.set(t, i, self.scaler.transform(fs.get(start + t, i)));
                valid.set(t, i, if fs.is_valid(start + t, i) { 1.0 } else { 0.0 });
            }
        }
        Window { x, y_raw: clean.y_raw, cov: clean.cov, valid: Some(valid) }
    }

    /// The target in normalised units (for loss computation).
    pub fn normalize_target(&self, y_raw: &Tensor) -> Tensor {
        y_raw.map(|v| self.scaler.transform(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{simulate_traffic, SimulationConfig};
    use stuq_graph::generate_road_network;
    use stuq_tensor::StuqRng;

    fn toy_dataset(steps: usize) -> SplitDataset {
        let net = generate_road_network(8, 12, 3);
        let mut rng = StuqRng::new(3);
        let values = simulate_traffic(&net, steps, &SimulationConfig::default(), &mut rng);
        SplitDataset::new(TrafficData::new("toy", values, steps, net), 12, 12)
    }

    #[test]
    fn split_boundaries_are_6_2_2() {
        let ds = toy_dataset(1000);
        assert_eq!(ds.segment(Split::Train), (0, 600));
        assert_eq!(ds.segment(Split::Val), (600, 800));
        assert_eq!(ds.segment(Split::Test), (800, 1000));
    }

    #[test]
    fn windows_do_not_cross_segments() {
        let ds = toy_dataset(500);
        let span = ds.t_h() + ds.horizon();
        for split in [Split::Train, Split::Val, Split::Test] {
            let (lo, hi) = ds.segment(split);
            for s in ds.window_starts(split) {
                assert!(s >= lo && s + span <= hi, "window {s} escapes {split:?}");
            }
        }
    }

    #[test]
    fn window_counts_are_consistent() {
        let ds = toy_dataset(500);
        let span = ds.t_h() + ds.horizon();
        let (lo, hi) = ds.segment(Split::Train);
        assert_eq!(ds.window_starts(Split::Train).len(), hi - lo - span + 1);
    }

    #[test]
    fn scaler_roundtrip() {
        let ds = toy_dataset(400);
        let s = ds.scaler();
        for v in [0.0f32, 10.5, 333.3] {
            assert!((s.inverse(s.transform(v)) - v).abs() < 1e-3);
        }
    }

    #[test]
    fn scaler_normalizes_training_segment() {
        let ds = toy_dataset(1200);
        let (lo, hi) = ds.segment(Split::Train);
        let n = ds.n_nodes();
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for t in lo..hi {
            for i in 0..n {
                sum += ds.scaler().transform(ds.data().get(t, i)) as f64;
                count += 1;
            }
        }
        assert!((sum / count as f64).abs() < 1e-3, "normalised train mean should be ~0");
    }

    #[test]
    fn window_contents_match_source() {
        let ds = toy_dataset(400);
        let w = ds.window(7);
        assert_eq!(w.x.shape(), &[12, 8]);
        assert_eq!(w.y_raw.shape(), &[12, 8]);
        let expected = ds.scaler().transform(ds.data().get(9, 4));
        assert_eq!(w.x.get(2, 4), expected);
        assert_eq!(w.y_raw.get(0, 0), ds.data().get(19, 0));
    }

    #[test]
    fn normalize_target_matches_scaler() {
        let ds = toy_dataset(400);
        let w = ds.window(0);
        let yn = ds.normalize_target(&w.y_raw);
        assert!((yn.get(0, 0) - ds.scaler().transform(w.y_raw.get(0, 0))).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn rejects_short_series() {
        let net = generate_road_network(4, 5, 1);
        let data = TrafficData::new("tiny", vec![1.0; 40 * 4], 40, net);
        let _ = SplitDataset::new(data, 12, 12);
    }
}
