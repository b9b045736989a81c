//! The uncertainty-quantification method zoo of Table II.
//!
//! Every method shares the same AGCRN base architecture (the paper's "fair
//! comparison" setup, §V-C2) and differs only in head, dropout regime,
//! training loss and post-processing:
//!
//! | method | head | dropout | loss | post-processing |
//! |---|---|---|---|---|
//! | Point | point | off | MAE | — |
//! | Quantile | 3-quantile | off | pinball | — |
//! | MVE | Gaussian | off | Eq. 9 | — |
//! | MCDO | point | on | MAE | MC sampling |
//! | Combined | Gaussian | on | Eq. 14 | MC sampling |
//! | TS | Gaussian | off | Eq. 9 | temperature |
//! | FGE | point | off | MAE | snapshot ensemble |
//! | Conformal | Gaussian | off | Eq. 9 | locally weighted CP |
//! | CFRNN | point | off | MAE | per-horizon CP |
//! | DeepSTUQ/S | Gaussian | on | Eq. 14 | AWA + T, 1 sample |
//! | DeepSTUQ | Gaussian | on | Eq. 14 | AWA + T, MC sampling |
//!
//! The eleven arms post-process six base fits ([`Method::base`], trained by
//! [`BaseFit`]), so [`TrainedMethod::from_base`] lets arms share one fit.

use crate::calibrate::calibrate_on_validation;
use crate::config::{AwaConfig, CalibConfig, TrainConfig};
use crate::conformal::{Cfrnn, LocallyWeightedConformal};
use crate::eval::{evaluate, EvalResult, RawForecast};
use crate::mc::{ensemble_forecast, mc_forecast};
use crate::pipeline::{DeepStuq, DeepStuqConfig};
use crate::trainer::{train, train_epoch, LossKind};
use stuq_models::{Agcrn, AgcrnConfig, Forecaster, HeadKind};
use stuq_nn::opt::Adam;
use stuq_nn::sched::CosineSchedule;
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::{Scaler, Split, SplitDataset};

/// The eleven methods compared in Tables III–IV.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Deterministic point prediction (the AGCRN baseline).
    Point,
    /// Distribution-free quantile regression.
    Quantile,
    /// Mean–variance estimation (aleatoric only).
    Mve,
    /// Monte-Carlo dropout (epistemic only).
    Mcdo,
    /// MC dropout + heteroscedastic head (Kendall & Gal).
    Combined,
    /// Temperature scaling on top of MVE.
    Ts,
    /// Fast Geometric Ensembling (epistemic only).
    Fge,
    /// Locally weighted conformal prediction on top of MVE.
    Conformal,
    /// Conformal forecasting RNN (per-horizon, Bonferroni).
    Cfrnn,
    /// DeepSTUQ with a single deterministic pass.
    DeepStuqS,
    /// Full DeepSTUQ (MC sampling).
    DeepStuq,
}

impl Method {
    /// All methods in the paper's Table IV column order.
    pub fn all() -> [Method; 11] {
        [
            Method::Point,
            Method::Quantile,
            Method::Mve,
            Method::Mcdo,
            Method::Combined,
            Method::Ts,
            Method::Fge,
            Method::Conformal,
            Method::Cfrnn,
            Method::DeepStuqS,
            Method::DeepStuq,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Point => "Point",
            Method::Quantile => "Quantile",
            Method::Mve => "MVE",
            Method::Mcdo => "MCDO",
            Method::Combined => "Combined",
            Method::Ts => "TS",
            Method::Fge => "FGE",
            Method::Conformal => "Conformal",
            Method::Cfrnn => "CFRNN",
            Method::DeepStuqS => "DeepSTUQ/S",
            Method::DeepStuq => "DeepSTUQ",
        }
    }

    /// Paradigm label (Table II).
    pub fn paradigm(&self) -> &'static str {
        match self {
            Method::Point => "deterministic",
            Method::Quantile | Method::Cfrnn => "distribution-free",
            Method::Mve | Method::Ts | Method::Conformal => "frequentist",
            Method::Mcdo | Method::Combined => "Bayesian",
            Method::Fge => "ensembling",
            Method::DeepStuqS | Method::DeepStuq => "Bayesian + ensembling",
        }
    }

    /// Uncertainty type label (Table II).
    pub fn uncertainty_type(&self) -> &'static str {
        match self {
            Method::Point => "no",
            Method::Quantile | Method::Mve | Method::Ts | Method::Conformal | Method::Cfrnn => {
                "aleatoric"
            }
            Method::Mcdo | Method::Fge => "epistemic",
            Method::Combined | Method::DeepStuqS | Method::DeepStuq => "aleatoric + epistemic",
        }
    }

    /// The base fit this arm post-processes: itself for the six bases,
    /// Point for FGE and CFRNN, MVE for TS and Conformal, DeepSTUQ for
    /// DeepSTUQ/S.
    pub fn base(self) -> Method {
        match self {
            Method::Fge | Method::Cfrnn => Method::Point,
            Method::Ts | Method::Conformal => Method::Mve,
            Method::DeepStuqS => Method::DeepStuq,
            m => m,
        }
    }

    fn head(&self) -> HeadKind {
        match self {
            Method::Point | Method::Mcdo | Method::Fge | Method::Cfrnn => HeadKind::Point,
            Method::Quantile => HeadKind::Quantile,
            _ => HeadKind::Gaussian,
        }
    }

    fn uses_dropout(&self) -> bool {
        matches!(self, Method::Mcdo | Method::Combined | Method::DeepStuqS | Method::DeepStuq)
    }

    fn loss(&self, lambda: f32) -> LossKind {
        match self.head() {
            HeadKind::Point => LossKind::Mae,
            HeadKind::Quantile => LossKind::Pinball3,
            HeadKind::Gaussian => LossKind::Combined { lambda },
        }
    }
}

/// Shared experiment configuration for the method zoo.
#[derive(Clone, Debug)]
pub struct MethodConfig {
    /// Pre-training stage.
    pub train: TrainConfig,
    /// AWA stage (DeepSTUQ only).
    pub awa: AwaConfig,
    /// Calibration stage (TS and DeepSTUQ).
    pub calib: CalibConfig,
    /// MC samples at test time (paper: 10).
    pub mc_samples: usize,
    /// FGE snapshots (paper: 10), one per cosine cycle-epoch.
    pub fge_snapshots: usize,
    /// Base-model hidden width.
    pub hidden: usize,
    /// Base-model embedding dimension.
    pub embed_dim: usize,
    /// Base-model recurrent layers.
    pub n_layers: usize,
    /// Encoder (graph-conv) dropout for dropout methods.
    pub encoder_dropout: f32,
    /// Decoder dropout for dropout methods.
    pub decoder_dropout: f32,
    /// Stride over validation windows for conformal/CFRNN fitting.
    pub val_stride: usize,
}

impl MethodConfig {
    /// Paper-faithful settings at full scale: the stages, capacity and
    /// dropout rates of [`DeepStuqConfig::paper`].
    pub fn paper(n_nodes: usize) -> Self {
        // The horizon shapes only the head, which `base_config` sets per dataset.
        let p = DeepStuqConfig::paper(n_nodes, 1);
        Self {
            train: p.train,
            awa: p.awa.unwrap_or_default(),
            calib: p.calib.unwrap_or_default(),
            mc_samples: p.mc_samples,
            fge_snapshots: 10,
            hidden: p.base.hidden,
            embed_dim: p.base.embed_dim,
            n_layers: p.base.n_layers,
            encoder_dropout: p.base.encoder_dropout,
            decoder_dropout: p.base.decoder_dropout,
            val_stride: 1,
        }
    }

    /// Scaled-down settings for the experiment harness.
    pub fn fast(n_nodes: usize, epochs: usize, batch: usize) -> Self {
        Self {
            train: TrainConfig::scaled(epochs, batch),
            awa: AwaConfig::scaled(((epochs / 2).max(1) * 2).min(6), batch),
            calib: CalibConfig { mc_samples: 5, max_iters: 300, stride: 5 },
            mc_samples: 5,
            fge_snapshots: 4,
            hidden: 16,
            embed_dim: 6.min(n_nodes / 2).max(2),
            n_layers: 1,
            encoder_dropout: 0.05,
            decoder_dropout: 0.15,
            val_stride: 5,
        }
    }

    /// The DeepSTUQ pipeline these settings describe: every stage on, the
    /// DeepSTUQ base model. The only place a harness config becomes a
    /// [`DeepStuqConfig`].
    pub fn deepstuq(&self, n_nodes: usize, horizon: usize) -> DeepStuqConfig {
        DeepStuqConfig {
            base: self.base_config(Method::DeepStuq, n_nodes, horizon),
            train: self.train.clone(),
            awa: Some(self.awa.clone()),
            calib: Some(self.calib),
            mc_samples: self.mc_samples,
        }
    }

    fn base_config(&self, method: Method, n_nodes: usize, horizon: usize) -> AgcrnConfig {
        let (enc, dec) = if method.uses_dropout() {
            (self.encoder_dropout, self.decoder_dropout)
        } else {
            (0.0, 0.0)
        };
        AgcrnConfig::new(n_nodes, horizon)
            .with_capacity(self.hidden, self.embed_dim, self.n_layers)
            .with_dropout(enc, dec)
            .with_head(method.head())
    }
}

/// One trained base model (a value of [`Method::base`]) and the state every
/// arm on it starts from.
#[derive(Clone, Debug)]
pub struct BaseFit {
    base: Method,
    /// The trained model.
    pub model: Agcrn,
    /// The pipeline's calibrated temperature for DeepSTUQ, 1 otherwise.
    pub temperature: f32,
    /// The RNG state after training, which post-processing continues.
    pub rng: StuqRng,
}

impl BaseFit {
    /// Trains `base` on the dataset's training split: the pipeline for
    /// DeepSTUQ, pre-training with the base's loss for the other five.
    pub fn train(base: Method, ds: &SplitDataset, cfg: &MethodConfig, seed: u64) -> Self {
        assert_eq!(base, base.base(), "{} is not a base fit", base.name());
        let mut rng = StuqRng::new(seed);
        if base == Method::DeepStuq {
            let pipeline = DeepStuq::train(ds, cfg.deepstuq(ds.n_nodes(), ds.horizon()), seed);
            // `fit` keeps its RNG; test-time passes draw from a fork of the seed.
            let (model, temperature) = (pipeline.model().clone(), pipeline.temperature());
            return Self { base, model, temperature, rng: rng.fork(1) };
        }
        let mut model = Agcrn::new(cfg.base_config(base, ds.n_nodes(), ds.horizon()), &mut rng);
        train(&mut model, ds, &cfg.train, base.loss(cfg.train.lambda), &mut rng)
            .expect("baseline pre-training failed");
        Self { base, model, temperature: 1.0, rng }
    }
}

/// A trained instance of one method, ready for evaluation.
pub struct TrainedMethod {
    method: Method,
    cfg: MethodConfig,
    model: Agcrn,
    temperature: f32,
    conformal: Option<LocallyWeightedConformal>,
    cfrnn: Option<Cfrnn>,
    snapshots: Option<Vec<Vec<Tensor>>>,
    rng: StuqRng,
}

impl TrainedMethod {
    /// Trains `method` on the dataset's training split (plus whichever
    /// validation-split post-processing the method requires).
    pub fn train(method: Method, ds: &SplitDataset, cfg: MethodConfig, seed: u64) -> Self {
        let base = BaseFit::train(method.base(), ds, &cfg, seed);
        Self::from_base(method, &base, ds, cfg)
    }

    /// `method` from a clone of its base fit's model and RNG state plus the
    /// method's own post-processing: [`TrainedMethod::train`] with the seed
    /// and config `base` was trained with.
    pub fn from_base(method: Method, base: &BaseFit, ds: &SplitDataset, cfg: MethodConfig) -> Self {
        assert_eq!(base.base, method.base(), "{} does not start from this base", method.name());
        let (mut model, mut temperature, mut rng) =
            (base.model.clone(), base.temperature, base.rng.clone());
        let (mut conformal, mut cfrnn, mut snapshots) = (None, None, None);
        match method {
            Method::Ts => {
                // TS calibrates the *deterministic* MVE variance.
                let c = CalibConfig { mc_samples: 1, ..cfg.calib };
                temperature =
                    calibrate_on_validation(&model, ds, &c, &mut rng).expect("calibration failed");
            }
            Method::Conformal => {
                conformal = Some(fit_conformal(&model, ds, cfg.val_stride, &mut rng));
            }
            Method::Cfrnn => {
                cfrnn = Some(fit_cfrnn(&model, ds, cfg.val_stride, &mut rng));
            }
            Method::Fge => {
                let kind = method.loss(cfg.train.lambda);
                snapshots = Some(fge_snapshots(&mut model, ds, &cfg, kind, &mut rng));
            }
            _ => {}
        }

        Self { method, cfg, model, temperature, conformal, cfrnn, snapshots, rng }
    }

    /// The method this instance implements.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Fitted temperature (1.0 unless the method calibrates).
    pub fn temperature(&self) -> f32 {
        self.temperature
    }

    /// Raw-scale forecast for one normalised window: the method's passes
    /// through [`crate::GaussianForecast::to_raw`] at its temperature (1
    /// unless it calibrates). The quantile head skips the Eq. 19 sums.
    pub fn forecast(&mut self, x: &Tensor, scaler: &Scaler) -> RawForecast {
        let n = match self.method {
            Method::Quantile => return self.quantile_forecast(x, scaler),
            Method::Mcdo | Method::Combined | Method::DeepStuq => self.cfg.mc_samples,
            // DeepSTUQ/S is DeepSTUQ's single deterministic pass.
            _ => 1,
        };
        let f = match &self.snapshots {
            Some(snaps) => ensemble_forecast(&mut self.model, snaps, x, &mut self.rng),
            None => mc_forecast(&self.model, x, n, &mut self.rng),
        }
        .to_raw(scaler, self.temperature);
        let sigma = match self.method {
            Method::Point | Method::Cfrnn => None,
            Method::Mve | Method::Ts | Method::Conformal => Some(f.sigma_aleatoric),
            Method::Fge => Some(f.sigma_epistemic),
            // The MC arms: MCDO, Combined, DeepSTUQ/S and DeepSTUQ.
            _ => Some(f.sigma_total),
        };
        let mu = f.mu;
        let bounds = match (&self.conformal, &self.cfrnn, &sigma) {
            (Some(cp), _, Some(sigma)) => Some(intervals(&mu, |i, h| {
                cp.interval(mu.get(i, h) as f64, sigma.get(i, h) as f64)
            })),
            (_, Some(cf), _) => Some(intervals(&mu, |i, h| cf.interval(h, mu.get(i, h) as f64))),
            _ => None,
        };
        RawForecast { mu, sigma, bounds }
    }

    fn quantile_forecast(&mut self, x: &Tensor, scaler: &Scaler) -> RawForecast {
        use stuq_models::Prediction;
        use stuq_nn::layers::FwdCtx;
        let mut tape = stuq_tensor::Tape::new();
        let mut ctx = FwdCtx::eval(&mut self.rng);
        let pred = self.model.forward(&mut tape, x, &mut ctx);
        let Prediction::Quantiles { lo, mid, hi } = pred else {
            panic!("quantile method requires a quantile head")
        };
        let inv = |t: &Tensor| t.map(|v| scaler.inverse(v));
        let lo_r = inv(tape.value(lo));
        let hi_r = inv(tape.value(hi));
        // Quantile crossing can occur; repair by sorting the pair.
        let lo_fixed = lo_r.zip(&hi_r, f32::min);
        let hi_fixed = lo_r.zip(&hi_r, f32::max);
        RawForecast { mu: inv(tape.value(mid)), sigma: None, bounds: Some((lo_fixed, hi_fixed)) }
    }

    /// Evaluates the trained method over a split.
    pub fn evaluate(&mut self, ds: &SplitDataset, split: Split, stride: usize) -> EvalResult {
        let scaler = *ds.scaler();
        // Borrow-splitting: evaluation calls `self.forecast` per window.
        let this = self;
        evaluate(ds, split, stride, move |x, _| this.forecast(x, &scaler))
    }
}

/// Per-cell `(lower, upper)` bounds over `mu`'s `[N, τ]` grid.
fn intervals(mu: &Tensor, interval: impl Fn(usize, usize) -> (f64, f64)) -> (Tensor, Tensor) {
    let (mut lo, mut hi) = (mu.clone(), mu.clone());
    for i in 0..mu.rows() {
        for h in 0..mu.cols() {
            let (l, u) = interval(i, h);
            lo.set(i, h, l as f32);
            hi.set(i, h, u as f32);
        }
    }
    (lo, hi)
}

fn fit_conformal(
    model: &Agcrn,
    ds: &SplitDataset,
    stride: usize,
    rng: &mut StuqRng,
) -> LocallyWeightedConformal {
    let mut triples = Vec::new();
    for &s in ds.window_starts(Split::Val).iter().step_by(stride.max(1)) {
        let w = ds.window(s);
        let f = mc_forecast(model, &w.x, 1, rng).to_raw(ds.scaler(), 1.0);
        let (mu, sigma) = (f.mu, f.sigma_aleatoric);
        let (n, tau) = (mu.rows(), mu.cols());
        for i in 0..n {
            for h in 0..tau {
                triples.push((
                    w.y_raw.get(h, i) as f64,
                    mu.get(i, h) as f64,
                    sigma.get(i, h) as f64,
                ));
            }
        }
    }
    LocallyWeightedConformal::fit(triples, 0.05)
}

fn fit_cfrnn(model: &Agcrn, ds: &SplitDataset, stride: usize, rng: &mut StuqRng) -> Cfrnn {
    let mut residuals = Vec::new();
    for &s in ds.window_starts(Split::Val).iter().step_by(stride.max(1)) {
        let w = ds.window(s);
        let mu = mc_forecast(model, &w.x, 1, rng).to_raw(ds.scaler(), 1.0).mu;
        let (n, tau) = (mu.rows(), mu.cols());
        for i in 0..n {
            for h in 0..tau {
                residuals.push((h, (w.y_raw.get(h, i) - mu.get(i, h)) as f64));
            }
        }
    }
    Cfrnn::fit(residuals, ds.horizon(), 0.05)
}

/// FGE: one cosine cycle per snapshot epoch, snapshotting at each minimum.
fn fge_snapshots(
    model: &mut Agcrn,
    ds: &SplitDataset,
    cfg: &MethodConfig,
    kind: LossKind,
    rng: &mut StuqRng,
) -> Vec<Vec<Tensor>> {
    let n_iters = ds.window_starts(Split::Train).len().div_ceil(cfg.train.batch_size).max(1);
    let mut opt = Adam::new(cfg.awa.lr_max, cfg.train.weight_decay);
    let mut snaps = Vec::with_capacity(cfg.fge_snapshots);
    for _ in 0..cfg.fge_snapshots {
        let sched = CosineSchedule::new(cfg.awa.lr_max, cfg.awa.lr_min, n_iters);
        let mut hook = |it: usize| sched.lr_at(it);
        train_epoch(
            model,
            ds,
            cfg.train.batch_size,
            kind,
            &mut opt,
            cfg.train.grad_clip,
            rng,
            Some(&mut hook),
        )
        .expect("FGE snapshot epoch failed");
        snaps.push(model.params().snapshot());
    }
    snaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_traffic::Preset;

    fn tiny_ds(seed: u64) -> SplitDataset {
        Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(seed)
    }

    #[test]
    fn table2_metadata_is_complete() {
        for m in Method::all() {
            assert!(!m.name().is_empty());
            assert!(!m.paradigm().is_empty());
            assert!(!m.uncertainty_type().is_empty());
        }
        assert_eq!(Method::DeepStuq.paradigm(), "Bayesian + ensembling");
        assert_eq!(Method::Mcdo.uncertainty_type(), "epistemic");
    }

    #[test]
    fn point_method_has_no_uq_metrics() {
        let ds = tiny_ds(41);
        let cfg = MethodConfig::fast(ds.n_nodes(), 1, 8);
        let mut tm = TrainedMethod::train(Method::Point, &ds, cfg, 41);
        let r = tm.evaluate(&ds, Split::Test, 9);
        assert!(r.uq.is_none());
        assert!(r.point.mae.is_finite() && r.point.mae > 0.0);
    }

    #[test]
    fn mve_and_ts_produce_gaussian_uq() {
        let ds = tiny_ds(42);
        let cfg = MethodConfig::fast(ds.n_nodes(), 1, 8);
        let mut mve = TrainedMethod::train(Method::Mve, &ds, cfg.clone(), 42);
        let r = mve.evaluate(&ds, Split::Test, 9);
        let uq = r.uq.expect("MVE has UQ");
        assert!(uq.mnll.is_finite());
        assert!((0.0..=100.0).contains(&uq.picp));
        assert!(uq.mpiw > 0.0);

        let mut ts = TrainedMethod::train(Method::Ts, &ds, cfg, 42);
        assert!(ts.temperature() > 0.0 && (ts.temperature() - 1.0).abs() > 1e-6);
        let r2 = ts.evaluate(&ds, Split::Test, 9);
        assert!(r2.uq.unwrap().mnll.is_finite());
    }

    #[test]
    fn mcdo_underestimates_variance_relative_to_mve() {
        // The paper's headline qualitative finding: epistemic-only methods
        // (MCDO) produce far narrower intervals than aleatoric-aware ones.
        let ds = tiny_ds(43);
        let cfg = MethodConfig::fast(ds.n_nodes(), 1, 8);
        let mut mcdo = TrainedMethod::train(Method::Mcdo, &ds, cfg.clone(), 43);
        let mut mve = TrainedMethod::train(Method::Mve, &ds, cfg, 43);
        let r_mcdo = mcdo.evaluate(&ds, Split::Test, 9);
        let r_mve = mve.evaluate(&ds, Split::Test, 9);
        let (u1, u2) = (r_mcdo.uq.unwrap(), r_mve.uq.unwrap());
        assert!(
            u1.mpiw < u2.mpiw,
            "MCDO width {:.2} should be below MVE width {:.2}",
            u1.mpiw,
            u2.mpiw
        );
        assert!(u1.picp < u2.picp, "MCDO must under-cover relative to MVE");
    }

    #[test]
    fn conformal_reaches_nominal_coverage() {
        let ds = tiny_ds(44);
        let mut cfg = MethodConfig::fast(ds.n_nodes(), 1, 8);
        cfg.val_stride = 2;
        let mut cp = TrainedMethod::train(Method::Conformal, &ds, cfg, 44);
        let r = cp.evaluate(&ds, Split::Test, 5);
        let uq = r.uq.unwrap();
        // Finite-sample guarantee is on calibration-exchangeable data; allow
        // slack for distribution drift across splits.
        assert!(uq.picp > 88.0, "conformal PICP {:.1} too low", uq.picp);
    }

    #[test]
    fn cfrnn_bounds_and_no_mnll() {
        let ds = tiny_ds(45);
        let mut cfg = MethodConfig::fast(ds.n_nodes(), 1, 8);
        cfg.val_stride = 2;
        let mut cf = TrainedMethod::train(Method::Cfrnn, &ds, cfg, 45);
        let r = cf.evaluate(&ds, Split::Test, 5);
        let uq = r.uq.unwrap();
        assert!(uq.mnll.is_nan(), "CFRNN is distribution-free: MNLL undefined");
        assert!(uq.picp > 85.0, "Bonferroni CFRNN should over-cover, got {:.1}", uq.picp);
    }

    #[test]
    fn fge_builds_requested_snapshot_count() {
        let ds = tiny_ds(46);
        let mut cfg = MethodConfig::fast(ds.n_nodes(), 1, 8);
        cfg.fge_snapshots = 3;
        let mut fge = TrainedMethod::train(Method::Fge, &ds, cfg, 46);
        assert_eq!(fge.snapshots.as_ref().unwrap().len(), 3);
        let r = fge.evaluate(&ds, Split::Test, 9);
        assert!(r.uq.unwrap().mpiw > 0.0);
    }

    #[test]
    fn deepstuq_full_beats_its_own_interval_sanity() {
        let ds = tiny_ds(47);
        let cfg = MethodConfig::fast(ds.n_nodes(), 1, 8);
        let mut m = TrainedMethod::train(Method::DeepStuq, &ds, cfg, 47);
        assert!(m.temperature() > 0.0);
        let r = m.evaluate(&ds, Split::Test, 9);
        let uq = r.uq.unwrap();
        assert!(uq.mnll.is_finite());
        assert!(uq.picp > 50.0, "calibrated DeepSTUQ should cover most points");
    }

    /// Every arm of the zoo is pinned to its bits: a change to how a method
    /// trains or forecasts that moves one parameter, temperature or metric
    /// bit fails here. Each row digests the method's trained parameters and
    /// temperature, then its test-split MAE/RMSE/MAPE/MNLL/PICP/MPIW (Point
    /// has no UQ three). `PREDICT` digests the six tensors of
    /// `DeepStuq::predict` on the DeepSTUQ arm's model. The arms are built
    /// twice, each alone and all eleven from six shared base fits, and both
    /// builds must give the pinned bits.
    #[test]
    fn deepstuq_arms_are_pinned() {
        const PINNED: [(u64, u64); 11] = [
            (0x282e7c3fd35cdb9c, 0x523a6a9d7796e12f), // Point
            (0x9dac21e1d1da05d8, 0x3a7ba2ca49a20549), // Quantile
            (0x1f4042702a1e4515, 0x02226ada174025c6), // MVE
            (0xceaf1af2e4bcec84, 0xe0de17007e7b9b22), // MCDO
            (0x87e83492689217b0, 0x372498c9fa912770), // Combined
            (0x098b49e3799a4057, 0xf1427a34c86fb0ed), // TS
            (0x0cb6267d5020390b, 0x13e31162d617d18b), // FGE
            (0x1f4042702a1e4515, 0xd512c023a0baad62), // Conformal
            (0x282e7c3fd35cdb9c, 0x020787a4328980ff), // CFRNN
            (0x9c77da6eaf7de169, 0x42de8583772f56e0), // DeepSTUQ/S
            (0x9c77da6eaf7de169, 0x148b6971db2346c4), // DeepSTUQ
        ];
        const PREDICT: u64 = 0xb9e5f585cd91ec36;
        let ds = tiny_ds(47);
        let cfg = MethodConfig::fast(ds.n_nodes(), 1, 8);
        let push = |bytes: &mut Vec<u8>, t: &Tensor| {
            for x in t.data() {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        };
        let mut alone = |method: Method| TrainedMethod::train(method, &ds, cfg.clone(), 47);
        let mut bases: Vec<BaseFit> = Vec::new();
        let mut shared = |method: Method| {
            let i = match bases.iter().position(|b| b.base == method.base()) {
                Some(i) => i,
                None => {
                    bases.push(BaseFit::train(method.base(), &ds, &cfg, 47));
                    bases.len() - 1
                }
            };
            TrainedMethod::from_base(method, &bases[i], &ds, cfg.clone())
        };
        let builds: [&mut dyn FnMut(Method) -> TrainedMethod; 2] = [&mut alone, &mut shared];
        for (build, make) in ["alone", "shared"].into_iter().zip(builds) {
            let mut got = Vec::new();
            let mut predict = 0;
            for method in Method::all() {
                let mut tm = make(method);
                let mut params = Vec::new();
                for t in tm.model.params().snapshot() {
                    push(&mut params, &t);
                }
                params.extend_from_slice(&tm.temperature().to_bits().to_le_bytes());
                let r = tm.evaluate(&ds, Split::Test, 9);
                let mut metrics = vec![r.point.mae, r.point.rmse, r.point.mape];
                if let Some(uq) = r.uq {
                    metrics.extend([uq.mnll, uq.picp, uq.mpiw]);
                }
                let metrics: Vec<u8> =
                    metrics.iter().flat_map(|m| m.to_bits().to_le_bytes()).collect();
                got.push((stuq_artifact::fnv1a64(&params), stuq_artifact::fnv1a64(&metrics)));
                if method == Method::DeepStuq {
                    let model =
                        DeepStuq::from_parts(tm.model.clone(), tm.temperature(), cfg.mc_samples);
                    let w = ds.window(ds.window_starts(Split::Test)[0]);
                    let f = model.predict(&w.x, ds.scaler(), &mut StuqRng::new(47));
                    let mut bytes = Vec::new();
                    for t in [
                        &f.mu,
                        &f.sigma_total,
                        &f.sigma_aleatoric,
                        &f.sigma_epistemic,
                        &f.lower,
                        &f.upper,
                    ] {
                        push(&mut bytes, t);
                    }
                    predict = stuq_artifact::fnv1a64(&bytes);
                }
            }
            let rows: Vec<String> =
                got.iter().map(|(p, m)| format!("(0x{p:016x}, 0x{m:016x})")).collect();
            assert_eq!(got, PINNED, "{build}: method digests moved: [{}]", rows.join(", "));
            assert_eq!(predict, PREDICT, "{build}: predict digest moved: 0x{predict:016x}");
        }
        assert_eq!(bases.len(), 6, "the eleven arms share six base fits");
    }
}
