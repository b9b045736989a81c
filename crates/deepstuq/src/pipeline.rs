//! The user-facing DeepSTUQ pipeline (paper §IV-D).
//!
//! [`DeepStuq::fit`] runs the three stages end-to-end on a [`SplitDataset`]:
//! pre-training with the combined loss, AWA re-training, and temperature
//! calibration on the validation split. It threads the divergence guard of
//! DESIGN.md §8 through every stage, can write crash-safe checkpoints at
//! epoch boundaries, and can pause after an epoch budget and later resume
//! **bit-for-bit** — an interrupted-then-resumed run produces exactly the
//! parameters and temperature of an uninterrupted one. [`DeepStuq::train`]
//! is the panicking convenience wrapper. [`DeepStuq::predict`] performs
//! MC-dropout inference and returns the raw-scale [`Forecast`] (full
//! uncertainty decomposition and 95 % interval) that
//! [`crate::GaussianForecast::to_raw`] builds at the model's temperature.

use crate::awa::AwaState;
use crate::calibrate::calibrate_on_validation;
use crate::checkpoint::{load_checkpoint, save_checkpoint, StageSnapshot};
use crate::config::{AwaConfig, CalibConfig, TrainConfig};
use crate::error::{Stage, TrainError};
use crate::guard::{GuardConfig, GuardState};
use crate::mc::mc_forecast_with_cov;
pub use crate::mc::Forecast;
use crate::trainer::{train_epoch_guarded, LossKind};
use std::path::PathBuf;
use stuq_models::{Agcrn, AgcrnConfig, Forecaster, HeadKind};
use stuq_nn::opt::{Adam, Optimizer, OptimizerState};
use stuq_nn::serialize::load_into;
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::{Scaler, SplitDataset};

/// File name used for training checkpoints inside `checkpoint_dir`.
pub const CHECKPOINT_FILE: &str = "train.ckpt";

/// Full pipeline configuration.
#[derive(Clone, Debug)]
pub struct DeepStuqConfig {
    /// Base-model architecture.
    pub base: AgcrnConfig,
    /// Stage 1: pre-training.
    pub train: TrainConfig,
    /// Stage 2: AWA re-training. `None` skips the stage (the "No AWA"
    /// ablation of Table V).
    pub awa: Option<AwaConfig>,
    /// Stage 3: calibration. `None` skips it (the "No Calibration" ablation
    /// of Table VI).
    pub calib: Option<CalibConfig>,
    /// Monte-Carlo samples at inference (paper: 10).
    pub mc_samples: usize,
}

impl DeepStuqConfig {
    /// Paper-faithful settings (§V-B) at full scale.
    pub fn paper(n_nodes: usize, horizon: usize) -> Self {
        let small_graph = n_nodes < 200;
        let enc_dropout = if small_graph { 0.05 } else { 0.1 };
        Self {
            base: AgcrnConfig::new(n_nodes, horizon).with_dropout(enc_dropout, 0.2),
            train: TrainConfig::default(),
            awa: Some(AwaConfig::default()),
            calib: Some(CalibConfig::default()),
            mc_samples: 10,
        }
    }

    /// A heavily scaled-down configuration for demos, doctests and CI.
    pub fn fast_demo(n_nodes: usize, horizon: usize) -> Self {
        Self {
            base: AgcrnConfig::new(n_nodes, horizon)
                .with_capacity(12, 4, 1)
                .with_dropout(0.05, 0.1),
            train: TrainConfig::scaled(2, 8),
            awa: Some(AwaConfig::scaled(2, 8)),
            calib: Some(CalibConfig { mc_samples: 3, max_iters: 200, stride: 11 }),
            mc_samples: 3,
        }
    }

    /// Total training epochs across the pre-train and AWA stages.
    pub fn total_epochs(&self) -> usize {
        self.train.epochs + self.awa.as_ref().map_or(0, |a| a.epochs)
    }
}

/// Fault-tolerance knobs for [`DeepStuq::fit`] (DESIGN.md §8).
#[derive(Clone, Debug)]
pub struct FitOptions {
    /// Divergence-guard policy shared by all stages.
    pub guard: GuardConfig,
    /// Directory for crash-safe checkpoints; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in epochs (a checkpoint is also written at every
    /// stage boundary and on pause).
    pub checkpoint_every: usize,
    /// Resume from `checkpoint_dir/train.ckpt` instead of starting fresh.
    pub resume: bool,
    /// Pause (with a checkpoint) after at most this many training epochs in
    /// this invocation. Requires `checkpoint_dir`.
    pub epoch_budget: Option<usize>,
}

impl Default for FitOptions {
    fn default() -> Self {
        Self {
            guard: GuardConfig::default(),
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            epoch_budget: None,
        }
    }
}

/// Result of [`DeepStuq::fit`]: either a trained model or a paused run whose
/// checkpoint can be resumed later.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Complete carries the model by design
pub enum FitOutcome {
    /// All stages finished; `guard` reports the trips and rewinds the run
    /// survived, totalled over pre-training and AWA.
    Complete { model: DeepStuq, guard: GuardState },
    /// The epoch budget ran out; state was checkpointed for `--resume`.
    Paused { stage: Stage, epochs_done: usize, guard: GuardState },
}

impl FitOutcome {
    /// Unwraps the trained model, panicking on a paused run.
    pub fn expect_complete(self) -> DeepStuq {
        match self {
            FitOutcome::Complete { model, .. } => model,
            FitOutcome::Paused { stage, epochs_done, .. } => {
                panic!("training paused in {stage} after {epochs_done} epochs")
            }
        }
    }
}

/// The optimiser state of one epoch-driven stage: Adam for pre-training
/// (Eq. 14), the AWA optimiser and running average for re-training
/// (Algorithm 1).
enum StageOpt<'a> {
    Pretrain(Adam),
    Awa(AwaState, &'a AwaConfig),
}

impl<'a> StageOpt<'a> {
    /// Fresh state for `stage`'s first epoch.
    fn fresh(stage: Stage, cfg: &'a DeepStuqConfig) -> Result<Self, TrainError> {
        Ok(match (stage, &cfg.awa) {
            (Stage::Awa, Some(awa)) => Self::Awa(AwaState::new(awa, cfg.train.weight_decay)?, awa),
            _ => Self::Pretrain(Adam::new(cfg.train.lr, cfg.train.weight_decay)),
        })
    }

    #[allow(clippy::too_many_arguments)] // mirrors the paper's training-loop knobs
    fn run_epoch(
        &mut self,
        model: &mut Agcrn,
        ds: &SplitDataset,
        train: &TrainConfig,
        kind: LossKind,
        rng: &mut StuqRng,
        guard: &GuardConfig,
        gstate: &mut GuardState,
    ) -> Result<f64, TrainError> {
        match self {
            Self::Pretrain(opt) => train_epoch_guarded(
                model,
                ds,
                train.batch_size,
                kind,
                opt,
                train.grad_clip,
                rng,
                None,
                Stage::Pretrain,
                guard,
                gstate,
            ),
            Self::Awa(st, awa) => st.run_epoch(model, ds, awa, kind, rng, guard, gstate),
        }
    }

    /// The checkpoint's optimiser and averager blocks.
    fn export(&self) -> (OptimizerState, Option<(usize, Vec<Tensor>)>) {
        match self {
            Self::Pretrain(opt) => (opt.export_state(), None),
            Self::Awa(st, _) => {
                let (opt, n_models, avg, _) = st.export();
                (opt, Some((n_models, avg)))
            }
        }
    }
}

/// Opens a stage for telemetry: stamps the recorder context, emits
/// `stage_start`, and returns the span guard (dropping it records the phase
/// timing — also on the early pause/error returns) plus the stage clock.
fn stage_telemetry(stage: Stage) -> (stuq_obs::SpanGuard, std::time::Instant) {
    stuq_obs::set_stage(stage.as_str());
    stuq_obs::emit(stuq_obs::Event::new("stage_start").str("stage", stage.as_str()));
    (stuq_obs::SpanGuard::enter(stage.as_str()), std::time::Instant::now())
}

/// Emits `stage_end` on normal stage completion (paused runs deliberately
/// leave the stage open in the event log).
fn stage_done(stage: Stage, t0: std::time::Instant) {
    stuq_obs::emit(
        stuq_obs::Event::new("stage_end")
            .str("stage", stage.as_str())
            .num("seconds", t0.elapsed().as_secs_f64()),
    );
}

/// Per-epoch telemetry: epoch gauge, wall-clock histogram, `epoch_end` event.
fn record_epoch(epoch: usize, loss: f64, t0: std::time::Instant) {
    if !stuq_obs::summary_enabled() {
        return;
    }
    let seconds = t0.elapsed().as_secs_f64();
    let m = stuq_obs::metrics();
    m.train_epoch.set(epoch as f64);
    m.train_epoch_seconds.record(seconds);
    stuq_obs::emit(stuq_obs::Event::new("epoch_end").num("loss", loss).num("seconds", seconds));
}

/// A trained DeepSTUQ model.
#[derive(Clone, Debug)]
pub struct DeepStuq {
    model: Agcrn,
    temperature: f32,
    mc_samples: usize,
}

impl DeepStuq {
    /// Runs the three training stages with fault tolerance: the divergence
    /// guard wraps every batch, checkpoints are written at epoch boundaries
    /// when `opts.checkpoint_dir` is set, and `opts.resume` continues a
    /// paused or interrupted run bit-for-bit.
    pub fn fit(
        ds: &SplitDataset,
        cfg: DeepStuqConfig,
        seed: u64,
        opts: &FitOptions,
    ) -> Result<FitOutcome, TrainError> {
        if cfg.base.n_nodes != ds.n_nodes() {
            return Err(TrainError::InvalidConfig(format!(
                "config/dataset node mismatch: model {} vs data {}",
                cfg.base.n_nodes,
                ds.n_nodes()
            )));
        }
        if cfg.base.horizon != ds.horizon() {
            return Err(TrainError::InvalidConfig(format!(
                "config/dataset horizon mismatch: model {} vs data {}",
                cfg.base.horizon,
                ds.horizon()
            )));
        }
        if cfg.base.head != HeadKind::Gaussian {
            return Err(TrainError::HeadMismatch {
                requirement: "DeepSTUQ needs the Gaussian head".into(),
            });
        }
        if opts.checkpoint_every == 0 {
            return Err(TrainError::InvalidConfig("checkpoint_every must be at least 1".into()));
        }
        if opts.epoch_budget.is_some() && opts.checkpoint_dir.is_none() {
            return Err(TrainError::InvalidConfig(
                "an epoch budget requires a checkpoint dir to pause into".into(),
            ));
        }
        if opts.resume && opts.checkpoint_dir.is_none() {
            return Err(TrainError::InvalidConfig("resume requires a checkpoint dir".into()));
        }

        let ckpt_path = opts.checkpoint_dir.as_ref().map(|d| d.join(CHECKPOINT_FILE));
        let kind = LossKind::Combined { lambda: cfg.train.lambda };

        let mut rng = StuqRng::new(seed);
        let mut model = Agcrn::new(cfg.base.clone(), &mut rng);
        let mut gstate = GuardState::default();
        // The stage, epoch cursor and optimiser state a resumed run starts from.
        let mut resumed: Option<(Stage, usize, StageOpt)> = None;

        if opts.resume {
            let path = ckpt_path.as_ref().expect("validated above");
            let cp = load_checkpoint(path).map_err(|e| TrainError::Checkpoint(e.to_string()))?;
            cp.validate_arch(&cfg.base).map_err(TrainError::Checkpoint)?;
            // The fresh-init draws above are discarded wholesale: parameters
            // come from the checkpoint and the RNG is restored to the exact
            // stream position at save time.
            load_into(model.params_mut(), &cp.params)
                .map_err(|e| TrainError::Checkpoint(e.to_string()))?;
            rng = StuqRng::from_state(cp.rng);
            gstate = cp.guard;
            stuq_obs::emit(stuq_obs::Event::new("resume").str("path", path.display().to_string()));
            let (epochs, opt) = match (cp.stage, &cfg.awa) {
                (Stage::Pretrain, _) => {
                    let mut opt = Adam::new(cfg.train.lr, cfg.train.weight_decay);
                    opt.import_state(&cp.opt).map_err(TrainError::Checkpoint)?;
                    (cfg.train.epochs, StageOpt::Pretrain(opt))
                }
                (Stage::Awa, Some(awa)) => {
                    let (n_models, avg) = cp.averager.ok_or_else(|| {
                        TrainError::Checkpoint("AWA checkpoint missing averager block".into())
                    })?;
                    let st = AwaState::import(
                        awa,
                        cfg.train.weight_decay,
                        &cp.opt,
                        n_models,
                        avg,
                        cp.epochs_done,
                    )?;
                    (awa.epochs, StageOpt::Awa(st, awa))
                }
                (Stage::Awa, None) => {
                    return Err(TrainError::Checkpoint(
                        "checkpoint is in the AWA stage but the config has no AWA stage".into(),
                    ));
                }
                (Stage::Calibrate, _) => {
                    return Err(TrainError::Checkpoint(
                        "checkpoint stage 'calibrate' is not resumable".into(),
                    ));
                }
            };
            if cp.epochs_done > epochs {
                return Err(TrainError::Checkpoint(format!(
                    "checkpoint cursor {} is beyond the {epochs} configured {} epochs",
                    cp.epochs_done, cp.stage
                )));
            }
            resumed = Some((cp.stage, cp.epochs_done, opt));
        }

        // Stages 1–2: variational pre-training (Eq. 14), then AWA
        // re-training (Algorithm 1), through one epoch loop.
        let budget = opts.epoch_budget.unwrap_or(usize::MAX);
        let mut ran = 0usize;
        let mut first_epoch = 0usize; // run-wide index of the stage's first epoch
        let stages = std::iter::once((Stage::Pretrain, cfg.train.epochs))
            .chain(cfg.awa.as_ref().map(|a| (Stage::Awa, a.epochs)));
        for (stage, epochs) in stages {
            let (stage_span, stage_t0) = stage_telemetry(stage);
            let (mut done, mut opt) = match resumed.take_if(|r| r.0 == stage) {
                Some((_, done, opt)) => (done, opt),
                // A run resumed in AWA has finished pre-training.
                None if resumed.is_some() => (epochs, StageOpt::fresh(stage, &cfg)?),
                None => (0, StageOpt::fresh(stage, &cfg)?),
            };
            while done < epochs {
                stuq_obs::set_epoch((first_epoch + done) as u64);
                let pause = ran >= budget;
                if !pause {
                    let epoch_t0 = std::time::Instant::now();
                    let epoch_span = stuq_obs::SpanGuard::enter("epoch");
                    let loss = opt.run_epoch(
                        &mut model,
                        ds,
                        &cfg.train,
                        kind,
                        &mut rng,
                        &opts.guard,
                        &mut gstate,
                    )?;
                    drop(epoch_span);
                    record_epoch(first_epoch + done, loss, epoch_t0);
                    done += 1;
                    ran += 1;
                }
                // A checkpoint every `checkpoint_every` epochs, at the end
                // of the stage, and on pause.
                if let Some(path) = &ckpt_path {
                    if pause || done.is_multiple_of(opts.checkpoint_every) || done == epochs {
                        let (opt_state, averager) = opt.export();
                        let snap = StageSnapshot {
                            arch: &cfg.base,
                            stage,
                            epochs_done: done,
                            guard: gstate,
                            rng: rng.export_state(),
                            opt: opt_state,
                            averager,
                            params: model.params(),
                        };
                        save_checkpoint(&snap, path)
                            .map_err(|e| TrainError::Checkpoint(e.to_string()))?;
                        stuq_obs::emit(
                            stuq_obs::Event::new("checkpoint")
                                .str("path", path.display().to_string()),
                        );
                    }
                }
                if pause {
                    return Ok(FitOutcome::Paused { stage, epochs_done: done, guard: gstate });
                }
            }
            if let StageOpt::Awa(st, _) = opt {
                st.finish(&mut model);
            }
            drop(stage_span);
            stage_done(stage, stage_t0);
            first_epoch += epochs;
        }

        // Stage 3: temperature calibration on the validation split (Eq. 18).
        let temperature = match &cfg.calib {
            Some(c) => {
                let (cal_span, cal_t0) = stage_telemetry(Stage::Calibrate);
                let t = calibrate_on_validation(&model, ds, c, &mut rng)?;
                drop(cal_span);
                stage_done(Stage::Calibrate, cal_t0);
                t
            }
            None => 1.0,
        };

        Ok(FitOutcome::Complete {
            model: Self { model, temperature, mc_samples: cfg.mc_samples },
            guard: gstate,
        })
    }

    /// Runs the three training stages on `ds` with the experiment `seed`,
    /// panicking on any [`TrainError`] (the original pipeline contract; use
    /// [`DeepStuq::fit`] for typed errors).
    pub fn train(ds: &SplitDataset, cfg: DeepStuqConfig, seed: u64) -> Self {
        match Self::fit(ds, cfg, seed, &FitOptions::default()) {
            Ok(outcome) => outcome.expect_complete(),
            Err(e) => panic!("DeepSTUQ training failed: {e}"),
        }
    }

    /// Wraps an already trained base model: [`crate::load_model`] rebuilds a
    /// saved model through it.
    pub fn from_parts(model: Agcrn, temperature: f32, mc_samples: usize) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        Self { model, temperature, mc_samples }
    }

    /// The fitted temperature `T`.
    pub fn temperature(&self) -> f32 {
        self.temperature
    }

    /// Number of MC samples drawn by [`DeepStuq::predict`].
    pub fn mc_samples(&self) -> usize {
        self.mc_samples
    }

    /// The underlying base model.
    pub fn model(&self) -> &Agcrn {
        &self.model
    }

    /// Mutable base model access, e.g. to perturb parameters in a test.
    pub fn model_mut(&mut self) -> &mut Agcrn {
        &mut self.model
    }

    /// Raw-scale forecast for a dataset [`stuq_traffic::Window`], passing its
    /// exogenous covariates (when present) to a covariate-aware base model.
    pub fn predict_window(
        &self,
        w: &stuq_traffic::Window,
        scaler: &Scaler,
        rng: &mut StuqRng,
    ) -> Forecast {
        self.predict_impl(&w.x, w.cov.as_ref(), scaler, self.mc_samples, rng)
    }

    /// Raw-scale probabilistic forecast for one normalised window `[t_h, N]`.
    pub fn predict(&self, x: &Tensor, scaler: &Scaler, rng: &mut StuqRng) -> Forecast {
        self.predict_with_samples(x, scaler, self.mc_samples, rng)
    }

    /// [`DeepStuq::predict`] with an explicit MC sample count (Fig. 11 sweep;
    /// `1` is the deterministic DeepSTUQ/S mode).
    pub fn predict_with_samples(
        &self,
        x: &Tensor,
        scaler: &Scaler,
        n_samples: usize,
        rng: &mut StuqRng,
    ) -> Forecast {
        self.predict_impl(x, None, scaler, n_samples, rng)
    }

    fn predict_impl(
        &self,
        x: &Tensor,
        cov: Option<&Tensor>,
        scaler: &Scaler,
        n_samples: usize,
        rng: &mut StuqRng,
    ) -> Forecast {
        mc_forecast_with_cov(&self.model, x, cov, n_samples, rng).to_raw(scaler, self.temperature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_traffic::{Preset, Split};

    fn tiny() -> (SplitDataset, DeepStuq) {
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(31);
        let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        let model = DeepStuq::train(&ds, cfg, 31);
        (ds, model)
    }

    #[test]
    fn end_to_end_pipeline_produces_sane_forecasts() {
        let (ds, model) = tiny();
        assert!(model.temperature() > 0.0 && model.temperature().is_finite());
        let starts = ds.window_starts(Split::Test);
        let w = ds.window(starts[starts.len() / 2]);
        let mut rng = StuqRng::new(1);
        let f = model.predict(&w.x, ds.scaler(), &mut rng);
        let (n, tau) = (ds.n_nodes(), ds.horizon());
        assert_eq!(f.mu.shape(), &[n, tau]);
        assert!(f.mu.all_finite());
        assert!(f.sigma_total.min() > 0.0, "total σ must be positive");
        // Interval geometry.
        for i in 0..f.mu.len() {
            assert!(f.lower.data()[i] <= f.mu.data()[i]);
            assert!(f.upper.data()[i] >= f.mu.data()[i]);
        }
        // Decomposition consistency: σ_total² ≈ σ_a² + σ_e².
        for i in 0..f.mu.len() {
            let lhs = (f.sigma_total.data()[i] as f64).powi(2);
            let rhs = (f.sigma_aleatoric.data()[i] as f64).powi(2)
                + (f.sigma_epistemic.data()[i] as f64).powi(2);
            assert!((lhs - rhs).abs() < 1e-2 * lhs.max(1.0), "{lhs} vs {rhs}");
        }
    }

    #[test]
    fn single_sample_mode_is_deterministic() {
        let (ds, model) = tiny();
        let starts = ds.window_starts(Split::Test);
        let w = ds.window(starts[0]);
        let mut r1 = StuqRng::new(5);
        let mut r2 = StuqRng::new(99);
        let f1 = model.predict_with_samples(&w.x, ds.scaler(), 1, &mut r1);
        let f2 = model.predict_with_samples(&w.x, ds.scaler(), 1, &mut r2);
        assert_eq!(f1.mu.data(), f2.mu.data());
        assert_eq!(f1.sigma_epistemic.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "Gaussian head")]
    fn rejects_point_head_config() {
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(1);
        let mut cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        cfg.base = cfg.base.with_head(HeadKind::Point);
        let _ = DeepStuq::train(&ds, cfg, 1);
    }

    #[test]
    fn fit_rejects_budget_without_checkpoint_dir() {
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(2);
        let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        let opts = FitOptions { epoch_budget: Some(1), ..Default::default() };
        let err = DeepStuq::fit(&ds, cfg, 2, &opts).unwrap_err();
        assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn checkpointing_run_matches_plain_run_bit_for_bit() {
        // Writing checkpoints must never perturb the training trajectory.
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(37);
        let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        let plain = DeepStuq::train(&ds, cfg.clone(), 37);

        let dir = std::env::temp_dir().join("deepstuq_pipeline_ckpt_test");
        let opts = FitOptions { checkpoint_dir: Some(dir.clone()), ..Default::default() };
        let ckpt = DeepStuq::fit(&ds, cfg, 37, &opts).unwrap().expect_complete();

        assert_eq!(plain.temperature().to_bits(), ckpt.temperature().to_bits());
        for (a, b) in plain.model().params().snapshot().iter().zip(ckpt.model().params().snapshot())
        {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "checkpointing perturbed training");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
