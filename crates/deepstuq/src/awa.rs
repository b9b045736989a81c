//! Adaptive Weight Averaging re-training (paper §IV-C2, Algorithm 1).
//!
//! Epochs alternate in two-epoch cycles:
//!
//! * **escape epochs** (even): the learning rate sweeps from `lr₁` down to
//!   `lr₂` with the cosine schedule of Eq. 16, letting the model leave the
//!   current local minimum and settle near a new one;
//! * **fine-tune epochs** (odd): constant `lr₂`; at the end of the epoch the
//!   weights are folded into the running average (Eq. 15).
//!
//! The optimiser is Adam — the paper reports it works better here than the
//! SGD of original SWA. Algorithm 1's final "perform batch normalization"
//! step is a no-op in this reproduction because the base model (like AGCRN)
//! contains no batch-norm layers whose statistics would need refreshing.
//!
//! The stage is driven through [`AwaState`], which owns the optimiser and
//! running averager and advances one epoch at a time — that epoch granularity
//! is what lets the checkpoint module persist and resume AWA mid-stage
//! bit-for-bit (DESIGN.md §8).

use crate::config::AwaConfig;
use crate::error::{Stage, TrainError};
use crate::guard::{GuardConfig, GuardState};
use crate::trainer::{train_epoch_guarded, LossKind};
use stuq_models::Forecaster;
use stuq_nn::opt::{Adam, Optimizer, OptimizerState};
use stuq_nn::sched::CosineSchedule;
use stuq_nn::swa::WeightAverager;
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::{Split, SplitDataset};

/// Outcome of AWA re-training.
#[derive(Debug)]
pub struct AwaReport {
    /// Number of models folded into the average (paper: 10).
    pub n_models: usize,
    /// Per-epoch mean training loss (epochs run by this process; a resumed
    /// run reports only its own epochs).
    pub loss_history: Vec<f64>,
}

/// Resumable AWA stage state: optimiser moments, the running weight average
/// and the epoch cursor.
#[derive(Debug)]
pub struct AwaState {
    opt: Adam,
    averager: WeightAverager,
    epoch: usize,
    history: Vec<f64>,
}

impl AwaState {
    /// Validates `cfg` and prepares a fresh stage.
    pub fn new(cfg: &AwaConfig, weight_decay: f32) -> Result<Self, TrainError> {
        if cfg.epochs < 2 || !cfg.epochs.is_multiple_of(2) {
            return Err(TrainError::InvalidConfig(
                "AWA needs an even, positive epoch count".into(),
            ));
        }
        Ok(Self {
            opt: Adam::new(cfg.lr_max, weight_decay),
            averager: WeightAverager::new(),
            epoch: 0,
            history: Vec::new(),
        })
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> usize {
        self.epoch
    }

    /// Runs one epoch (escape or fine-tune, depending on the cursor) through
    /// the guarded trainer; returns its mean training loss.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's training-loop knobs
    pub fn run_epoch(
        &mut self,
        model: &mut dyn Forecaster,
        ds: &SplitDataset,
        cfg: &AwaConfig,
        kind: LossKind,
        rng: &mut StuqRng,
        guard: &GuardConfig,
        gstate: &mut GuardState,
    ) -> Result<f64, TrainError> {
        // Escape epochs (even) sweep lr₁ → lr₂ by the cosine of Eq. 16 across
        // the epoch's iterations; fine-tune epochs (odd) hold lr₂.
        let escape = self.epoch.is_multiple_of(2);
        let sched = escape.then(|| {
            let n_iters = ds.window_starts(Split::Train).len().div_ceil(cfg.batch_size);
            CosineSchedule::new(cfg.lr_max, cfg.lr_min, n_iters.max(1))
        });
        let mut hook = |it: usize| sched.as_ref().map_or(cfg.lr_min, |s| s.lr_at(it));
        let loss = train_epoch_guarded(
            model,
            ds,
            cfg.batch_size,
            kind,
            &mut self.opt,
            5.0,
            rng,
            Some(&mut hook),
            Stage::Awa,
            guard,
            gstate,
        )?;
        if !escape {
            // A fine-tuned model joins the running average (Eq. 15).
            self.averager.update(model.params());
        }
        self.epoch += 1;
        self.history.push(loss);
        Ok(loss)
    }

    /// Writes the averaged weights into `model` and reports the stage.
    pub fn finish(self, model: &mut dyn Forecaster) -> AwaReport {
        let n_models = self.averager.n_models();
        self.averager.apply_to(model.params_mut());
        AwaReport { n_models, loss_history: self.history }
    }

    /// Serialisable stage state for checkpointing:
    /// `(optimiser, n_models, averaged snapshots, epoch cursor)`.
    pub fn export(&self) -> (OptimizerState, usize, Vec<Tensor>, usize) {
        let (n_models, avg) = self.averager.export_state();
        (self.opt.export_state(), n_models, avg, self.epoch)
    }

    /// Restores a state captured by [`AwaState::export`] into a fresh stage.
    pub fn import(
        cfg: &AwaConfig,
        weight_decay: f32,
        opt_state: &OptimizerState,
        n_models: usize,
        avg: Vec<Tensor>,
        epoch: usize,
    ) -> Result<Self, TrainError> {
        let mut state = Self::new(cfg, weight_decay)?;
        state.opt.import_state(opt_state).map_err(TrainError::Checkpoint)?;
        state.averager = WeightAverager::from_state(n_models, avg);
        state.epoch = epoch;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::trainer::{eval_loss, train};
    use stuq_models::{Agcrn, AgcrnConfig};
    use stuq_traffic::Preset;

    #[test]
    fn awa_averages_expected_model_count_and_stays_trained() {
        let spec = Preset::Pems08Like.spec().scaled(0.08, 0.02);
        let ds = spec.generate(21);
        let mut rng = StuqRng::new(21);
        let cfg = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
            .with_capacity(12, 4, 1)
            .with_dropout(0.05, 0.1);
        let mut model = Agcrn::new(cfg, &mut rng);
        let kind = LossKind::Combined { lambda: 0.1 };
        // Short pre-training so AWA starts from a sensible point.
        let pre = TrainConfig { epochs: 2, batch_size: 8, ..Default::default() };
        let _ = train(&mut model, &ds, &pre, kind, &mut rng).unwrap();
        let loss_pre = eval_loss(&model, &ds, Split::Val, kind, 13, &mut rng).unwrap();

        let awa_cfg = AwaConfig::scaled(4, 8);
        let (guard, mut gstate) = (GuardConfig::default(), GuardState::default());
        let mut state = AwaState::new(&awa_cfg, 1e-6).unwrap();
        while state.epochs_done() < awa_cfg.epochs {
            state
                .run_epoch(&mut model, &ds, &awa_cfg, kind, &mut rng, &guard, &mut gstate)
                .unwrap();
        }
        let report = state.finish(&mut model);
        assert_eq!(report.n_models, 2, "4 epochs → 2 averaged models");
        assert_eq!(report.loss_history.len(), 4);
        let loss_post = eval_loss(&model, &ds, Split::Val, kind, 13, &mut rng).unwrap();
        // AWA is a refinement: it must not blow the model up.
        assert!(
            loss_post < loss_pre + 0.5,
            "AWA degraded the model: {loss_pre:.4} → {loss_post:.4}"
        );
        assert!(model.params().all_finite());
    }

    #[test]
    fn rejects_odd_epochs() {
        let bad = AwaConfig { epochs: 3, ..Default::default() };
        let err = AwaState::new(&bad, 0.0).unwrap_err();
        assert!(err.to_string().contains("even, positive epoch count"), "{err}");
    }

    #[test]
    fn state_export_import_resumes_bit_identically() {
        // Run 4 AWA epochs straight vs. 2 epochs → export → import → 2 more.
        let spec = Preset::Pems08Like.spec().scaled(0.08, 0.02);
        let ds = spec.generate(23);
        let kind = LossKind::Combined { lambda: 0.1 };
        let awa_cfg = AwaConfig::scaled(4, 8);
        let make_model = |rng: &mut StuqRng| {
            let cfg = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
                .with_capacity(10, 3, 1)
                .with_dropout(0.05, 0.1);
            Agcrn::new(cfg, rng)
        };

        let guard = GuardConfig::default();
        // Straight run.
        let mut rng_a = StuqRng::new(23);
        let mut model_a = make_model(&mut rng_a);
        let mut gs_a = GuardState::default();
        let mut st_a = AwaState::new(&awa_cfg, 1e-6).unwrap();
        for _ in 0..4 {
            st_a.run_epoch(&mut model_a, &ds, &awa_cfg, kind, &mut rng_a, &guard, &mut gs_a)
                .unwrap();
        }
        let rep_a = st_a.finish(&mut model_a);

        // Interrupted run: same seeds, export/import between epoch 2 and 3.
        let mut rng_b = StuqRng::new(23);
        let mut model_b = make_model(&mut rng_b);
        let mut gs_b = GuardState::default();
        let mut st_b = AwaState::new(&awa_cfg, 1e-6).unwrap();
        for _ in 0..2 {
            st_b.run_epoch(&mut model_b, &ds, &awa_cfg, kind, &mut rng_b, &guard, &mut gs_b)
                .unwrap();
        }
        let (opt_state, n_models, avg, epoch) = st_b.export();
        let mut st_b2 = AwaState::import(&awa_cfg, 1e-6, &opt_state, n_models, avg, epoch).unwrap();
        for _ in 0..2 {
            st_b2
                .run_epoch(&mut model_b, &ds, &awa_cfg, kind, &mut rng_b, &guard, &mut gs_b)
                .unwrap();
        }
        let rep_b = st_b2.finish(&mut model_b);

        assert_eq!(rep_a.n_models, rep_b.n_models);
        for (x, y) in model_a.params().snapshot().iter().zip(model_b.params().snapshot()) {
            for (p, q) in x.data().iter().zip(y.data()) {
                assert_eq!(p.to_bits(), q.to_bits(), "AWA resume drifted");
            }
        }
    }
}
