//! Generic mini-batch training over any [`Forecaster`].
//!
//! One autodiff tape is recorded per *sample* and its gradients merged into
//! the batch gradient; this keeps peak memory at a single window's graph and
//! matches averaging the per-sample losses exactly.
//!
//! The per-sample loop itself stays sequential — that fixes the RNG draw
//! order the guard snapshots and checkpoints depend on — but every pass
//! through it runs on the parallel training engine: the reverse sweep is the
//! level-scheduled [`Tape::backward`] (DESIGN.md §9) and the optimiser step
//! fans parameter slots onto the pool, both bit-identical to their serial
//! forms for any `STUQ_THREADS` setting. All three pipeline stages
//! (pre-train, AWA re-training, calibration) inherit this because they all
//! route through here.
//!
//! Every stage routes through the divergence guard (DESIGN.md §8): each
//! batch's loss and gradient norm are checked before the optimiser step, bad
//! batches are skipped, and sustained divergence rewinds to an in-memory
//! last-good snapshot with a backed-off learning rate. Failures surface as
//! typed [`TrainError`]s instead of panics.

use crate::config::TrainConfig;
use crate::error::{Stage, TrainError};
use crate::guard::{GuardConfig, GuardState};
use stuq_models::{Forecaster, Prediction};
use stuq_nn::layers::FwdCtx;
use stuq_nn::loss;
use stuq_nn::opt::{Optimizer, OptimizerState};
use stuq_tensor::{GradStore, NodeId, StuqRng, Tape, Tensor};
use stuq_traffic::{BatchIter, Split, SplitDataset};

/// Which training loss to apply to the model's head output.
#[derive(Clone, Copy, Debug)]
pub enum LossKind {
    /// Mean absolute error on the point output (deterministic baselines,
    /// MCDO, FGE).
    Mae,
    /// The paper's combined loss (Eq. 9 / Eq. 14) with weight `λ`.
    Combined {
        /// Relative NLL weight.
        lambda: f32,
    },
    /// Three-quantile pinball loss (0.025 / 0.5 / 0.975) for the quantile
    /// baseline.
    Pinball3,
}

/// Builds the loss node for one sample's prediction.
///
/// Falling back to MAE for a mismatched head would silently train the wrong
/// objective, so incompatible combinations return
/// [`TrainError::HeadMismatch`].
pub fn loss_node(
    tape: &mut Tape,
    pred: &Prediction,
    target: NodeId,
    kind: LossKind,
) -> Result<NodeId, TrainError> {
    match (kind, pred) {
        (LossKind::Mae, p) => Ok(loss::mae(tape, p.point(), target)),
        (LossKind::Combined { lambda }, Prediction::Gaussian { mu, logvar }) => {
            Ok(loss::combined(tape, *mu, *logvar, target, lambda))
        }
        (LossKind::Combined { .. }, _) => Err(TrainError::HeadMismatch {
            requirement: "Combined loss requires a Gaussian head".into(),
        }),
        (LossKind::Pinball3, Prediction::Quantiles { lo, mid, hi }) => {
            let l_lo = loss::pinball(tape, *lo, target, 0.025);
            let l_mid = loss::pinball(tape, *mid, target, 0.5);
            let l_hi = loss::pinball(tape, *hi, target, 0.975);
            let s = tape.add(l_lo, l_mid);
            Ok(tape.add(s, l_hi))
        }
        (LossKind::Pinball3, _) => Err(TrainError::HeadMismatch {
            requirement: "Pinball3 loss requires a quantile head".into(),
        }),
    }
}

/// Computes the gradient and loss of one sample.
fn sample_grad(
    model: &dyn Forecaster,
    ds: &SplitDataset,
    start: usize,
    kind: LossKind,
    rng: &mut StuqRng,
) -> Result<(GradStore, f64), TrainError> {
    let w = ds.window(start);
    let y_norm = ds.normalize_target(&w.y_raw).transpose(); // [N, τ]
    let mut tape = Tape::new();
    let mut ctx = FwdCtx::train(rng);
    let pred = model.forward_with_cov(&mut tape, &w.x, w.cov.as_ref(), &mut ctx);
    let target = tape.constant(y_norm);
    let l = loss_node(&mut tape, &pred, target, kind)?;
    let value = tape.value(l).get(0, 0) as f64;
    Ok((tape.backward(l), value))
}

/// The guard's in-memory last-good snapshot: everything a rewind restores.
struct Snapshot {
    params: Vec<Tensor>,
    opt: OptimizerState,
    rng: StuqRng,
    batch_idx: usize,
    total: f64,
    count: usize,
}

impl Snapshot {
    fn capture(
        model: &dyn Forecaster,
        opt: &dyn Optimizer,
        rng: &StuqRng,
        batch_idx: usize,
        total: f64,
        count: usize,
    ) -> Self {
        Self {
            params: model.params().snapshot(),
            opt: opt.export_state(),
            rng: rng.clone(),
            batch_idx,
            total,
            count,
        }
    }

    /// Restores the snapshot, or reports why the optimiser rejected it.
    ///
    /// The optimiser state is imported *first*: a mismatch (e.g. a caller
    /// swapped algorithms mid-stage) must not leave restored parameters
    /// paired with stale moments.
    fn restore(
        &self,
        model: &mut dyn Forecaster,
        opt: &mut dyn Optimizer,
        rng: &mut StuqRng,
    ) -> Result<(), String> {
        opt.import_state(&self.opt)?;
        model.params_mut().load_snapshot(&self.params);
        *rng = self.rng.clone();
        Ok(())
    }
}

/// Runs one guarded epoch over the training split; returns the mean training
/// loss over the batches that were actually applied.
///
/// `lr_per_iter`, when provided, is consulted before each batch — this is how
/// AWA's within-epoch cosine schedule (Eq. 16) is driven. The effective rate
/// each batch is `raw · gstate.lr_scale`, so a rewound stage keeps its
/// backed-off rate across epochs.
#[allow(clippy::too_many_arguments)] // mirrors the paper's training-loop knobs
pub fn train_epoch_guarded(
    model: &mut dyn Forecaster,
    ds: &SplitDataset,
    batch_size: usize,
    kind: LossKind,
    opt: &mut dyn Optimizer,
    grad_clip: f64,
    rng: &mut StuqRng,
    mut lr_per_iter: Option<&mut dyn FnMut(usize) -> f32>,
    stage: Stage,
    guard: &GuardConfig,
    gstate: &mut GuardState,
) -> Result<f64, TrainError> {
    let starts = ds.window_starts(Split::Train);
    if starts.is_empty() {
        return Err(TrainError::EmptySplit { what: "training windows".into() });
    }
    // The shuffle happens once here (consuming RNG); collecting the batch
    // list up front lets a rewind jump back without re-drawing the order.
    let batches: Vec<Vec<usize>> = BatchIter::new(starts, batch_size, rng).collect();
    let base_lr = opt.lr();
    let mut snap = Snapshot::capture(model, opt, rng, 0, 0.0, 0);
    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut consecutive_trips = 0usize;
    let mut healthy_since_snap = 0usize;
    let mut last_raw_lr = base_lr;
    let mut it = 0usize;
    while it < batches.len() {
        let batch = &batches[it];
        let raw_lr = match lr_per_iter.as_mut() {
            Some(f) => f(it),
            None => base_lr,
        };
        last_raw_lr = raw_lr;
        opt.set_lr(raw_lr * gstate.lr_scale);

        let t_batch = stuq_obs::trace_enabled().then(std::time::Instant::now);
        let mut grads = GradStore::default();
        let mut batch_loss = 0.0f64;
        for &s in batch {
            let (g, l) = sample_grad(model, ds, s, kind, rng)?;
            grads.merge(g);
            batch_loss += l;
        }
        grads.scale(1.0 / batch.len() as f32);
        let mean_loss = batch_loss / batch.len() as f64;
        let grad_norm = grads.global_norm();
        let healthy = mean_loss.is_finite()
            && mean_loss.abs() <= guard.max_abs_loss
            && grad_norm.is_finite()
            && grad_norm <= guard.max_grad_norm;

        // Telemetry is a pure observer: nothing below feeds back into the
        // batch loop, the RNG, or the guard's decisions.
        if stuq_obs::summary_enabled() {
            let m = stuq_obs::metrics();
            m.train_batches.inc();
            if !mean_loss.is_finite() || !grad_norm.is_finite() {
                m.train_nonfinite_batches.inc();
            }
            m.train_loss.set(mean_loss);
            m.train_grad_norm.set(grad_norm);
            m.train_grad_norm_hist.record(grad_norm);
            if let Some(t) = t_batch {
                m.train_batch_seconds.record(t.elapsed().as_secs_f64());
            }
        }

        if healthy {
            if grad_clip > 0.0 {
                grads.clip_global_norm(grad_clip);
            }
            opt.step(model.params_mut(), &grads);
            total += batch_loss;
            count += batch.len();
            consecutive_trips = 0;
            healthy_since_snap += 1;
            it += 1;
            if healthy_since_snap >= guard.snapshot_every {
                snap = Snapshot::capture(model, opt, rng, it, total, count);
                healthy_since_snap = 0;
            }
        } else {
            gstate.trips += 1;
            crate::guard::record_trip();
            consecutive_trips += 1;
            if consecutive_trips >= guard.max_consecutive_skips {
                // The trajectory (not an isolated batch) has diverged.
                if gstate.rewinds_used >= guard.max_rewinds {
                    opt.set_lr(base_lr);
                    return Err(TrainError::DivergenceBudgetExhausted {
                        stage,
                        rewinds: gstate.rewinds_used,
                        last_loss: mean_loss,
                    });
                }
                gstate.rewinds_used += 1;
                gstate.lr_scale *= guard.backoff;
                if gstate.lr_scale <= 0.0 || !gstate.lr_scale.is_finite() {
                    // The backed-off rate underflowed: replaying at lr 0
                    // freezes the trajectory and the guard would trip (and
                    // rewind) forever. Give up with a typed error instead.
                    opt.set_lr(base_lr);
                    return Err(TrainError::BackoffExhausted {
                        stage,
                        rewinds: gstate.rewinds_used,
                    });
                }
                crate::guard::record_rewind(guard, mean_loss, grad_norm, gstate);
                consecutive_trips = 0;
                healthy_since_snap = 0;
                if let Err(reason) = snap.restore(model, opt, rng) {
                    opt.set_lr(base_lr);
                    return Err(TrainError::RewindFailed { stage, reason });
                }
                total = snap.total;
                count = snap.count;
                it = snap.batch_idx;
            } else {
                gstate.skipped += 1;
                crate::guard::record_skip(guard, mean_loss, grad_norm, consecutive_trips);
                it += 1;
            }
        }
    }
    opt.set_lr(last_raw_lr);
    if count == 0 {
        return Err(TrainError::EmptySplit {
            what: "healthy training batches (every batch tripped the divergence guard)".into(),
        });
    }
    Ok(total / count as f64)
}

/// [`train_epoch_guarded`] with the default guard policy and fresh
/// bookkeeping — for single-epoch callers that don't thread stage state.
#[allow(clippy::too_many_arguments)] // mirrors the paper's training-loop knobs
pub fn train_epoch(
    model: &mut dyn Forecaster,
    ds: &SplitDataset,
    batch_size: usize,
    kind: LossKind,
    opt: &mut dyn Optimizer,
    grad_clip: f64,
    rng: &mut StuqRng,
    lr_per_iter: Option<&mut dyn FnMut(usize) -> f32>,
) -> Result<f64, TrainError> {
    train_epoch_guarded(
        model,
        ds,
        batch_size,
        kind,
        opt,
        grad_clip,
        rng,
        lr_per_iter,
        Stage::Pretrain,
        &GuardConfig::default(),
        &mut GuardState::default(),
    )
}

/// Runs the full pre-training stage; returns the per-epoch loss history.
pub fn train(
    model: &mut dyn Forecaster,
    ds: &SplitDataset,
    cfg: &TrainConfig,
    kind: LossKind,
    rng: &mut StuqRng,
) -> Result<Vec<f64>, TrainError> {
    train_guarded(model, ds, cfg, kind, rng, &GuardConfig::default(), &mut GuardState::default())
}

/// [`train`] with an explicit guard policy and sticky per-stage state (the
/// pipeline threads this so checkpoints can persist it).
pub fn train_guarded(
    model: &mut dyn Forecaster,
    ds: &SplitDataset,
    cfg: &TrainConfig,
    kind: LossKind,
    rng: &mut StuqRng,
    guard: &GuardConfig,
    gstate: &mut GuardState,
) -> Result<Vec<f64>, TrainError> {
    let mut opt = stuq_nn::opt::Adam::new(cfg.lr, cfg.weight_decay);
    let mut history = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        history.push(train_epoch_guarded(
            model,
            ds,
            cfg.batch_size,
            kind,
            &mut opt,
            cfg.grad_clip,
            rng,
            None,
            Stage::Pretrain,
            guard,
            gstate,
        )?);
    }
    Ok(history)
}

/// Mean loss over a split without updating parameters (dropout off).
pub fn eval_loss(
    model: &dyn Forecaster,
    ds: &SplitDataset,
    split: Split,
    kind: LossKind,
    stride: usize,
    rng: &mut StuqRng,
) -> Result<f64, TrainError> {
    let starts = ds.window_starts(split);
    if starts.is_empty() {
        return Err(TrainError::EmptySplit { what: "windows in split".into() });
    }
    let mut total = 0.0f64;
    let mut count = 0usize;
    for &s in starts.iter().step_by(stride.max(1)) {
        let w = ds.window(s);
        let y_norm = ds.normalize_target(&w.y_raw).transpose();
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(rng);
        let pred = model.forward_with_cov(&mut tape, &w.x, w.cov.as_ref(), &mut ctx);
        let target = tape.constant(y_norm);
        let l = loss_node(&mut tape, &pred, target, kind)?;
        total += tape.value(l).get(0, 0) as f64;
        count += 1;
    }
    Ok(total / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_models::{Agcrn, AgcrnConfig, HeadKind};
    use stuq_traffic::Preset;

    fn tiny_setup() -> (SplitDataset, Agcrn, StuqRng) {
        let spec = Preset::Pems08Like.spec().scaled(0.08, 0.02);
        let ds = spec.generate(11);
        let mut rng = StuqRng::new(11);
        let cfg = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
            .with_capacity(12, 4, 1)
            .with_dropout(0.05, 0.1);
        let model = Agcrn::new(cfg, &mut rng);
        (ds, model, rng)
    }

    #[test]
    fn training_reduces_combined_loss() {
        let (ds, mut model, mut rng) = tiny_setup();
        let kind = LossKind::Combined { lambda: 0.1 };
        let before = eval_loss(&model, &ds, Split::Train, kind, 11, &mut rng).unwrap();
        let cfg = TrainConfig { epochs: 2, batch_size: 8, ..Default::default() };
        let history = train(&mut model, &ds, &cfg, kind, &mut rng).unwrap();
        let after = eval_loss(&model, &ds, Split::Train, kind, 11, &mut rng).unwrap();
        assert_eq!(history.len(), 2);
        assert!(
            after < before,
            "loss should drop: before {before:.4}, after {after:.4}, history {history:?}"
        );
        assert!(model.params().all_finite());
    }

    /// Training one epoch on the pool must leave every parameter
    /// bit-identical to training on a serial pool: the thread count can
    /// never leak into model weights. This is the in-process twin of the CI
    /// determinism gate's `STUQ_THREADS=1/2/4` train.
    #[test]
    fn one_epoch_train_bitwise_identical_pooled_vs_serial_pool() {
        let run = |serial: bool| {
            let (ds, mut model, mut rng) = tiny_setup();
            let mut opt = stuq_nn::opt::Adam::new(0.003, 0.0);
            let kind = LossKind::Combined { lambda: 0.1 };
            let mut epoch =
                || train_epoch(&mut model, &ds, 8, kind, &mut opt, 5.0, &mut rng, None).unwrap();
            let loss = if serial { stuq_parallel::with_serial(&mut epoch) } else { epoch() };
            (loss, model.params().snapshot())
        };
        let (loss_pooled, snap_pooled) = run(false);
        let (loss_serial, snap_serial) = run(true);
        assert_eq!(
            loss_pooled.to_bits(),
            loss_serial.to_bits(),
            "epoch loss must be bit-identical"
        );
        assert_eq!(snap_pooled.len(), snap_serial.len());
        for (slot, (a, b)) in snap_pooled.iter().zip(&snap_serial).enumerate() {
            assert_eq!(a.shape(), b.shape(), "slot {slot} shape");
            for (x, y) in a.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "slot {slot} diverged");
            }
        }
    }

    #[test]
    fn lr_override_hook_is_consulted() {
        let (ds, mut model, mut rng) = tiny_setup();
        let mut seen = Vec::new();
        let mut opt = stuq_nn::opt::Adam::new(1.0, 0.0);
        let mut hook = |it: usize| {
            let lr = 0.001 / (it + 1) as f32;
            seen.push(lr);
            lr
        };
        let _ = train_epoch(
            &mut model,
            &ds,
            32,
            LossKind::Combined { lambda: 0.1 },
            &mut opt,
            5.0,
            &mut rng,
            Some(&mut hook),
        )
        .unwrap();
        assert!(!seen.is_empty());
        assert_eq!(opt.lr(), *seen.last().unwrap());
    }

    #[test]
    fn combined_loss_rejects_point_head() {
        let (ds, _, mut rng) = tiny_setup();
        let cfg = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
            .with_capacity(8, 3, 1)
            .with_head(HeadKind::Point);
        let model = Agcrn::new(cfg, &mut rng);
        let w = ds.window(0);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::train(&mut rng);
        let pred = model.forward(&mut tape, &w.x, &mut ctx);
        let t = tape.constant(ds.normalize_target(&w.y_raw).transpose());
        let err = loss_node(&mut tape, &pred, t, LossKind::Combined { lambda: 0.5 }).unwrap_err();
        assert!(
            matches!(err, TrainError::HeadMismatch { .. }),
            "expected HeadMismatch, got {err:?}"
        );
        assert!(err.to_string().contains("requires a Gaussian head"));
    }

    #[test]
    fn pinball_trains_quantile_head() {
        let (ds, _, mut rng) = tiny_setup();
        let cfg = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
            .with_capacity(8, 3, 1)
            .with_dropout(0.0, 0.0)
            .with_head(HeadKind::Quantile);
        let mut model = Agcrn::new(cfg, &mut rng);
        let kind = LossKind::Pinball3;
        let before = eval_loss(&model, &ds, Split::Train, kind, 17, &mut rng).unwrap();
        let cfg = TrainConfig { epochs: 1, batch_size: 8, ..Default::default() };
        let _ = train(&mut model, &ds, &cfg, kind, &mut rng).unwrap();
        let after = eval_loss(&model, &ds, Split::Train, kind, 17, &mut rng).unwrap();
        assert!(after < before, "pinball loss should drop ({before:.4} → {after:.4})");
    }

    /// Poisons every reading in the training segment so *every* batch trips
    /// the guard from the very first one.
    fn poison_train_split(ds: &mut SplitDataset) {
        let (lo, hi) = ds.segment(Split::Train);
        let n = ds.n_nodes();
        for t in lo..hi {
            for node in 0..n {
                ds.data_mut().set(t, node, f32::NAN);
            }
        }
    }

    #[test]
    fn trip_on_the_first_batch_rewinds_to_epoch_start_without_panicking() {
        // The guard trips before any snapshot refresh has happened. The only
        // rewind target is the eagerly captured epoch-start snapshot; the
        // rewind must use it (not unwrap on a missing one) and exhaustion
        // must surface as a typed error.
        let (mut ds, mut model, mut rng) = tiny_setup();
        poison_train_split(&mut ds);
        let guard = GuardConfig { max_consecutive_skips: 1, max_rewinds: 1, ..Default::default() };
        let mut gstate = GuardState::default();
        let mut opt = stuq_nn::opt::Adam::new(0.003, 0.0);
        let err = train_epoch_guarded(
            &mut model,
            &ds,
            8,
            LossKind::Combined { lambda: 0.1 },
            &mut opt,
            5.0,
            &mut rng,
            None,
            Stage::Pretrain,
            &guard,
            &mut gstate,
        )
        .unwrap_err();
        assert!(
            matches!(err, TrainError::DivergenceBudgetExhausted { rewinds: 1, .. }),
            "expected budget exhaustion after the one allowed rewind, got {err:?}"
        );
        assert_eq!(gstate.rewinds_used, 1);
        assert!(model.params().snapshot().iter().all(|t| t.all_finite()), "rewind restored params");
    }

    #[test]
    fn backoff_underflow_is_a_typed_error_not_a_hang() {
        // With a huge rewind budget and a brutal backoff the lr scale
        // underflows to zero long before the budget runs out; the guard must
        // detect the underflow and give up with a typed error instead of
        // rewinding forever at lr 0.
        let (mut ds, mut model, mut rng) = tiny_setup();
        poison_train_split(&mut ds);
        let guard = GuardConfig {
            max_consecutive_skips: 1,
            max_rewinds: 1_000_000,
            backoff: 1e-30,
            ..Default::default()
        };
        let mut gstate = GuardState::default();
        let mut opt = stuq_nn::opt::Adam::new(0.003, 0.0);
        let err = train_epoch_guarded(
            &mut model,
            &ds,
            8,
            LossKind::Combined { lambda: 0.1 },
            &mut opt,
            5.0,
            &mut rng,
            None,
            Stage::Awa,
            &guard,
            &mut gstate,
        )
        .unwrap_err();
        assert!(
            matches!(err, TrainError::BackoffExhausted { stage: Stage::Awa, rewinds: 2 }),
            "1e-30² underflows f32 on the second rewind, got {err:?}"
        );
        assert!(err.to_string().contains("backoff exhausted"));
    }

    #[test]
    fn rewind_into_mismatched_optimiser_is_a_typed_failure() {
        // Snapshot::restore must refuse (not unwrap) when the captured
        // optimiser state no longer matches the live optimiser, and must not
        // touch the parameters when it refuses.
        let (_, mut model, rng) = tiny_setup();
        let adam = stuq_nn::opt::Adam::new(0.01, 0.0);
        let snap = Snapshot::capture(&model, &adam, &rng, 0, 0.0, 0);
        let before = model.params().snapshot();
        let mut sgd = stuq_nn::opt::Sgd::new(0.01, 0.0, 0.0);
        let mut rng2 = rng.clone();
        let err = snap.restore(&mut model, &mut sgd, &mut rng2).unwrap_err();
        assert!(err.contains("mismatch"), "got: {err}");
        let after = model.params().snapshot();
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.data(), b.data(), "failed restore must leave params untouched");
        }
    }

    #[test]
    fn guard_path_is_bit_identical_when_clean() {
        // The guard must be a pure observer on a healthy run: training with
        // an explicit guard config produces the exact same parameters as the
        // default path for the same seed.
        let kind = LossKind::Combined { lambda: 0.1 };
        let cfg = TrainConfig { epochs: 2, batch_size: 8, ..Default::default() };
        let run = |snapshot_every: usize| {
            let (ds, mut model, mut rng) = tiny_setup();
            let guard = GuardConfig { snapshot_every, ..Default::default() };
            let mut gstate = GuardState::default();
            train_guarded(&mut model, &ds, &cfg, kind, &mut rng, &guard, &mut gstate).unwrap();
            assert!(gstate.is_clean(), "healthy run must not trip: {gstate:?}");
            model.params().snapshot()
        };
        let a = run(1); // snapshot after every batch
        let b = run(1000); // effectively never re-snapshot
        for (x, y) in a.iter().zip(&b) {
            for (p, q) in x.data().iter().zip(y.data()) {
                assert_eq!(p.to_bits(), q.to_bits(), "snapshot cadence changed the trajectory");
            }
        }
    }
}
