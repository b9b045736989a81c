//! Fault-tolerance integration tests (DESIGN.md §8): the divergence guard,
//! crash-safe checkpoint/resume, and sensor-fault evaluation, exercised
//! through the public library surface.

use deepstuq::eval::{evaluate, evaluate_faulted, RawForecast};
use deepstuq::pipeline::{DeepStuq, DeepStuqConfig, FitOptions, FitOutcome, CHECKPOINT_FILE};
use deepstuq::trainer::{train_guarded, LossKind};
use deepstuq::{GuardConfig, GuardState, Stage, TrainError};
use stuq_models::{Agcrn, Forecaster};
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::{FaultPlan, FaultProfile, Preset, Scaler, Split, SplitDataset};

fn tiny_ds(seed: u64) -> SplitDataset {
    Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(seed)
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("deepstuq_fault_tolerance").join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Poisons one training-split reading *after* the scaler was fit, so the
/// corruption reaches the loss as a NaN target/input rather than breaking
/// normalisation itself.
fn inject_nan(ds: &mut SplitDataset) {
    let (lo, hi) = ds.segment(Split::Train);
    let t = lo + (hi - lo) / 2;
    ds.data_mut().set(t, 0, f32::NAN);
    assert!(ds.data().get(t, 0).is_nan());
}

#[test]
fn nan_in_training_data_is_skipped_and_training_completes() {
    let mut ds = tiny_ds(301);
    inject_nan(&mut ds);

    let mut rng = StuqRng::new(301);
    let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    let mut model = Agcrn::new(cfg.base.clone(), &mut rng);
    // One NaN reading contaminates every window covering it, so many batches
    // trip. Rewinding cannot help a *data-borne* NaN (the replay trips
    // identically) — the right policy is to always skip, so allow unlimited
    // consecutive skips and let the healthy batches carry the epoch.
    let guard = GuardConfig { max_consecutive_skips: usize::MAX, ..Default::default() };
    let mut gstate = GuardState::default();
    let history = train_guarded(
        &mut model,
        &ds,
        &cfg.train,
        LossKind::Combined { lambda: cfg.train.lambda },
        &mut rng,
        &guard,
        &mut gstate,
    )
    .expect("guarded training must survive a NaN reading");

    assert!(gstate.trips > 0, "the NaN batch must trip the guard");
    assert!(gstate.skipped > 0, "an isolated bad batch is skipped, not rewound");
    for (e, l) in history.iter().enumerate() {
        assert!(l.is_finite(), "epoch {e} loss {l} must be finite");
    }
    // The model itself stays healthy: every parameter is finite.
    for t in model.params().snapshot() {
        assert!(t.all_finite(), "NaN leaked into the parameters");
    }
}

#[test]
fn divergence_budget_exhaustion_is_a_typed_error() {
    let mut ds = tiny_ds(302);
    inject_nan(&mut ds);

    // A zero-tolerance guard: the first trip forces a rewind, and no rewinds
    // are allowed. Because the NaN is data-borne, the restored RNG replays
    // the identical batch order and the same batch trips again — the guard
    // must give up rather than loop forever.
    let guard = GuardConfig { max_consecutive_skips: 1, max_rewinds: 0, ..Default::default() };
    let mut gstate = GuardState::default();
    let mut rng = StuqRng::new(302);
    let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    let mut model = Agcrn::new(cfg.base.clone(), &mut rng);
    let err = train_guarded(
        &mut model,
        &ds,
        &cfg.train,
        LossKind::Combined { lambda: cfg.train.lambda },
        &mut rng,
        &guard,
        &mut gstate,
    )
    .unwrap_err();
    assert!(
        matches!(err, TrainError::DivergenceBudgetExhausted { stage: Stage::Pretrain, .. }),
        "{err}"
    );
}

/// Drives `cfg` through `opts`' budget pauses, resuming from the checkpoint
/// each time, and returns the finished model with the `(stage, epochs_done)`
/// of every pause.
fn fit_through_pauses(
    ds: &SplitDataset,
    cfg: &DeepStuqConfig,
    seed: u64,
    mut opts: FitOptions,
) -> (DeepStuq, Vec<(Stage, usize)>) {
    let mut pauses = Vec::new();
    loop {
        match DeepStuq::fit(ds, cfg.clone(), seed, &opts).unwrap() {
            FitOutcome::Complete { model, .. } => return (model, pauses),
            FitOutcome::Paused { stage, epochs_done, .. } => {
                pauses.push((stage, epochs_done));
                assert!(pauses.len() <= cfg.total_epochs(), "resume loop failed to make progress");
                opts.resume = true;
            }
        }
    }
}

#[test]
fn interrupted_run_resumes_bit_for_bit() {
    let ds = tiny_ds(303);
    let demo = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    let no_awa = DeepStuqConfig { awa: None, ..demo.clone() };
    use Stage::{Awa, Pretrain};
    // (name, config, checkpoint_every, epoch_budget, expected pauses as
    // (stage, epochs_done)). The run that trains the final epoch completes
    // (calibration included) instead of pausing.
    let rows = [
        // Repeated 1-epoch pauses, the worst-case interruption pattern:
        // 2 pre-train + 2 AWA epochs pause 3 times.
        ("budget_1", &demo, 1, 1, vec![(Pretrain, 1), (Awa, 0), (Awa, 1)]),
        // 3 epochs, then a pause off the 2-epoch cadence inside AWA.
        ("awa_off_cadence", &demo, 2, 3, vec![(Awa, 1)]),
        // Table V's No-AWA ablation: pre-training plus calibration.
        ("no_awa", &no_awa, 1, 1, vec![(Pretrain, 1)]),
    ];
    for (name, cfg, every, budget, expected_pauses) in rows {
        let uninterrupted = DeepStuq::train(&ds, cfg.clone(), 303);
        let dir = tmp_dir(&format!("resume_{name}"));
        let opts = FitOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: every,
            epoch_budget: Some(budget),
            ..Default::default()
        };
        let (resumed, pauses) = fit_through_pauses(&ds, cfg, 303, opts);
        assert_eq!(pauses, expected_pauses, "{name}: pauses");

        assert_eq!(
            uninterrupted.temperature().to_bits(),
            resumed.temperature().to_bits(),
            "{name}: resumed temperature diverged"
        );
        let a = uninterrupted.model().params().snapshot();
        let b = resumed.model().params().snapshot();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            for (p, q) in x.data().iter().zip(y.data()) {
                assert_eq!(p.to_bits(), q.to_bits(), "{name}: resumed parameters diverged");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn checkpoint_past_the_configured_epochs_is_rejected_on_resume() {
    let ds = tiny_ds(307);
    let demo = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    let mut long_pre = demo.clone();
    long_pre.train.epochs = 3;
    let mut short_pre = demo.clone();
    short_pre.train.epochs = 1;
    let mut long_awa = demo.clone();
    long_awa.train.epochs = 1;
    long_awa.awa.as_mut().unwrap().epochs = 4;
    let mut short_awa = long_awa.clone();
    short_awa.awa.as_mut().unwrap().epochs = 2;
    // (name, paused config, epoch budget, resumed config, stage paused in)
    let rows = [
        ("pretrain", &long_pre, 2, &short_pre, Stage::Pretrain),
        ("awa", &long_awa, 4, &short_awa, Stage::Awa),
    ];
    for (name, paused_cfg, budget, resumed_cfg, stage) in rows {
        let dir = tmp_dir(&format!("past_end_{name}"));
        let opts = FitOptions {
            checkpoint_dir: Some(dir.clone()),
            epoch_budget: Some(budget),
            ..Default::default()
        };
        match DeepStuq::fit(&ds, paused_cfg.clone(), 307, &opts).unwrap() {
            FitOutcome::Paused { stage: s, epochs_done, .. } => {
                assert_eq!(s, stage, "{name}: paused stage");
                assert!(epochs_done > 1, "{name}: the cursor must pass the shorter stage");
            }
            FitOutcome::Complete { .. } => panic!("{name}: the budget must pause the run"),
        }
        let opts = FitOptions { resume: true, epoch_budget: None, ..opts };
        match DeepStuq::fit(&ds, resumed_cfg.clone(), 307, &opts) {
            Err(TrainError::Checkpoint(msg)) => {
                assert!(msg.contains("beyond"), "{name}: {msg}")
            }
            Err(other) => panic!("{name}: expected a checkpoint error, got {other}"),
            Ok(_) => panic!("{name}: a checkpoint past the configured epochs was accepted"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupted_checkpoint_is_rejected_on_resume() {
    let ds = tiny_ds(304);
    let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    let dir = tmp_dir("corrupt_ckpt");
    let opts = FitOptions {
        checkpoint_dir: Some(dir.clone()),
        epoch_budget: Some(1),
        ..Default::default()
    };
    let paused = DeepStuq::fit(&ds, cfg.clone(), 304, &opts).unwrap();
    assert!(matches!(paused, FitOutcome::Paused { .. }));

    let ckpt = dir.join(CHECKPOINT_FILE);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&ckpt, &bytes).unwrap();

    let opts = FitOptions { resume: true, ..opts };
    let err = DeepStuq::fit(&ds, cfg, 304, &opts).unwrap_err();
    match &err {
        TrainError::Checkpoint(msg) => {
            assert!(msg.contains("checksum mismatch"), "{msg}")
        }
        other => panic!("expected a checkpoint error, got {other}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sensor_faults_degrade_accuracy_but_scoring_stays_clean() {
    let ds = tiny_ds(305);
    let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    let model = DeepStuq::train(&ds, cfg, 305);

    let data = ds.data();
    let plan = FaultPlan::generate(data.n_steps(), data.n_nodes(), FaultProfile::Severe, 9);
    let fs = plan.apply(data.values());
    assert!(fs.corrupted_fraction() > 0.0);

    let scaler = *ds.scaler();
    fn predict(
        model: &DeepStuq,
        scaler: Scaler,
        seed: u64,
    ) -> impl FnMut(&Tensor, usize) -> RawForecast + '_ {
        let mut rng = StuqRng::new(seed);
        move |x, _start| {
            let f = model.predict(x, &scaler, &mut rng);
            RawForecast { mu: f.mu, sigma: Some(f.sigma_total), bounds: None }
        }
    }
    let clean = evaluate(&ds, Split::Test, 9, predict(&model, scaler, 1));
    let faulted = evaluate_faulted(&ds, Split::Test, 9, &fs, predict(&model, scaler, 1));
    let faulted2 = evaluate_faulted(&ds, Split::Test, 9, &fs, predict(&model, scaler, 1));

    // Same plan + same RNG stream → bit-identical degraded metrics.
    assert_eq!(faulted.point.mae.to_bits(), faulted2.point.mae.to_bits());
    // Severe corruption of the input feed must hurt point accuracy, because
    // the targets stay clean while the history the model sees is damaged.
    assert!(
        faulted.point.mae > clean.point.mae,
        "severe faults should degrade MAE: clean {:.4} vs faulted {:.4}",
        clean.point.mae,
        faulted.point.mae
    );
    // Both runs score the same number of windows — faults never drop data.
    assert_eq!(clean.n_windows, faulted.n_windows);
}

#[test]
fn faulted_windows_expose_the_validity_mask() {
    let ds = tiny_ds(306);
    let data = ds.data();
    let plan = FaultPlan::generate(data.n_steps(), data.n_nodes(), FaultProfile::Severe, 2);
    let fs = plan.apply(data.values());

    let mut saw_masked = false;
    for &s in &ds.window_starts(Split::Test) {
        let w = ds.faulted_window(s, &fs);
        let mask = w.valid.as_ref().expect("faulted windows carry a validity mask");
        assert_eq!(mask.shape(), &[ds.t_h(), ds.n_nodes()]);
        for t in 0..ds.t_h() {
            for i in 0..ds.n_nodes() {
                let healthy = fs.is_valid(s + t, i);
                assert_eq!(mask.get(t, i) == 1.0, healthy, "mask disagrees at ({t}, {i})");
                if !healthy {
                    saw_masked = true;
                }
            }
        }
    }
    assert!(saw_masked, "a severe plan must corrupt at least one test window");
}
