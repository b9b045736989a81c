//! Reproduces **Table V**: ablation on AWA re-training.
//!
//! Pre-trains the DeepSTUQ base once per dataset, then compares point
//! metrics of the pre-trained model ("No AWA" = the paper's Combined row)
//! against the same model after AWA re-training. Also reports the SGD-SWA
//! variant (the original SWA recipe) as the extra ablation called out in
//! DESIGN.md.
//!
//! This is the one place that trains DeepSTUQ's stages outside
//! `DeepStuq::fit`: both re-training variants must start from the same
//! pre-trained model. The AWA branch drives `AwaState` the way `fit` does.

use deepstuq::awa::AwaState;
use deepstuq::eval::{evaluate, RawForecast};
use deepstuq::mc::mc_forecast;
use deepstuq::trainer::{train, train_epoch, LossKind};
use deepstuq::{GuardConfig, GuardState};
use stuq_bench::{datasets, fmt2, method_config, parse_args, print_table, write_csv};
use stuq_models::{Agcrn, Forecaster};
use stuq_nn::opt::Sgd;
use stuq_nn::sched::CosineSchedule;
use stuq_nn::swa::WeightAverager;
use stuq_tensor::StuqRng;
use stuq_traffic::{Split, SplitDataset};

fn eval_point(model: &Agcrn, ds: &SplitDataset, mc: usize, stride: usize, seed: u64) -> [f64; 3] {
    let scaler = *ds.scaler();
    let mut rng = StuqRng::new(seed);
    let r = evaluate(ds, Split::Test, stride, |x, _| {
        let mu = mc_forecast(model, x, mc, &mut rng).to_raw(&scaler, 1.0).mu;
        RawForecast { mu, sigma: None, bounds: None }
    });
    [r.point.mae, r.point.rmse, r.point.mape]
}

/// The original-SWA variant: SGD optimiser, same cosine/average cadence.
fn swa_sgd_retrain(
    model: &mut Agcrn,
    ds: &SplitDataset,
    epochs: usize,
    batch: usize,
    kind: LossKind,
    rng: &mut StuqRng,
) {
    let n_iters = ds.window_starts(Split::Train).len().div_ceil(batch).max(1);
    let mut opt = Sgd::new(3e-3, 0.9, 1e-6);
    let mut averager = WeightAverager::new();
    for epoch in 0..epochs {
        if epoch % 2 == 0 {
            let sched = CosineSchedule::new(3e-3, 3e-5, n_iters);
            let mut hook = |it: usize| sched.lr_at(it);
            train_epoch(model, ds, batch, kind, &mut opt, 5.0, rng, Some(&mut hook))
                .expect("SWA escape epoch failed");
        } else {
            let mut hook = |_: usize| 3e-5f32;
            train_epoch(model, ds, batch, kind, &mut opt, 5.0, rng, Some(&mut hook))
                .expect("SWA fine-tune epoch failed");
            averager.update(model.params());
        }
    }
    averager.apply_to(model.params_mut());
}

fn main() {
    let opts = parse_args();
    println!("Table V reproduction — scale {:?}, seed {}", opts.scale, opts.seed);
    let stride = opts.scale.eval_stride();

    let mut rows = Vec::new();
    for (preset, ds) in datasets(&opts) {
        eprintln!("[table5] dataset {preset:?}");
        let mcfg = method_config(&opts, ds.n_nodes());
        let seed = opts.seed ^ preset.seed_offset();
        let mut rng = StuqRng::new(seed);
        let mut model = Agcrn::new(mcfg.deepstuq(ds.n_nodes(), ds.horizon()).base, &mut rng);
        let kind = LossKind::Combined { lambda: mcfg.train.lambda };
        train(&mut model, &ds, &mcfg.train, kind, &mut rng).expect("pre-training failed");

        let no_awa = eval_point(&model, &ds, mcfg.mc_samples, stride, seed);

        // AWA (Adam, the paper's recipe).
        let mut awa_model = model.clone();
        let mut awa_rng = rng.fork(1);
        let mut awa = AwaState::new(&mcfg.awa, mcfg.train.weight_decay).expect("AWA config");
        let (guard, mut gstate) = (GuardConfig::default(), GuardState::default());
        while awa.epochs_done() < mcfg.awa.epochs {
            awa.run_epoch(&mut awa_model, &ds, &mcfg.awa, kind, &mut awa_rng, &guard, &mut gstate)
                .expect("AWA re-training failed");
        }
        awa.finish(&mut awa_model);
        let with_awa = eval_point(&awa_model, &ds, mcfg.mc_samples, stride, seed);

        // SWA with SGD (original recipe) — the DESIGN.md ablation.
        let mut swa_model = model.clone();
        let mut swa_rng = rng.fork(2);
        swa_sgd_retrain(
            &mut swa_model,
            &ds,
            mcfg.awa.epochs,
            mcfg.awa.batch_size,
            kind,
            &mut swa_rng,
        );
        let with_swa = eval_point(&swa_model, &ds, mcfg.mc_samples, stride, seed);

        for (i, metric) in ["MAE", "RMSE", "MAPE(%)"].iter().enumerate() {
            rows.push(vec![
                format!("{preset:?}"),
                metric.to_string(),
                fmt2(no_awa[i]),
                fmt2(with_awa[i]),
                fmt2(with_swa[i]),
            ]);
        }
    }

    let header = ["dataset", "metric", "No AWA", "AWA (Adam)", "SWA (SGD)"];
    print_table("Table V: AWA re-training ablation", &header, &rows);
    write_csv(&opts.out_dir, "table5.csv", &header, &rows);
}
