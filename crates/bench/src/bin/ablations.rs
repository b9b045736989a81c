//! Extended ablations beyond the paper's Tables V–VI (DESIGN.md §4):
//!
//! 1. **λ sweep** — the combined-loss weight (Eq. 9): the paper fixes
//!    λ = 0.1; this sweep shows the point-accuracy / likelihood trade-off.
//! 2. **Dropout-rate sweep** — the encoder graph-conv dropout (Eq. 13):
//!    the paper's rule of thumb is small graphs → small rates.
//! 3. **AWA vs true deep ensembles** — AWA's claim is to approximate an
//!    M-model ensemble with one stored model; compare quality and memory.
//!
//! Runs on the PEMS08-like dataset (the smallest one).

use deepstuq::ensemble::DeepEnsemble;
use deepstuq::eval::{evaluate, RawForecast};
use deepstuq::mc::mc_forecast;
use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
use stuq_bench::{dataset, fmt2, method_config, parse_args, print_table, write_csv};
use stuq_models::Forecaster;
use stuq_tensor::StuqRng;
use stuq_traffic::{Preset, Split, SplitDataset};

fn eval_gaussian(
    forecast: impl FnMut(&stuq_tensor::Tensor) -> deepstuq::GaussianForecast,
    ds: &SplitDataset,
    stride: usize,
) -> (f64, f64, f64, f64) {
    let mut forecast = forecast;
    let scaler = *ds.scaler();
    let r = evaluate(ds, Split::Test, stride, |x, _| {
        let f = forecast(x).to_raw(&scaler, 1.0);
        RawForecast { mu: f.mu, sigma: Some(f.sigma_total), bounds: None }
    });
    let uq = r.uq.expect("gaussian");
    (r.point.mae, uq.mnll, uq.picp, uq.mpiw)
}

fn main() {
    let opts = parse_args();
    println!("Extended ablations — scale {:?}, seed {}", opts.scale, opts.seed);
    let ds = dataset(&opts, Preset::Pems08Like);
    let mcfg = method_config(&opts, ds.n_nodes());
    let stride = opts.scale.eval_stride();
    let seed = opts.seed ^ Preset::Pems08Like.seed_offset();

    // Every part trains through `DeepStuq::train` without calibration, and
    // parts 1 and 2 without AWA. `fit` keeps its RNG, so test-time passes
    // draw from a fork of the seed.
    let mut awa_only = mcfg.deepstuq(ds.n_nodes(), ds.horizon());
    awa_only.calib = None;
    let mut pretrain_only = awa_only.clone();
    pretrain_only.awa = None;
    let fit_and_eval = |cfg: DeepStuqConfig| {
        let model = DeepStuq::train(&ds, cfg, seed);
        let mut rng = StuqRng::new(seed).fork(1);
        let metrics = eval_gaussian(
            |x| mc_forecast(model.model(), x, model.mc_samples(), &mut rng),
            &ds,
            stride,
        );
        (model, metrics)
    };

    // --- 1. λ sweep -------------------------------------------------------
    let mut rows = Vec::new();
    for lambda in [0.02f32, 0.1, 0.3, 0.7] {
        eprintln!("[ablations] lambda {lambda}");
        let mut cfg = pretrain_only.clone();
        cfg.train.lambda = lambda;
        let (_, (mae, mnll, picp, mpiw)) = fit_and_eval(cfg);
        rows.push(vec![format!("{lambda}"), fmt2(mae), fmt2(mnll), fmt2(picp), fmt2(mpiw)]);
    }
    let header = ["lambda", "MAE", "MNLL", "PICP(%)", "MPIW"];
    print_table("Ablation 1: combined-loss weight λ (Eq. 9)", &header, &rows);
    write_csv(&opts.out_dir, "ablation_lambda.csv", &header, &rows);

    // --- 2. encoder dropout sweep ----------------------------------------
    let mut rows = Vec::new();
    for p in [0.0f32, 0.05, 0.1, 0.3] {
        eprintln!("[ablations] encoder dropout {p}");
        let mut cfg = pretrain_only.clone();
        cfg.base.encoder_dropout = p;
        let (_, (mae, mnll, picp, mpiw)) = fit_and_eval(cfg);
        rows.push(vec![format!("{p}"), fmt2(mae), fmt2(mnll), fmt2(picp), fmt2(mpiw)]);
    }
    let header = ["encoder_dropout", "MAE", "MNLL", "PICP(%)", "MPIW"];
    print_table("Ablation 2: graph-conv dropout rate (Eq. 13)", &header, &rows);
    write_csv(&opts.out_dir, "ablation_dropout.csv", &header, &rows);

    // --- 3. AWA vs true deep ensembles ------------------------------------
    eprintln!("[ablations] AWA single model");
    let (awa_model, awa_metrics) = fit_and_eval(awa_only.clone());
    let awa_mem = awa_model.model().params().n_scalars();

    let mut rows = Vec::new();
    rows.push(vec![
        "AWA (1 stored model)".to_string(),
        fmt2(awa_metrics.0),
        fmt2(awa_metrics.1),
        fmt2(awa_metrics.2),
        fmt2(awa_metrics.3),
        format!("{awa_mem}"),
    ]);
    for m in [3usize, 5] {
        eprintln!("[ablations] deep ensemble M={m}");
        let ens = DeepEnsemble::train(&awa_only.base, &ds, &mcfg.train, m, seed);
        let mut ens_rng = StuqRng::new(seed ^ 0xE5);
        let metrics = eval_gaussian(|x| ens.forecast(x, &mut ens_rng), &ds, stride);
        rows.push(vec![
            format!("Deep ensemble (M={m})"),
            fmt2(metrics.0),
            fmt2(metrics.1),
            fmt2(metrics.2),
            fmt2(metrics.3),
            format!("{}", ens.n_scalars()),
        ]);
    }
    let header = ["method", "MAE", "MNLL", "PICP(%)", "MPIW", "stored params"];
    print_table("Ablation 3: AWA vs true deep ensembling", &header, &rows);
    write_csv(&opts.out_dir, "ablation_ensemble.csv", &header, &rows);
}
