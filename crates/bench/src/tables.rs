//! The paper's tables and figures, one function each over the run's
//! [`Fits`]. Each prints its table and writes its CSV under the output
//! directory; [`TABLES`] lists them in paper order.

use std::fmt::Display;

use deepstuq::awa::AwaState;
use deepstuq::calibrate::{calibration_residuals, fit_temperature};
use deepstuq::ensemble::DeepEnsemble;
use deepstuq::eval::{evaluate, EvalResult, RawForecast};
use deepstuq::mc::mc_forecast;
use deepstuq::methods::Method;
use deepstuq::pipeline::DeepStuq;
use deepstuq::trainer::{train_epoch, LossKind};
use deepstuq::{GaussianForecast, GuardConfig, GuardState};
use stuq_metrics::PointMetrics;
use stuq_models::{Agcrn, Forecaster};
use stuq_nn::opt::Sgd;
use stuq_nn::sched::CosineSchedule;
use stuq_nn::swa::WeightAverager;
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::{Preset, Split, SplitDataset};

use crate::baselines::{build_baseline, train_and_eval_baseline, BASELINE_NAMES};
use crate::{fmt2, print_table, write_csv, Fits, Scale};

/// A table or figure: its command-line name and the function that makes it.
pub type Table = (&'static str, fn(&Fits));

/// A metric row: its label and how to read it off a result.
type Metric<R> = (&'static str, fn(&R) -> f64);

/// Every table and figure by its command-line name, in paper order.
pub const TABLES: [Table; 11] = [
    ("table1", table1),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("ablations", ablations),
];

/// The point-metric rows of Tables III and V.
const POINT_ROWS: [Metric<PointMetrics>; 3] =
    [("MAE", |p| p.mae), ("RMSE", |p| p.rmse), ("MAPE(%)", |p| p.mape)];

/// Prints a table and writes it as `csv` under the output directory.
fn emit(fits: &Fits, title: &str, csv: &str, header: &[&str], rows: &[Vec<String>]) {
    print_table(title, header, rows);
    write_csv(&fits.opts.out_dir, csv, header, rows);
}

/// A table row: the dataset, a label, then the cells.
fn row(
    preset: Preset,
    label: impl Display,
    cells: impl IntoIterator<Item = String>,
) -> Vec<String> {
    let mut row = vec![format!("{preset:?}"), label.to_string()];
    row.extend(cells);
    row
}

/// Prints a table's banner line.
fn banner(fits: &Fits, title: &str) {
    let opts = &fits.opts;
    println!("{title} — scale {:?}, seed {}", opts.scale, opts.seed);
}

/// **Table I**: dataset statistics. Prints the generated datasets' node /
/// edge / step counts next to the paper's published values. At `--scale
/// full` they match exactly by construction; at reduced scales the scaling
/// factors are shown.
pub fn table1(fits: &Fits) {
    banner(fits, "Table I reproduction");
    let paper = [(358, 547, 26_208), (307, 340, 16_992), (883, 866, 28_224), (170, 295, 17_856)];
    let mut rows = Vec::new();
    for (preset, (pn, pe, ps)) in Preset::all().into_iter().zip(paper) {
        let ds = fits.dataset(preset);
        let net = ds.data().network();
        let (tr, va) = (ds.segment(Split::Train), ds.segment(Split::Val));
        rows.push(vec![
            format!("{preset:?}"),
            format!("{}", ds.n_nodes()),
            format!("{pn}"),
            format!("{}", net.n_edges()),
            format!("{pe}"),
            format!("{}", ds.data().n_steps()),
            format!("{ps}"),
            format!("{}", net.n_components()),
            format!("{}/{}/{}", tr.1, va.1 - va.0, ds.data().n_steps() - va.1),
        ]);
    }
    let header: Vec<&str> =
        "dataset,nodes,paper,edges,paper,steps,paper,components,split 6:2:2".split(',').collect();
    emit(fits, "Table I: dataset statistics (generated vs paper)", "table1.csv", &header, &rows);
}

/// **Table III**: point prediction. The seven baselines (DCRNN, ST-GCN,
/// GWN, ASTGCN, STSGCN, STFGNN, AGCRN) plus DeepSTUQ/S and DeepSTUQ on each
/// dataset, MAE / RMSE / MAPE on the test split. The paper's claim to
/// check: DeepSTUQ (and /S) lead, AGCRN is the strongest baseline.
pub fn table3(fits: &Fits) {
    banner(fits, "Table III reproduction");
    let opts = &fits.opts;
    let stride = opts.scale.eval_stride();

    let mut rows = Vec::new();
    for preset in Preset::all() {
        let ds = fits.dataset(preset);
        eprintln!("[table3] dataset {preset:?} ({} nodes)", ds.n_nodes());
        let mcfg = fits.config(preset);
        let mut points = Vec::new();
        for name in BASELINE_NAMES {
            eprintln!("[table3]   training {name}");
            let mut rng = StuqRng::new(fits.seed(preset) ^ stuq_artifact::fnv1a64(name.as_bytes()));
            let mut model = build_baseline(name, ds, &mut rng);
            points
                .push(train_and_eval_baseline(&mut model, ds, &mcfg.train, stride, &mut rng).point);
        }
        for method in [Method::DeepStuqS, Method::DeepStuq] {
            points.push(fits.arm(preset, method).point);
        }

        for (metric, f) in POINT_ROWS {
            rows.push(row(preset, metric, points.iter().map(|p| fmt2(f(p)))));
        }
    }

    let mut header: Vec<&str> = vec!["dataset", "metric"];
    header.extend(BASELINE_NAMES);
    header.extend([Method::DeepStuqS.name(), Method::DeepStuq.name()]);
    emit(fits, "Table III: point prediction", "table3.csv", &header, &rows);
}

/// **Table IV**: uncertainty quantification. The eleven methods of Table II
/// on the shared AGCRN base, MAE / RMSE / MAPE / MNLL / PICP / MPIW per
/// dataset. Paper-shape expectations: MCDO and FGE badly under-cover (PICP
/// ≪ 95 %); aleatoric methods (MVE/TS/Conformal) approach nominal coverage;
/// DeepSTUQ attains the best MNLL with PICP at or above ~95 %.
pub fn table4(fits: &Fits) {
    banner(fits, "Table IV reproduction");
    let methods = Method::all();
    let metric_rows: [Metric<EvalResult>; 6] = [
        ("MAE", |r| r.point.mae),
        ("RMSE", |r| r.point.rmse),
        ("MAPE(%)", |r| r.point.mape),
        ("MNLL", |r| r.uq.as_ref().map_or(f64::NAN, |u| u.mnll)),
        ("PICP(%)", |r| r.uq.as_ref().map_or(f64::NAN, |u| u.picp)),
        ("MPIW", |r| r.uq.as_ref().map_or(f64::NAN, |u| u.mpiw)),
    ];

    let mut rows = Vec::new();
    for preset in Preset::all() {
        eprintln!("[table4] dataset {preset:?} ({} nodes)", fits.dataset(preset).n_nodes());
        let results = methods.map(|m| fits.arm(preset, m));
        for (name, f) in &metric_rows {
            rows.push(row(preset, name, results.iter().map(|r| fmt2(f(r)))));
        }
    }

    let mut header: Vec<&str> = vec!["dataset", "metric"];
    header.extend(methods.iter().map(|m| m.name()));
    emit(fits, "Table IV: uncertainty quantification", "table4.csv", &header, &rows);
}

/// Test-split metrics of a Gaussian forecaster at temperature `t`.
fn eval_gaussian(
    fits: &Fits,
    preset: Preset,
    t: f32,
    mut forecast: impl FnMut(&Tensor) -> GaussianForecast,
) -> EvalResult {
    let (ds, stride) = (fits.dataset(preset), fits.opts.scale.eval_stride());
    evaluate(ds, Split::Test, stride, |x, _| {
        let f = forecast(x).to_raw(ds.scaler(), t);
        RawForecast { mu: f.mu, sigma: Some(f.sigma_total), bounds: None }
    })
}

/// [`eval_gaussian`] of `model`'s MC forecasts, passes drawn from `rng`.
fn eval_mc(fits: &Fits, preset: Preset, model: &Agcrn, mut rng: StuqRng, t: f32) -> EvalResult {
    let mc = fits.config(preset).mc_samples;
    eval_gaussian(fits, preset, t, |x| mc_forecast(model, x, mc, &mut rng))
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

/// **Table V**: AWA re-training. Point metrics of the pre-trained DeepSTUQ
/// base ("No AWA" = the paper's Combined row, the zoo's Combined base)
/// against the same model after AWA re-training, plus the SGD-SWA variant
/// (the original SWA recipe) as DESIGN.md's extra ablation.
///
/// This is the one place that trains DeepSTUQ's stages outside
/// `DeepStuq::fit`: both re-training variants must start from the same
/// pre-trained model. The AWA branch drives `AwaState` the way `fit` does.
pub fn table5(fits: &Fits) {
    banner(fits, "Table V reproduction");
    let mut rows = Vec::new();
    for preset in Preset::all() {
        eprintln!("[table5] dataset {preset:?}");
        let ds = fits.dataset(preset);
        let mcfg = fits.config(preset);
        let seed = fits.seed(preset);
        let base = fits.base(preset, Method::Combined);
        let mut rng = base.rng.clone();
        let kind = LossKind::Combined { lambda: mcfg.train.lambda };
        let eval = |model: &Agcrn| eval_mc(fits, preset, model, StuqRng::new(seed), 1.0).point;

        let no_awa = eval(&base.model);

        // AWA (Adam, the paper's recipe).
        let mut awa_model = base.model.clone();
        let mut awa_rng = rng.fork(1);
        let mut awa = AwaState::new(&mcfg.awa, mcfg.train.weight_decay).expect("AWA config");
        let (guard, mut gstate) = (GuardConfig::default(), GuardState::default());
        while awa.epochs_done() < mcfg.awa.epochs {
            awa.run_epoch(&mut awa_model, ds, &mcfg.awa, kind, &mut awa_rng, &guard, &mut gstate)
                .expect("AWA re-training failed");
        }
        awa.finish(&mut awa_model);
        let with_awa = eval(&awa_model);

        // SWA with SGD (original recipe) — the DESIGN.md ablation.
        let mut swa_model = base.model.clone();
        let mut swa_rng = rng.fork(2);
        swa_sgd_retrain(
            &mut swa_model,
            ds,
            mcfg.awa.epochs,
            mcfg.awa.batch_size,
            kind,
            &mut swa_rng,
        );
        let with_swa = eval(&swa_model);

        for (metric, f) in POINT_ROWS {
            rows.push(row(preset, metric, [&no_awa, &with_awa, &with_swa].map(|p| fmt2(f(p)))));
        }
    }

    let header = ["dataset", "metric", "No AWA", "AWA (Adam)", "SWA (SGD)"];
    emit(fits, "Table V: AWA re-training ablation", "table5.csv", &header, &rows);
}

/// **Table VI**: temperature calibration. The pipeline's MNLL / PICP / MPIW
/// with `T = 1` (no calibration) against its fitted temperature, plus, as
/// DESIGN.md's extra ablation, the temperature fit on the *training* split
/// — the overconfidence that validation-split calibration corrects.
pub fn table6(fits: &Fits) {
    banner(fits, "Table VI reproduction");
    let mut rows = Vec::new();
    for preset in Preset::all() {
        eprintln!("[table6] dataset {preset:?}");
        let ds = fits.dataset(preset);
        let mcfg = fits.config(preset);
        let seed = fits.seed(preset);
        let model = fits.deepstuq(preset);
        let t_val = model.temperature();
        // The same fit on the training split, for contrast. `fit` keeps its
        // RNG, so these passes draw from a fork of the seed.
        let mut rng = StuqRng::new(seed).fork(1);
        let residual_sq =
            calibration_residuals(model.model(), ds, Split::Train, &mcfg.calib, &mut rng)
                .expect("train-split residuals failed");
        let t_train = fit_temperature(&residual_sq, mcfg.calib.max_iters)
            .expect("train-split calibration failed");

        let [none, val, tr] = [1.0, t_val, t_train].map(|t| {
            let r = eval_mc(fits, preset, model.model(), StuqRng::new(seed), t);
            let u = r.uq.expect("gaussian eval");
            [u.mnll, u.picp, u.mpiw]
        });

        eprintln!("[table6]   T(val) = {t_val:.4}, T(train) = {t_train:.4}");
        for (i, metric) in ["MNLL", "PICP(%)", "MPIW"].iter().enumerate() {
            rows.push(row(preset, metric, [none[i], val[i], tr[i]].map(fmt2)));
        }
        let t = ["1.00".to_string(), format!("{t_val:.3}"), format!("{t_train:.3}")];
        rows.push(row(preset, "T", t));
    }

    let header =
        ["dataset", "metric", "No Calibration", "Calibration (val)", "Calibration (train)"];
    emit(fits, "Table VI: calibration ablation", "table6.csv", &header, &rows);
}

/// **Fig. 7**: point metrics per forecast horizon, DeepSTUQ vs AGCRN (the
/// zoo's Point arm). Paper shape to check: both curves grow with horizon;
/// DeepSTUQ sits below AGCRN at every step.
pub fn fig7(fits: &Fits) {
    banner(fits, "Fig. 7 reproduction");
    let mut rows = Vec::new();
    for preset in Preset::all() {
        eprintln!("[fig7] dataset {preset:?}");
        let r_agcrn = fits.arm(preset, Method::Point);
        let r_stuq = fits.arm(preset, Method::DeepStuq);
        for h in 0..fits.dataset(preset).horizon() {
            let a = &r_agcrn.point_by_horizon[h];
            let d = &r_stuq.point_by_horizon[h];
            rows.push(row(preset, h + 1, [a.mae, d.mae, a.rmse, d.rmse, a.mape, d.mape].map(fmt2)));
        }
    }

    let header = [
        "dataset",
        "horizon",
        "AGCRN MAE",
        "DeepSTUQ MAE",
        "AGCRN RMSE",
        "DeepSTUQ RMSE",
        "AGCRN MAPE",
        "DeepSTUQ MAPE",
    ];
    emit(fits, "Fig. 7: metrics by forecast horizon", "fig7.csv", &header, &rows);
}

/// Test windows a trace figure walks: 60 at quick scale, a day otherwise.
fn trace_len(fits: &Fits) -> usize {
    match fits.opts.scale {
        Scale::Quick => 60,
        _ => 288,
    }
}

/// **Fig. 8**: forecast + 95 % interval traces on one randomly selected
/// sensor per dataset. Walks consecutive test windows and records the
/// 1-step-ahead prediction, interval bounds and ground truth — the series
/// the paper plots. Check: the interval hugs the daily profile and covers
/// nearly all truth points.
pub fn fig8(fits: &Fits) {
    banner(fits, "Fig. 8 reproduction");
    for preset in Preset::all() {
        eprintln!("[fig8] dataset {preset:?}");
        let ds = fits.dataset(preset);
        let model = fits.deepstuq(preset);
        let mut rng = StuqRng::new(fits.seed(preset) ^ 0xF16);
        let sensor = rng.uniform_usize(ds.n_nodes());
        let starts = ds.window_starts(Split::Test);
        let take = trace_len(fits).min(starts.len());

        let mut rows = Vec::new();
        let mut covered = 0usize;
        for &s in starts.iter().take(take) {
            let w = ds.window(s);
            let f = model.predict(&w.x, ds.scaler(), &mut rng);
            let truth = w.y_raw.get(0, sensor) as f64;
            let at = |t: &Tensor| t.get(sensor, 0) as f64;
            let (mu, lo, hi) = (at(&f.mu), at(&f.lower), at(&f.upper));
            if truth >= lo && truth <= hi {
                covered += 1;
            }
            rows.push(vec![
                format!("{s}"),
                format!("{truth:.2}"),
                format!("{mu:.2}"),
                format!("{lo:.2}"),
                format!("{hi:.2}"),
            ]);
        }
        println!(
            "{preset:?}: sensor {sensor}, {take} steps, interval covered {}/{} ({:.1} %)",
            covered,
            take,
            100.0 * covered as f64 / take as f64
        );
        let name = format!("fig8_{preset:?}.csv").to_lowercase();
        write_csv(&fits.opts.out_dir, &name, &["t", "truth", "mu", "lower", "upper"], &rows);
    }
}

/// **Fig. 9**: aleatoric vs epistemic uncertainty traces on a randomly
/// selected PEMS08-like sensor. Paper shape to check: the aleatoric band is
/// much wider than the epistemic band — traffic uncertainty is mainly data
/// noise.
pub fn fig9(fits: &Fits) {
    banner(fits, "Fig. 9 reproduction");
    let preset = Preset::Pems08Like;
    let ds = fits.dataset(preset);
    let model = fits.deepstuq(preset);

    let mut rng = StuqRng::new(fits.seed(preset) ^ 0xF19);
    let sensor = rng.uniform_usize(ds.n_nodes());
    let starts = ds.window_starts(Split::Test);
    let take = trace_len(fits).min(starts.len());

    let mut rows = Vec::new();
    let (mut sum_a, mut sum_e) = (0.0f64, 0.0f64);
    for &s in starts.iter().take(take) {
        let w = ds.window(s);
        let f = model.predict(&w.x, ds.scaler(), &mut rng);
        let (a, e) = (f.sigma_aleatoric.get(sensor, 0), f.sigma_epistemic.get(sensor, 0));
        sum_a += a as f64;
        sum_e += e as f64;
        rows.push(vec![
            format!("{s}"),
            format!("{:.2}", w.y_raw.get(0, sensor)),
            format!("{:.2}", f.mu.get(sensor, 0)),
            format!("{a:.3}"),
            format!("{e:.3}"),
            format!("{:.3}", f.sigma_total.get(sensor, 0)),
        ]);
    }
    println!(
        "sensor {sensor}: mean aleatoric σ = {:.3}, mean epistemic σ = {:.3} (ratio {:.1}×)",
        sum_a / take as f64,
        sum_e / take as f64,
        (sum_a / sum_e.max(1e-12))
    );
    write_csv(
        &fits.opts.out_dir,
        "fig9.csv",
        &["t", "truth", "mu", "sigma_aleatoric", "sigma_epistemic", "sigma_total"],
        &rows,
    );
}

/// **Fig. 10**: aleatoric and epistemic uncertainty as a function of the
/// forecast horizon, for all four datasets. Paper shape to check: both
/// components grow with the horizon — short-term forecasts are more
/// reliable than long-term ones.
pub fn fig10(fits: &Fits) {
    banner(fits, "Fig. 10 reproduction");
    let stride = fits.opts.scale.eval_stride();

    let mut rows = Vec::new();
    for preset in Preset::all() {
        eprintln!("[fig10] dataset {preset:?}");
        let ds = fits.dataset(preset);
        let model = fits.deepstuq(preset);
        let mut rng = StuqRng::new(fits.seed(preset) ^ 0xF10);
        // Per horizon step: aleatoric, epistemic and total σ, each the
        // sensor mean of one window summed over the test windows.
        let mut sums = vec![[0.0f64; 3]; ds.horizon()];
        let starts: Vec<usize> =
            ds.window_starts(Split::Test).iter().copied().step_by(stride).collect();
        for &s in &starts {
            let w = ds.window(s);
            let f = model.predict(&w.x, ds.scaler(), &mut rng);
            for (h, sum) in sums.iter_mut().enumerate() {
                for (k, sigma) in
                    [&f.sigma_aleatoric, &f.sigma_epistemic, &f.sigma_total].into_iter().enumerate()
                {
                    let across: f64 = (0..ds.n_nodes()).map(|i| sigma.get(i, h) as f64).sum();
                    sum[k] += across / ds.n_nodes() as f64;
                }
            }
        }
        for (h, sum) in sums.iter().enumerate() {
            let n = starts.len() as f64;
            rows.push(row(preset, h + 1, sum.iter().map(|s| format!("{:.3}", s / n))));
        }
    }

    let header = ["dataset", "horizon", "sigma_aleatoric", "sigma_epistemic", "sigma_total"];
    emit(fits, "Fig. 10: uncertainty by forecast horizon", "fig10.csv", &header, &rows);
}

/// **Fig. 11**: point metrics versus the number of Monte-Carlo samples (1,
/// 3, 5, 10, 15). Paper shape to check: metrics improve with more samples
/// and saturate by ~10–15, justifying the paper's choice of 10 at test time.
pub fn fig11(fits: &Fits) {
    banner(fits, "Fig. 11 reproduction");
    let stride = fits.opts.scale.eval_stride();

    let mut rows = Vec::new();
    for preset in Preset::all() {
        eprintln!("[fig11] dataset {preset:?}");
        let ds = fits.dataset(preset);
        let model = fits.deepstuq(preset);
        for n in [1usize, 3, 5, 10, 15] {
            let mut rng = StuqRng::new(fits.seed(preset) ^ 0xF11);
            let r = evaluate(ds, Split::Test, stride, |x, _| {
                let mu = model.predict_with_samples(x, ds.scaler(), n, &mut rng).mu;
                RawForecast { mu, sigma: None, bounds: None }
            });
            rows.push(row(preset, n, [r.point.mae, r.point.rmse, r.point.mape].map(fmt2)));
        }
    }

    let header = ["dataset", "mc_samples", "MAE", "RMSE", "MAPE(%)"];
    emit(fits, "Fig. 11: metrics vs Monte-Carlo sample count", "fig11.csv", &header, &rows);
}

/// Extended ablations beyond the paper's Tables V–VI (DESIGN.md §4), on the
/// PEMS08-like dataset (the smallest one):
///
/// 1. **λ sweep** — the combined-loss weight (Eq. 9): the paper fixes
///    λ = 0.1; this sweep shows the point-accuracy / likelihood trade-off.
/// 2. **Dropout-rate sweep** — the encoder graph-conv dropout (Eq. 13):
///    the paper's rule of thumb is small graphs → small rates.
/// 3. **AWA vs true deep ensembles** — AWA's claim is to approximate an
///    M-model ensemble with one stored model; compare quality and memory.
pub fn ablations(fits: &Fits) {
    banner(fits, "Extended ablations");
    let preset = Preset::Pems08Like;
    let ds = fits.dataset(preset);
    let mcfg = fits.config(preset);
    let seed = fits.seed(preset);

    // Every row is evaluated at T = 1. Parts 1 and 2 pre-train only, as
    // `DeepStuq::train` without AWA or calibration does; at the paper's λ
    // and dropout that is the zoo's Combined base. Their test-time passes
    // draw from a fork of the seed.
    let eval_t1 = |model: &Agcrn| eval_mc(fits, preset, model, StuqRng::new(seed).fork(1), 1.0);
    let gaussian_row = |label: String, r: EvalResult| {
        let uq = r.uq.expect("gaussian");
        let mut row = vec![label];
        row.extend([r.point.mae, uq.mnll, uq.picp, uq.mpiw].map(fmt2));
        row
    };
    let mut pretrain_only = mcfg.deepstuq(ds.n_nodes(), ds.horizon());
    pretrain_only.awa = None;
    pretrain_only.calib = None;
    let pretrained = |lambda: f32, p: f32| {
        if lambda == mcfg.train.lambda && p == mcfg.encoder_dropout {
            return eval_t1(&fits.base(preset, Method::Combined).model);
        }
        let mut cfg = pretrain_only.clone();
        cfg.train.lambda = lambda;
        cfg.base.encoder_dropout = p;
        eval_t1(DeepStuq::train(ds, cfg, seed).model())
    };

    // --- 1. λ sweep -------------------------------------------------------
    let mut rows = Vec::new();
    for lambda in [0.02f32, 0.1, 0.3, 0.7] {
        eprintln!("[ablations] lambda {lambda}");
        rows.push(gaussian_row(format!("{lambda}"), pretrained(lambda, mcfg.encoder_dropout)));
    }
    let header = ["lambda", "MAE", "MNLL", "PICP(%)", "MPIW"];
    emit(fits, "Ablation 1: combined-loss weight λ (Eq. 9)", "ablation_lambda.csv", &header, &rows);

    // --- 2. encoder dropout sweep ----------------------------------------
    let mut rows = Vec::new();
    for p in [0.0f32, 0.05, 0.1, 0.3] {
        eprintln!("[ablations] encoder dropout {p}");
        rows.push(gaussian_row(format!("{p}"), pretrained(mcfg.train.lambda, p)));
    }
    let header = ["encoder_dropout", "MAE", "MNLL", "PICP(%)", "MPIW"];
    let title = "Ablation 2: graph-conv dropout rate (Eq. 13)";
    emit(fits, title, "ablation_dropout.csv", &header, &rows);

    // --- 3. AWA vs true deep ensembles ------------------------------------
    // The AWA row is the pipeline's fit at T = 1: calibration sets only T.
    // The M = 3 ensemble is the M = 5 one's first three members.
    let awa = &fits.base(preset, Method::DeepStuq).model;
    let mut awa_row = gaussian_row("AWA (1 stored model)".to_string(), eval_t1(awa));
    awa_row.push(format!("{}", awa.params().n_scalars()));
    let mut rows = vec![awa_row];
    eprintln!("[ablations] deep ensemble M=5");
    let ens5 = DeepEnsemble::train(&pretrain_only.base, ds, &mcfg.train, 5, seed);
    for m in [3usize, 5] {
        let ens = ens5.first(m);
        let mut rng = StuqRng::new(seed ^ 0xE5);
        let r = eval_gaussian(fits, preset, 1.0, |x| ens.forecast(x, &mut rng));
        let mut ens_row = gaussian_row(format!("Deep ensemble (M={m})"), r);
        ens_row.push(format!("{}", ens.n_scalars()));
        rows.push(ens_row);
    }
    let header = ["method", "MAE", "MNLL", "PICP(%)", "MPIW", "stored params"];
    emit(fits, "Ablation 3: AWA vs true deep ensembling", "ablation_ensemble.csv", &header, &rows);
}
