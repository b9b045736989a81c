//! Reproduces **Table VI**: ablation on temperature calibration.
//!
//! Trains the full pipeline once per dataset with `DeepStuq::train`, then
//! compares MNLL / PICP / MPIW with `T = 1` (no calibration) against the
//! fitted temperature. As the DESIGN.md extra ablation, also reports the
//! temperature fit on the *training* split — demonstrating the
//! overconfidence that validation-split calibration corrects.

use deepstuq::calibrate::{calibration_residuals, fit_temperature};
use deepstuq::eval::{evaluate, RawForecast};
use deepstuq::mc::mc_forecast;
use deepstuq::pipeline::DeepStuq;
use stuq_bench::{datasets, fmt2, method_config, parse_args, print_table, write_csv};
use stuq_tensor::StuqRng;
use stuq_traffic::{Split, SplitDataset};

fn eval_uq(
    model: &DeepStuq,
    ds: &SplitDataset,
    temperature: f32,
    stride: usize,
    seed: u64,
) -> [f64; 3] {
    let scaler = *ds.scaler();
    let mut rng = StuqRng::new(seed);
    let r = evaluate(ds, Split::Test, stride, |x, _| {
        let f = mc_forecast(model.model(), x, model.mc_samples(), &mut rng)
            .to_raw(&scaler, temperature);
        RawForecast { mu: f.mu, sigma: Some(f.sigma_total), bounds: None }
    });
    let u = r.uq.expect("gaussian eval");
    [u.mnll, u.picp, u.mpiw]
}

fn main() {
    let opts = parse_args();
    println!("Table VI reproduction — scale {:?}, seed {}", opts.scale, opts.seed);
    let stride = opts.scale.eval_stride();

    let mut rows = Vec::new();
    for (preset, ds) in datasets(&opts) {
        eprintln!("[table6] dataset {preset:?}");
        let mcfg = method_config(&opts, ds.n_nodes());
        let seed = opts.seed ^ preset.seed_offset();
        let model = DeepStuq::train(&ds, mcfg.deepstuq(ds.n_nodes(), ds.horizon()), seed);
        let t_val = model.temperature();
        // The same fit on the training split, for contrast. `fit` keeps its
        // RNG, so these passes draw from a fork of the seed.
        let mut rng = StuqRng::new(seed).fork(1);
        let residual_sq =
            calibration_residuals(model.model(), &ds, Split::Train, &mcfg.calib, &mut rng)
                .expect("train-split residuals failed");
        let t_train = fit_temperature(&residual_sq, mcfg.calib.max_iters)
            .expect("train-split calibration failed");

        let none = eval_uq(&model, &ds, 1.0, stride, seed);
        let val = eval_uq(&model, &ds, t_val, stride, seed);
        let tr = eval_uq(&model, &ds, t_train, stride, seed);

        eprintln!("[table6]   T(val) = {t_val:.4}, T(train) = {t_train:.4}");
        for (i, metric) in ["MNLL", "PICP(%)", "MPIW"].iter().enumerate() {
            rows.push(vec![
                format!("{preset:?}"),
                metric.to_string(),
                fmt2(none[i]),
                fmt2(val[i]),
                fmt2(tr[i]),
            ]);
        }
        rows.push(vec![
            format!("{preset:?}"),
            "T".to_string(),
            "1.00".to_string(),
            format!("{t_val:.3}"),
            format!("{t_train:.3}"),
        ]);
    }

    let header =
        ["dataset", "metric", "No Calibration", "Calibration (val)", "Calibration (train)"];
    print_table("Table VI: calibration ablation", &header, &rows);
    write_csv(&opts.out_dir, "table6.csv", &header, &rows);
}
