//! The UQ-quality oracle: one quick train → calibrate → evaluate run whose
//! uncertainty metrics are held to floors, so a change that moves bytes
//! cannot quietly degrade the uncertainty the paper is about.
//!
//! The recipe is perfbench's `train_fit`: a 17-sensor PEMS08-like dataset,
//! paper capacity, one pre-training epoch, one AWA cycle (2 epochs) and
//! calibration with 10 MC passes on every 4th validation window; every
//! test window is then forecast with 10 passes. Each bound is the value at
//! seed 8 moved, in the worse direction, by the range of a 5-seed sweep of
//! the same recipe (EXPERIMENTS.md, "UQ-quality oracle"), which `cargo test
//! --release --test uq_oracle -- --ignored --nocapture` reprints.

use deepstuq::config::{AwaConfig, CalibConfig, TrainConfig};
use deepstuq::eval::{evaluate, RawForecast};
use deepstuq::mc::mc_forecast;
use deepstuq::{DeepStuq, DeepStuqConfig};
use stuq_metrics::{crps_gaussian, ReliabilityDiagram};
use stuq_tensor::StuqRng;
use stuq_traffic::{Preset, Split};

/// Seed of the dataset and of the oracle's fit (perfbench's fixture seed).
const SEED: u64 = 8;

/// The oracle's metrics over every test cell, in raw units unless noted.
#[derive(Debug)]
struct Quality {
    /// Table IV's four.
    mae: f64,
    mnll: f64,
    picp: f64,
    mpiw: f64,
    /// Mean Gaussian CRPS.
    crps: f64,
    /// Mean |nominal − observed| coverage over the standard reliability
    /// ladder (10 %…90 %, 95 %, 99 %).
    calib_error: f64,
    /// Pearson correlation between |error| and total σ.
    err_sigma_corr: f64,
    /// Share of cells whose epistemic σ is below 1 % of |μ|, both in
    /// normalised units: where f32 cancellation in Eq. 19's epistemic term
    /// matters.
    flat_epistemic: f64,
    /// Mean share of the total predictive variance that is epistemic: the
    /// one metric here that sees the epistemic term doubled, since it is
    /// about 1 % of the variance at this scale.
    epistemic_share: f64,
}

/// Trains with `seed` and scores every test window with MC passes drawn
/// from `eval_seed`.
fn run(seed: u64, eval_seed: u64) -> Quality {
    let ds = Preset::Pems08Like.spec().scaled(0.1, 0.009).generate(SEED);
    let cfg = DeepStuqConfig {
        train: TrainConfig::scaled(1, 16),
        awa: Some(AwaConfig::scaled(2, 16)),
        calib: Some(CalibConfig { mc_samples: 10, max_iters: 100, stride: 4 }),
        ..DeepStuqConfig::paper(ds.n_nodes(), ds.horizon())
    };
    let model = DeepStuq::train(&ds, cfg, seed);
    let scaler = *ds.scaler();
    let mut rng = StuqRng::new(eval_seed);
    let mut crps = 0.0;
    let mut diagram = ReliabilityDiagram::standard();
    let (mut errs, mut sigmas) = (Vec::new(), Vec::new());
    let mut flat = 0usize;
    let mut share = 0.0;
    let r = evaluate(&ds, Split::Test, 1, |x, start| {
        let g = mc_forecast(model.model(), x, model.mc_samples(), &mut rng);
        let f = g.to_raw(&scaler, model.temperature());
        let y = ds.window(start).y_raw; // [τ, N]
        let var_total = g.var_total(model.temperature());
        for i in 0..ds.n_nodes() {
            for h in 0..ds.horizon() {
                let (mu, sigma) = (f.mu.get(i, h) as f64, f.sigma_total.get(i, h) as f64);
                let truth = y.get(h, i) as f64;
                crps += crps_gaussian(mu, sigma, truth);
                diagram.update(mu, sigma, truth);
                errs.push((mu - truth).abs());
                sigmas.push(sigma);
                let epistemic = g.var_epistemic.get(i, h).max(0.0).sqrt();
                flat += usize::from(epistemic < 0.01 * g.mu.get(i, h).abs());
                share += (g.var_epistemic.get(i, h) / var_total.get(i, h)) as f64;
            }
        }
        RawForecast { mu: f.mu, sigma: Some(f.sigma_total), bounds: None }
    });
    let uq = r.uq.expect("Gaussian forecasts");
    let cells = errs.len() as f64;
    Quality {
        mae: r.point.mae,
        mnll: uq.mnll,
        picp: uq.picp,
        mpiw: uq.mpiw,
        crps: crps / cells,
        calib_error: diagram.calibration_error(),
        err_sigma_corr: pearson(&errs, &sigmas),
        flat_epistemic: flat as f64 / cells,
        epistemic_share: share / cells,
    }
}

/// Pearson's r of two equally long samples.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let (mut sab, mut saa, mut sbb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        sab += (x - ma) * (y - mb);
        saa += (x - ma) * (x - ma);
        sbb += (y - mb) * (y - mb);
    }
    sab / (saa * sbb).sqrt()
}

#[test]
fn uq_quality_holds_its_floors() {
    let q = run(SEED, SEED);
    // (seed-8 value, sweep range), the value rounded outward.
    let checks = [
        ("MAE", q.mae <= 22.7518 + 4.9143),
        ("MNLL", q.mnll <= 4.9936 + 0.2562),
        ("PICP distance from 95 %", (q.picp - 95.0).abs() <= 5.0 + 0.0841),
        ("MPIW", q.mpiw <= 202.0684 + 69.9416),
        ("CRPS", q.crps <= 17.4229 + 3.7551),
        ("calibration error", q.calib_error <= 0.1606 + 0.0566),
        ("|error|-σ correlation", q.err_sigma_corr >= 0.1604 - 0.1447),
        ("flat-epistemic share", q.flat_epistemic <= 0.0),
        ("epistemic share", (q.epistemic_share - 0.012037).abs() <= 0.008735),
    ];
    let failed: Vec<&str> = checks.iter().filter(|c| !c.1).map(|c| c.0).collect();
    assert!(failed.is_empty(), "outside the UQ floors: {failed:?} in {q:?}");
}

/// The 5-seed sweep the margins come from (seeds 8–12 for both the fit and
/// the test-time passes), then the same model under five test-time MC
/// streams alone, for scale.
#[test]
#[ignore = "prints the sweeps behind the floors (about 20 s)"]
fn uq_quality_sweep() {
    for seed in SEED..SEED + 5 {
        println!("seed {seed}: {:?}", run(seed, seed));
    }
    for seed in SEED..SEED + 5 {
        println!("eval seed {seed}: {:?}", run(SEED, seed));
    }
}
