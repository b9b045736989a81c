//! The `train_fit` workload: `DeepStuq::fit` (pre-train, AWA re-train,
//! temperature calibration) at paper capacity on a small frozen
//! Pems08-like dataset, alternating with `deepstuq::eval::evaluate` passes
//! over its test split for the run's duration.

use deepstuq::config::{AwaConfig, CalibConfig, TrainConfig};
use deepstuq::eval::{evaluate, RawForecast};
use deepstuq::{DeepStuq, DeepStuqConfig, FitOptions, FitOutcome};
use stuq_models::{Agcrn, Forecaster};
use stuq_tensor::StuqRng;
use stuq_traffic::{Split, SplitDataset};

use crate::fixture::{self, Quality, WorkDir};
use crate::hostspeed::HostRef;
use crate::stats::{median, percentile, thread_cpu_s};
use crate::Report;

/// References on each side of a fit that give its host speed. Nearer
/// references track the host's short spells better than whole passes:
/// over single runs the per-fit spread fell by about a quarter.
const NEAR_REFS: usize = 8;
/// Node and step fractions of the Pems08 spec for the training dataset:
/// 17 sensors, 161 steps. Small enough that a fit takes about a second,
/// so a run holds a dozen or more of them.
pub const TRAIN_DATA: (f64, f64) = (0.1, 0.009);

/// Paper capacity with fixed small epoch counts: one pre-training epoch,
/// one AWA cycle (2 epochs), calibration on every 4th validation window.
pub fn fit_config(ds: &SplitDataset) -> DeepStuqConfig {
    DeepStuqConfig {
        train: TrainConfig::scaled(1, 16),
        awa: Some(AwaConfig::scaled(2, 16)),
        calib: Some(CalibConfig { mc_samples: fixture::MC, max_iters: 100, stride: 4 }),
        ..fixture::paper_config(ds)
    }
}

/// Training windows one fit processes (pre-train and AWA epochs).
pub fn windows_per_fit(ds: &SplitDataset, cfg: &DeepStuqConfig) -> usize {
    ds.window_starts(Split::Train).len() * cfg.total_epochs()
}

/// Bit pattern of a trained model: every parameter, then the temperature.
pub fn model_bits(m: &DeepStuq) -> Vec<u32> {
    let mut bits: Vec<u32> = m
        .model()
        .params()
        .snapshot()
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        .collect();
    bits.push(m.temperature().to_bits());
    bits
}

/// Runs `DeepStuq::fit` to completion.
pub fn fit(ds: &SplitDataset, cfg: &DeepStuqConfig, seed: u64) -> Result<DeepStuq, String> {
    match DeepStuq::fit(ds, cfg.clone(), seed, &FitOptions::default()) {
        Ok(FitOutcome::Complete { model, .. }) => Ok(model),
        Ok(FitOutcome::Paused { .. }) => Err("fit paused without an epoch budget".into()),
        Err(e) => Err(format!("fit failed: {e}")),
    }
}

/// Timings of the `evaluate` passes, each at nominal host speed and as
/// measured: every window's forecast, in ms, and every set-up, in s.
#[derive(Default)]
struct PassLog {
    lat_ms: Vec<f64>,
    lat_raw_ms: Vec<f64>,
    setup_s: Vec<f64>,
    setup_raw_s: Vec<f64>,
}

/// One `evaluate` pass over the test split with MC seeds from `rng`, each
/// forecast between two host references, each reference followed by one
/// `set_up` (which returns its thread CPU seconds, NaN if it failed). The
/// timings go to `log` and every window's cells are scored into `q`.
/// Returns the thread CPU times of the pass's references in order, or
/// `None` if evaluate's own MAE disagrees with the forecasts it was handed.
fn eval_pass(
    model: &DeepStuq,
    ds: &SplitDataset,
    mut rng: StuqRng,
    host: &mut HostRef,
    mut set_up: impl FnMut() -> f64,
    log: &mut PassLog,
    q: &mut Quality,
) -> Option<Vec<f64>> {
    let mut pass_q = Quality::new(ds.horizon());
    let mut ref_cpu = Vec::new();
    let (lat_ms, lat_raw_ms) = (&mut log.lat_ms, &mut log.lat_raw_ms);
    let (setup_s, setup_raw_s) = (&mut log.setup_s, &mut log.setup_raw_s);
    let mut time_ref = |host: &mut HostRef| {
        let (wall, cpu) = host.time_both();
        ref_cpu.push(cpu);
        let s = set_up();
        setup_raw_s.push(s);
        setup_s.push(HostRef::nominal(s, cpu));
        wall
    };
    let mut r_before = time_ref(host);
    let result = evaluate(ds, Split::Test, 1, |x, start| {
        let t0 = std::time::Instant::now();
        let f = model.predict(x, ds.scaler(), &mut rng);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let r_after = time_ref(host);
        lat_raw_ms.push(ms);
        lat_ms.push(HostRef::nominal(ms, (r_before + r_after) / 2.0));
        r_before = r_after;
        let y = ds.window(start).y_raw; // [τ, N]
        for node in 0..f.mu.shape()[0] {
            for h in 0..f.mu.shape()[1] {
                let (mu, sigma, truth) =
                    (f.mu.get(node, h), f.sigma_total.get(node, h), y.get(h, node));
                q.add(h, mu, sigma, truth);
                pass_q.add(h, mu, sigma, truth);
            }
        }
        RawForecast { mu: f.mu, sigma: Some(f.sigma_total), bounds: None }
    });
    let mae = pass_q.scores().mae;
    if (result.point.mae - mae).abs() > 1e-9 * mae.max(1.0) {
        eprintln!(
            "evaluate MAE {} disagrees with the forecasts it scored ({mae})",
            result.point.mae
        );
        return None;
    }
    Some(ref_cpu)
}

/// Runs one untraced `train_fit`.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let dir = WorkDir::new("train")?;
    let data_path = dir.file("data.stuqd");
    let (nf, sf) = TRAIN_DATA;
    stuq_traffic::save_dataset(fixture::dataset(nf, sf).data(), &data_path)
        .map_err(|e| e.to_string())?;

    // Set-up: the dataset load plus model initialisation. It is timed
    // after every reference of the evaluate passes, so against a reference
    // taken just before it: its cost swings with the host in spells
    // shorter than a run.
    let set_up = || -> Result<(SplitDataset, Agcrn), String> {
        let ds = stuq_traffic::load_split_dataset(&data_path).map_err(|e| e.to_string())?;
        let mut rng = StuqRng::new(seed);
        let model = Agcrn::new(fit_config(&ds).base, &mut rng);
        Ok((ds, model))
    };
    let timed_set_up = || {
        let c0 = thread_cpu_s();
        let built = set_up();
        let cpu = thread_cpu_s() - c0;
        if built.is_ok() {
            cpu
        } else {
            f64::NAN
        }
    };
    let mut host = HostRef::default();
    let (ds, _) = set_up()?;
    let cfg = fit_config(&ds);
    let windows = windows_per_fit(&ds, &cfg);

    // The first fit uses the frozen fixture seed: its model is the one
    // scored (by a first evaluate pass with fixed MC seeds), so quality
    // moves only when the program's bytes move. Then fits of the workload
    // seed alternate with evaluate passes until the run's time is up;
    // repeated fits of one seed must reproduce its bytes. A fit's host
    // speed is that of the references nearest to it, at the end of the
    // pass before it and the start of the pass after it.
    let t_run = std::time::Instant::now();
    let mut fit_cpu = Vec::new();
    let mut log = PassLog::default();
    let mut pass_ref = Vec::new();
    let mut q = Quality::new(ds.horizon());
    let mut scored = None;
    let mut model = None;
    let mut seed_bits: Option<Vec<u32>> = None;
    let mut failed = 0u64;
    while model.is_none() || t_run.elapsed().as_secs_f64() < seconds {
        let fit_seed = if model.is_none() { fixture::FIXTURE_SEED } else { seed };
        let c0 = thread_cpu_s();
        let m = fit(&ds, &cfg, fit_seed)?;
        fit_cpu.push(thread_cpu_s() - c0);
        if model.is_none() {
            model = Some(m);
        } else {
            let bits = model_bits(&m);
            match &seed_bits {
                None => seed_bits = Some(bits),
                Some(b0) if *b0 != bits => {
                    failed += 1;
                    eprintln!("fit {} diverged from the first fit of seed {seed}", fit_cpu.len());
                }
                Some(_) => {}
            }
        }
        let model = model.as_ref().expect("the first fit is kept");
        let passes = pass_ref.len() as u64;
        let rng = if passes == 0 {
            StuqRng::new(fixture::FIXTURE_SEED)
        } else {
            StuqRng::new(seed ^ 0xE7A1).fork(passes)
        };
        let pass = eval_pass(model, &ds, rng, &mut host, timed_set_up, &mut log, &mut q);
        failed += u64::from(pass.is_none());
        pass_ref.push(pass.unwrap_or_default());
        if passes == 0 {
            scored = Some(q.scores());
        }
    }
    if log.setup_s.iter().any(|s| s.is_nan()) {
        return Err("a set-up during the run failed".into());
    }
    let scores = scored.expect("one evaluate pass ran");
    let fits = fit_cpu.len();
    // Fit k runs between evaluate passes k - 1 and k.
    let cpu_ms: Vec<f64> = fit_cpu
        .iter()
        .enumerate()
        .map(|(k, &c)| {
            let mut near: Vec<f64> = pass_ref[k].iter().take(NEAR_REFS).copied().collect();
            if let Some(prev) = k.checked_sub(1).map(|j| &pass_ref[j]) {
                near.extend(&prev[prev.len().saturating_sub(NEAR_REFS)..]);
            }
            HostRef::nominal(c * 1e3 / windows as f64, median(&near))
        })
        .collect();

    let mut rep = Report::new((fits + log.lat_ms.len()) as u64, failed, failed == 0);
    rep.note(format!(
        "{fits} fits of {windows} training windows ({} nodes, {} epochs, batch {}); \
         {} pool threads; {} evaluate passes, {} forecasts, PICP {:.2}%",
        ds.n_nodes(),
        cfg.total_epochs(),
        cfg.train.batch_size,
        stuq_parallel::num_threads(),
        pass_ref.len(),
        log.lat_ms.len(),
        scores.picp,
    ));
    rep.note(format!(
        "as measured: cpu/window p50 {:.4} ms, forecast latency p50 {:.4} p95 {:.4} ms, \
         setup p50 {:.6} s; at nominal host speed: forecast latency p50 {:.4} p95 {:.4} ms",
        median(&fit_cpu) * 1e3 / windows as f64,
        median(&log.lat_raw_ms),
        percentile(&log.lat_raw_ms, 0.95),
        median(&log.setup_raw_s),
        median(&log.lat_ms),
        percentile(&log.lat_ms, 0.95),
    ));
    rep.metric("setup_s", median(&log.setup_s), "s", log.setup_s.len());
    rep.metric("cpu_ms_per_op", median(&cpu_ms), "ms", fits);
    rep.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB", 1);
    rep.quality(&scores, ds.window_starts(Split::Test).len());
    Ok(rep)
}
