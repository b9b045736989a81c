//! Monte-Carlo dropout inference and uncertainty combination (Eq. 19).

use stuq_models::{Forecaster, InferenceSession, Prediction};
use stuq_nn::layers::FwdCtx;
use stuq_nn::loss::{LOGVAR_MAX, LOGVAR_MIN};
use stuq_tensor::{StuqRng, Tensor};

/// The result of Monte-Carlo inference, in *normalised* units.
///
/// The decomposition follows paper Eq. 7 / Eq. 19: aleatoric variance is the
/// MC average of the per-sample predicted variances; epistemic variance is
/// the sample variance of the per-sample predicted means.
#[derive(Clone, Debug)]
pub struct GaussianForecast {
    /// Predictive mean `μ̂` (Eq. 19a), shape `[N, τ]`.
    pub mu: Tensor,
    /// Mean aleatoric variance (before temperature scaling), `[N, τ]`.
    pub var_aleatoric: Tensor,
    /// Epistemic variance (unbiased across MC samples; zero for a single
    /// deterministic pass), `[N, τ]`.
    pub var_epistemic: Tensor,
    /// Number of Monte-Carlo samples used.
    pub n_samples: usize,
}

impl GaussianForecast {
    /// Total predictive variance under temperature `t` (Eq. 19b):
    /// `σ̂² = σ²_aleatoric / T² + σ²_epistemic`.
    ///
    /// The paper's Eq. 19b prints `1/T`; we use `1/T²`, which is what the
    /// calibration objective (Eq. 17–18, scaling `σ → σ/T`) implies for the
    /// variance. See EXPERIMENTS.md.
    pub fn var_total(&self, t: f32) -> Tensor {
        assert!(t > 0.0, "temperature must be positive");
        let inv_t2 = 1.0 / (t * t);
        self.var_aleatoric.scale(inv_t2).add(&self.var_epistemic)
    }

    /// Total predictive standard deviation under temperature `t`.
    pub fn sigma_total(&self, t: f32) -> Tensor {
        self.var_total(t).map(f32::sqrt)
    }
}

fn clamped_var(logvar: &Tensor) -> Tensor {
    logvar.map(|lv| lv.clamp(LOGVAR_MIN, LOGVAR_MAX).exp())
}

/// One stochastic forward pass: `(μ_j, σ²_j?)` in normalised units
/// (`σ²_j` is `None` for point and quantile heads).
pub type SamplePass = (Tensor, Option<Tensor>);

/// Combines per-sample passes into the Eq. 19 decomposition.
///
/// Accumulation runs in *sample-index order* — together with the
/// per-sample RNG streams this is what makes the parallel inference paths
/// bit-identical across thread counts. Takes a slice, so the anytime
/// sampler can fold a growing prefix.
pub(crate) fn reduce_samples(samples: &[SamplePass], shape: [usize; 2]) -> GaussianForecast {
    let n = samples.len();
    let mut mean = Tensor::zeros(&shape);
    let mut mean_sq = Tensor::zeros(&shape);
    let mut var_sum = Tensor::zeros(&shape);
    for (mu_j, var_j) in samples {
        if let Some(v) = var_j {
            var_sum.add_assign(v);
        }
        mean_sq.add_assign(&mu_j.mul(mu_j));
        mean.add_assign(mu_j);
    }
    let inv_n = 1.0 / n as f32;
    mean = mean.scale(inv_n);
    let var_aleatoric = var_sum.scale(inv_n);
    // Unbiased sample variance of the means (Eq. 19b, second term).
    let var_epistemic = if n > 1 {
        let correction = n as f32 / (n as f32 - 1.0);
        mean_sq.scale(inv_n).sub(&mean.mul(&mean)).scale(correction).map(|v| v.max(0.0))
    } else {
        Tensor::zeros(&shape)
    };
    GaussianForecast { mu: mean, var_aleatoric, var_epistemic, n_samples: n }
}

/// Forks one independent RNG stream per sample from the caller's generator.
///
/// The fork happens *before* the fan-out, on the calling thread, so the set
/// of streams is a pure function of the caller's RNG state — sample `j`
/// consumes stream `j` no matter which worker executes it or how many
/// workers exist.
pub(crate) fn fork_streams(rng: &mut StuqRng, n: usize) -> Vec<StuqRng> {
    (0..n).map(|i| rng.fork(i as u64)).collect()
}

/// A pass's point forecast and, for Gaussian heads, its clamped variance.
fn sample_pass(pred: Prediction<Tensor>) -> SamplePass {
    match pred {
        Prediction::Point(mu) | Prediction::Quantiles { mid: mu, .. } => (mu, None),
        Prediction::Gaussian { mu, logvar } => (mu, Some(clamped_var(&logvar))),
    }
}

/// One forward pass through the call's session. `deterministic` selects
/// the eval context (the single-sample `DeepSTUQ/S` mode); otherwise
/// dropout stays live ([`FwdCtx::mc_sample`]). Every MC entry point builds
/// one session per call and funnels each pass through here, which is what
/// makes the solo, anytime, and sample-range paths bit-identical for the
/// same stream.
pub(crate) fn run_pass(
    session: &dyn InferenceSession,
    x: &Tensor,
    cov: Option<&Tensor>,
    stream: &StuqRng,
    deterministic: bool,
) -> SamplePass {
    let mut r = stream.clone();
    let mut ctx = if deterministic { FwdCtx::eval(&mut r) } else { FwdCtx::mc_sample(&mut r) };
    sample_pass(session.forward(x, cov, &mut ctx))
}

/// Runs `n_samples` stochastic forward passes (`n_samples == 1` runs a single
/// deterministic pass — the `DeepSTUQ/S` mode of Table III).
///
/// Works with Gaussian heads (aleatoric + epistemic) and point heads
/// (epistemic only — the MCDO / FGE baselines). Samples are data-parallel
/// across the global `stuq-parallel` pool; see [`reduce_samples`] for the
/// determinism contract.
pub fn mc_forecast(
    model: &dyn Forecaster,
    x: &Tensor,
    n_samples: usize,
    rng: &mut StuqRng,
) -> GaussianForecast {
    mc_forecast_with_cov(model, x, None, n_samples, rng)
}

/// [`mc_forecast`] with optional exogenous covariates (`[t_h, c]`).
pub fn mc_forecast_with_cov(
    model: &dyn Forecaster,
    x: &Tensor,
    cov: Option<&Tensor>,
    n_samples: usize,
    rng: &mut StuqRng,
) -> GaussianForecast {
    assert!(n_samples >= 1, "need at least one sample");
    // Telemetry (pure observer): count samples at summary, time the fan-out
    // at trace to derive MC samples/s.
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().mc_samples.add(n_samples as u64);
    }
    let t0 = stuq_obs::trace_enabled().then(std::time::Instant::now);
    let shape = [model.n_nodes(), model.horizon()];
    let streams = fork_streams(rng, n_samples);
    let session = model.session();
    let samples = stuq_parallel::par_map(n_samples, |j| {
        run_pass(&*session, x, cov, &streams[j], n_samples == 1)
    });
    if let Some(t0) = t0 {
        let secs = t0.elapsed().as_secs_f64();
        let m = stuq_obs::metrics();
        m.mc_forecast_seconds.record(secs);
        // The whole fan-out is one sample batch from the tracing view.
        m.mc_sample_seconds.record(secs);
        if secs > 0.0 {
            m.mc_samples_per_sec.set(n_samples as f64 / secs);
        }
    }
    reduce_samples(&samples, shape)
}

/// Decides, between MC forward passes, whether the sampler may draw another
/// sample.
///
/// [`mc_forecast_anytime`] consults the budget once before every pass beyond
/// the floor; returning `false` stops sampling with however many passes have
/// completed. Implementations are typically deadline clocks (the serving
/// runtime's remaining-budget check), but anything monotone works.
pub trait SampleBudget {
    /// May one more pass run, given that `completed` passes have finished?
    fn allow(&mut self, completed: usize) -> bool;
}

/// A budget that never exhausts: every requested sample runs.
pub struct UnlimitedBudget;

impl SampleBudget for UnlimitedBudget {
    fn allow(&mut self, _completed: usize) -> bool {
        true
    }
}

/// Result of an anytime MC run: the reduced forecast over however many
/// samples the budget admitted, plus the originally requested count.
#[derive(Clone, Debug)]
pub struct AnytimeForecast {
    /// Eq. 19 decomposition over the completed passes
    /// (`forecast.n_samples` is the number actually used).
    pub forecast: GaussianForecast,
    /// Samples the caller asked for.
    pub samples_requested: usize,
}

impl AnytimeForecast {
    /// True when the budget cut the run short of the requested count.
    pub fn degraded(&self) -> bool {
        self.forecast.n_samples < self.samples_requested
    }
}

/// [`mc_forecast_with_cov`] with a cooperative deadline budget: the sampling
/// loop checks `budget` between forward passes and returns early with the
/// samples completed so far, never fewer than `floor` (clamped to
/// `1..=n_samples`).
///
/// Two determinism guarantees, both load-bearing for the serving runtime:
///
/// - the per-sample RNG streams are forked from `rng` *up front* for the full
///   requested count, so the caller's generator advances identically whether
///   or not the budget cuts the run short, and sample `j` sees the same
///   stream as the batch path would give it;
/// - an uncut run is bit-identical to [`mc_forecast_with_cov`] for the same
///   inputs (the pass mode is keyed on the *requested* count, matching the
///   batch path, and the reduction is the same sample-index-ordered fold).
///
/// The per-pass loop is sequential; each forward pass still fans out across
/// the kernel-level `stuq-parallel` pool, so results stay bit-identical for
/// any `STUQ_THREADS`. When `observer` is given it is called after every
/// completed pass with the reduction over the prefix so far — the serving
/// layer derives its monotone variance envelope from these snapshots.
#[allow(clippy::too_many_arguments)] // mirrors mc_forecast_with_cov plus the budget knobs
pub fn mc_forecast_anytime(
    model: &dyn Forecaster,
    x: &Tensor,
    cov: Option<&Tensor>,
    n_samples: usize,
    floor: usize,
    budget: &mut dyn SampleBudget,
    rng: &mut StuqRng,
    observer: Option<&mut dyn FnMut(&GaussianForecast)>,
) -> AnytimeForecast {
    assert!(n_samples >= 1, "need at least one sample");
    let shape = [model.n_nodes(), model.horizon()];
    let streams = fork_streams(rng, n_samples);
    let t0 = stuq_obs::trace_enabled().then(std::time::Instant::now);
    let session = model.session();
    let any = reduce_anytime(shape, n_samples, floor, budget, observer, |j| {
        Some(run_pass(&*session, x, cov, &streams[j], n_samples == 1))
    });
    let used = any.forecast.n_samples;
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().mc_samples.add(used as u64);
    }
    if let Some(t0) = t0 {
        let secs = t0.elapsed().as_secs_f64();
        let m = stuq_obs::metrics();
        m.mc_forecast_seconds.record(secs);
        if secs > 0.0 {
            m.mc_samples_per_sec.set(used as f64 / secs);
        }
    }
    any
}

/// The passes `range` of an `n_samples`-pass MC forecast, exactly as
/// [`mc_forecast_anytime`] would run them: the streams are forked from
/// `rng` for the full count (so `rng` advances identically whatever the
/// range), and `n_samples == 1` selects the deterministic pass. A cluster
/// worker answers one sample range with this; the router reduces the
/// gathered passes with [`reduce_anytime`].
pub fn mc_passes(
    model: &dyn Forecaster,
    x: &Tensor,
    cov: Option<&Tensor>,
    n_samples: usize,
    range: std::ops::Range<usize>,
    rng: &mut StuqRng,
) -> Vec<SamplePass> {
    assert!(n_samples >= 1, "need at least one sample");
    assert!(range.end <= n_samples, "pass range {range:?} beyond {n_samples} samples");
    let streams = fork_streams(rng, n_samples);
    let session = model.session();
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().mc_samples.add(range.len() as u64);
    }
    stuq_parallel::par_map(range.len(), |k| {
        run_pass(&*session, x, cov, &streams[range.start + k], n_samples == 1)
    })
}

/// The anytime half of [`mc_forecast_anytime`]: folds passes `0..n_samples`
/// in sample-index order, consulting `budget` before every pass beyond
/// `floor` (clamped to `1..=n_samples`) and calling `observer` with the
/// reduction over the passes so far after each one.
///
/// `pass(j)` yields pass `j`, or `None` when it is missing (a cluster
/// shard that did not answer). Missing passes are skipped: the budget and
/// the floor count the passes actually folded, so with every pass present
/// the clock-read schedule is exactly the local one. A caller with missing
/// passes must supply at least `floor` of them.
pub fn reduce_anytime(
    shape: [usize; 2],
    n_samples: usize,
    floor: usize,
    budget: &mut dyn SampleBudget,
    mut observer: Option<&mut dyn FnMut(&GaussianForecast)>,
    mut pass: impl FnMut(usize) -> Option<SamplePass>,
) -> AnytimeForecast {
    let floor = floor.clamp(1, n_samples);
    let mut samples: Vec<SamplePass> = Vec::with_capacity(n_samples);
    for j in 0..n_samples {
        if samples.len() >= floor && !budget.allow(samples.len()) {
            break;
        }
        let Some(p) = pass(j) else { continue };
        samples.push(p);
        if let Some(obs) = observer.as_deref_mut() {
            obs(&reduce_samples(&samples, shape));
        }
    }
    AnytimeForecast { forecast: reduce_samples(&samples, shape), samples_requested: n_samples }
}

/// Ensemble combination for snapshot ensembles (FGE): runs one deterministic
/// pass per snapshot, data-parallel with one model clone per snapshot.
///
/// Returns the same decomposition as [`mc_forecast`], with the across-model
/// variance playing the epistemic role. On return `model` holds the *last*
/// snapshot, matching the sequential implementation's post-condition.
pub fn ensemble_forecast<M: Forecaster + Clone>(
    model: &mut M,
    snapshots: &[Vec<Tensor>],
    x: &Tensor,
    rng: &mut StuqRng,
) -> GaussianForecast {
    assert!(!snapshots.is_empty(), "need at least one snapshot");
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().mc_samples.add(snapshots.len() as u64);
    }
    let shape = [model.n_nodes(), model.horizon()];
    let streams = fork_streams(rng, snapshots.len());
    let proto: &M = model;
    let samples = stuq_parallel::par_map(snapshots.len(), |j| {
        let mut member = proto.clone();
        member.params_mut().load_snapshot(&snapshots[j]);
        let session = member.session();
        run_pass(&*session, x, None, &streams[j], true)
    });
    model.params_mut().load_snapshot(snapshots.last().expect("non-empty"));
    reduce_samples(&samples, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_models::gru::{GruConfig, GruForecaster};
    use stuq_models::{Agcrn, AgcrnConfig, HeadKind};

    fn model_with_dropout(head: HeadKind, p: f32, rng: &mut StuqRng) -> Agcrn {
        let cfg = AgcrnConfig::new(5, 3).with_capacity(8, 3, 1).with_dropout(p, p).with_head(head);
        Agcrn::new(cfg, rng)
    }

    #[test]
    fn single_sample_is_deterministic_with_zero_epistemic() {
        let mut rng = StuqRng::new(1);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f1 = mc_forecast(&model, &x, 1, &mut rng);
        let f2 = mc_forecast(&model, &x, 1, &mut rng);
        assert_eq!(f1.mu.data(), f2.mu.data(), "n=1 disables dropout");
        assert_eq!(f1.var_epistemic.sum(), 0.0);
        assert!(f1.var_aleatoric.min() > 0.0);
    }

    #[test]
    fn mc_sampling_produces_positive_epistemic_variance() {
        let mut rng = StuqRng::new(2);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f = mc_forecast(&model, &x, 8, &mut rng);
        assert!(f.var_epistemic.mean() > 0.0, "dropout must create spread");
        assert!(f.var_epistemic.min() >= 0.0);
    }

    #[test]
    fn point_head_yields_epistemic_only() {
        let mut rng = StuqRng::new(3);
        let model = model_with_dropout(HeadKind::Point, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f = mc_forecast(&model, &x, 6, &mut rng);
        assert_eq!(f.var_aleatoric.sum(), 0.0);
        assert!(f.var_epistemic.mean() > 0.0);
    }

    #[test]
    fn temperature_scales_only_aleatoric_part() {
        let mut rng = StuqRng::new(4);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f = mc_forecast(&model, &x, 8, &mut rng);
        let v1 = f.var_total(1.0);
        let v2 = f.var_total(2.0);
        // At T=2 the aleatoric part shrinks by 4×; epistemic unchanged.
        let expect = f.var_aleatoric.scale(0.25).add(&f.var_epistemic);
        for (a, b) in v2.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(v1.mean() > v2.mean());
    }

    #[test]
    fn more_samples_stabilise_the_mean() {
        // The MC mean at n=16 from two different RNG streams should agree
        // more closely than at n=2 (Fig. 11's mechanism).
        let mut rng = StuqRng::new(5);
        let model = model_with_dropout(HeadKind::Gaussian, 0.4, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let spread = |n: usize| {
            let mut r1 = StuqRng::new(100);
            let mut r2 = StuqRng::new(200);
            let f1 = mc_forecast(&model, &x, n, &mut r1);
            let f2 = mc_forecast(&model, &x, n, &mut r2);
            f1.mu.sub(&f2.mu).norm()
        };
        assert!(spread(32) < spread(2), "MC mean must concentrate with more samples");
    }

    #[test]
    fn mc_forecast_is_bit_identical_across_thread_counts() {
        // The fixed-seed forecast must not depend on how many threads run
        // the samples: forked streams + ordered reduction (DESIGN.md
        // "Threading & determinism").
        let mut rng = StuqRng::new(11);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let par = mc_forecast(&model, &x, 8, &mut StuqRng::new(42));
        let ser = stuq_parallel::with_serial(|| mc_forecast(&model, &x, 8, &mut StuqRng::new(42)));
        assert_eq!(par.mu.data(), ser.mu.data());
        assert_eq!(par.var_aleatoric.data(), ser.var_aleatoric.data());
        assert_eq!(par.var_epistemic.data(), ser.var_epistemic.data());
    }

    /// Denies everything: the anytime loop must stop exactly at the floor.
    struct DenyAll;
    impl SampleBudget for DenyAll {
        fn allow(&mut self, _c: usize) -> bool {
            false
        }
    }

    /// Admits passes while `completed < cap`.
    struct CapBudget(usize);
    impl SampleBudget for CapBudget {
        fn allow(&mut self, completed: usize) -> bool {
            completed < self.0
        }
    }

    #[test]
    fn anytime_uncut_matches_mc_forecast_bitwise() {
        let mut rng = StuqRng::new(21);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let full = mc_forecast(&model, &x, 8, &mut StuqRng::new(7));
        let any = mc_forecast_anytime(
            &model,
            &x,
            None,
            8,
            1,
            &mut UnlimitedBudget,
            &mut StuqRng::new(7),
            None,
        );
        assert!(!any.degraded());
        assert_eq!(any.forecast.n_samples, 8);
        assert_eq!(any.forecast.mu.data(), full.mu.data());
        assert_eq!(any.forecast.var_aleatoric.data(), full.var_aleatoric.data());
        assert_eq!(any.forecast.var_epistemic.data(), full.var_epistemic.data());
    }

    #[test]
    fn anytime_never_goes_below_the_floor() {
        let mut rng = StuqRng::new(22);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        for floor in [1usize, 3, 8] {
            let any = mc_forecast_anytime(
                &model,
                &x,
                None,
                8,
                floor,
                &mut DenyAll,
                &mut StuqRng::new(7),
                None,
            );
            assert_eq!(any.forecast.n_samples, floor, "DenyAll must stop exactly at the floor");
            assert_eq!(any.samples_requested, 8);
            assert_eq!(any.degraded(), floor < 8);
        }
        // An over-large floor clamps to the requested count.
        let any =
            mc_forecast_anytime(&model, &x, None, 4, 99, &mut DenyAll, &mut StuqRng::new(7), None);
        assert_eq!(any.forecast.n_samples, 4);
    }

    #[test]
    fn anytime_prefix_equals_batch_prefix_and_rng_advances_identically() {
        // A budget-cut run must (a) reduce exactly the first k streams of the
        // batch path and (b) leave the caller's RNG in the same state as an
        // uncut run, so downstream draws don't depend on load.
        let mut rng = StuqRng::new(23);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let mut r_cut = StuqRng::new(9);
        let cut = mc_forecast_anytime(&model, &x, None, 8, 1, &mut CapBudget(3), &mut r_cut, None);
        assert_eq!(cut.forecast.n_samples, 3);
        assert!(cut.degraded());
        let mut r_full = StuqRng::new(9);
        let full = mc_forecast(&model, &x, 8, &mut r_full);
        assert_ne!(cut.forecast.mu.data(), full.mu.data(), "3-sample mean differs from 8-sample");
        let a = Tensor::randn(&[3, 3], 1.0, &mut r_cut);
        let b = Tensor::randn(&[3, 3], 1.0, &mut r_full);
        assert_eq!(a.data(), b.data(), "caller RNG state must be budget-independent");
    }

    #[test]
    fn anytime_observer_sees_every_prefix() {
        let mut rng = StuqRng::new(24);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let mut seen = Vec::new();
        let mut obs = |g: &GaussianForecast| seen.push(g.n_samples);
        let any = mc_forecast_anytime(
            &model,
            &x,
            None,
            6,
            1,
            &mut UnlimitedBudget,
            &mut StuqRng::new(7),
            Some(&mut obs),
        );
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(any.forecast.n_samples, 6);
    }

    #[test]
    fn range_passes_reduce_to_the_anytime_result_bitwise() {
        // Passes produced range by range (the cluster split) and folded by
        // `reduce_anytime` are the local anytime run, cut or uncut, and the
        // caller's RNG advances identically for every range.
        let mut rng = StuqRng::new(25);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let shape = [5, 3];
        for n in [1usize, 2, 3, 7] {
            let mut passes = Vec::new();
            for (lo, hi) in [(0, n / 3), (n / 3, 2 * n / 3), (2 * n / 3, n)] {
                let mut r = StuqRng::new(9);
                passes.extend(mc_passes(&model, &x, None, n, lo..hi, &mut r));
                let mut r_ref = StuqRng::new(9);
                let _ = fork_streams(&mut r_ref, n);
                assert_eq!(r.next_u64(), r_ref.next_u64(), "n={n} {lo}..{hi}: rng advance");
            }
            for cap in [1usize, 2, n] {
                let mut slot: Vec<Option<SamplePass>> = passes.iter().cloned().map(Some).collect();
                let got =
                    reduce_anytime(shape, n, 1, &mut CapBudget(cap), None, |j| slot[j].take());
                let want = mc_forecast_anytime(
                    &model,
                    &x,
                    None,
                    n,
                    1,
                    &mut CapBudget(cap),
                    &mut StuqRng::new(9),
                    None,
                );
                assert_bitwise(&got.forecast, &want.forecast, &format!("n={n} cap={cap}"));
            }
        }
        // A missing pass is skipped: the fold is the reduction of the rest.
        let passes = mc_passes(&model, &x, None, 4, 0..4, &mut StuqRng::new(9));
        let got = reduce_anytime(shape, 4, 2, &mut UnlimitedBudget, None, |j| {
            (j != 1).then(|| passes[j].clone())
        });
        let rest: Vec<SamplePass> = [0, 2, 3].iter().map(|&j| passes[j].clone()).collect();
        assert_eq!(got.forecast.n_samples, 3);
        assert!(got.degraded());
        assert_bitwise(&got.forecast, &reduce_samples(&rest, shape), "missing pass 1");
    }

    /// The tape oracle: the first `k` of the `n` streams an entry point
    /// forks from `rng`, each run through `Forecaster::forward_with_cov` on
    /// a fresh tape, reduced in sample order. Advances `rng` exactly as the
    /// entry points do.
    fn tape_oracle(
        model: &dyn Forecaster,
        x: &Tensor,
        cov: Option<&Tensor>,
        n: usize,
        k: usize,
        rng: &mut StuqRng,
    ) -> GaussianForecast {
        let streams = fork_streams(rng, n);
        let passes: Vec<SamplePass> = streams[..k]
            .iter()
            .map(|stream| {
                let mut r = stream.clone();
                let mut tape = stuq_tensor::Tape::new();
                let mut ctx = if n == 1 { FwdCtx::eval(&mut r) } else { FwdCtx::mc_sample(&mut r) };
                let pred = model.forward_with_cov(&mut tape, x, cov, &mut ctx);
                let var = match pred {
                    Prediction::Gaussian { logvar, .. } => Some(clamped_var(tape.value(logvar))),
                    _ => None,
                };
                (tape.value(pred.point()).clone(), var)
            })
            .collect();
        reduce_samples(&passes, [model.n_nodes(), model.horizon()])
    }

    fn assert_bitwise(got: &GaussianForecast, want: &GaussianForecast, what: &str) {
        assert_eq!(got.n_samples, want.n_samples, "{what}: sample count");
        for (g, w, part) in [
            (&got.mu, &want.mu, "mu"),
            (&got.var_aleatoric, &want.var_aleatoric, "var_aleatoric"),
            (&got.var_epistemic, &want.var_epistemic, "var_epistemic"),
        ] {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}: {part} differs from the tape");
        }
    }

    /// Asserts two generators sit at the same position.
    fn assert_same_rng(a: &mut StuqRng, b: &mut StuqRng, what: &str) {
        assert_eq!(a.next_u64(), b.next_u64(), "{what}: caller RNG position");
    }

    /// Every MC entry point against the tape oracle for one model and input.
    fn check_against_tape(
        model: &dyn Forecaster,
        x: &Tensor,
        cov: Option<&Tensor>,
        n: usize,
        case: &str,
    ) {
        let at = |entry: &str| format!("{case}, n {n}: {entry}");
        let oracle = |k: usize, seed: u64| {
            let mut r = StuqRng::new(seed);
            (tape_oracle(model, x, cov, n, k, &mut r), r)
        };

        let mut r = StuqRng::new(7);
        let solo = mc_forecast_with_cov(model, x, cov, n, &mut r);
        let (want, mut wr) = oracle(n, 7);
        assert_bitwise(&solo, &want, &at("mc_forecast_with_cov"));
        assert_same_rng(&mut r, &mut wr, &at("mc_forecast_with_cov"));

        let mut prefixes = Vec::new();
        let mut obs = |g: &GaussianForecast| prefixes.push(g.clone());
        let mut r = StuqRng::new(8);
        let budget = &mut UnlimitedBudget;
        let any = mc_forecast_anytime(model, x, cov, n, 1, budget, &mut r, Some(&mut obs));
        let (want, mut wr) = oracle(n, 8);
        assert_bitwise(&any.forecast, &want, &at("mc_forecast_anytime"));
        assert_same_rng(&mut r, &mut wr, &at("mc_forecast_anytime"));
        for (k, prefix) in prefixes.iter().enumerate() {
            assert_bitwise(prefix, &oracle(k + 1, 8).0, &at("mc_forecast_anytime prefix"));
        }
        let mut r = StuqRng::new(8);
        let cut = mc_forecast_anytime(model, x, cov, n, 1, &mut CapBudget(2), &mut r, None);
        assert_bitwise(&cut.forecast, &oracle(n.min(2), 8).0, &at("mc_forecast_anytime cut"));

        // A cluster's sample ranges, concatenated, are the whole run.
        let (want, wr) = oracle(n, 9);
        let mut passes = Vec::new();
        for range in [0..n / 2, n / 2..n] {
            let mut r = StuqRng::new(9);
            passes.extend(mc_passes(model, x, cov, n, range, &mut r));
            assert_same_rng(&mut r, &mut wr.clone(), &at("mc_passes"));
        }
        let shape = [model.n_nodes(), model.horizon()];
        assert_bitwise(&reduce_samples(&passes, shape), &want, &at("mc_passes"));
    }

    #[test]
    fn every_entry_point_matches_tape_passes_bitwise() {
        // The per-call session runs no tape; its passes must reproduce the
        // tape forward's bytes and RNG consumption across heads, covariates,
        // the deterministic single-sample mode, a dropout-free encoder, and
        // the serial / reference-kernel execution modes. A baseline model
        // covers the default (tape-backed) session.
        let mut rng = StuqRng::new(41);
        let two_layer = |cfg: AgcrnConfig| cfg.with_capacity(8, 3, 2);
        let mut models: Vec<(&str, Box<dyn Forecaster>, bool)> = vec![
            ("gaussian", AgcrnConfig::new(5, 3).with_dropout(0.3, 0.2), false),
            (
                "point",
                AgcrnConfig::new(5, 3).with_dropout(0.3, 0.2).with_head(HeadKind::Point),
                false,
            ),
            (
                "quantile",
                AgcrnConfig::new(5, 3).with_dropout(0.3, 0.2).with_head(HeadKind::Quantile),
                false,
            ),
            ("covariates", AgcrnConfig::new(5, 3).with_dropout(0.3, 0.2).with_covariates(1), true),
            ("encoder dropout 0", AgcrnConfig::new(5, 3).with_dropout(0.0, 0.2), false),
        ]
        .into_iter()
        .map(|(name, cfg, cov)| {
            (name, Box::new(Agcrn::new(two_layer(cfg), &mut rng)) as Box<dyn Forecaster>, cov)
        })
        .collect();
        let gru =
            GruConfig { decoder_dropout: 0.2, head: HeadKind::Gaussian, ..GruConfig::new(5, 3) };
        models.push(("gru baseline", Box::new(GruForecaster::new(gru, &mut rng)), false));
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let cov = Tensor::randn(&[4, 1], 1.0, &mut rng);
        let run_all = || {
            for (name, model, with_cov) in &models {
                for n in [1usize, 5] {
                    check_against_tape(&**model, &x, with_cov.then_some(&cov), n, name);
                }
            }
        };
        run_all();
        stuq_parallel::with_serial(run_all);
        stuq_parallel::with_serial(|| stuq_tensor::kernels::with_reference_kernels(run_all));
    }

    #[test]
    fn ensemble_variance_zero_for_identical_snapshots() {
        let mut rng = StuqRng::new(6);
        let mut model = model_with_dropout(HeadKind::Point, 0.0, &mut rng);
        let snap = model.params().snapshot();
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let f = ensemble_forecast(&mut model, &[snap.clone(), snap], &x, &mut rng);
        assert!(f.var_epistemic.max() < 1e-10);
    }
}
