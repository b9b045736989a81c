//! Monte-Carlo dropout inference, combined by the one Eq. 19 fold
//! (`Eq19Fold`) and turned into raw-unit μ and σ by the one conversion,
//! [`GaussianForecast::to_raw`].

use stuq_metrics::Z_95;
use stuq_models::{Forecaster, InferenceSession, Prediction};
use stuq_nn::layers::FwdCtx;
use stuq_nn::loss::{LOGVAR_MAX, LOGVAR_MIN};
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::Scaler;

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

/// A raw-scale probabilistic forecast: mean, decomposed uncertainty and the
/// 95 % prediction interval.
#[derive(Clone, Debug)]
pub struct Forecast {
    /// Point forecast, `[N, τ]` raw units.
    pub mu: Tensor,
    /// Total predictive σ (aleatoric/T + epistemic), `[N, τ]` raw units.
    pub sigma_total: Tensor,
    /// Calibrated aleatoric σ, `[N, τ]`.
    pub sigma_aleatoric: Tensor,
    /// Epistemic σ, `[N, τ]`.
    pub sigma_epistemic: Tensor,
    /// Lower 95 % bound (`μ − 1.96 σ_total`).
    pub lower: Tensor,
    /// Upper 95 % bound.
    pub upper: Tensor,
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

    /// The raw-unit forecast under temperature `t`: `μ̂` through the
    /// scaler, each σ scaled by its std, the aleatoric σ divided by `T`,
    /// the total σ from [`GaussianForecast::var_total`], and the 95 %
    /// interval `μ ∓ z·σ_total`. The only code that turns Eq. 19 sums
    /// into raw μ/σ; every forecast the workspace reports comes through it.
    pub fn to_raw(&self, scaler: &Scaler, t: f32) -> Forecast {
        let std = scaler.std() as f32;
        let mu = self.mu.map(|v| scaler.inverse(v));
        let sigma_total = self.var_total(t).map(f32::sqrt).scale(std);
        let sigma_aleatoric = self.var_aleatoric.map(|v| (v.max(0.0)).sqrt() / t * std);
        let sigma_epistemic = self.var_epistemic.map(|v| v.max(0.0).sqrt() * std);
        let z = Z_95 as f32;
        let lower = mu.zip(&sigma_total, |m, s| m - z * s);
        let upper = mu.zip(&sigma_total, |m, s| m + z * s);
        Forecast { mu, sigma_total, sigma_aleatoric, sigma_epistemic, lower, upper }
    }
}

fn clamped_var(logvar: &Tensor) -> Tensor {
    logvar.map(|lv| lv.clamp(LOGVAR_MIN, LOGVAR_MAX).exp())
}

/// One stochastic forward pass: `(μ_j, σ²_j?)` in normalised units
/// (`σ²_j` is `None` for point and quantile heads).
pub type SamplePass = (Tensor, Option<Tensor>);

/// The running Eq. 19 sums `Σ σ²_j`, `Σ μ_j²`, `Σ μ_j`: the only code that
/// combines passes. Pushing in sample order (with per-sample RNG streams)
/// makes every entry point bit-identical to the others at any thread count.
/// The sums start at `+0.0` and `μ_j²` is a multiply then an add, not an FMA.
pub(crate) struct Eq19Fold {
    mean: Tensor,
    mean_sq: Tensor,
    var_sum: Tensor,
    n: usize,
}

impl Eq19Fold {
    pub(crate) fn new(shape: [usize; 2]) -> Self {
        let zeros = Tensor::zeros(&shape);
        Self { mean: zeros.clone(), mean_sq: zeros.clone(), var_sum: zeros, n: 0 }
    }

    /// The decomposition over `passes`, pushed in order.
    pub(crate) fn over(shape: [usize; 2], passes: &[SamplePass]) -> GaussianForecast {
        passes.iter().fold(Self::new(shape), Self::push).snapshot()
    }

    /// Adds one pass to the sums.
    pub(crate) fn push(mut self, (mu, var): &SamplePass) -> Self {
        if let Some(v) = var {
            self.var_sum.add_assign(v);
        }
        self.mean_sq.add_assign(&mu.mul(mu));
        self.mean.add_assign(mu);
        self.n += 1;
        self
    }

    /// The Eq. 19 decomposition over the passes pushed so far.
    pub(crate) fn snapshot(&self) -> GaussianForecast {
        let inv_n = 1.0 / self.n as f32;
        let mu = self.mean.scale(inv_n);
        let var_aleatoric = self.var_sum.scale(inv_n);
        // Unbiased sample variance of the means (Eq. 19b, second term).
        let var_epistemic = if self.n > 1 {
            let correction = self.n as f32 / (self.n as f32 - 1.0);
            self.mean_sq.scale(inv_n).sub(&mu.mul(&mu)).scale(correction).map(|v| v.max(0.0))
        } else {
            Tensor::zeros(self.mean.shape())
        };
        GaussianForecast { mu, var_aleatoric, var_epistemic, n_samples: self.n }
    }
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

/// Passes per block: how many MC samples run in lockstep through one
/// session call (DESIGN.md §17). Fixed, so a 1024-sample request holds at
/// most one block of activations at a time; which samples share a block
/// never changes their bytes.
pub const BLOCK: usize = 16;

/// One block of forward passes through the call's session, one per stream
/// of `streams`, in stream order. `deterministic` selects the eval context
/// (the single-sample `DeepSTUQ/S` mode); otherwise dropout stays live
/// ([`FwdCtx::mc_sample`]). Every MC entry point builds one session per
/// call and funnels its passes through here, which is what makes the solo,
/// anytime, and sample-range paths bit-identical for the same streams.
pub(crate) fn run_block(
    session: &dyn InferenceSession,
    x: &Tensor,
    cov: Option<&Tensor>,
    streams: &[StuqRng],
    deterministic: bool,
) -> Vec<SamplePass> {
    let mut rngs = streams.to_vec();
    let rngs = &mut rngs[..];
    let mut ctx = if deterministic { FwdCtx::eval(rngs) } else { FwdCtx::mc_sample(rngs) };
    session
        .forward(x, cov, &mut ctx)
        .into_iter()
        .map(|pred| match pred {
            Prediction::Point(mu) | Prediction::Quantiles { mid: mu, .. } => (mu, None),
            Prediction::Gaussian { mu, logvar } => (mu, Some(clamped_var(&logvar))),
        })
        .collect()
}

/// Runs `n_samples` stochastic forward passes (`n_samples == 1` runs a single
/// deterministic pass — the `DeepSTUQ/S` mode of Table III).
///
/// Works with Gaussian heads (aleatoric + epistemic) and point heads
/// (epistemic only — the MCDO / FGE baselines). The passes are
/// [`mc_passes`] over `0..n_samples`, data-parallel across the global
/// `stuq-parallel` pool, folded by Eq. 19 in sample order.
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
    // Trace telemetry (pure observer); `mc_passes` counts the samples.
    let t0 = stuq_obs::trace_enabled().then(std::time::Instant::now);
    let passes = mc_passes(model, x, cov, n_samples, 0..n_samples, rng);
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
    Eq19Fold::over([model.n_nodes(), model.horizon()], &passes)
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

    /// Whether [`SampleBudget::allow`] may ever refuse. A budget that
    /// cannot cut lets [`mc_forecast_anytime`] run the floor's passes in
    /// the same block as the rest.
    fn can_cut(&self) -> bool {
        true
    }
}

/// A budget that never exhausts: every requested sample runs.
pub struct UnlimitedBudget;

impl SampleBudget for UnlimitedBudget {
    fn allow(&mut self, _completed: usize) -> bool {
        true
    }

    fn can_cut(&self) -> bool {
        false
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
/// The passes run in blocks of up to [`BLOCK`], computed when the fold
/// first asks for one of their passes: the floor's passes first, then the
/// rest, or all of them from the first block on when the budget cannot cut
/// ([`SampleBudget::can_cut`]), so each block streams the NAPL weights once.
/// The budget is still consulted before every pass beyond the floor,
/// so under a logical clock the result does not depend on the blocking;
/// under the real clock a cut discards the rest of its block (at most
/// `BLOCK − 1` passes of extra work). Each block still fans out across the
/// kernel-level `stuq-parallel` pool, so results stay bit-identical for
/// any `STUQ_THREADS`. When `observer` is given it is called after every
/// completed pass with the Eq. 19 snapshot over the prefix so far — the
/// serving layer derives its monotone variance envelope from these.
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
    let first = if budget.can_cut() { floor.clamp(1, n_samples) } else { n_samples };
    let mut block = Vec::new().into_iter();
    let mut next = 0;
    let any = reduce_anytime(shape, n_samples, floor, budget, observer, |j| {
        debug_assert_eq!(j, next, "the fold asks for passes in order");
        if block.len() == 0 {
            let end = if j < first { first } else { n_samples }.min(j + BLOCK);
            block = run_block(&*session, x, cov, &streams[j..end], n_samples == 1).into_iter();
        }
        next += 1;
        block.next()
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
/// gathered passes with [`reduce_anytime`]. The range runs in even blocks
/// of at most [`BLOCK`] passes, at least one per pool thread, data-parallel
/// across the pool.
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
    let streams = &fork_streams(rng, n_samples)[range.clone()];
    let session = model.session();
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().mc_samples.add(range.len() as u64);
    }
    let len = streams.len();
    let blocks = len.div_ceil(BLOCK).max(stuq_parallel::num_threads().min(len));
    let per_block = stuq_parallel::par_map(blocks, |b| {
        let block = &streams[b * len / blocks..(b + 1) * len / blocks];
        run_block(&*session, x, cov, block, n_samples == 1)
    });
    per_block.into_iter().flatten().collect()
}

/// The anytime half of [`mc_forecast_anytime`]: pushes passes `0..n_samples`
/// once each, in sample order, into running Eq. 19 sums, consulting `budget`
/// before every pass beyond `floor` (clamped to `1..=n_samples`) and calling
/// `observer` with a snapshot of the sums after each one.
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
    let mut fold = Eq19Fold::new(shape);
    for j in 0..n_samples {
        if fold.n >= floor && !budget.allow(fold.n) {
            break;
        }
        let Some(p) = pass(j) else { continue };
        fold = fold.push(&p);
        if let Some(obs) = observer.as_deref_mut() {
            obs(&fold.snapshot());
        }
    }
    AnytimeForecast { forecast: fold.snapshot(), samples_requested: n_samples }
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
    let streams = fork_streams(rng, snapshots.len());
    let passes: Vec<SamplePass> = stuq_parallel::par_map(snapshots.len(), |j| {
        let mut member = model.clone();
        member.params_mut().load_snapshot(&snapshots[j]);
        let session = member.session();
        run_block(&*session, x, None, std::slice::from_ref(&streams[j]), true)
    })
    .into_iter()
    .flatten()
    .collect();
    model.params_mut().load_snapshot(snapshots.last().expect("non-empty"));
    Eq19Fold::over([model.n_nodes(), model.horizon()], &passes)
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

    /// 2 sensors × 3 steps with known variances.
    fn toy_forecast() -> GaussianForecast {
        GaussianForecast {
            mu: Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]),
            var_aleatoric: Tensor::from_vec(vec![1.0, 4.0, 9.0, 1.0, 4.0, 9.0], &[2, 3]),
            var_epistemic: Tensor::from_vec(vec![0.25; 6], &[2, 3]),
            n_samples: 5,
        }
    }

    /// A scaler with the given mean and std: one sensor reading
    /// `mean ∓ std` over two steps.
    fn toy_scaler(mean: f32, std: f32) -> Scaler {
        let net = stuq_graph::RoadNetwork::new(1, Vec::new(), Vec::new());
        let data = stuq_traffic::TrafficData::new("toy", vec![mean - std, mean + std], 2, net);
        Scaler::fit(&data, 2)
    }

    fn assert_close(got: &Tensor, want: &[f32], what: &str) {
        for (g, w) in got.data().iter().zip(want) {
            assert!((g - w).abs() < 1e-5 * w.abs().max(1.0), "{what}: {g} vs {w}");
        }
    }

    #[test]
    fn to_raw_at_unit_temperature() {
        let r = toy_forecast().to_raw(&toy_scaler(0.0, 1.0), 1.0);
        assert_close(&r.sigma_aleatoric, &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0], "σ_a");
        assert_close(&r.sigma_epistemic, &[0.5; 6], "σ_e");
        for i in 0..6 {
            let (t, a, e) =
                (r.sigma_total.data()[i], r.sigma_aleatoric.data()[i], r.sigma_epistemic.data()[i]);
            // total σ = sqrt(var_a + var_e) ≥ each component.
            assert!(t >= a && t >= e, "σ_total {t} below a component ({a}, {e})");
        }
    }

    #[test]
    fn to_raw_sigma_scales_with_the_scaler_std() {
        let f = toy_forecast();
        let (r1, r10) =
            (f.to_raw(&toy_scaler(0.0, 1.0), 1.0), f.to_raw(&toy_scaler(0.0, 10.0), 1.0));
        for (s1, s10) in [
            (&r1.sigma_total, &r10.sigma_total),
            (&r1.sigma_aleatoric, &r10.sigma_aleatoric),
            (&r1.sigma_epistemic, &r10.sigma_epistemic),
        ] {
            assert_close(s10, s1.scale(10.0).data(), "σ at std 10");
        }
    }

    #[test]
    fn to_raw_temperature_shrinks_only_aleatoric() {
        let r = toy_forecast().to_raw(&toy_scaler(0.0, 1.0), 2.0);
        assert_close(&r.sigma_aleatoric, &[0.5, 1.0, 1.5, 0.5, 1.0, 1.5], "σ_a / T");
        assert_close(&r.sigma_epistemic, &[0.5; 6], "epistemic untouched");
        // σ_total² = σ_a² / T² + σ_e².
        assert_close(&r.sigma_total, &[0.5f32.sqrt(), 1.25f32.sqrt(), 2.5f32.sqrt()], "σ_total");
    }

    #[test]
    fn to_raw_averages_linearly_over_scalers() {
        // The mean of the 1× and 3× conversions is the 2× conversion.
        let f = toy_forecast();
        let (r1, r3) = (f.to_raw(&toy_scaler(0.0, 1.0), 1.0), f.to_raw(&toy_scaler(0.0, 3.0), 1.0));
        let r2 = f.to_raw(&toy_scaler(0.0, 2.0), 1.0);
        let mean = r1.sigma_total.add(&r3.sigma_total).scale(0.5);
        assert_close(&mean, r2.sigma_total.data(), "averaged σ_total");
    }

    #[test]
    fn to_raw_maps_mu_through_the_scaler() {
        let r = toy_forecast().to_raw(&toy_scaler(0.0, 100.0), 1.0);
        assert_close(&r.mu, &[100.0, 200.0, 300.0, 400.0, 500.0, 600.0], "μ");
        let shifted = toy_forecast().to_raw(&toy_scaler(50.0, 1.0), 1.0);
        assert_close(&shifted.mu, &[51.0, 52.0, 53.0, 54.0, 55.0, 56.0], "μ + mean");
        assert_close(&shifted.sigma_aleatoric, r.sigma_aleatoric.scale(0.01).data(), "σ");
    }

    #[test]
    fn to_raw_interval_is_mu_minus_plus_z_sigma_total() {
        let r = toy_forecast().to_raw(&toy_scaler(10.0, 4.0), 1.5);
        let z = Z_95 as f32;
        for i in 0..6 {
            let (m, s) = (r.mu.data()[i], r.sigma_total.data()[i]);
            assert_eq!(r.lower.data()[i].to_bits(), (m - z * s).to_bits());
            assert_eq!(r.upper.data()[i].to_bits(), (m + z * s).to_bits());
        }
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

    #[test]
    fn fold_matches_hand_computed_moments_bitwise() {
        // The tape oracle folds through `Eq19Fold` too, so this pins the
        // fold itself to Eq. 19 on exactly representable inputs.
        let t = |v: &[f32]| Tensor::from_vec(v.to_vec(), &[1, v.len()]);
        let fold = |passes: &[SamplePass]| Eq19Fold::over([1, passes[0].0.len()], passes);
        let check = |got: &Tensor, want: &[f32], what: &str| {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.data()), bits(want), "{what}: {:?} vs {want:?}", got.data());
        };
        let u = f32::EPSILON; // 2^-23

        // Three Gaussian passes, per column:
        // - μ = 1, 2, 3: epistemic (14/3 − 4)·3/2 = 1, but with f32's 1/3,
        //   E[μ²] − E[μ]² rounds to 2/3 + (2/3)·2^-21, so 1 + 2^-21;
        // - μ = 1, 1, 1 + 3u: E[μ²] rounds to 1 + 2u, below E[μ]² = 1 + 4u,
        //   and the negative difference clamps to 0;
        // - μ = −0.0 three times: the sums start at +0.0;
        // - μ = 1.5, 1.5 + 7u, 1.5 − 7u: the rounded squares sum to
        //   6.75 + 4u, so E[μ²] = 2.25 + 2u and the epistemic is 3u; a fused
        //   multiply-add would round the sums to 6.75 and give 0.
        let f = fold(&[
            (t(&[1.0, 1.0, -0.0, 1.5]), Some(t(&[0.5, 0.25, 0.0, 1.0]))),
            (t(&[2.0, 1.0, -0.0, 1.5 + 7.0 * u]), Some(t(&[1.0, 0.25, 0.0, 1.0]))),
            (t(&[3.0, 1.0 + 3.0 * u, -0.0, 1.5 - 7.0 * u]), Some(t(&[1.5, 0.25, 0.0, 1.0]))),
        ]);
        assert_eq!(f.n_samples, 3);
        check(&f.mu, &[2.0, 1.0 + 2.0 * u, 0.0, 1.5], "gaussian mu");
        check(&f.var_aleatoric, &[1.0, 0.25, 0.0, 1.0], "gaussian aleatoric");
        check(&f.var_epistemic, &[1.0 + 4.0 * u, 0.0, 0.0, 3.0 * u], "gaussian epistemic");

        // Point head: no variance, so aleatoric is 0; μ = 1, 3 has
        // sample variance 2.
        let f = fold(&[(t(&[-0.0, 1.0]), None), (t(&[-0.0, 3.0]), None)]);
        check(&f.mu, &[0.0, 2.0], "point mu");
        check(&f.var_aleatoric, &[0.0, 0.0], "point aleatoric");
        check(&f.var_epistemic, &[0.0, 2.0], "point epistemic");

        // n = 1: the pass itself, epistemic exactly 0, and −0.0 comes back
        // as +0.0 (a fold seeded by cloning the first pass would keep −0.0).
        let f = fold(&[(t(&[-0.0, 5.0]), Some(t(&[0.25, 2.0])))]);
        assert_eq!(f.n_samples, 1);
        check(&f.mu, &[0.0, 5.0], "single mu");
        check(&f.var_aleatoric, &[0.25, 2.0], "single aleatoric");
        check(&f.var_epistemic, &[0.0, 0.0], "single epistemic");
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

    /// Admits every pass but, unlike [`UnlimitedBudget`], could cut, so the
    /// anytime loop runs the floor's block first.
    struct AllowAll;
    impl SampleBudget for AllowAll {
        fn allow(&mut self, _c: usize) -> bool {
            true
        }
    }

    /// An uncut run equals the batch path in bits and caller-RNG position,
    /// whether it runs as one block (a budget that cannot cut) or as the
    /// floor's block and then the rest (one that could).
    #[test]
    fn anytime_uncut_matches_mc_forecast_bitwise() {
        let mut rng = StuqRng::new(21);
        let model = model_with_dropout(HeadKind::Gaussian, 0.3, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let mut r_full = StuqRng::new(7);
        let full = mc_forecast(&model, &x, 8, &mut r_full);
        let budgets: [(&str, &mut dyn SampleBudget); 2] =
            [("unlimited", &mut UnlimitedBudget), ("can cut", &mut AllowAll)];
        for (what, budget) in budgets {
            for floor in [1, 2] {
                let mut r_any = StuqRng::new(7);
                let any = mc_forecast_anytime(&model, &x, None, 8, floor, budget, &mut r_any, None);
                let what = format!("{what}, floor {floor}");
                assert!(!any.degraded(), "{what}");
                assert_eq!(any.forecast.n_samples, 8, "{what}");
                assert_bitwise(&any.forecast, &full, &what);
                assert_same_rng(&mut r_any, &mut r_full.clone(), &what);
            }
        }
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
        assert_bitwise(&got.forecast, &Eq19Fold::over(shape, &rest), "missing pass 1");
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
        Eq19Fold::over([model.n_nodes(), model.horizon()], &passes)
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
        // A cut inside the first block after the floor, and one inside a
        // later block: the bytes of the prefix, and the caller's RNG as if
        // uncut.
        for cap in [3, BLOCK + 2].into_iter().filter(|&cap| cap < n) {
            let mut r = StuqRng::new(8);
            let cut = mc_forecast_anytime(model, x, cov, n, 2, &mut CapBudget(cap), &mut r, None);
            let (want, mut wr) = oracle(cap, 8);
            let what = at(&format!("mc_forecast_anytime floor 2, cut at {cap}"));
            assert_bitwise(&cut.forecast, &want, &what);
            assert_same_rng(&mut r, &mut wr, &what);
        }

        // One request's passes in blocks of one, in one block, and in an
        // uneven split (1, 2, 4, …): the same bytes.
        let streams = fork_streams(&mut StuqRng::new(10), n);
        let session = model.session();
        let (want, _) = oracle(n, 10);
        let mut uneven = Vec::new();
        let mut lo = 0;
        while lo < n {
            let hi = (2 * lo + 1).min(n);
            uneven.push(lo..hi);
            lo = hi;
        }
        let whole = std::iter::once(0..n).collect();
        for split in [(0..n).map(|j| j..j + 1).collect(), whole, uneven] {
            let passes: Vec<SamplePass> = split
                .iter()
                .flat_map(|r| run_block(&*session, x, cov, &streams[r.clone()], n == 1))
                .collect();
            let what =
                at(&format!("blocks {:?}", split.iter().map(|r| r.len()).collect::<Vec<_>>()));
            assert_bitwise(
                &Eq19Fold::over([model.n_nodes(), model.horizon()], &passes),
                &want,
                &what,
            );
        }

        // A cluster's sample ranges, concatenated, are the whole run.
        let (want, wr) = oracle(n, 9);
        let mut passes = Vec::new();
        for range in [0..n / 2, n / 2..n] {
            let mut r = StuqRng::new(9);
            passes.extend(mc_passes(model, x, cov, n, range, &mut r));
            assert_same_rng(&mut r, &mut wr.clone(), &at("mc_passes"));
        }
        let shape = [model.n_nodes(), model.horizon()];
        assert_bitwise(&Eq19Fold::over(shape, &passes), &want, &at("mc_passes"));
    }

    #[test]
    fn every_entry_point_matches_tape_passes_bitwise() {
        // The per-call session runs no tape; its passes must reproduce the
        // tape forward's bytes and RNG consumption across heads, covariates,
        // the deterministic single-sample mode, a dropout-free encoder, and
        // the serial / reference-kernel execution modes. A baseline model
        // covers the default (tape-backed) session.
        let mut rng = StuqRng::new(41);
        // Every all-zero initial parameter (the gate bias pools among them)
        // gets nonzero values, so a misplaced bias term cannot hide behind
        // a zero.
        let unzero = |model: &mut dyn Forecaster, rng: &mut StuqRng| {
            let ps = model.params_mut();
            for slot in 0..ps.len() {
                if ps.get(slot).data().iter().all(|&v| v == 0.0) {
                    let shape = ps.get(slot).shape().to_vec();
                    *ps.get_mut(slot) = Tensor::randn(&shape, 0.3, rng);
                }
            }
        };
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
        // The paper's hidden width: the NAPL products fill a whole 32-column
        // register tile, and requests span one, two and three blocks.
        let paper_width = AgcrnConfig::new(5, 3).with_dropout(0.1, 0.2).with_capacity(32, 3, 2);
        let mut paper_width: Box<dyn Forecaster> = Box::new(Agcrn::new(paper_width, &mut rng));
        for model in models.iter_mut().map(|(_, m, _)| m).chain([&mut paper_width]) {
            unzero(&mut **model, &mut rng);
        }
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let cov = Tensor::randn(&[4, 1], 1.0, &mut rng);
        let run_all = || {
            for (name, model, with_cov) in &models {
                for n in [1usize, 5] {
                    check_against_tape(&**model, &x, with_cov.then_some(&cov), n, name);
                }
            }
            for n in [BLOCK - 1, BLOCK, BLOCK + 3] {
                check_against_tape(&*paper_width, &x, None, n, "hidden 32");
            }
        };
        run_all();
        stuq_parallel::with_serial(run_all);
        stuq_tensor::kernels::with_reference_kernels(run_all);
    }

    /// `f` on the fast kernels, or on the reference kernels.
    fn in_mode<R>(reference: bool, f: impl FnOnce() -> R) -> R {
        if reference {
            stuq_tensor::kernels::with_reference_kernels(f)
        } else {
            f()
        }
    }

    #[test]
    fn reference_kernels_keep_a_parallel_call_in_their_mode() {
        // The kernel mode is per thread, so `with_reference_kernels` runs
        // its closure on a serial pool: 16 passes, which `mc_passes` splits
        // into one block per pool thread, must come back with the bits of
        // the same call under `with_serial`, at any `STUQ_THREADS`.
        let mut rng = StuqRng::new(43);
        let cfg = AgcrnConfig::new(5, 3).with_dropout(0.1, 0.2).with_capacity(32, 3, 2);
        let model = Agcrn::new(cfg, &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let run = || mc_passes(&model, &x, None, 16, 0..16, &mut StuqRng::new(5));
        let bits = |passes: &[SamplePass]| {
            let words = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            passes.iter().map(|(mu, var)| (words(mu), var.as_ref().map(words))).collect::<Vec<_>>()
        };
        let reference = bits(&stuq_tensor::kernels::with_reference_kernels(run));
        let serial =
            bits(&stuq_parallel::with_serial(|| stuq_tensor::kernels::with_reference_kernels(run)));
        assert_eq!(reference, serial, "a pass left the reference kernels");
        assert_ne!(reference, bits(&run()), "the two kernel modes must round differently");
    }

    #[test]
    fn session_follows_every_parameter_change() {
        // `Agcrn` keeps its session's bind until `params_mut` is called.
        // After an Adam step and after loading other weights, each forecast
        // in either kernel mode must be a fresh model's, and a clone taken
        // before the changes must keep the old bytes.
        let mut rng = StuqRng::new(47);
        let cfg = AgcrnConfig::new(5, 3).with_dropout(0.3, 0.2).with_capacity(8, 3, 2);
        let mut model = Agcrn::new(cfg.clone(), &mut rng);
        let other = Agcrn::new(cfg.clone(), &mut rng).params().snapshot();
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let y = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let mode = |reference: bool| if reference { "reference kernels" } else { "fast kernels" };
        let forecast = |m: &Agcrn, reference: bool| {
            in_mode(reference, || {
                let mut r = StuqRng::new(9);
                (mc_forecast(m, &x, 5, &mut r), r)
            })
        };
        let warm = |m: &Agcrn| [false, true].map(|reference| forecast(m, reference).0);
        let check = |model: &Agcrn, before: &[GaussianForecast; 2], what: &str| {
            let mut fresh = Agcrn::new(cfg.clone(), &mut StuqRng::new(0));
            fresh.params_mut().load_snapshot(&model.params().snapshot());
            for reference in [false, true] {
                let (want, wr) = forecast(&fresh, reference);
                // The first call rebuilds the bind, the second reuses it.
                for call in ["rebuilt", "cached"] {
                    let at = format!("{what}, {}, {call}", mode(reference));
                    let (got, mut r) = forecast(model, reference);
                    assert_bitwise(&got, &want, &at);
                    assert_same_rng(&mut r, &mut wr.clone(), &at);
                    let old_mu = before[usize::from(reference)].mu.data();
                    assert_ne!(got.mu.data(), old_mu, "{at}: the old parameters' mu");
                }
            }
        };
        let before = warm(&model);
        let old = model.clone();

        let mut tape = stuq_tensor::Tape::new();
        let Prediction::Gaussian { mu, logvar } =
            model.forward(&mut tape, &x, &mut FwdCtx::train(&mut rng))
        else {
            panic!("gaussian head")
        };
        let yt = tape.constant(y);
        let l = stuq_nn::loss::combined(&mut tape, mu, logvar, yt, 0.5);
        let grads = tape.backward(l);
        stuq_nn::opt::Optimizer::step(
            &mut stuq_nn::opt::Adam::new(0.01, 0.0),
            model.params_mut(),
            &grads,
        );
        check(&model, &before, "after an Adam step");
        let stepped = warm(&model);

        model.params_mut().load_snapshot(&other);
        check(&model, &stepped, "after load_snapshot");

        for reference in [false, true] {
            let at = format!("old clone, {}", mode(reference));
            assert_bitwise(&forecast(&old, reference).0, &before[usize::from(reference)], &at);
        }
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
