//! Minimal wall-clock micro-benchmark harness.
//!
//! The build environment is offline, so Criterion cannot be fetched; this
//! module provides the small subset the repo needs: warmup, a time-budgeted
//! measurement loop over `std::time::Instant`, and best/mean statistics.
//! "Best of N" is the headline time, and every comparison a bench prints
//! uses the same statistic on both sides. A gated ratio instead pairs the
//! variants round by round ([`bench_interleaved`], [`median_ratio`]): one
//! best-of sample per side lets a single noisy call move the ratio.

use std::time::Instant;

/// One benchmark measurement.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark label.
    pub name: String,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Best (minimum) seconds per iteration.
    pub best_s: f64,
    /// Median seconds per iteration (log-bucketed estimate from the shared
    /// [`stuq_obs::Histogram`]).
    pub p50_s: f64,
    /// 95th-percentile seconds per iteration (same estimator).
    pub p95_s: f64,
    /// 99th-percentile seconds per iteration (same estimator) — the serving
    /// tail the BENCH artifacts track.
    pub p99_s: f64,
    /// Every measured iteration's seconds (after warmup), in order. For
    /// [`bench_interleaved`] entry `r` is round `r`, so variants pair up.
    pub times_s: Vec<f64>,
}

impl Sample {
    /// Throughput in GFLOP/s for a known per-iteration FLOP count, based on
    /// the best iteration.
    pub fn gflops(&self, flops_per_iter: f64) -> f64 {
        flops_per_iter / self.best_s / 1e9
    }
}

/// Pretty-prints a duration in seconds with an adaptive unit.
pub fn fmt_duration(s: f64) -> String {
    if s < 1e-6 {
        format!("{:8.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:8.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:8.2} ms", s * 1e3)
    } else {
        format!("{s:8.3} s ")
    }
}

impl std::fmt::Display for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<44} best {} p50 {} p95 {} p99 {} mean {}  ({} iters)",
            self.name,
            fmt_duration(self.best_s),
            fmt_duration(self.p50_s),
            fmt_duration(self.p95_s),
            fmt_duration(self.p99_s),
            fmt_duration(self.mean_s),
            self.times_s.len()
        )
    }
}

/// Summarises measured iteration times, in order, as a [`Sample`].
fn summarise(name: &str, times_s: Vec<f64>) -> Sample {
    // Per-iteration timings feed the same log-bucketed histogram the
    // telemetry layer uses, giving p50/p95 without sorting.
    let hist = stuq_obs::Histogram::new();
    for &dt in &times_s {
        hist.record(dt);
    }
    let best_s = times_s.iter().copied().fold(f64::INFINITY, f64::min);
    // Sub-resolution iterations (dt == 0) are rejected by the histogram;
    // fall back to the exact statistics we do have.
    let (p50_s, p95_s, p99_s) = if hist.count() > 0 {
        (hist.quantile(0.5), hist.quantile(0.95), hist.quantile(0.99))
    } else {
        (best_s, best_s, best_s)
    };
    Sample {
        name: name.to_string(),
        mean_s: times_s.iter().sum::<f64>() / times_s.len() as f64,
        best_s,
        p50_s,
        p95_s,
        p99_s,
        times_s,
    }
}

/// Times `f` with one warmup call, then measures iterations until
/// `min_total_s` of measured time has accumulated or `max_iters` is reached
/// (always at least 3 iterations).
pub fn bench_with<R>(
    name: &str,
    min_total_s: f64,
    max_iters: usize,
    mut f: impl FnMut() -> R,
) -> Sample {
    std::hint::black_box(f());
    let mut times_s = Vec::new();
    while times_s.len() < 3
        || (times_s.iter().sum::<f64>() < min_total_s && times_s.len() < max_iters)
    {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times_s.push(t0.elapsed().as_secs_f64());
    }
    summarise(name, times_s)
}

/// [`bench_with`] at the default budget (0.5 s or 1000 iterations).
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> Sample {
    bench_with(name, 0.5, 1000, f)
}

/// Rounds [`bench_interleaved`] always runs: enough pairs for
/// [`median_ratio`] to drop a round that noise hit on one side only.
pub const MIN_ROUNDS: usize = 5;

/// Times several variants of one workload in a single interleaved loop:
/// every round runs each variant once, in order, so slow drift on a shared
/// machine (CPU steal, frequency shifts) lands on all variants instead of
/// biasing whichever loop it overlapped. Ratios between the returned
/// samples are therefore fair even when the absolute numbers wobble.
///
/// Each variant gets one warmup call, then rounds continue until every
/// variant has accumulated `min_total_s` of measured time or `max_rounds`
/// rounds have run — but always at least [`MIN_ROUNDS`], whatever
/// `max_rounds` says. Returns one [`Sample`] per variant, in input order.
///
/// # Panics
///
/// Panics if `names` and `fs` differ in length or are empty.
pub fn bench_interleaved(
    names: &[&str],
    min_total_s: f64,
    max_rounds: usize,
    fs: &mut [&mut dyn FnMut()],
) -> Vec<Sample> {
    assert_eq!(names.len(), fs.len(), "one name per variant");
    assert!(!fs.is_empty(), "at least one variant");
    for f in fs.iter_mut() {
        f();
    }
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); fs.len()];
    let short = |t: &Vec<f64>| t.iter().sum::<f64>() < min_total_s;
    while times[0].len() < MIN_ROUNDS || (times[0].len() < max_rounds && times.iter().any(short)) {
        for (f, t) in fs.iter_mut().zip(&mut times) {
            let t0 = Instant::now();
            f();
            t.push(t0.elapsed().as_secs_f64());
        }
    }
    names.iter().zip(times).map(|(name, t)| summarise(name, t)).collect()
}

/// The median over paired iterations of `num.times_s[r] / den.times_s[r]`:
/// for two [`bench_interleaved`] samples, the per-round ratio. Each round
/// shares its drift between both sides, and the median drops the rounds
/// that a burst of noise hit on one side only.
///
/// # Panics
///
/// Panics if either sample has no iterations.
pub fn median_ratio(num: &Sample, den: &Sample) -> f64 {
    let mut r: Vec<f64> = num.times_s.iter().zip(&den.times_s).map(|(a, b)| a / b).collect();
    assert!(!r.is_empty(), "median_ratio needs measured iterations");
    r.sort_by(f64::total_cmp);
    let m = r.len() / 2;
    if r.len() % 2 == 1 {
        r[m]
    } else {
        (r[m - 1] + r[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_at_least_three_iters_and_orders_stats() {
        let mut n = 0u64;
        let s = bench_with("noop", 0.0, 10, || n += 1);
        assert!(s.times_s.len() >= 3);
        assert!(s.best_s <= s.mean_s);
        assert!(n as usize > s.times_s.len(), "warmup plus measured calls");
    }

    #[test]
    fn percentiles_are_finite_and_ordered() {
        let s = bench_with("sleepish", 0.0, 5, || {
            std::thread::sleep(std::time::Duration::from_micros(50));
        });
        assert!(s.p50_s.is_finite() && s.p95_s.is_finite() && s.p99_s.is_finite());
        assert!(s.best_s <= s.p50_s + 1e-12, "best {} p50 {}", s.best_s, s.p50_s);
        assert!(s.p50_s <= s.p95_s + 1e-12, "p50 {} p95 {}", s.p50_s, s.p95_s);
        assert!(s.p95_s <= s.p99_s + 1e-12, "p95 {} p99 {}", s.p95_s, s.p99_s);
        let line = s.to_string();
        assert!(line.contains("p50") && line.contains("p95") && line.contains("p99"), "{line}");
    }

    #[test]
    fn interleaved_runs_every_variant_the_same_number_of_rounds() {
        let (mut a, mut b) = (0u64, 0u64);
        let mut fa = || a += 1;
        let mut fb = || b += 1;
        let samples = bench_interleaved(&["a", "b"], 0.0, 1, &mut [&mut fa, &mut fb]);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].times_s.len(), samples[1].times_s.len());
        assert_eq!(samples[0].times_s.len(), MIN_ROUNDS, "the minimum holds below max_rounds");
        assert_eq!(a, b, "variants advance in lockstep");
        assert!(samples.iter().all(|s| s.best_s <= s.mean_s));
    }

    #[test]
    fn median_ratio_pairs_rounds_and_ignores_one_outlier() {
        let num = summarise("num", vec![2.0, 4.0, 90.0, 6.0, 2.0]);
        let den = summarise("den", vec![1.0, 2.0, 1.0, 4.0, 1.0]);
        // Per-round ratios 2, 2, 90, 1.5, 2: the outlier round drops out.
        assert_eq!(median_ratio(&num, &den), 2.0);
        let even = summarise("even", vec![1.0, 3.0]);
        assert_eq!(median_ratio(&even, &summarise("ones", vec![1.0, 1.0])), 2.0);
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert!(fmt_duration(5e-9).contains("ns"));
        assert!(fmt_duration(5e-5).contains("µs"));
        assert!(fmt_duration(5e-2).contains("ms"));
        assert!(fmt_duration(2.0).contains("s"));
    }
}
