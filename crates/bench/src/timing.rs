//! Minimal wall-clock micro-benchmark harness.
//!
//! The build environment is offline, so Criterion cannot be fetched; this
//! module provides the small subset the repo needs: warmup, a time-budgeted
//! measurement loop over `std::time::Instant`, and best/mean statistics.
//! "Best of N" is the headline number — it is the least noisy estimator on a
//! shared machine, and every comparison a bench prints uses the same
//! statistic on both sides.

use std::time::Instant;

/// One benchmark measurement.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Benchmark label.
    pub name: String,
    /// Measured iterations (after warmup).
    pub iters: usize,
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
            self.iters
        )
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
    let mut total = 0.0f64;
    let mut best = f64::INFINITY;
    let mut iters = 0usize;
    // Per-iteration timings feed the same log-bucketed histogram the
    // telemetry layer uses, giving p50/p95 without storing every sample.
    let hist = stuq_obs::Histogram::new();
    while (total < min_total_s || iters < 3) && iters < max_iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        best = best.min(dt);
        hist.record(dt);
        iters += 1;
    }
    // Sub-resolution iterations (dt == 0) are rejected by the histogram;
    // fall back to the exact statistics we do have.
    let (p50_s, p95_s, p99_s) = if hist.count() > 0 {
        (hist.quantile(0.5), hist.quantile(0.95), hist.quantile(0.99))
    } else {
        (best, best, best)
    };
    Sample {
        name: name.to_string(),
        iters,
        mean_s: total / iters as f64,
        best_s: best,
        p50_s,
        p95_s,
        p99_s,
    }
}

/// [`bench_with`] at the default budget (0.5 s or 1000 iterations).
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> Sample {
    bench_with(name, 0.5, 1000, f)
}

/// Times several variants of one workload in a single interleaved loop:
/// every round runs each variant once, in order, so slow drift on a shared
/// machine (CPU steal, frequency shifts) lands on all variants instead of
/// biasing whichever loop it overlapped. Ratios between the returned
/// samples are therefore fair even when the absolute numbers wobble.
///
/// Each variant gets one warmup call, then rounds continue until every
/// variant has accumulated `min_total_s` of measured time or `max_rounds`
/// rounds have run (always at least 3). Returns one [`Sample`] per variant,
/// in input order.
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
    let n = fs.len();
    let mut total = vec![0.0f64; n];
    let mut best = vec![f64::INFINITY; n];
    let hists: Vec<_> = (0..n).map(|_| stuq_obs::Histogram::new()).collect();
    let mut rounds = 0usize;
    while (rounds < 3 || total.iter().any(|&t| t < min_total_s)) && rounds < max_rounds {
        for (i, f) in fs.iter_mut().enumerate() {
            let t0 = Instant::now();
            f();
            let dt = t0.elapsed().as_secs_f64();
            total[i] += dt;
            best[i] = best[i].min(dt);
            hists[i].record(dt);
        }
        rounds += 1;
    }
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let (p50_s, p95_s, p99_s) = if hists[i].count() > 0 {
                (hists[i].quantile(0.5), hists[i].quantile(0.95), hists[i].quantile(0.99))
            } else {
                (best[i], best[i], best[i])
            };
            Sample {
                name: (*name).to_string(),
                iters: rounds,
                mean_s: total[i] / rounds as f64,
                best_s: best[i],
                p50_s,
                p95_s,
                p99_s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_at_least_three_iters_and_orders_stats() {
        let mut n = 0u64;
        let s = bench_with("noop", 0.0, 10, || n += 1);
        assert!(s.iters >= 3);
        assert!(s.best_s <= s.mean_s);
        assert!(n as usize >= s.iters, "warmup plus measured calls");
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
        let samples = bench_interleaved(&["a", "b"], 0.0, 7, &mut [&mut fa, &mut fb]);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].iters, samples[1].iters);
        assert!(samples[0].iters >= 3);
        assert_eq!(a, b, "variants advance in lockstep");
        assert!(samples.iter().all(|s| s.best_s <= s.mean_s));
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert!(fmt_duration(5e-9).contains("ns"));
        assert!(fmt_duration(5e-5).contains("µs"));
        assert!(fmt_duration(5e-2).contains("ms"));
        assert!(fmt_duration(2.0).contains("s"));
    }
}
