//! Typed, lock-free metric primitives and the workspace metric catalog.
//!
//! Three primitives, all const-constructible so hot paths touch plain
//! statics (no registration, no hashing, no locks):
//!
//! * [`Counter`] — a monotonically increasing `u64`;
//! * [`Gauge`] — a last-write-wins `f64` (stored as bits in an `AtomicU64`);
//! * [`Histogram`] — log₂-bucketed positive samples with exact count / sum /
//!   min / max and bucket-interpolated quantiles. Non-finite and
//!   non-positive samples are **rejected** (counted separately) — a NaN loss
//!   must never poison a latency distribution.
//!
//! [`Metrics`] is the fixed catalog every crate in the workspace records
//! into, reachable via [`crate::metrics()`]. The catalog is deliberately
//! closed and declared once: one table at the bottom of this file names
//! each metric's doc, field, kind, exposition name and help text, and a
//! macro generates the struct, `new`, [`Metrics::expose`],
//! [`Metrics::counters`] and [`Metrics::reset`] from it. Adding a metric is
//! one table line, and no metric can exist without being exported.
//!
//! Determinism contract: nothing in this module reads the RNG, the model,
//! or anything a training run consumes — metrics are written, never read,
//! by instrumented code, so enabling them cannot perturb a result.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets in a [`Histogram`]. Bucket `i` covers
/// `[2^(i-31), 2^(i-30))`, so the range spans ~4.7e-10 … ~8.6e9 — wide
/// enough for nanosecond kernel timings and multi-hour phase timings alike.
pub const N_BUCKETS: usize = 64;

/// Exponent offset: sample `v` lands in bucket `floor(log2(v)) + 31`.
const BUCKET_BIAS: i32 = 31;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter (const, so it can back a `static`).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and per-run isolation).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-write-wins `f64` gauge.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zero gauge.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Stores `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Last stored value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Atomically adds `delta` to an `f64` stored as bits in `cell`.
///
/// Public so instrumented code can accumulate metric-only sums across a
/// parallel region (e.g. per-slot optimiser update norms). The accumulation
/// order is thread-dependent, which is fine for telemetry and unacceptable
/// for anything a computation reads back — never feed such a sum into the
/// model.
pub fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Atomically folds `v` into a min/max cell via `pick`.
fn atomic_f64_fold(cell: &AtomicU64, v: f64, pick: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let folded = pick(f64::from_bits(cur), v);
        if folded.to_bits() == cur {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            folded.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A log₂-bucketed histogram of positive finite samples.
///
/// Exactness: `count`, `sum`, `min` and `max` are exact; quantiles are
/// bucket-interpolated (geometric midpoint of the containing bucket,
/// clamped to the observed `[min, max]`), which bounds the relative error
/// of any quantile by the bucket width (≤ 2×) and in practice — timings
/// clustered inside one or two buckets — far less.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    rejected: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// A fresh empty histogram (const, so it can back a `static`).
    pub const fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; N_BUCKETS],
            count: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Bucket index for a valid sample.
    fn bucket_of(v: f64) -> usize {
        let exp = v.log2().floor() as i64 + BUCKET_BIAS as i64;
        exp.clamp(0, N_BUCKETS as i64 - 1) as usize
    }

    /// Lower/upper bounds of bucket `i`.
    fn bucket_bounds(i: usize) -> (f64, f64) {
        let lo = 2f64.powi(i as i32 - BUCKET_BIAS);
        (lo, lo * 2.0)
    }

    /// Records `v`. Returns `false` (and counts the rejection) for NaN,
    /// ±inf, zero and negative samples — none of which belong in a
    /// positive-valued timing/norm distribution.
    pub fn record(&self, v: f64) -> bool {
        if !v.is_finite() || v <= 0.0 {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_fold(&self.min_bits, v, f64::min);
        atomic_f64_fold(&self.max_bits, v, f64::max);
        true
    }

    /// Number of accepted samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Number of rejected (non-finite / non-positive) samples.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Exact sum of accepted samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Exact mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Exact minimum accepted sample (NaN when empty).
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_infinite() {
            f64::NAN
        } else {
            v
        }
    }

    /// Exact maximum accepted sample (NaN when empty).
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_infinite() {
            f64::NAN
        } else {
            v
        }
    }

    /// Bucket-interpolated quantile `q ∈ [0, 1]` (NaN when empty).
    ///
    /// The estimate is the geometric midpoint of the bucket containing the
    /// rank-`⌈q·n⌉` sample, clamped to the observed `[min, max]` so that
    /// `quantile(0.0) == min()` and `quantile(1.0) == max()` exactly.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 {
            return self.max();
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                return (lo * hi).sqrt().clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Resets all state (tests and per-run isolation).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.sum_bits.store(0, Ordering::Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// How one catalog family renders into the exposition. The three
/// primitives implement it, so the `catalog!` table needs no per-kind code.
trait Family {
    /// Appends the family's `# HELP`/`# TYPE` header and samples to `out`.
    fn expose_into(&self, out: &mut String, name: &str, help: &str);

    /// The value [`Metrics::counters`] ships — counters only.
    fn counter_value(&self) -> Option<u64> {
        None
    }
}

impl Family for Counter {
    fn expose_into(&self, out: &mut String, name: &str, help: &str) {
        let v = self.get();
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"));
    }

    fn counter_value(&self) -> Option<u64> {
        Some(self.get())
    }
}

impl Family for Gauge {
    fn expose_into(&self, out: &mut String, name: &str, help: &str) {
        let v = self.get();
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"));
    }
}

impl Family for Histogram {
    fn expose_into(&self, out: &mut String, name: &str, help: &str) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
        if self.count() > 0 {
            out.push_str(&format!(
                "{name}{{quantile=\"0.5\"}} {}\n{name}{{quantile=\"0.95\"}} \
                 {}\n{name}{{quantile=\"0.99\"}} {}\n",
                self.quantile(0.5),
                self.quantile(0.95),
                self.quantile(0.99)
            ));
            out.push_str(&format!("{name}_min {}\n{name}_max {}\n", self.min(), self.max()));
        }
        out.push_str(&format!(
            "{name}_sum {}\n{name}_count {}\n{name}_rejected {}\n",
            self.sum(),
            self.count(),
            self.rejected()
        ));
    }
}

/// Expands the metric table into [`Metrics`]: the struct, `new`, `expose`,
/// `counters` and `reset`, all in table order. Each entry reads
/// `/// doc` `field: Kind = "exposition_name", "help text";`.
macro_rules! catalog {
    ($($(#[$doc:meta])* $field:ident: $kind:ident = $name:literal, $help:literal;)*) => {
        /// The fixed metric catalog for the whole workspace, generated from
        /// the one table below.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $field: $kind,)*
        }

        impl Metrics {
            /// A fresh catalog (const, backing the global in [`crate::metrics()`]).
            pub const fn new() -> Self {
                Self { $($field: $kind::new(),)* }
            }

            /// Renders the catalog in the Prometheus text exposition format.
            ///
            /// Counters and gauges export their value; histograms export as
            /// Prometheus *summaries* (`_count`, `_sum`, `{quantile=…}` for
            /// p50/p95/p99 plus exact min/max) — compact, and exactly the
            /// statistics the bench harness and the end-of-run table consume.
            pub fn expose(&self) -> String {
                let mut out = String::with_capacity(4096);
                $(self.$field.expose_into(&mut out, $name, $help);)*
                out
            }

            /// Every counter in the catalog as `(exposition name, value)`
            /// pairs, in exposition order. This is what the router's
            /// `cluster-metrics` scrape ships and sums across workers.
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
                let mut out = Vec::new();
                $(if let Some(v) = self.$field.counter_value() {
                    out.push(($name, v));
                })*
                out
            }

            /// Resets every metric (tests and per-run isolation).
            pub fn reset(&self) {
                $(self.$field.reset();)*
            }
        }
    };
}

catalog! {
    // --- stuq-parallel: pool behaviour -----------------------------------
    /// Fan-outs submitted to the worker pool.
    pool_fanouts: Counter = "stuq_pool_fanouts_total", "fan-outs submitted to the worker pool";
    /// Chunks executed across all fan-outs (pooled or inline).
    pool_chunks: Counter = "stuq_pool_chunks_total", "chunks executed across all fan-outs";
    /// Fan-outs that degraded to inline execution (serial scope, nesting,
    /// single chunk or single-thread pool).
    pool_inline: Counter = "stuq_pool_inline_total", "fan-outs degraded to inline execution";
    /// Wall-clock seconds per pooled fan-out (trace level only).
    pool_run_seconds: Histogram = "stuq_pool_run_seconds", "seconds per pooled fan-out (trace)";

    // --- stuq-tensor: autodiff + kernels ---------------------------------
    /// Reverse sweeps executed.
    backward_runs: Counter = "stuq_backward_runs_total", "reverse sweeps executed";
    /// `matmul` kernel dispatches.
    kernel_matmul: Counter = "stuq_kernel_matmul_total", "matmul kernel dispatches";
    /// `matmul_tb` kernel dispatches.
    kernel_matmul_tb: Counter = "stuq_kernel_matmul_tb_total", "matmul_tb kernel dispatches";
    /// `matmul_ta` (transposed-A adjoint product) kernel dispatches.
    kernel_matmul_ta: Counter = "stuq_kernel_matmul_ta_total", "matmul_ta kernel dispatches";
    /// `rowwise_matmul` kernel dispatches.
    kernel_rowwise: Counter = "stuq_kernel_rowwise_total", "rowwise_matmul kernel dispatches";
    /// GFLOP/s of the most recent traced `matmul`/`matmul_tb` dispatch.
    kernel_gflops: Gauge = "stuq_kernel_gflops", "GFLOP/s of the last traced matmul dispatch";

    // --- stuq-nn: optimisers ----------------------------------------------
    /// Optimiser steps applied.
    opt_steps: Counter = "stuq_opt_steps_total", "optimiser steps applied";
    /// Learning rate of the most recent step.
    opt_lr: Gauge = "stuq_opt_lr", "learning rate of the most recent step";
    /// Global L2 norm of applied parameter updates (trace level only).
    opt_step_norm: Histogram = "stuq_opt_step_norm", "global L2 norm of applied updates (trace)";

    // --- deepstuq: training loop ------------------------------------------
    /// Batches processed (healthy, i.e. the optimiser stepped).
    train_batches: Counter = "stuq_train_batches_total", "healthy batches stepped";
    /// Batches whose loss or gradient norm was NaN/inf.
    train_nonfinite_batches: Counter =
        "stuq_train_nonfinite_batches_total", "batches with NaN/inf loss or gradient";
    /// Mean loss of the most recent healthy batch.
    train_loss: Gauge = "stuq_train_loss", "mean loss of the most recent healthy batch";
    /// Global gradient norm of the most recent healthy batch.
    train_grad_norm: Gauge =
        "stuq_train_grad_norm", "gradient norm of the most recent healthy batch";
    /// Gradient norms across healthy batches.
    train_grad_norm_hist: Histogram =
        "stuq_train_grad_norm_hist", "gradient norms across healthy batches";
    /// Current epoch index (set by the pipeline).
    train_epoch: Gauge = "stuq_train_epoch", "current epoch index";
    /// Wall-clock seconds per training epoch.
    train_epoch_seconds: Histogram = "stuq_train_epoch_seconds", "seconds per training epoch";
    /// Wall-clock seconds per batch (trace level only).
    train_batch_seconds: Histogram = "stuq_train_batch_seconds", "seconds per batch (trace)";

    // --- deepstuq: divergence guard ----------------------------------------
    /// Guard trips (unhealthy batches observed).
    guard_trips: Counter = "stuq_guard_trips_total", "divergence-guard trips";
    /// Batches skipped without an update.
    guard_skips: Counter = "stuq_guard_skips_total", "batches skipped by the guard";
    /// Rewinds to the last-good snapshot.
    guard_rewinds: Counter = "stuq_guard_rewinds_total", "guard rewinds to last-good snapshot";
    /// Current learning-rate back-off scale (1.0 when undisturbed).
    guard_lr_scale: Gauge = "stuq_guard_lr_scale", "current guard learning-rate back-off scale";

    // --- deepstuq: inference + calibration ---------------------------------
    /// Monte-Carlo forward passes executed.
    mc_samples: Counter = "stuq_mc_samples_total", "Monte-Carlo forward passes executed";
    /// Wall-clock seconds per MC forecast call (trace level only).
    mc_forecast_seconds: Histogram =
        "stuq_mc_forecast_seconds", "seconds per MC forecast call (trace)";
    /// MC samples per second of the most recent traced forecast.
    mc_samples_per_sec: Gauge =
        "stuq_mc_samples_per_sec", "MC samples/s of the last traced forecast";
    /// Fitted calibration temperature.
    calib_temperature: Gauge = "stuq_calib_temperature", "fitted calibration temperature";
    /// Evaluation windows scored.
    eval_windows: Counter = "stuq_eval_windows_total", "evaluation windows scored";

    // --- stuq-serve: serving runtime ---------------------------------------
    /// Forecast requests admitted (processed to any terminal response).
    serve_requests: Counter = "stuq_serve_requests_total", "forecast requests admitted";
    /// Requests shed by admission control (queue full / draining / breaker).
    serve_shed: Counter = "stuq_serve_shed_total", "requests shed by admission control";
    /// Responses degraded by the deadline budget (fewer samples than asked).
    serve_degraded: Counter = "stuq_serve_degraded_total", "deadline-degraded responses";
    /// Fallback (persistence) responses served while the breaker was open.
    serve_fallback: Counter = "stuq_serve_fallback_total", "breaker fallback responses";
    /// Hot model reloads applied.
    serve_reloads: Counter = "stuq_serve_reloads_total", "hot model reloads applied";
    /// Reload attempts rolled back (corrupt or incompatible artifact).
    serve_reload_rollbacks: Counter =
        "stuq_serve_reload_rollbacks_total", "reload attempts rolled back";
    /// Current depth of the admission queue.
    serve_queue_depth: Gauge = "stuq_serve_queue_depth", "current admission-queue depth";
    /// Breaker state: 0 closed, 1 open, 2 half-open.
    serve_breaker_state: Gauge =
        "stuq_serve_breaker_state", "breaker state (0 closed, 1 open, 2 half-open)";
    /// MC samples used per forecast response.
    serve_samples_used: Histogram =
        "stuq_serve_samples_used", "MC samples used per forecast response";
    /// Milliseconds of deadline left when the response was finished
    /// (the deadline-hit histogram; rejected samples are deadline misses).
    serve_deadline_slack_ms: Histogram =
        "stuq_serve_deadline_slack_ms", "deadline slack (ms) at response time";
    /// Wall-clock seconds per served forecast.
    serve_request_seconds: Histogram = "stuq_serve_request_seconds", "seconds per served forecast";
    /// Forecast batches processed by the worker (size 1 when batching is
    /// off).
    serve_batches: Counter = "stuq_serve_batches_total", "forecast batches processed";
    /// Requests per processed batch.
    serve_batch_size: Histogram = "stuq_serve_batch_size", "requests per processed batch";
    /// Shared-MC groups per processed batch.
    serve_batch_groups: Histogram =
        "stuq_serve_batch_groups", "shared-MC groups per processed batch";
    /// Forecasts answered from the per-tick cache (no forward pass).
    serve_cache_hits: Counter = "stuq_serve_cache_hits_total", "forecasts answered from the cache";
    /// Cacheable lookups that missed.
    serve_cache_misses: Counter = "stuq_serve_cache_misses_total", "cacheable lookups that missed";
    /// Cache entries dropped by the capacity bound.
    serve_cache_evictions: Counter =
        "stuq_serve_cache_evictions_total", "cache entries evicted by capacity";
    /// Whole-cache invalidations (hot-reload swap, breaker open).
    serve_cache_invalidations: Counter =
        "stuq_serve_cache_invalidations_total", "whole-cache invalidations";
    /// Live forecast-cache entries.
    serve_cache_entries: Gauge = "stuq_serve_cache_entries", "live forecast-cache entries";

    // --- stuq-serve: sharded cluster (router side) -------------------------
    /// Workers currently up, as of the last supervision tick.
    cluster_workers_up: Gauge =
        "stuq_cluster_workers_up", "workers up at the last supervision tick";
    /// Worker processes restarted by the supervisor.
    cluster_restarts: Counter = "stuq_cluster_restarts_total", "worker processes restarted";
    /// Worker RPCs that failed at the transport (timeout, EOF, I/O error).
    cluster_rpc_failures: Counter =
        "stuq_cluster_rpc_failures_total", "worker RPC transport failures";
    /// Two-phase cluster reloads committed.
    cluster_reload_commits: Counter =
        "stuq_cluster_reload_commits_total", "two-phase cluster reloads committed";
    /// Two-phase cluster reloads aborted (validation, skew, or worker nack).
    cluster_reload_aborts: Counter =
        "stuq_cluster_reload_aborts_total", "two-phase cluster reloads aborted";
    /// Failover hops: a shard attempt failed and the router moved on to
    /// another replica of the same shard.
    cluster_failover: Counter = "stuq_cluster_failover_total", "failover hops to a sibling replica";
    /// Faults injected by the deterministic fault-injection harness
    /// (`faultnet`). Exposed without the `stuq_` prefix on purpose: it is
    /// a test-harness counter, not a serving-subsystem one, and the bare
    /// name keeps harness traffic trivially greppable in merged dumps.
    faultnet_injected: Counter =
        "faultnet_injected_total", "faults injected by the faultnet harness";

    // --- stuq-serve: request tracing (trace level only) ---------------------
    /// Spans opened (`span_start` events emitted).
    trace_spans: Counter = "stuq_trace_spans_total", "spans opened";
    /// Slow-request exemplar events emitted (worst-N per window).
    trace_exemplars: Counter = "stuq_trace_exemplars_total", "slow-request exemplar events emitted";
    /// `cluster-metrics` scrapes served by the router.
    cluster_scrapes: Counter = "stuq_cluster_scrapes_total", "cluster-metrics scrapes served";
    /// Seconds a forecast line waited between arrival and pickup.
    serve_admission_seconds: Histogram =
        "stuq_serve_admission_seconds", "seconds a forecast waited before pickup (trace)";
    /// Seconds a forecast line dwelled in the batcher window.
    serve_batch_dwell_seconds: Histogram =
        "stuq_serve_batch_dwell_seconds", "seconds a forecast dwelled in the batcher (trace)";
    /// Seconds per forecast-cache probe.
    serve_cache_probe_seconds: Histogram =
        "stuq_serve_cache_probe_seconds", "seconds per forecast-cache probe (trace)";
    /// Seconds per shared-MC group compute.
    serve_compute_seconds: Histogram =
        "stuq_serve_compute_seconds", "seconds per shared-MC group compute (trace)";
    /// Seconds spent rendering responses per batch.
    serve_render_seconds: Histogram =
        "stuq_serve_render_seconds", "seconds rendering responses per batch (trace)";
    /// Seconds per sample-range RPC to one shard (router side).
    cluster_shard_rpc_seconds: Histogram =
        "stuq_cluster_shard_rpc_seconds", "seconds per sample-range RPC to one shard (trace)";
    /// Seconds reducing a group's gathered passes (router side).
    cluster_merge_seconds: Histogram =
        "stuq_cluster_merge_seconds", "seconds reducing gathered passes (trace)";
    /// Seconds per Monte-Carlo sample batch inside a forecast.
    mc_sample_seconds: Histogram = "stuq_mc_sample_seconds", "seconds per MC sample batch (trace)";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        let g = Gauge::new();
        g.set(-3.25);
        assert_eq!(g.get(), -3.25);
    }

    #[test]
    fn histogram_rejects_invalid_samples() {
        let h = Histogram::new();
        assert!(!h.record(0.0), "zero must be rejected");
        assert!(!h.record(-1.0), "negatives must be rejected");
        assert!(!h.record(f64::NAN), "NaN must be rejected");
        assert!(!h.record(f64::INFINITY), "inf must be rejected");
        assert!(!h.record(f64::NEG_INFINITY), "-inf must be rejected");
        assert_eq!(h.count(), 0);
        assert_eq!(h.rejected(), 5);
        assert!(h.mean().is_nan());
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn histogram_exact_stats() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            assert!(h.record(v));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.mean(), 3.75);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8.0);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bounded() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-6);
        }
        let (p5, p50, p95) = (h.quantile(0.05), h.quantile(0.5), h.quantile(0.95));
        assert!(p5 <= p50 && p50 <= p95, "{p5} {p50} {p95}");
        assert!(p50 >= h.min() && p50 <= h.max());
        // log2 bucketing bounds any quantile within 2x of the true value.
        assert!(p50 > 0.5 * 500e-6 && p50 < 2.0 * 500e-6, "p50 {p50}");
        assert_eq!(h.quantile(0.0), h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn histogram_handles_extreme_magnitudes() {
        let h = Histogram::new();
        assert!(h.record(1e-12), "tiny values clamp into the first bucket");
        assert!(h.record(1e12), "huge values clamp into the last bucket");
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 1e-12);
        assert_eq!(h.max(), 1e12);
    }

    #[test]
    fn exposition_contains_every_family() {
        let m = Metrics::new();
        m.pool_fanouts.add(3);
        m.train_loss.set(1.5);
        m.train_epoch_seconds.record(0.25);
        let text = m.expose();
        for needle in [
            "stuq_pool_fanouts_total 3",
            "stuq_train_loss 1.5",
            "stuq_train_epoch_seconds_count 1",
            "# TYPE stuq_guard_trips_total counter",
            "# TYPE stuq_opt_lr gauge",
            "# TYPE stuq_mc_forecast_seconds summary",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in exposition:\n{text}");
        }
        // Every family has exactly one header pair: a name declared twice in
        // the table shows up as a second `# HELP`/`# TYPE` line.
        let family = |line: &str, tag: &str| {
            line.strip_prefix(tag).and_then(|r| r.split(' ').next()).map(str::to_owned)
        };
        let helps: Vec<String> = text.lines().filter_map(|l| family(l, "# HELP ")).collect();
        let types: Vec<String> = text.lines().filter_map(|l| family(l, "# TYPE ")).collect();
        assert_eq!(helps, types, "HELP and TYPE lines must pair up family by family");
        for name in &helps {
            let n = helps.iter().filter(|h| *h == name).count();
            assert_eq!(n, 1, "family {name} has {n} # HELP lines");
        }
    }

    #[test]
    fn summaries_export_p99() {
        let m = Metrics::new();
        for i in 1..=100 {
            m.serve_request_seconds.record(i as f64 * 1e-3);
        }
        let text = m.expose();
        assert!(
            text.contains("stuq_serve_request_seconds{quantile=\"0.99\"}"),
            "missing p99 line:\n{text}"
        );
    }

    #[test]
    fn counters_stay_in_lock_step_with_exposition() {
        let m = Metrics::new();
        m.serve_requests.add(7);
        m.trace_spans.add(2);
        let counters = m.counters();
        let text = m.expose();
        // Every catalog counter appears in counters() with its current value…
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((name, value)) = line.split_once(' ') else { continue };
            if !name.ends_with("_total") {
                continue;
            }
            let got = counters.iter().find(|(n, _)| *n == name);
            assert!(got.is_some(), "counter {name} exposed but missing from counters()");
            assert_eq!(got.unwrap().1.to_string(), value, "{name} value mismatch");
        }
        // …and counters() lists nothing the exposition does not.
        for (name, _) in &counters {
            assert!(
                text.contains(&format!("\n{name} ")),
                "counters() lists {name} but expose() does not"
            );
        }
        let exposed = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter(|l| l.split_once(' ').is_some_and(|(n, _)| n.ends_with("_total")))
            .count();
        assert_eq!(exposed, counters.len(), "counter count drifted");
    }

    #[test]
    fn reset_clears_everything() {
        let m = Metrics::new();
        m.guard_trips.inc();
        m.calib_temperature.set(0.8);
        m.train_epoch_seconds.record(1.0);
        m.reset();
        assert_eq!(m.guard_trips.get(), 0);
        assert_eq!(m.calib_temperature.get(), 0.0);
        assert_eq!(m.train_epoch_seconds.count(), 0);
        // Byte-identical to a fresh catalog covers every entry, not just the
        // three touched above.
        assert_eq!(m.expose(), Metrics::new().expose());
    }
}
