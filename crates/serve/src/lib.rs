//! **stuq-serve** — deadline-aware forecast serving runtime (DESIGN.md §11).
//!
//! A long-lived process wraps a trained [`DeepStuq`] model behind a
//! newline-delimited JSON protocol ([`proto`]) and keeps four robustness
//! mechanisms between the client and the model:
//!
//! 1. **Admission control** — the reader parses each line once and queues
//!    the parsed request (the two lanes in `batcher`), so the worker never
//!    parses again; the forecast lane is bounded, and when it is full (or
//!    the server is draining) new forecasts are *shed* with a typed
//!    `rejected` response instead of growing latency without bound.
//!    Breaker state is *not* an admission concern: open-breaker forecasts
//!    still reach the worker, which serves the documented fallback (or a
//!    typed rejection) and — crucially — runs the half-open probe that lets
//!    the breaker recover.
//! 2. **Anytime MC-dropout degradation** — each request carries a deadline
//!    budget in (logical) milliseconds. The MC loop checks the budget
//!    between passes ([`deepstuq::mc_forecast_anytime`]) and stops early,
//!    never below the configured sample floor. A degraded response says so
//!    (`degraded`, `samples_used`, `variance_inflation`) and reports a
//!    *monotone variance envelope*: the running elementwise minimum over
//!    prefix reductions of `σ²_alea/T² + (n_req/k)·σ²_epis`, so reported
//!    variance never *increases* with more samples — fewer samples can only
//!    widen the intervals, never narrow them.
//! 3. **Circuit breaker** ([`breaker`]) — consecutive model faults
//!    (non-finite μ/σ or |μ| above the guard-style ceiling) open the
//!    breaker; while open, requests get the documented fallback (last-row
//!    persistence forecast with widened intervals) or a typed rejection,
//!    and the model is probed again only after an exponential cooldown.
//! 4. **Hot reload** ([`reload`]) — a watcher validates new model artifacts
//!    off the request path; the worker swaps a shape-compatible candidate
//!    in atomically between requests and logs a `reload_rollback` for
//!    anything invalid, without ever serving a half-loaded model.
//!
//! Two throughput mechanisms sit in front of the MC loop (DESIGN.md §12):
//!
//! 5. **Request coalescing** (`batcher`) — the worker gathers forecasts
//!    that arrive together into one batch (`--batch-max`, window bounded by
//!    `--batch-wait-ms` and the tightest gathered deadline), groups members
//!    whose window bits, RNG derivation, and sample count coincide, and
//!    runs *one* anytime-MC pass per group; each member slices its node
//!    subset / horizon prefix out of the shared full-grid result.
//! 6. **Per-tick forecast cache** ([`cache`]) — keyed on the request key
//!    (window bits, seed derivation, `n_samples`) that also groups
//!    co-batched members, plus model generation and tick, TTL = the data
//!    cadence (`--cache-ttl-ms`); a hit answers without touching the model
//!    and the whole cache is dropped on hot-reload swap and breaker-open.
//!
//! And one scale-out mechanism on top (DESIGN.md §13):
//!
//! 7. **Sample-sharded cluster** ([`shard`], [`router`], [`supervisor`]) —
//!    a router is this same [`Server`] whose MC passes run on N worker
//!    processes (each one an ordinary [`Server`] behind a socket): every
//!    group's `n` passes are split into one contiguous sample range per
//!    shard, and the gathered passes go through the solo reduction,
//!    envelope, breaker and render. Workers additionally answer `ping`,
//!    `passes`, and the two-phase `prepare_reload`/`commit_reload`/
//!    `abort_reload` requests the router drives; a shard that does not
//!    answer simply contributes no passes.
//!
//! All time flows through the injectable [`clock::Clock`]; with
//! `STUQ_FAKE_CLOCK` set, degradation trajectories *and batch composition*
//! are a pure function of the request stream, so responses are
//! byte-identical across `STUQ_THREADS` settings — the property the chaos
//! CI job pins.

mod batcher;
pub mod breaker;
pub mod cache;
pub mod clock;
pub mod faultnet;
pub mod proto;
pub mod reload;
pub mod router;
pub mod shard;
pub mod supervisor;

use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use batcher::{GatherEnd, Lanes, Popped, RequestKey, SeedSpec};
use breaker::Breaker;
use cache::{CacheEntry, CacheKey, ForecastCache};
use clock::Clock;
use deepstuq::{DeepStuq, GaussianForecast, SampleBudget, UnlimitedBudget};
use proto::{ForecastMeta, ForecastReq, PassReq, Request};
use stuq_artifact::json;
use stuq_models::Forecaster;
use stuq_obs::{trace, Event};
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::Scaler;

/// Everything the serve runtime needs to know, CLI-flag for CLI-flag.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Trained model artifact ([`deepstuq::save_model`] format). Also the
    /// path the hot-reload watcher polls.
    pub model_path: PathBuf,
    /// Optional dataset artifact; provides the z-score scaler (so requests
    /// speak raw units) and pins the expected input-window length.
    pub data_path: Option<PathBuf>,
    /// Admission-queue capacity; beyond it forecasts are shed.
    pub max_queue: usize,
    /// MC samples per request (default: the model's own setting).
    pub mc_samples: Option<usize>,
    /// Degradation floor: a deadline never cuts a run below this many
    /// samples.
    pub floor: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline_ms: Option<u64>,
    /// Consecutive faults that open the breaker.
    pub breaker_threshold: usize,
    /// Initial breaker cooldown.
    pub breaker_cooldown_ms: u64,
    /// Cap for the exponentially backed-off cooldown.
    pub breaker_cooldown_max_ms: u64,
    /// Guard-style output ceiling: |μ| beyond this is a model fault.
    pub max_abs_output: f64,
    /// Fallback interval widening (× the last healthy mean σ).
    pub widen_factor: f32,
    /// Directory for the atomically rewritten `health.json`, if any.
    pub health_dir: Option<PathBuf>,
    /// Hot-reload poll interval; 0 disables the watcher.
    pub reload_poll_ms: u64,
    /// Server RNG seed (forked per request when the request has no seed).
    pub seed: u64,
    /// Fake-clock step; `None` falls back to `STUQ_FAKE_CLOCK` / real time.
    pub fake_clock_step_ms: Option<u64>,
    /// Most forecasts one batch may coalesce; 1 disables gathering (every
    /// request is a batch of one, exactly the pre-batching behaviour).
    pub batch_max: usize,
    /// Real-clock gather window in milliseconds (further bounded by the
    /// tightest deadline of any gathered member). Ignored under the fake
    /// clock, where composition is arrival-order-driven.
    pub batch_wait_ms: u64,
    /// Forecast-cache TTL in (logical) milliseconds — set it to the data
    /// cadence. 0 disables the cache.
    pub cache_ttl_ms: u64,
    /// Forecast-cache capacity (entries).
    pub cache_cap: usize,
}

impl ServeConfig {
    /// Defaults for everything but the model path.
    pub fn new(model_path: impl Into<PathBuf>) -> Self {
        Self {
            model_path: model_path.into(),
            data_path: None,
            max_queue: 64,
            mc_samples: None,
            floor: 2,
            default_deadline_ms: None,
            breaker_threshold: 3,
            breaker_cooldown_ms: 1000,
            breaker_cooldown_max_ms: 30_000,
            max_abs_output: 1e8,
            widen_factor: 2.0,
            health_dir: None,
            reload_poll_ms: 200,
            seed: 7,
            fake_clock_step_ms: None,
            batch_max: 1,
            batch_wait_ms: 2,
            cache_ttl_ms: 0,
            cache_cap: 256,
        }
    }
}

/// A deadline as a [`SampleBudget`]: one clock read per decision, so under
/// the fake clock `samples_used` is a pure function of the request.
pub struct DeadlineBudget<'a> {
    /// The server clock (fake or real).
    pub clock: &'a mut Clock,
    /// Clock reading when the request started.
    pub t_start: u64,
    /// Budget in (logical) milliseconds.
    pub deadline_ms: u64,
}

impl SampleBudget for DeadlineBudget<'_> {
    fn allow(&mut self, _completed: usize) -> bool {
        self.clock.now_ms().saturating_sub(self.t_start) < self.deadline_ms
    }
}

/// What [`Server::handle_line`] produced.
#[derive(Debug)]
pub struct LineOutcome {
    /// The response line (no trailing newline).
    pub response: String,
    /// True after a `shutdown` request: stop the loop.
    pub done: bool,
}

/// The serving state machine. [`serve_loop`] drives it from a reader; tests
/// drive it line by line through [`Server::handle_line`].
pub struct Server {
    cfg: ServeConfig,
    model: DeepStuq,
    model_checksum: String,
    scaler: Option<Scaler>,
    expected_t_h: Option<usize>,
    clock: Clock,
    breaker: Breaker,
    watcher: Option<reload::Watcher>,
    last_good_sigma: Option<f32>,
    draining: bool,
    requests_served: u64,
    shed: u64,
    /// Forecast-lane depth last observed by the serve loop (0 in sync mode).
    queue_depth: usize,
    /// Reader-side sheds mirrored in by the serve loop (0 in sync mode).
    shed_reader: u64,
    /// Per-tick forecast cache (empty and never consulted when disabled).
    cache: ForecastCache,
    /// Reload generation stamped into cache keys; bumped on every
    /// invalidation so stale entries can never match even mid-clear.
    generation: u64,
    /// MC samples actually drawn from the model — shared samples count once
    /// per group, not once per co-batched member.
    samples_used_total: u64,
    /// Two-phase reload: a validated candidate staged by `prepare_reload`,
    /// swapped in only by `commit_reload` (dropped by `abort_reload`).
    staged: Option<(DeepStuq, String)>,
    /// Set on a cluster router: the workers that run this server's MC
    /// passes, one sample range per shard (DESIGN.md §13).
    cluster: Option<router::Cluster>,
}

/// A validated forecast request, ready for cache lookup and grouping.
/// Everything derived from the request exactly once, in arrival order,
/// before any clock or model work happens.
struct Valid {
    /// Raw-unit input window `[T_h, N]`; its bits are the exact window
    /// compare behind both sharing and caching.
    x_raw: Tensor,
    /// Window hash, RNG derivation and sample count (after config/model
    /// defaulting): equal keys over equal window bits share one MC run.
    key: RequestKey,
    /// Effective degradation floor for this request.
    floor: usize,
    /// Deadline after config defaulting.
    deadline: Option<u64>,
    /// Declared data tick, if any (cache key component).
    tick: Option<u64>,
    /// Node subset to answer with (`None` = all nodes).
    nodes: Option<Vec<usize>>,
    /// Horizon prefix to answer with (`None` = full horizon).
    horizon: Option<usize>,
}

/// A member's trace context (DESIGN.md §15).
struct MemberTrace {
    trace: u64,
    span: u64,
    parent: u64,
}

/// One batch member's way through [`Server::handle_forecast_batch_timed`]:
/// its request, what validation made of it, its response once answered,
/// and what the tracer reports about it.
struct Member<'r> {
    req: &'r ForecastReq,
    /// `None` after a client error.
    valid: Option<Valid>,
    response: Option<String>,
    /// Arrival index (a router picks each range's replica from the lead's).
    arrival: u64,
    /// Status of the member's root span (`ok`, `error`, `cache_hit`,
    /// `breaker_open`, `fallback` or `fault`).
    status: &'static str,
    /// Whether the batch's cache probe looked this member up.
    probed: bool,
    /// Its group's index, compute seconds and compute-span status.
    compute: Option<(usize, f64, &'static str)>,
    /// Seconds spent rendering its response.
    render_s: Option<f64>,
    /// On a router group's lead: the per-range RPCs and the merge time.
    ranges: Option<(Vec<router::RangeSpan>, Option<f64>)>,
    /// Set only while tracing.
    trace: Option<MemberTrace>,
}

impl Member<'_> {
    /// The validated request of a member that reached grouping.
    fn valid(&self) -> &Valid {
        self.valid.as_ref().expect("grouped members are valid")
    }
}

/// Slices a full-grid `[N, τ]` tensor down to a node subset and horizon
/// prefix (`None` = keep that axis whole).
fn slice_grid(full: &Tensor, nodes: Option<&[usize]>, horizon: Option<usize>) -> Tensor {
    let (n, tau) = (full.shape()[0], full.shape()[1]);
    let h = horizon.unwrap_or(tau).min(tau);
    if nodes.is_none() && h == tau {
        return full.clone();
    }
    let all: Vec<usize>;
    let idx: &[usize] = match nodes {
        Some(ns) => ns,
        None => {
            all = (0..n).collect();
            &all
        }
    };
    let mut out = Vec::with_capacity(idx.len() * h);
    for &node in idx {
        for t in 0..h {
            out.push(full.get(node, t));
        }
    }
    Tensor::from_vec(out, &[idx.len(), h])
}

/// Slices a member's view out of a full-grid result of the model with
/// checksum `model` and renders the forecast response.
fn render_forecast(
    model: &str,
    m: &Member,
    samples_used: usize,
    meta: &ForecastMeta,
    mu_full: &Tensor,
    sigma_full: &Tensor,
) -> String {
    let v = m.valid();
    with_intervals(mu_full, sigma_full, v, |iv| {
        proto::resp_forecast(&m.req.id, samples_used, v.key.n_samples, model, meta, iv)
    })
}

/// Slices a full-grid μ/σ pair to a request's nodes and horizon and hands
/// `f` the intervals with the 95 % band `μ ∓ z·σ` — the one builder behind
/// both forecast and fallback responses.
fn with_intervals<R>(
    mu_full: &Tensor,
    sigma_full: &Tensor,
    v: &Valid,
    f: impl FnOnce(&proto::Intervals) -> R,
) -> R {
    let mu = slice_grid(mu_full, v.nodes.as_deref(), v.horizon);
    let sigma = slice_grid(sigma_full, v.nodes.as_deref(), v.horizon);
    let z = stuq_metrics::Z_95 as f32;
    let lower = mu.zip(&sigma, |m, s| m - z * s);
    let upper = mu.zip(&sigma, |m, s| m + z * s);
    f(&proto::Intervals { mu: &mu, sigma: &sigma, lower: &lower, upper: &upper })
}

impl Server {
    /// Loads the model (and dataset scaler, when given) and starts the
    /// reload watcher. Fails on an unreadable artifact, on a model that
    /// reads covariates (requests carry no weather) and on a default
    /// sample count (`cfg.mc_samples`, else the model's own) above
    /// [`proto::MAX_MC_SAMPLES`].
    pub fn new(cfg: ServeConfig) -> Result<Server, String> {
        let bytes = std::fs::read(&cfg.model_path)
            .map_err(|e| format!("{}: {e}", cfg.model_path.display()))?;
        let model = reload::load_servable(&bytes)
            .map_err(|e| format!("{}: {e}", cfg.model_path.display()))?;
        let model_checksum = reload::file_checksum(&bytes);
        // A count above the wire bound would have every cluster worker
        // refuse every `passes` RPC, so refuse it here instead.
        let mc = cfg.mc_samples.unwrap_or_else(|| model.mc_samples());
        if mc > proto::MAX_MC_SAMPLES {
            return Err(format!(
                "{mc} MC samples per request is above the bound of {} (proto::MAX_MC_SAMPLES)",
                proto::MAX_MC_SAMPLES
            ));
        }
        let (scaler, expected_t_h) = match &cfg.data_path {
            Some(p) => {
                let ds = stuq_traffic::load_split_dataset(p)
                    .map_err(|e| format!("{}: {e}", p.display()))?;
                (Some(*ds.scaler()), Some(ds.t_h()))
            }
            None => (None, None),
        };
        let clock = match cfg.fake_clock_step_ms {
            Some(step) => Clock::fake(step),
            None => Clock::from_env(),
        };
        let breaker = Breaker::new(
            cfg.breaker_threshold,
            cfg.breaker_cooldown_ms,
            cfg.breaker_cooldown_max_ms,
        );
        let watcher = (cfg.reload_poll_ms > 0).then(|| {
            reload::Watcher::spawn(
                cfg.model_path.clone(),
                cfg.reload_poll_ms,
                model_checksum.clone(),
            )
        });
        stuq_obs::metrics().serve_breaker_state.set(breaker.state().gauge());
        let cache = ForecastCache::new(cfg.cache_cap, cfg.cache_ttl_ms);
        Ok(Server {
            cfg,
            model,
            model_checksum,
            scaler,
            expected_t_h,
            clock,
            breaker,
            watcher,
            last_good_sigma: None,
            draining: false,
            requests_served: 0,
            shed: 0,
            queue_depth: 0,
            shed_reader: 0,
            cache,
            generation: 0,
            samples_used_total: 0,
            staged: None,
            cluster: None,
        })
    }

    /// True when the per-tick forecast cache is active.
    fn cache_enabled(&self) -> bool {
        self.cfg.cache_ttl_ms > 0
    }

    /// The RNG a request's seed spec pins — identical for batched and
    /// unbatched processing of the same request (that is the point).
    fn rng_for(&self, seed: &SeedSpec) -> StuqRng {
        match seed {
            SeedSpec::Explicit(s) => StuqRng::new(*s),
            SeedSpec::FromTick(t) => StuqRng::new(self.cfg.seed).fork(*t),
            SeedSpec::Arrival(i) => StuqRng::new(self.cfg.seed).fork(*i),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// True once a `drain` or `shutdown` request was processed.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// True while the breaker is open (readiness surfaces report it; the
    /// worker answers open-breaker forecasts with fallback or rejection).
    pub fn breaker_is_open(&self) -> bool {
        self.breaker.state() == breaker::State::Open
    }

    /// Checksum of the artifact currently being served.
    pub fn model_checksum(&self) -> &str {
        &self.model_checksum
    }

    /// Forecast-cache key generation. Bumped by every invalidation —
    /// including a committed cluster reload — and, critically, *not* by an
    /// aborted prepare; cluster tests pin both directions.
    pub fn cache_generation(&self) -> u64 {
        self.generation
    }

    /// Forecasts shed by the server itself (sync-mode admission).
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Sync entry point: parse, admission (draining check), dispatch. The
    /// serve loop parses and admits in its reader and dispatches the parsed
    /// request directly.
    pub fn handle_line(&mut self, line: &str) -> LineOutcome {
        match proto::parse_request(line) {
            Err(e) => LineOutcome {
                response: proto::resp_error(&e.id, "bad_request", &e.detail),
                done: false,
            },
            Ok(Request::Forecast(req)) if self.draining => {
                LineOutcome { response: self.reject(&req.id, "draining"), done: false }
            }
            Ok(req) => self.dispatch(req),
        }
    }

    /// Answers one parsed, already-admitted request.
    fn dispatch(&mut self, req: Request) -> LineOutcome {
        match req {
            Request::Forecast(req) => {
                self.poll_watcher();
                let response = self
                    .handle_forecast_batch(std::slice::from_ref(&req))
                    .pop()
                    .expect("one request, one response");
                LineOutcome { response, done: false }
            }
            Request::Healthz { id } => LineOutcome { response: self.healthz(&id), done: false },
            Request::Reload { id } => {
                let response = match self.cluster {
                    Some(_) => self.cluster_reload(&id),
                    None => self.handle_reload(&id),
                };
                LineOutcome { response, done: false }
            }
            Request::Drain { id } => {
                self.draining = true;
                LineOutcome { response: proto::resp_ack(&id, "drain", &[]), done: false }
            }
            Request::Shutdown { id } => {
                self.draining = true;
                if let Some(c) = &mut self.cluster {
                    c.shutdown_workers();
                }
                LineOutcome { response: proto::resp_ack(&id, "shutdown", &[]), done: true }
            }
            Request::Ping { id } => LineOutcome {
                response: proto::resp_ack(&id, "ping", &[("ok", "true".into())]),
                done: false,
            },
            // The internal worker requests stop at a router: clients talk to
            // the cluster through `reload` and `forecast`, never to a shard.
            Request::PrepareReload { id }
            | Request::CommitReload { id }
            | Request::AbortReload { id }
            | Request::Passes(PassReq { id, .. })
                if self.cluster.is_some() =>
            {
                LineOutcome {
                    response: proto::resp_error(
                        &id,
                        "bad_request",
                        "cluster-internal request; send \"reload\" to the router",
                    ),
                    done: false,
                }
            }
            Request::Passes(req) => LineOutcome { response: self.handle_passes(&req), done: false },
            Request::PrepareReload { id } => {
                LineOutcome { response: self.handle_prepare_reload(&id), done: false }
            }
            Request::CommitReload { id } => {
                LineOutcome { response: self.handle_commit_reload(&id), done: false }
            }
            Request::AbortReload { id } => {
                LineOutcome { response: self.handle_abort_reload(&id), done: false }
            }
            Request::Metrics { id } => {
                LineOutcome { response: self.handle_metrics(&id), done: false }
            }
            // A solo server is its own whole cluster, so the cluster scrape
            // degrades to the local dump; a router merges its workers'.
            Request::ClusterMetrics { id } => {
                let response = match &mut self.cluster {
                    Some(c) => c.merged_metrics(&id),
                    None => self.handle_metrics(&id),
                };
                LineOutcome { response, done: false }
            }
        }
    }

    /// Counter scrape: the full metric catalog as `name → value` pairs, the
    /// unit a router sums into its cluster-wide export (DESIGN.md §15).
    fn handle_metrics(&self, id: &Option<String>) -> String {
        proto::resp_metrics(id, &stuq_obs::metrics().counters())
    }

    /// Records a shed and renders the typed rejection.
    fn reject(&mut self, id: &Option<String>, reason: &'static str) -> String {
        self.shed += 1;
        stuq_obs::metrics().serve_shed.inc();
        stuq_obs::emit(Event::new("serve_rejected").str("reason", reason));
        proto::resp_rejected(id, reason)
    }

    /// Validation half of the request pipeline: typed client errors out,
    /// a [`Valid`] (with its request key precomputed) on success. Client
    /// errors are never breaker faults.
    fn validate(&mut self, req: &ForecastReq, req_index: u64) -> Result<Valid, String> {
        let n_nodes = self.model.model().n_nodes();
        let model_tau = self.model.model().horizon();
        let t_rows = req.x.len();
        let width = req.x[0].len();
        if width != n_nodes {
            return Err(proto::resp_error(
                &req.id,
                "shape_mismatch",
                &format!("expected {n_nodes} columns (sensors), got {width}"),
            ));
        }
        if let Some(t_h) = self.expected_t_h {
            if t_rows != t_h {
                return Err(proto::resp_error(
                    &req.id,
                    "shape_mismatch",
                    &format!("expected {t_h} rows (input window), got {t_rows}"),
                ));
            }
        }
        if let Some(nodes) = &req.nodes {
            // Duplicates are legal, but each entry renders a row of every
            // response matrix, so the list may not outgrow the grid.
            if nodes.len() > n_nodes {
                return Err(proto::resp_error(
                    &req.id,
                    "shape_mismatch",
                    &format!("{} nodes listed (model has {n_nodes} sensors)", nodes.len()),
                ));
            }
            if let Some(&bad) = nodes.iter().find(|&&i| i >= n_nodes) {
                return Err(proto::resp_error(
                    &req.id,
                    "shape_mismatch",
                    &format!("node {bad} out of range (model has {n_nodes} sensors)"),
                ));
            }
        }
        if let Some(h) = req.horizon {
            if h > model_tau {
                return Err(proto::resp_error(
                    &req.id,
                    "shape_mismatch",
                    &format!("horizon {h} beyond model horizon {model_tau}"),
                ));
            }
        }
        let mut flat = Vec::with_capacity(t_rows * width);
        for row in &req.x {
            flat.extend_from_slice(row);
        }
        if flat.iter().any(|v| !v.is_finite()) {
            return Err(proto::resp_error(
                &req.id,
                "non_finite_input",
                "input window contains non-finite values",
            ));
        }
        let x_hash = cache::hash_window(&flat);
        let x_raw = Tensor::from_vec(flat, &[t_rows, n_nodes]);
        let n_req =
            req.mc.or(self.cfg.mc_samples).unwrap_or_else(|| self.model.mc_samples()).max(1);
        // A single completed sample carries no epistemic estimate, so a
        // multi-sample request cut to one would report *narrower* intervals
        // than any longer run — the opposite of the degradation contract.
        // The effective floor is therefore 2 whenever more than one sample
        // was requested, keeping the variance envelope populated.
        let floor = if n_req > 1 { self.cfg.floor.clamp(2, n_req) } else { 1 };
        let deadline = req.deadline_ms.or(self.cfg.default_deadline_ms);
        let seed = match (req.seed, req.tick) {
            (Some(s), _) => SeedSpec::Explicit(s),
            (None, Some(t)) => SeedSpec::FromTick(t),
            (None, None) => SeedSpec::Arrival(req_index),
        };
        Ok(Valid {
            x_raw,
            key: RequestKey { x_hash, seed, n_samples: n_req },
            floor,
            deadline,
            tick: req.tick,
            nodes: req.nodes.clone(),
            horizon: req.horizon,
        })
    }

    /// The cache key of a validated request; `None` for arrival-indexed
    /// requests, whose RNG is not a pure function of the request.
    fn cache_key(&self, v: &Valid) -> Option<CacheKey> {
        let cacheable = !matches!(v.key.seed, SeedSpec::Arrival(_));
        cacheable.then_some(CacheKey { generation: self.generation, tick: v.tick, request: v.key })
    }

    /// One admitted batch, end to end: per-request validation → cache
    /// lookups → request-key grouping → one anytime-MC run per group → per-
    /// member slicing and rendering. A singleton slice is the ordinary
    /// unbatched path (the sync [`Server::handle_line`] route always lands
    /// here with one request), so there is exactly one forecast pipeline to
    /// reason about.
    ///
    /// Determinism: requests are validated, looked up, grouped, computed,
    /// and rendered strictly in arrival order; every clock read happens at
    /// a position that is a pure function of the batch contents (one read
    /// per batch iff the cache is on, one per group at `t_start`, one per
    /// group with a deadline after its MC run — matching the solo path).
    ///
    /// Sharing semantics worth knowing: a group runs under the *tightest*
    /// member deadline, so a no-deadline request co-batched with a tight
    /// one can come back degraded; the breaker sees one fault per faulting
    /// *group*, not per member; `samples_used` accounting likewise counts
    /// each shared run once.
    pub fn handle_forecast_batch(&mut self, reqs: &[ForecastReq]) -> Vec<String> {
        self.handle_forecast_batch_timed(reqs, None)
    }

    /// [`Server::handle_forecast_batch`] with the serve loop's queue
    /// timings attached for the tracer. `timing` is telemetry-only by
    /// contract — nothing in the forecast pipeline branches on it — so a
    /// traced run answers byte-identically to an untraced one modulo the
    /// [`proto::strip_meta`] annotation.
    pub(crate) fn handle_forecast_batch_timed(
        &mut self,
        reqs: &[ForecastReq],
        timing: Option<&batcher::BatchTiming>,
    ) -> Vec<String> {
        let wall = std::time::Instant::now();
        let m = stuq_obs::metrics();
        let n = reqs.len();
        let meta_miss = ForecastMeta { batched: n > 1, batch_size: n, cache_hit: false };
        let meta_hit = ForecastMeta { batched: n > 1, batch_size: n, cache_hit: true };

        // Trace context per member (DESIGN.md §15): the wire context when
        // the caller sent one, else derived from (seed, arrival index) —
        // the same pair seedless RNG forks use — so a seeded rerun rebuilds
        // the identical span tree.
        let traced = stuq_obs::trace_enabled();
        // A router's root span is `request`, so a joined timeline tells the
        // router hop from the worker hops nested under it.
        let root = if self.cluster.is_some() { "request" } else { "serve" };
        let mut members: Vec<Member> = Vec::with_capacity(n);
        for req in reqs {
            m.serve_requests.inc();
            let arrival = self.requests_served;
            self.requests_served += 1;
            let (valid, response) = match self.validate(req, arrival) {
                Ok(v) => (Some(v), None),
                Err(resp) => (None, Some(resp)),
            };
            let trace = traced.then(|| {
                let trace =
                    req.trace.unwrap_or_else(|| trace::derive_trace_id(self.cfg.seed, arrival));
                let parent = req.span.unwrap_or(trace);
                MemberTrace { trace, span: trace::derive_span_id(parent, root, arrival), parent }
            });
            let status = if valid.is_some() { "ok" } else { "error" };
            members.push(Member {
                req,
                valid,
                response,
                arrival,
                status,
                probed: false,
                compute: None,
                render_s: None,
                ranges: None,
                trace,
            });
        }

        // Cache lookups: exactly one clock read per batch, and only when
        // the cache is on (cache-off runs keep the pre-cache clock
        // schedule). Arrival-indexed requests are uncacheable by design —
        // their RNG is not a pure function of the request — and do not
        // count as misses.
        let mut cache_hits: u64 = 0;
        let mut probe_s: Option<f64> = None;
        if self.cache_enabled() {
            let probe_t0 = std::time::Instant::now();
            let now = self.clock.now_ms();
            for mem in &mut members {
                let Some(v) = &mem.valid else { continue };
                let Some(key) = self.cache_key(v) else { continue };
                mem.probed = true;
                let hit = self.cache.get(&key, v.x_raw.data(), now).map(|e| {
                    let (mu, sigma) = (&e.mu_raw, &e.sigma_raw);
                    render_forecast(&self.model_checksum, mem, e.samples_used, &meta_hit, mu, sigma)
                });
                match hit {
                    Some(response) => {
                        cache_hits += 1;
                        m.serve_cache_hits.inc();
                        mem.status = "cache_hit";
                        mem.response = Some(response);
                    }
                    None => m.serve_cache_misses.inc(),
                }
            }
            m.serve_cache_entries.set(self.cache.len() as f64);
            let secs = probe_t0.elapsed().as_secs_f64();
            m.serve_cache_probe_seconds.record(secs);
            probe_s = Some(secs);
        }

        // Grouping of what still needs compute, by request key and exact
        // window bits.
        let groups = batcher::group_requests(
            n,
            |i| members[i].response.is_none().then(|| members[i].valid().key),
            |a, b| {
                cache::same_bits(members[a].valid().x_raw.data(), members[b].valid().x_raw.data())
            },
        );

        // One anytime-MC run per group, in first-arrival order.
        for (gi, g) in groups.iter().enumerate() {
            let lead = &members[g[0]];
            let RequestKey { seed, n_samples: n_req, .. } = lead.valid().key;
            let floor = lead.valid().floor;
            // The shared run answers every member, so the tightest member
            // deadline bounds it (None = unbounded only if nobody set one).
            let deadline = g.iter().filter_map(|&i| members[i].valid().deadline).min();

            // Breaker gate: one poll per group, exactly the solo schedule.
            let t_start = self.clock.now_ms();
            if let Some(t) = self.breaker.poll(t_start) {
                self.note_transition(t);
            }
            if self.breaker_is_open() {
                self.fall_back(&mut members, g, "breaker_open", "breaker_open", None);
                continue;
            }

            let compute_t0 = std::time::Instant::now();
            let mut rng = self.rng_for(&seed);
            let xn = match self.scaler {
                Some(s) => lead.valid().x_raw.map(move |v| s.transform(v)),
                None => lead.valid().x_raw.clone(),
            };
            let shape = [self.model.model().n_nodes(), self.model.model().horizon()];
            // On a router the passes run on the workers, one sample range
            // per shard; fewer than the floor is the fallback ladder.
            let mut gathered = self.cluster.as_mut().map(|c| {
                let ctx = lead
                    .trace
                    .as_ref()
                    .map(|mt| (mt.trace, trace::derive_span_id(mt.span, "compute", gi as u64)));
                c.gather(&router::PassJob {
                    x: &xn,
                    n: n_req,
                    rng: rng.export_state().s,
                    now: t_start,
                    arrival: lead.arrival,
                    deadline,
                    model: &self.model_checksum,
                    shape,
                    ctx,
                })
            });
            if let Some(gt) = gathered.as_mut() {
                if gt.passes.iter().flatten().count() < floor {
                    let reason = gt.lost.expect("a pass short of the floor means a lost range");
                    let run = (gi, compute_t0.elapsed().as_secs_f64());
                    members[g[0]].ranges = Some((std::mem::take(&mut gt.spans), None));
                    self.fall_back(&mut members, g, "fallback", reason, Some(run));
                    continue;
                }
            }
            let temp = self.model.temperature();
            let inv_t2 = 1.0 / (temp * temp);
            let n_req_f = n_req as f32;
            let mut envelope: Option<Vec<f32>> = None;
            let mut merge_s: Option<f64> = None;
            let any = {
                // Monotone variance envelope: running elementwise min over
                // prefix totals with the epistemic part inflated by n_req/k.
                // k = 1 has no epistemic estimate, so it is skipped unless a
                // single sample is all that was requested.
                let mut observe = |g: &GaussianForecast| {
                    if g.n_samples < 2 && n_req > 1 {
                        return;
                    }
                    let inflation = n_req_f / g.n_samples as f32;
                    let va = g.var_aleatoric.data();
                    let ve = g.var_epistemic.data();
                    match &mut envelope {
                        None => {
                            envelope = Some(
                                va.iter()
                                    .zip(ve)
                                    .map(|(a, e)| a * inv_t2 + e * inflation)
                                    .collect(),
                            );
                        }
                        Some(env) => {
                            for ((slot, a), e) in env.iter_mut().zip(va).zip(ve) {
                                let v = a * inv_t2 + e * inflation;
                                if v < *slot {
                                    *slot = v;
                                }
                            }
                        }
                    }
                };
                let mut unlimited = UnlimitedBudget;
                let mut with_deadline;
                let budget: &mut dyn SampleBudget = match deadline {
                    Some(d) => {
                        with_deadline =
                            DeadlineBudget { clock: &mut self.clock, t_start, deadline_ms: d };
                        &mut with_deadline
                    }
                    None => &mut unlimited,
                };
                match gathered.as_mut() {
                    None => deepstuq::mc_forecast_anytime(
                        self.model.model(),
                        &xn,
                        None,
                        n_req,
                        floor,
                        budget,
                        &mut rng,
                        Some(&mut observe),
                    ),
                    Some(gt) => {
                        let merge_t0 = std::time::Instant::now();
                        let any = deepstuq::reduce_anytime(
                            shape,
                            n_req,
                            floor,
                            budget,
                            Some(&mut observe),
                            |j| gt.passes[j].take(),
                        );
                        let secs = merge_t0.elapsed().as_secs_f64();
                        m.cluster_merge_seconds.record(secs);
                        merge_s = Some(secs);
                        any
                    }
                }
            };
            if let Some(gt) = gathered {
                members[g[0]].ranges = Some((gt.spans, merge_s));
            }
            let compute_secs = compute_t0.elapsed().as_secs_f64();
            m.serve_compute_seconds.record(compute_secs);
            let f = &any.forecast;
            let used = f.n_samples;
            if deadline.is_some() {
                // One spent read per deadline-carrying group (the solo
                // schedule); every member with its own deadline records its
                // own slack against it. A non-positive slack is a deadline
                // miss; the histogram's rejected count tallies those.
                let spent = self.clock.now_ms().saturating_sub(t_start);
                for &i in g {
                    if let Some(d) = members[i].valid().deadline {
                        m.serve_deadline_slack_ms.record(d as f64 - spent as f64);
                    }
                }
            }

            // Back to raw units. The envelope is the reported total
            // variance; with the ≥2 effective floor it is always populated,
            // but if it ever came back empty the fallback inflates Eq. 19b
            // by n_req/used so a shorter run still cannot report narrower
            // intervals.
            let var_norm: Vec<f32> = match envelope {
                Some(env) => env,
                None => {
                    let inflation = n_req_f / used.max(1) as f32;
                    f.var_total(temp).data().iter().map(|v| v * inflation).collect()
                }
            };
            let std_s = self.scaler.map(|s| s.std() as f32).unwrap_or(1.0);
            let mu_raw = match self.scaler {
                Some(s) => f.mu.map(move |v| s.inverse(v)),
                None => f.mu.clone(),
            };
            let sigma_raw = Tensor::from_vec(
                var_norm.iter().map(|v| v.max(0.0).sqrt() * std_s).collect(),
                f.mu.shape(),
            );

            // Guard-style health check: a fault feeds the breaker once per
            // group (the members shared the run, so they share the fault)
            // and every member gets the fallback, not garbage.
            let fault = !mu_raw.all_finite()
                || !sigma_raw.all_finite()
                || mu_raw.data().iter().any(|v| (v.abs() as f64) > self.cfg.max_abs_output);
            if fault {
                let now = self.clock.now_ms();
                if let Some(t) = self.breaker.on_fault(now) {
                    self.note_transition(t);
                }
                self.fall_back(&mut members, g, "fault", "model_fault", Some((gi, compute_secs)));
                continue;
            }
            if let Some(t) = self.breaker.on_success() {
                self.note_transition(t);
            }
            self.last_good_sigma =
                Some(sigma_raw.data().iter().sum::<f32>() / sigma_raw.len() as f32);

            // Shared samples count once per run — not once per member.
            m.serve_samples_used.record(used as f64);
            self.samples_used_total += used as u64;
            if any.degraded() {
                // Every member's response is degraded (metric per member);
                // the run itself degraded once (event per group).
                m.serve_degraded.add(g.len() as u64);
                stuq_obs::emit(
                    Event::new("serve_degraded")
                        .uint("samples_used", used as u64)
                        .uint("samples_requested", n_req as u64),
                );
            }

            // Only uncut, seed-derivable results are cacheable: a degraded
            // grid would poison later, laxer requests with narrower-budget
            // output.
            let lead = members[g[0]].valid();
            if let Some(key) =
                self.cache_key(lead).filter(|_| self.cache_enabled() && !any.degraded())
            {
                let entry = CacheEntry {
                    x_raw: lead.x_raw.data().to_vec(),
                    mu_raw: mu_raw.clone(),
                    sigma_raw: sigma_raw.clone(),
                    samples_used: used,
                    samples_requested: n_req,
                    at_ms: t_start,
                };
                let evicted = self.cache.insert(key, entry);
                if evicted > 0 {
                    m.serve_cache_evictions.add(evicted as u64);
                }
                m.serve_cache_entries.set(self.cache.len() as f64);
            }

            let compute_status = if any.degraded() { "degraded" } else { "ok" };
            for &i in g {
                let render_t0 = std::time::Instant::now();
                let response = render_forecast(
                    &self.model_checksum,
                    &members[i],
                    used,
                    &meta_miss,
                    &mu_raw,
                    &sigma_raw,
                );
                let rs = render_t0.elapsed().as_secs_f64();
                m.serve_render_seconds.record(rs);
                let mem = &mut members[i];
                mem.compute = Some((gi, compute_secs, compute_status));
                mem.response = Some(response);
                mem.render_s = Some(rs);
            }
        }

        m.serve_batches.inc();
        m.serve_batch_size.record(n as f64);
        if !groups.is_empty() {
            m.serve_batch_groups.record(groups.len() as f64);
        }
        if n > 1 {
            stuq_obs::emit(
                Event::new("serve_batch")
                    .uint("size", n as u64)
                    .uint("groups", groups.len() as u64)
                    .uint("cache_hits", cache_hits),
            );
        }
        let secs = wall.elapsed().as_secs_f64();
        for _ in 0..n {
            m.serve_request_seconds.record(secs);
        }
        if let Some(t) = timing {
            for &w in &t.waits {
                m.serve_admission_seconds.record(w);
            }
            m.serve_batch_dwell_seconds.record(t.dwell_s);
        }
        // Span emission, arrival order: one root span per member with its
        // retroactive phases nested under it, then the trace-meta
        // annotation on the response line. Emission *count* at any call
        // point is a pure function of the batch contents, so seeded reruns
        // keep identical event sequence numbers.
        members
            .into_iter()
            .enumerate()
            .map(|(i, mem)| {
                let mut line = mem.response.expect("every request answered");
                let Some(mt) = &mem.trace else { return line };
                trace::emit_span(trace::start_event(mt.trace, mt.span, mt.parent, root));
                if let Some(t) = timing {
                    trace::emit_phase(mt.trace, mt.span, "admission", mem.arrival, t.waits[i]);
                    trace::emit_phase(mt.trace, mt.span, "dwell", mem.arrival, t.dwell_s);
                }
                if mem.probed {
                    let probe = probe_s.unwrap_or(0.0);
                    trace::emit_phase(mt.trace, mt.span, "cache", mem.arrival, probe);
                }
                if let Some((gi, cs, cstat)) = mem.compute {
                    let cspan = trace::derive_span_id(mt.span, "compute", gi as u64);
                    trace::emit_span(trace::start_event(mt.trace, cspan, mt.span, "compute"));
                    if let Some((ranges, merge_s)) = &mem.ranges {
                        router::emit_range_spans(mt.trace, cspan, ranges);
                        if let Some(ms) = merge_s {
                            trace::emit_phase(mt.trace, cspan, "merge", mem.arrival, *ms);
                        }
                    }
                    trace::emit_span(trace::end_event(mt.trace, cspan, cs).str("status", cstat));
                }
                if let Some(rs) = mem.render_s {
                    trace::emit_phase(mt.trace, mt.span, "render", mem.arrival, rs);
                }
                let mut end = trace::end_event(mt.trace, mt.span, secs);
                if mem.status != "ok" {
                    end = end.str("status", mem.status);
                }
                trace::emit_span(end);
                trace::note_request(mt.trace, secs);
                proto::push_trace_meta(&mut line, mt.trace, mt.span);
                line
            })
            .collect()
    }

    /// One of the three fallback exits (breaker open, a router short of
    /// the floor, a model fault): every member of group `g` gets `status`,
    /// the group's compute record when a run was attempted, and the
    /// fallback or rejection for `reason`, sliced to its own nodes and
    /// horizon. A group's windows are bit-identical, so each member's own
    /// persistence grid is the lead's.
    fn fall_back(
        &mut self,
        members: &mut [Member],
        g: &[usize],
        status: &'static str,
        reason: &'static str,
        run: Option<(usize, f64)>,
    ) {
        for &i in g {
            let response = self.fallback_or_reject(&members[i], reason);
            let mem = &mut members[i];
            mem.status = status;
            mem.compute = run.map(|(gi, secs)| (gi, secs, status));
            mem.response = Some(response);
        }
    }

    /// The documented degraded-service path: a persistence forecast (last
    /// input row held flat) with intervals widened from the last healthy
    /// response. With no healthy response yet there is nothing honest to
    /// serve, so the request is rejected with the caller's reason
    /// (`model_fault` on the faulting request itself, `breaker_open` while
    /// the breaker is open, a lost range's reason on a router whose shards
    /// returned fewer passes than the floor).
    fn fallback_or_reject(&mut self, mem: &Member, reason: &'static str) -> String {
        let Some(sigma0) = self.last_good_sigma else {
            return self.reject(&mem.req.id, reason);
        };
        let n = self.model.model().n_nodes();
        let tau = self.model.model().horizon();
        let x_raw = &mem.valid().x_raw;
        let t_rows = x_raw.shape()[0];
        let mut mu = Vec::with_capacity(n * tau);
        for node in 0..n {
            let last = x_raw.get(t_rows - 1, node);
            mu.extend(std::iter::repeat_n(last, tau));
        }
        // The persistence grid slices exactly like a model response, so a
        // node-subset request degrades to a subset-shaped fallback.
        let mu = Tensor::from_vec(mu, &[n, tau]);
        let sigma = Tensor::from_vec(vec![self.cfg.widen_factor * sigma0; n * tau], &[n, tau]);
        stuq_obs::metrics().serve_fallback.inc();
        with_intervals(&mu, &sigma, mem.valid(), |iv| proto::resp_fallback(&mem.req.id, reason, iv))
    }

    /// Drops every cache entry and bumps the key generation. Hot-reload
    /// swaps call this because the entries belong to the old weights;
    /// breaker-open calls it because whatever the model produced around the
    /// fault window is no longer trusted.
    fn invalidate_cache(&mut self, reason: &'static str) {
        self.generation += 1;
        if !self.cache_enabled() {
            return;
        }
        let entries = self.cache.clear();
        let m = stuq_obs::metrics();
        m.serve_cache_invalidations.inc();
        m.serve_cache_entries.set(0.0);
        stuq_obs::emit(
            Event::new("cache_invalidate").str("reason", reason).uint("entries", entries as u64),
        );
    }

    /// Maps a breaker transition onto the gauge and the event log. Opening
    /// also invalidates the forecast cache — entries computed around the
    /// fault window are no longer trusted.
    fn note_transition(&mut self, t: breaker::Transition) {
        stuq_obs::metrics().serve_breaker_state.set(self.breaker.state().gauge());
        if let breaker::Transition::Opened { .. } = t {
            self.invalidate_cache("breaker_open");
        }
        stuq_obs::emit(t.event());
    }

    /// Applies any candidate the watcher finished validating. Cheap; called
    /// between requests and on idle ticks.
    pub fn poll_watcher(&mut self) {
        let pending = self.watcher.as_ref().and_then(reload::Watcher::try_recv);
        if let Some(v) = pending {
            let _ = self.apply_reload(v);
        }
    }

    /// Idle tick: applies a validated reload candidate, drives a router's
    /// worker supervision, and advances Open → HalfOpen breakers on the real
    /// clock so readiness surfaces (healthz, health.json) recover without
    /// traffic. The breaker polls are skipped under the fake clock — idle
    /// ticks are wall-time driven, and a logical-clock read outside the
    /// request pipeline would break the "time is a pure function of the
    /// request stream" determinism contract (the next forecast still
    /// probes either way).
    pub fn idle_tick(&mut self) {
        self.poll_watcher();
        if let Some(c) = &mut self.cluster {
            c.supervise();
        }
        if self.clock.is_fake() {
            return;
        }
        let now = self.clock.now_ms();
        if let Some(t) = self.breaker.poll(now) {
            self.note_transition(t);
        }
        if let Some(c) = &mut self.cluster {
            c.poll_breakers(now);
        }
    }

    /// The synchronous `reload` request: validate the artifact now, swap or
    /// roll back, and acknowledge with the outcome.
    fn handle_reload(&mut self, id: &Option<String>) -> String {
        let v = reload::validate(&self.cfg.model_path);
        match self.apply_reload(v) {
            Ok(checksum) => proto::resp_ack(
                id,
                "reload",
                &[("ok", "true".into()), ("checksum", json::escape(&checksum))],
            ),
            Err(reason) => proto::resp_ack(
                id,
                "reload",
                &[("ok", "false".into()), ("reason", json::escape(&reason))],
            ),
        }
    }

    /// Swap-or-rollback on a validated candidate. A successful swap also
    /// resets the breaker: the faulty model's history no longer applies.
    fn apply_reload(&mut self, v: reload::Validated) -> Result<String, String> {
        let m = stuq_obs::metrics();
        let path_s = v.path.display().to_string();
        let outcome = v.result.and_then(|c| self.check_shape(c)).map(|candidate| {
            self.swap_model(candidate, v.checksum.clone());
            v.checksum
        });
        match &outcome {
            Ok(ck) => {
                m.serve_reloads.inc();
                stuq_obs::emit(
                    Event::new("reload_ok").str("path", path_s).str("checksum", ck.clone()),
                );
            }
            Err(reason) => {
                m.serve_reload_rollbacks.inc();
                stuq_obs::emit(
                    Event::new("reload_rollback").str("path", path_s).str("reason", reason.clone()),
                );
            }
        }
        outcome
    }

    /// Passes a reload candidate through only if it answers on the serving
    /// model's grid: a swap must never change a response's shape.
    fn check_shape(&self, candidate: DeepStuq) -> Result<DeepStuq, String> {
        let (n0, h0) = (self.model.model().n_nodes(), self.model.model().horizon());
        let (n1, h1) = (candidate.model().n_nodes(), candidate.model().horizon());
        if (n0, h0) != (n1, h1) {
            return Err(format!(
                "shape mismatch: serving [{n0} nodes, horizon {h0}], \
                 candidate [{n1} nodes, horizon {h1}]"
            ));
        }
        Ok(candidate)
    }

    /// Swaps a shape-checked candidate in, the one swap every reload path
    /// shares. It supersedes any staged two-phase candidate, resets the
    /// breaker (the old model's faults no longer apply) and invalidates the
    /// cache (its entries belong to the old weights).
    fn swap_model(&mut self, candidate: DeepStuq, checksum: String) {
        self.model = candidate;
        self.model_checksum = checksum;
        self.staged = None;
        self.breaker.reset();
        stuq_obs::metrics().serve_breaker_state.set(self.breaker.state().gauge());
        self.invalidate_cache("reload");
    }

    /// `passes`: run one sample range of a router's forecast and answer
    /// the normalised per-pass `(μ_j, σ²_j)` with this worker's model
    /// checksum (DESIGN.md §13). The streams are rebuilt from the router's
    /// RNG state words; [`StuqRng::fork`] draws only raw outputs, so the
    /// cached normal spare the words leave out cannot matter.
    fn handle_passes(&mut self, req: &PassReq) -> String {
        let t0 = std::time::Instant::now();
        let (n_nodes, t_rows) = (self.model.model().n_nodes(), req.x.shape()[0]);
        if req.x.shape()[1] != n_nodes || self.expected_t_h.is_some_and(|t| t != t_rows) {
            return proto::resp_error(
                &req.id,
                "shape_mismatch",
                &format!("window {:?} does not fit this model", req.x.shape()),
            );
        }
        let mut rng =
            StuqRng::from_state(stuq_tensor::RngState { s: req.rng, spare_normal_bits: None });
        let passes =
            deepstuq::mc_passes(self.model.model(), &req.x, None, req.n, req.lo..req.hi, &mut rng);
        if let (true, Some(trace), Some(parent)) = (stuq_obs::trace_enabled(), req.trace, req.span)
        {
            let span = trace::derive_span_id(parent, "serve", 0);
            trace::emit_span(trace::start_event(trace, span, parent, "serve"));
            trace::emit_phase(trace, span, "compute", 0, t0.elapsed().as_secs_f64());
            trace::emit_span(trace::end_event(trace, span, t0.elapsed().as_secs_f64()));
        }
        proto::resp_passes(&self.model_checksum, &passes)
    }

    /// Phase one of the cluster-wide reload: validate + shape-check the
    /// artifact *now* and stage it. Nothing is swapped, nothing is
    /// invalidated — a later abort must leave zero observable trace.
    fn handle_prepare_reload(&mut self, id: &Option<String>) -> String {
        let v = reload::validate(&self.cfg.model_path);
        let path_s = v.path.display().to_string();
        let checksum = v.checksum;
        match v.result.and_then(|c| self.check_shape(c)) {
            Ok(candidate) => {
                self.staged = Some((candidate, checksum.clone()));
                stuq_obs::emit(
                    Event::new("reload_stage")
                        .str("path", path_s)
                        .str("checksum", checksum.as_str()),
                );
                proto::resp_ack(
                    id,
                    "prepare_reload",
                    &[("ok", "true".into()), ("checksum", json::escape(&checksum))],
                )
            }
            Err(reason) => {
                self.staged = None;
                stuq_obs::metrics().serve_reload_rollbacks.inc();
                stuq_obs::emit(
                    Event::new("reload_rollback").str("path", path_s).str("reason", reason.clone()),
                );
                proto::resp_ack(
                    id,
                    "prepare_reload",
                    &[("ok", "false".into()), ("reason", json::escape(&reason))],
                )
            }
        }
    }

    /// Phase two: swap the staged candidate in. Mirrors a direct reload's
    /// side effects — breaker reset, cache invalidation (generation bump).
    fn handle_commit_reload(&mut self, id: &Option<String>) -> String {
        match self.staged.take() {
            None => proto::resp_ack(
                id,
                "commit_reload",
                &[("ok", "false".into()), ("reason", json::escape("nothing_staged"))],
            ),
            Some((candidate, checksum)) => {
                self.swap_model(candidate, checksum.clone());
                stuq_obs::metrics().serve_reloads.inc();
                stuq_obs::emit(
                    Event::new("reload_ok")
                        .str("path", self.cfg.model_path.display().to_string())
                        .str("checksum", checksum.as_str()),
                );
                proto::resp_ack(
                    id,
                    "commit_reload",
                    &[("ok", "true".into()), ("checksum", json::escape(&checksum))],
                )
            }
        }
    }

    /// Drops any staged candidate. Explicitly *not* a cache invalidation:
    /// an aborted prepare must leave responses byte-identical to a world
    /// where the prepare never happened.
    fn handle_abort_reload(&mut self, id: &Option<String>) -> String {
        let dropped = self.staged.take().is_some();
        stuq_obs::emit(
            Event::new("reload_abort").str("reason", "router_abort").uint("staged", dropped as u64),
        );
        proto::resp_ack(
            id,
            "abort_reload",
            &[("ok", "true".into()), ("staged", dropped.to_string())],
        )
    }

    /// The `health` response (also the body of `health.json`). Queue depth
    /// and reader-side sheds come from the loop-maintained mirrors, so loop
    /// mode reports the real forecast-lane depth, not a constant 0. A
    /// router reports the cluster's health instead.
    fn healthz(&self, id: &Option<String>) -> String {
        if self.cluster.is_some() {
            return self.cluster_healthz(id);
        }
        let status = if self.draining { "draining" } else { "ok" };
        let ready = !self.draining && !self.breaker_is_open();
        let shed = self.shed + self.shed_reader;
        let mut out = String::with_capacity(192);
        out.push_str("{\"type\":\"health\"");
        proto::push_id(&mut out, id);
        out.push_str(&format!(
            ",\"status\":\"{status}\",\"ready\":{ready},\"breaker\":\"{}\",\
             \"queue_depth\":{},\"queue_capacity\":{},\"requests\":{},\
             \"shed\":{shed},\"model_checksum\":\"{}\",\"mc_samples\":{},\"floor\":{},\
             \"batch_max\":{},\"cache_entries\":{},\"generation\":{},\"staged\":{}",
            self.breaker.state().as_str(),
            self.queue_depth,
            self.cfg.max_queue,
            self.requests_served,
            self.model_checksum,
            self.cfg.mc_samples.unwrap_or_else(|| self.model.mc_samples()),
            self.cfg.floor,
            self.cfg.batch_max,
            self.cache.len(),
            self.generation,
            self.staged.is_some(),
        ));
        out.push('}');
        out
    }

    /// Atomically rewrites `health.json` under the configured health dir.
    pub fn write_health(&self) {
        if let Some(dir) = &self.cfg.health_dir {
            let line = self.healthz(&None);
            let _ = stuq_artifact::write_atomic(
                dir.join("health.json"),
                format!("{line}\n").as_bytes(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Serve loop (admission lanes + gathering live in `batcher`)
// ---------------------------------------------------------------------------

/// Counters reported when the loop exits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Forecast requests that reached the worker.
    pub requests: u64,
    /// Forecasts shed (queue full, draining, breaker open).
    pub shed: u64,
    /// Response lines written, of any type.
    pub responses: u64,
    /// MC samples actually drawn from the model; co-batched requests that
    /// shared one run count its samples once, and cache hits count zero.
    pub samples_used: u64,
}

/// Reads the serve loop's next request line into `buf`, holding at most
/// [`proto::MAX_LINE_BYTES`] bytes of it plus one. Gives the line without
/// its line ending; `Err(detail)` for a line that is too long or not UTF-8,
/// consumed through its newline; `None` at end of input or on any other
/// I/O error.
fn next_request_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> Option<Result<&'b str, String>> {
    buf.clear();
    let limit = proto::MAX_LINE_BYTES as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf).ok()? == 0 {
        return None;
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > proto::MAX_LINE_BYTES {
        // Skip the rest unbuffered; an error here ends intake on the next read.
        let _ = reader.skip_until(b'\n');
        return Some(Err(format!("request line is longer than {} bytes", proto::MAX_LINE_BYTES)));
    }
    Some(std::str::from_utf8(buf).map_err(|_| "request line is not valid UTF-8".to_owned()))
}

/// Runs the serve loop: a reader thread classifies and admits request
/// lines; the worker (this thread) owns the server and answers them.
/// Returns when the input closes or a `shutdown` request is processed.
pub fn serve_loop<R, W>(server: &mut Server, reader: R, writer: W) -> ServeSummary
where
    R: BufRead + Send + 'static,
    W: Write + Send + 'static,
{
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    struct Flags {
        draining: AtomicBool,
        shed: AtomicU64,
    }

    let lanes = Arc::new(Lanes::new(server.cfg.max_queue));
    let flags =
        Arc::new(Flags { draining: AtomicBool::new(server.draining), shed: AtomicU64::new(0) });
    let out = Arc::new(Mutex::new(writer));
    let responses = Arc::new(AtomicU64::new(0));

    let write_line = {
        let out = Arc::clone(&out);
        let responses = Arc::clone(&responses);
        move |line: &str| {
            let mut w = out.lock().unwrap();
            let _ = writeln!(w, "{line}");
            let _ = w.flush();
            responses.fetch_add(1, Ordering::Relaxed);
        }
    };

    stuq_obs::emit(
        Event::new("serve_start")
            .str("path", server.cfg.model_path.display().to_string())
            .uint("queue_capacity", server.cfg.max_queue as u64)
            .uint(
                "mc_samples",
                server.cfg.mc_samples.unwrap_or_else(|| server.model.mc_samples()) as u64,
            )
            .uint("floor", server.cfg.floor as u64),
    );

    // Reader: classify each line and either admit it or shed it right here.
    // Breaker state deliberately plays no part in admission: open-breaker
    // forecasts must reach the worker so it can serve the documented
    // fallback and run the half-open probe that recovers the breaker.
    let reader_handle = {
        let lanes = Arc::clone(&lanes);
        let flags = Arc::clone(&flags);
        let write_line = write_line.clone();
        std::thread::spawn(move || {
            let (mut reader, mut buf) = (reader, Vec::new());
            while let Some(line) = next_request_line(&mut reader, &mut buf) {
                // The bad line's bytes are consumed: answer it and read on.
                let line = match line {
                    Ok(line) => line,
                    Err(detail) => {
                        write_line(&proto::resp_error(&None, "bad_request", &detail));
                        continue;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                // The only parse a served line gets: the lanes carry the
                // typed request from here on.
                match proto::parse_request(line) {
                    Err(e) => write_line(&proto::resp_error(&e.id, "bad_request", &e.detail)),
                    Ok(Request::Forecast(req)) => {
                        let id = req.id.clone();
                        let reason = if flags.draining.load(Ordering::Relaxed) {
                            Some("draining")
                        } else if !lanes.try_push_forecast(req) {
                            Some("queue_full")
                        } else {
                            None
                        };
                        if let Some(reason) = reason {
                            flags.shed.fetch_add(1, Ordering::Relaxed);
                            stuq_obs::metrics().serve_shed.inc();
                            stuq_obs::emit(Event::new("serve_rejected").str("reason", reason));
                            write_line(&proto::resp_rejected(&id, reason));
                        }
                    }
                    Ok(req) => lanes.push_control(req),
                }
            }
            lanes.close();
        })
    };

    let mut requests: u64 = 0;
    let mut done = false;
    let mirror = |server: &mut Server, flags: &Flags, lanes: &Lanes| {
        flags.draining.store(server.draining, Ordering::Relaxed);
        server.queue_depth = lanes.depth();
        server.shed_reader = flags.shed.load(Ordering::Relaxed);
    };

    while !done {
        match lanes.pop(Duration::from_millis(50)) {
            Popped::Control(req) => {
                mirror(server, &flags, &lanes);
                let r = server.dispatch(req);
                write_line(&r.response);
                done = r.done;
                mirror(server, &flags, &lanes);
            }
            Popped::Forecast(first, at) => {
                // Batcher stage: coalesce co-arriving forecasts (a no-op
                // returning [first] when --batch-max is 1).
                let gather_t0 = std::time::Instant::now();
                let (batch, end) = batcher::gather(
                    &lanes,
                    (first, at),
                    server.cfg.batch_max,
                    server.cfg.batch_wait_ms,
                    server.clock.is_fake(),
                );
                let dwell_s = gather_t0.elapsed().as_secs_f64();
                requests += batch.len() as u64;
                let picked_up = std::time::Instant::now();
                let (reqs, waits): (Vec<ForecastReq>, Vec<f64>) = batch
                    .into_iter()
                    .map(|(req, admitted)| (req, picked_up.duration_since(admitted).as_secs_f64()))
                    .unzip();
                server.poll_watcher();
                let timing = batcher::BatchTiming { waits, dwell_s };
                for resp in server.handle_forecast_batch_timed(&reqs, Some(&timing)) {
                    write_line(&resp);
                }
                mirror(server, &flags, &lanes);
                match end {
                    // A control line closed the gather window (real clock):
                    // it was admitted before the batch flushed, answer now.
                    Some(GatherEnd::Control(req)) => {
                        let r = server.dispatch(req);
                        write_line(&r.response);
                        done = r.done;
                        mirror(server, &flags, &lanes);
                    }
                    // Input closed mid-gather: the next pop drains any
                    // queued control lines, then observes Closed itself.
                    Some(GatherEnd::Closed) | None => {}
                }
            }
            Popped::TimedOut => {
                server.idle_tick();
                mirror(server, &flags, &lanes);
                server.write_health();
            }
            Popped::Closed => break,
        }
    }
    let drain_and_answer = |server: &mut Server, requests: &mut u64| {
        for req in lanes.drain_now() {
            *requests += matches!(req, Request::Forecast(_)) as u64;
            write_line(&server.dispatch(req).response);
        }
    };
    if done {
        // Shutdown: close the lanes *first* so forecasts that race in late
        // are shed (`queue_full`) instead of silently queued, then answer
        // what was already admitted without waiting on the reader.
        lanes.close();
        drain_and_answer(server, &mut requests);
    }
    let _ = reader_handle.join();
    if done {
        // Control lines the reader pushed before it observed the close land
        // here — every line still gets exactly one response.
        drain_and_answer(server, &mut requests);
    }

    let shed = server.shed + flags.shed.load(Ordering::Relaxed);
    mirror(server, &flags, &lanes);
    server.write_health();
    stuq_obs::emit(Event::new("serve_stop").uint("requests", requests).uint("shed", shed));
    ServeSummary {
        requests,
        shed,
        responses: responses.load(Ordering::Relaxed),
        samples_used: server.samples_used_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_budget_counts_logical_time() {
        let mut clock = Clock::fake(10);
        let t_start = clock.now_ms(); // 0; next reads: 10, 20, 30, …
        let mut b = DeadlineBudget { clock: &mut clock, t_start, deadline_ms: 25 };
        assert!(b.allow(1), "10ms elapsed < 25");
        assert!(b.allow(2), "20ms elapsed < 25");
        assert!(!b.allow(3), "30ms elapsed >= 25");
    }

    #[test]
    fn zero_deadline_denies_immediately() {
        let mut clock = Clock::fake(1);
        let t_start = clock.now_ms();
        let mut b = DeadlineBudget { clock: &mut clock, t_start, deadline_ms: 0 };
        assert!(!b.allow(1));
    }

    #[test]
    fn lanes_shed_when_full_and_prioritise_control() {
        use batcher::tests::{control, forecast};
        let is_forecast = |p: Popped, want: &str| matches!(p, Popped::Forecast(f, _) if f.id.as_deref() == Some(want));
        let lanes = Lanes::new(2);
        assert_eq!(lanes.depth(), 0);
        assert!(lanes.try_push_forecast(forecast("f1", None)));
        assert!(lanes.try_push_forecast(forecast("f2", None)));
        assert!(!lanes.try_push_forecast(forecast("f3", None)), "third push must report full");
        assert_eq!(lanes.depth(), 2, "depth tracks the bounded forecast lane");
        lanes.push_control(control("c1"));
        assert_eq!(lanes.depth(), 2, "control lines do not count toward depth");
        assert!(matches!(
            lanes.pop(Duration::from_millis(1)),
            Popped::Control(Request::Healthz { id: Some(c) }) if c == "c1"
        ));
        assert!(is_forecast(lanes.pop(Duration::from_millis(1)), "f1"));
        assert_eq!(lanes.depth(), 1);
        assert!(is_forecast(lanes.pop(Duration::from_millis(1)), "f2"));
        assert!(matches!(lanes.pop(Duration::from_millis(1)), Popped::TimedOut));
        lanes.close();
        assert!(matches!(lanes.pop(Duration::from_millis(1)), Popped::Closed));
        assert!(!lanes.try_push_forecast(forecast("f4", None)), "closed lanes admit nothing");
    }

    #[test]
    fn serve_config_defaults_are_sane() {
        let cfg = ServeConfig::new("/tmp/m.stuq");
        assert_eq!(cfg.max_queue, 64);
        assert_eq!(cfg.floor, 2);
        assert_eq!(cfg.breaker_threshold, 3);
        assert!(cfg.breaker_cooldown_max_ms >= cfg.breaker_cooldown_ms);
        assert!(cfg.widen_factor > 1.0);
    }
}
