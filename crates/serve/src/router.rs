//! Cluster router: scatter/gather over sharded workers (DESIGN.md §13).
//!
//! The router is the client-facing half of the sharded cluster. It owns the
//! deterministic [`ShardMap`](crate::shard::ShardMap), speaks the ordinary
//! NDJSON protocol on its front side, and fans each forecast out to the
//! shards that own the requested nodes. Robustness decisions concentrate
//! here:
//!
//! * **Per-shard circuit breakers** — transport faults (timeout, EOF, I/O
//!   error) open the shard's breaker; while open, that shard is skipped
//!   entirely and its slice degrades. Worker-typed *refusals* (`rejected`,
//!   `fallback`) are healthy transport and never count as faults.
//! * **Graceful partial degradation** — a dead/open/refusing shard turns
//!   into a persistence slice with σ widened from that shard's last live
//!   response, annotated `partial: true` with a typed per-shard reason. A
//!   shard with no live history yet makes the whole request a typed
//!   rejection naming the shard — never silent zeros.
//! * **Two-phase cluster reload** — `reload` validates checksum + shape
//!   once at the router, stages on every worker (`prepare_reload`), and
//!   swaps only on unanimous ack (`commit_reload`); any refusal aborts
//!   everywhere. There is no mixed-version window: every merged response
//!   carries the `model` checksum, and a shard answering with a different
//!   checksum is cut out as `version_skew` instead of being merged.
//! * **Replica failover** (DESIGN.md §16) — with `--replicas R` each shard
//!   is backed by R interchangeable workers, each with its own breaker. The
//!   primary for a request is a pure function of `(session seed, arrival
//!   index, shard)`, so reruns pick the same replicas. A transport fault or
//!   garbage response advances a **failover chain** to the next replica
//!   (each advance is typed, counted, and annotated on the wire); a
//!   worker-typed refusal ends the chain — the *cluster* is answering, just
//!   not with a live slice. Only when every replica fails does the shard
//!   degrade to the widened-σ path. Net effect: any single-replica fault
//!   yields a byte-identical, `partial: false` response.
//! * **Hedged requests** — with `--hedge-ms D` (real clock only; disabled
//!   under `STUQ_FAKE_CLOCK` so determinism tests are untouched) a primary
//!   that hasn't answered within D ms gets a secondary fired at its
//!   sibling; the first complete response wins and the loser's in-flight
//!   reply is abandoned (skipped as stale by the transport).
//!
//! Determinism: all router time flows through the injectable clock — one
//! read per forecast — and slices are scattered, called, and merged in
//! shard order, so under `STUQ_FAKE_CLOCK` the merged byte stream is a pure
//! function of the request stream (and of which workers are up), identical
//! across `STUQ_THREADS` and across reruns.

use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::batcher::{Lanes, Popped};
use crate::breaker::{self, Breaker};
use crate::clock::Clock;
use crate::proto::{self, ForecastReq, OwnedIntervals, Request, ShardNote, WorkerResp};
use crate::shard::{ShardMap, ShardSlice};
use crate::{json, reload, LineOutcome, ServeConfig, ServeSummary, Server};
use stuq_models::Forecaster;
use stuq_obs::{trace, Event};
use stuq_tensor::{StuqRng, Tensor};

/// Router-specific knobs on top of the shared serve configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The base serving configuration (model/data paths, queue, widening,
    /// breaker thresholds, seed, fake clock — all reused by the router).
    pub serve: ServeConfig,
    /// Shard count; clamped to the node count by the shard map.
    pub shards: usize,
    /// Replicas per shard (clamped ≥ 1 by the shard map). Total worker
    /// count is `shards × replicas`.
    pub replicas: usize,
    /// Real-time grace added to a request's `deadline_ms` to bound each
    /// worker RPC. Generous on purpose: it is a hang backstop, not a
    /// scheduler — fake-clock runs must never trip it spuriously.
    pub rpc_timeout_ms: u64,
    /// Hedged-request delay: fire a secondary at the primary's sibling
    /// after this many real-clock milliseconds without a reply. `None`
    /// disables hedging; it is also inert under a fake clock.
    pub hedge_ms: Option<u64>,
}

impl RouterConfig {
    /// Defaults: 3 shards, single replica, 2 s RPC backstop, no hedging.
    pub fn new(serve: ServeConfig) -> Self {
        RouterConfig { serve, shards: 3, replicas: 1, rpc_timeout_ms: 2000, hedge_ms: None }
    }
}

/// Worker liveness as the router sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// Connected and answering.
    Up,
    /// Crashed/hung; the supervisor is backing off toward a restart.
    Down,
}

/// What one supervision tick observed on a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SupEvent {
    /// The worker stopped answering (crash, hang, EOF on ping).
    Down {
        /// Transport-level cause.
        reason: String,
    },
    /// The worker was respawned, reconnected, and re-assigned its shard.
    Restarted {
        /// Lifetime restart count for this shard.
        restarts: u64,
    },
    /// A respawn attempt failed; the next try comes after `backoff_ms`.
    RestartFailed {
        /// Delay before the next attempt.
        backoff_ms: u64,
        /// Why the attempt failed.
        reason: String,
    },
}

/// One shard's transport, as the router drives it. Production uses
/// [`crate::supervisor::ProcWorker`] (a child process behind a Unix
/// socket); tests use [`InProcWorker`] or scripted fakes.
pub trait ShardWorker: Send {
    /// One request line in, one response line out, bounded by a *real-time*
    /// deadline. Any transport failure — timeout, EOF, I/O error — is an
    /// `Err` (and implementations mark themselves down).
    fn call(&mut self, line: &str, timeout_ms: u64) -> Result<String, String>;
    /// Liveness as of the last call or tick.
    fn state(&self) -> WorkerState;
    /// Records a router-observed transport failure.
    fn fail(&mut self, reason: &str);
    /// Supervision tick (real time): ping when idle, restart when due.
    fn tick(&mut self) -> Vec<SupEvent>;
    /// Times this worker has been restarted.
    fn restarts(&self) -> u64 {
        0
    }
    /// Wall-clock milliseconds since the most recent successful restart,
    /// if any — surfaced per replica in `healthz`.
    fn last_restart_ms(&self) -> Option<u64> {
        None
    }
    /// True when this transport implements the split [`ShardWorker::send`]
    /// / [`ShardWorker::recv`] pair hedged requests need. Defaults false:
    /// transports without it are simply never hedged.
    fn supports_hedge(&self) -> bool {
        false
    }
    /// Fire-and-forget half of a hedged RPC: writes the request line
    /// without waiting for the response.
    fn send(&mut self, line: &str) -> Result<(), String> {
        let _ = line;
        Err("hedge_unsupported".into())
    }
    /// Receive half: waits up to `timeout_ms` for the next (non-stale)
    /// response line. `Err("rpc_timeout")` is a soft miss — the caller may
    /// poll again; any other error is a transport failure.
    fn recv(&mut self, timeout_ms: u64) -> Result<String, String> {
        let _ = timeout_ms;
        Err("hedge_unsupported".into())
    }
    /// Marks the outstanding request abandoned (the hedge lost): its
    /// eventual reply is stale and must be skipped, keeping the
    /// request/response pairing on the connection intact.
    fn abandon(&mut self) {}
    /// Waits up to `grace_ms` for an orderly exit after a `shutdown` was
    /// sent — a process worker needs the window to flush its telemetry
    /// sinks (events.jsonl) before the supervisor's Drop kills it. No-op
    /// for in-process workers.
    fn settle(&mut self, grace_ms: u64) {
        let _ = grace_ms;
    }
}

/// A [`Server`] mounted directly in the router process — no sockets, no
/// supervision. The unit-test topology: tests keep a clone of the shared
/// handle to inspect worker state (cache generation, checksum) mid-run.
pub struct InProcWorker {
    server: Arc<Mutex<Server>>,
}

impl InProcWorker {
    /// Wraps a server; [`InProcWorker::shared`] exposes the handle.
    pub fn new(server: Server) -> Self {
        InProcWorker { server: Arc::new(Mutex::new(server)) }
    }

    /// The shared server handle (clone it before boxing the worker).
    pub fn shared(&self) -> Arc<Mutex<Server>> {
        Arc::clone(&self.server)
    }
}

impl ShardWorker for InProcWorker {
    fn call(&mut self, line: &str, _timeout_ms: u64) -> Result<String, String> {
        Ok(self.server.lock().unwrap().handle_line(line).response)
    }

    fn state(&self) -> WorkerState {
        WorkerState::Up
    }

    fn fail(&mut self, _reason: &str) {}

    fn tick(&mut self) -> Vec<SupEvent> {
        Vec::new()
    }
}

/// The `assign` request line for a shard — sent on spawn and replayed on
/// every rejoin, so a restarted worker always knows its slice.
pub fn assign_line(shard: usize, shards: usize) -> String {
    format!("{{\"type\":\"assign\",\"shard\":{shard},\"shards\":{shards}}}")
}

/// A validated forecast, reduced to what the router needs to scatter it.
struct RValid {
    n_req: usize,
    deadline: Option<u64>,
    seed: Option<u64>,
    tick: Option<u64>,
    /// Effective horizon (request override or the model's).
    h: usize,
}

/// What one shard contributed to a merged response.
struct SliceOutcome {
    /// Parsed interval matrices (live forecast *or* worker-side fallback).
    rows: Option<OwnedIntervals>,
    /// MC samples used — `Some` only for a live forecast slice.
    used: Option<usize>,
    note: ShardNote,
}

/// Per-request trace context collected while a forecast is scattered and
/// merged, emitted as spans once the response is final (DESIGN.md §15).
/// Telemetry-only by contract: nothing here feeds the response bytes.
struct ReqTrace {
    trace: u64,
    /// The `request` root span id.
    span: u64,
    parent: u64,
    arrival: u64,
    wall: std::time::Instant,
    /// Queue wait from admission to processing start, when the loop
    /// measured one.
    wait_s: Option<f64>,
    /// Per-shard RPC observations: (shard, seconds, status, reason,
    /// answering replica on multi-replica clusters).
    shards: Vec<(usize, f64, &'static str, Option<String>, Option<usize>)>,
    /// Gather/merge duration, once the merge ran.
    merge_s: Option<f64>,
}

/// The cluster router state machine. [`router_loop`] drives it from a
/// reader; tests drive it line by line through [`Router::handle_line`].
pub struct Router {
    cfg: RouterConfig,
    map: ShardMap,
    workers: Vec<Box<dyn ShardWorker>>,
    breakers: Vec<Breaker>,
    /// Mean σ of each shard's last live slice — the widening base for that
    /// shard's persistence fallback.
    last_good_sigma: Vec<Option<f32>>,
    clock: Clock,
    n_nodes: usize,
    horizon: usize,
    expected_t_h: Option<usize>,
    default_mc: usize,
    model_checksum: String,
    /// Cluster reload generation; bumped once per committed two-phase
    /// reload (each worker bumps its own cache generation on commit).
    generation: u64,
    draining: bool,
    requests_served: u64,
    shed: u64,
    queue_depth: usize,
    shed_reader: u64,
    samples_used_total: u64,
    /// Admission→processing wait measured by the loop for the *next*
    /// forecast (telemetry only; consumed by `handle_forecast`).
    pending_wait: Option<f64>,
}

/// Domain-separation salt for replica selection: keeps the primary-pick
/// RNG stream disjoint from seed pinning and the faultnet plan.
const REPLICA_SALT: u64 = 0x5E1E_C7ED;

impl Router {
    /// Builds the router: reads the model artifact once (dimensions +
    /// checksum only), derives the shard map, and assigns every worker its
    /// shard. Workers are shard-major: `workers[s * replicas + r]` must be
    /// the transport for shard `s`'s replica `r`.
    pub fn new(cfg: RouterConfig, workers: Vec<Box<dyn ShardWorker>>) -> Result<Router, String> {
        let bytes = std::fs::read(&cfg.serve.model_path)
            .map_err(|e| format!("{}: {e}", cfg.serve.model_path.display()))?;
        let model = deepstuq::load_model_bytes(&bytes)
            .map_err(|e| format!("{}: {e}", cfg.serve.model_path.display()))?;
        let model_checksum = reload::file_checksum(&bytes);
        let (n_nodes, horizon) = (model.model().n_nodes(), model.model().horizon());
        let default_mc = model.mc_samples();
        drop(model);
        let expected_t_h = match &cfg.serve.data_path {
            Some(p) => {
                let ds = stuq_traffic::load_split_dataset(p)
                    .map_err(|e| format!("{}: {e}", p.display()))?;
                Some(ds.t_h())
            }
            None => None,
        };
        let map = ShardMap::replicated(n_nodes, cfg.shards, cfg.replicas);
        if workers.len() != map.n_workers() {
            return Err(format!(
                "router got {} workers for {} shards × {} replicas",
                workers.len(),
                map.n_shards(),
                map.n_replicas()
            ));
        }
        let clock = match cfg.serve.fake_clock_step_ms {
            Some(step) => Clock::fake(step),
            None => Clock::from_env(),
        };
        // One breaker per *worker*: replicas fail independently, so their
        // transport history must not be pooled.
        let breakers = (0..map.n_workers())
            .map(|_| {
                Breaker::new(
                    cfg.serve.breaker_threshold,
                    cfg.serve.breaker_cooldown_ms,
                    cfg.serve.breaker_cooldown_max_ms,
                )
            })
            .collect();
        let last_good_sigma = vec![None; map.n_shards()];
        let mut router = Router {
            cfg,
            map,
            workers,
            breakers,
            last_good_sigma,
            clock,
            n_nodes,
            horizon,
            expected_t_h,
            default_mc,
            model_checksum,
            generation: 0,
            draining: false,
            requests_served: 0,
            shed: 0,
            queue_depth: 0,
            shed_reader: 0,
            samples_used_total: 0,
            pending_wait: None,
        };
        for w in 0..router.map.n_workers() {
            router.assign_worker(w);
        }
        stuq_obs::emit(
            Event::new("cluster_start")
                .uint("shards", router.map.n_shards() as u64)
                .uint("replicas", router.map.n_replicas() as u64)
                .uint("nodes", router.n_nodes as u64),
        );
        Ok(router)
    }

    /// Sends the shard assignment to flat worker `w` (idempotent; a
    /// transport failure just marks the worker down — supervision replays
    /// it). Replicas of a shard get the identical assignment: they are
    /// interchangeable by construction.
    fn assign_worker(&mut self, w: usize) {
        let (s, _) = self.map.worker_role(w);
        let line = assign_line(s, self.map.n_shards());
        let timeout = self.cfg.rpc_timeout_ms;
        match self.workers[w].call(&line, timeout) {
            Ok(resp) => {
                if !matches!(proto::parse_worker_resp(&resp), Ok(WorkerResp::Ack { ok: true, .. }))
                {
                    self.workers[w].fail("assign_refused");
                }
            }
            Err(e) => self.workers[w].fail(&e),
        }
    }

    /// The replica that serves shard `s` for arrival index `arrival` — a
    /// pure function of the session seed, so replica selection replays
    /// byte-identically across reruns and thread counts.
    fn primary_replica(&self, arrival: u64, s: usize) -> usize {
        let nr = self.map.n_replicas();
        if nr == 1 {
            return 0;
        }
        let mut rng = StuqRng::new(self.cfg.serve.seed ^ REPLICA_SALT).fork(arrival).fork(s as u64);
        (rng.next_u64() % nr as u64) as usize
    }

    /// The active shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// Checksum of the model version the cluster currently serves.
    pub fn model_checksum(&self) -> &str {
        &self.model_checksum
    }

    /// Committed cluster-reload generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True once a `drain` or `shutdown` request was processed.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Sync entry point, mirroring [`Server::handle_line`].
    pub fn handle_line(&mut self, line: &str) -> LineOutcome {
        if self.draining {
            if let Ok(Request::Forecast(req)) = proto::parse_request(line) {
                return LineOutcome { response: self.reject(&req.id, "draining"), done: false };
            }
        }
        self.process_line(line)
    }

    /// Dispatches one already-admitted request line.
    pub fn process_line(&mut self, line: &str) -> LineOutcome {
        match proto::parse_request(line) {
            Err(e) => LineOutcome {
                response: proto::resp_error(&e.id, "bad_request", &e.detail),
                done: false,
            },
            Ok(Request::Forecast(req)) => {
                LineOutcome { response: self.handle_forecast(&req), done: false }
            }
            Ok(Request::Healthz { id }) => LineOutcome { response: self.healthz(&id), done: false },
            Ok(Request::Reload { id }) => {
                LineOutcome { response: self.handle_reload(&id), done: false }
            }
            Ok(Request::Drain { id }) => {
                self.draining = true;
                LineOutcome { response: proto::resp_ack(&id, "drain", &[]), done: false }
            }
            Ok(Request::Shutdown { id }) => {
                self.draining = true;
                self.shutdown_workers();
                LineOutcome { response: proto::resp_ack(&id, "shutdown", &[]), done: true }
            }
            Ok(Request::Ping { id }) => LineOutcome {
                response: proto::resp_ack(&id, "ping", &[("ok", "true".into())]),
                done: false,
            },
            // The router's own counters (the same dump a worker serves).
            Ok(Request::Metrics { id }) => LineOutcome {
                response: proto::resp_metrics(&id, &stuq_obs::metrics().counters()),
                done: false,
            },
            Ok(Request::ClusterMetrics { id }) => {
                LineOutcome { response: self.handle_cluster_metrics(&id), done: false }
            }
            // The internal worker requests stop at the router: clients talk
            // to the cluster through `reload`, never to one shard.
            Ok(
                Request::Assign { id, .. }
                | Request::PrepareReload { id }
                | Request::CommitReload { id }
                | Request::AbortReload { id },
            ) => LineOutcome {
                response: proto::resp_error(
                    &id,
                    "bad_request",
                    "cluster-internal request; send \"reload\" to the router",
                ),
                done: false,
            },
        }
    }

    /// Records a shed and renders the typed rejection.
    fn reject(&mut self, id: &Option<String>, reason: &str) -> String {
        self.shed += 1;
        stuq_obs::metrics().serve_shed.inc();
        stuq_obs::emit(Event::new("serve_rejected").str("reason", reason));
        proto::resp_rejected(id, reason)
    }

    /// Cluster-wide counter scrape (DESIGN.md §15): asks every Up worker
    /// for its counter dump, sums name-by-name on top of the router's own
    /// counters, answers the merged table, and mirrors it as a Prometheus
    /// export (`cluster_metrics.prom`) next to the router's event log.
    fn handle_cluster_metrics(&mut self, id: &Option<String>) -> String {
        let m = stuq_obs::metrics();
        let mut merged: Vec<(String, u64)> =
            m.counters().iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let mut extra: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        let line = "{\"type\":\"metrics\"}";
        let timeout = self.cfg.rpc_timeout_ms;
        let total = self.workers.len();
        let mut scraped = 0usize;
        for s in 0..total {
            if self.workers[s].state() != WorkerState::Up {
                continue;
            }
            match self.workers[s].call(line, timeout) {
                Ok(resp) => match proto::parse_worker_resp(&resp) {
                    Ok(WorkerResp::Metrics { counters }) => {
                        scraped += 1;
                        for (name, value) in counters {
                            match merged.iter_mut().find(|(k, _)| *k == name) {
                                Some((_, slot)) => *slot += value,
                                None => *extra.entry(name).or_insert(0) += value,
                            }
                        }
                    }
                    _ => self.workers[s].fail("bad_metrics_response"),
                },
                Err(e) => self.workers[s].fail(&e),
            }
        }
        // Counter names the router's catalog does not know (a newer worker
        // version) still merge — appended in sorted order for determinism.
        merged.extend(extra);
        m.cluster_scrapes.inc();
        stuq_obs::emit(
            Event::new("cluster_scrape")
                .uint("workers", total as u64)
                .uint("scraped", scraped as u64),
        );
        if let Some(dir) = stuq_obs::telemetry_dir() {
            let mut out = String::with_capacity(merged.len() * 48);
            out.push_str(&format!(
                "# cluster-merged counters: router + {scraped}/{total} workers scraped\n"
            ));
            for (name, value) in &merged {
                out.push_str(&format!("{name} {value}\n"));
            }
            let _ = stuq_artifact::write_atomic(dir.join("cluster_metrics.prom"), out.as_bytes());
        }
        proto::resp_metrics_owned(id, &merged)
    }

    /// Mirrors [`Server`]'s request validation so a router refuses exactly
    /// what a solo server refuses, with the same typed errors.
    fn validate(&self, req: &ForecastReq) -> Result<RValid, String> {
        let t_rows = req.x.len();
        let width = req.x[0].len();
        if width != self.n_nodes {
            return Err(proto::resp_error(
                &req.id,
                "shape_mismatch",
                &format!("expected {} columns (sensors), got {width}", self.n_nodes),
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
            if let Some(&bad) = nodes.iter().find(|&&i| i >= self.n_nodes) {
                return Err(proto::resp_error(
                    &req.id,
                    "shape_mismatch",
                    &format!("node {bad} out of range (model has {} sensors)", self.n_nodes),
                ));
            }
        }
        if let Some(h) = req.horizon {
            if h > self.horizon {
                return Err(proto::resp_error(
                    &req.id,
                    "shape_mismatch",
                    &format!("horizon {h} beyond model horizon {}", self.horizon),
                ));
            }
        }
        if req.x.iter().flatten().any(|v| !v.is_finite()) {
            return Err(proto::resp_error(
                &req.id,
                "non_finite_input",
                "input window contains non-finite values",
            ));
        }
        let n_req = req.mc.or(self.cfg.serve.mc_samples).unwrap_or(self.default_mc).max(1);
        let deadline = req.deadline_ms.or(self.cfg.serve.default_deadline_ms);
        // Workers must agree on the RNG derivation, and each one counts its
        // own arrivals — so a seedless, tickless request gets an explicit
        // seed pinned here, derived from the router seed and arrival index.
        let (seed, tick) = match (req.seed, req.tick) {
            (None, None) => {
                let mut rng = StuqRng::new(self.cfg.serve.seed).fork(self.requests_served);
                (Some(rng.next_u64()), None)
            }
            (s, t) => (s, t),
        };
        let h = req.horizon.unwrap_or(self.horizon);
        Ok(RValid { n_req, deadline, seed, tick, h })
    }

    /// The sub-request for one shard's slice: the full window plus the
    /// slice's node list, with the seed/tick derivation pinned. `ctx` is
    /// the trace context — `(trace id, this shard's scatter span)` — so the
    /// worker's `serve` span nests under the router's `shard` span.
    fn sub_request(
        req: &ForecastReq,
        v: &RValid,
        slice: &ShardSlice,
        ctx: Option<(u64, u64)>,
    ) -> String {
        let cells: usize = req.x.len() * req.x[0].len();
        let mut s = String::with_capacity(cells * 8 + 96);
        s.push_str("{\"type\":\"forecast\"");
        if let Some(d) = v.deadline {
            s.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        s.push_str(&format!(",\"mc\":{}", v.n_req));
        if let Some(seed) = v.seed {
            s.push_str(&format!(",\"seed\":{seed}"));
        }
        if let Some(tick) = v.tick {
            s.push_str(&format!(",\"tick\":{tick}"));
        }
        if let Some(h) = req.horizon {
            s.push_str(&format!(",\"horizon\":{h}"));
        }
        if let Some((trace_id, span)) = ctx {
            s.push_str(&format!(
                ",\"trace\":\"{}\",\"span\":\"{}\"",
                trace::fmt_id(trace_id),
                trace::fmt_id(span)
            ));
        }
        s.push_str(",\"nodes\":[");
        for (i, n) in slice.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&n.to_string());
        }
        s.push_str("],\"x\":[");
        for (i, row) in req.x.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&proto::fmt_f32(*cell));
            }
            s.push(']');
        }
        s.push_str("]}");
        s
    }

    /// One shard's contribution: a failover chain over its replicas,
    /// starting at the seed-derived primary. Each attempt runs breaker gate
    /// → RPC → typed classification. Transport faults and garbage responses
    /// (`rpc_timeout`, `eof`, `version_skew`, `worker_error`) advance the
    /// chain to the next replica — counted as `cluster_failover` and
    /// annotated on the wire; worker-typed *refusals* (`rejected`,
    /// `fallback`) end it — the transport is healthy and the worker's
    /// reason surfaces verbatim with the shard id (the satellite contract).
    /// Only an exhausted chain degrades the slice.
    ///
    /// Per-worker breakers see transport faults only; refusals and garbage
    /// lines never count (the wire delivered — the breaker's job is the
    /// wire).
    fn call_shard(
        &mut self,
        slice: &ShardSlice,
        req: &ForecastReq,
        v: &RValid,
        now: u64,
        ctx: Option<(u64, u64)>,
        arrival: u64,
    ) -> SliceOutcome {
        let s = slice.shard;
        let nr = self.map.n_replicas();
        let primary = self.primary_replica(arrival, s);
        let line = Self::sub_request(req, v, slice, ctx);
        // Real-time hang backstop: logical deadline plus a generous grace.
        let timeout = v.deadline.unwrap_or(0).saturating_add(self.cfg.rpc_timeout_ms);
        let shape_ok = |iv: &OwnedIntervals| {
            let expect = [slice.nodes.len(), v.h];
            [&iv.mu, &iv.sigma, &iv.lower, &iv.upper].iter().all(|t| t.shape() == expect)
        };
        // Failed attempts the chain advanced past: (replica, typed reason).
        let mut attempts: Vec<(usize, String)> = Vec::new();
        let mut outcome: Option<SliceOutcome> = None;
        for i in 0..nr {
            let r = (primary + i) % nr;
            if let Some(&(from, ref reason)) = attempts.last() {
                // The previous attempt failed and we are about to try
                // another replica: that is one failover.
                stuq_obs::metrics().cluster_failover.inc();
                stuq_obs::emit(
                    Event::new("cluster_failover")
                        .uint("shard", s as u64)
                        .uint("from_replica", from as u64)
                        .uint("to_replica", r as u64)
                        .str("reason", reason.clone()),
                );
            }
            let w = self.map.worker_index(s, r);
            if let Some(t) = self.breakers[w].poll(now) {
                self.note_breaker(s, r, t);
            }
            if self.workers[w].state() == WorkerState::Down {
                attempts.push((r, "worker_down".to_string()));
                continue;
            }
            if self.breakers[w].state() == breaker::State::Open {
                attempts.push((r, "breaker_open".to_string()));
                continue;
            }
            // First attempt may hedge; retries are already late — they go
            // straight to the wire.
            let (ar, result) = if i == 0 {
                self.hedged_or_plain(s, r, &line, timeout)
            } else {
                (r, self.workers[w].call(&line, timeout))
            };
            let aw = self.map.worker_index(s, ar);
            let resp = match result {
                Ok(resp) => resp,
                Err(e) => {
                    self.workers[aw].fail(&e);
                    if let Some(t) = self.breakers[aw].on_fault(now) {
                        self.note_breaker(s, ar, t);
                    }
                    stuq_obs::metrics().cluster_rpc_failures.inc();
                    stuq_obs::emit(
                        Event::new("worker_down")
                            .uint("shard", s as u64)
                            .uint("replica", ar as u64)
                            .str("reason", e.clone()),
                    );
                    // The wire carries classifications, never raw transport
                    // errors (those go to the event log above).
                    let typed = if e == "rpc_timeout" { "rpc_timeout" } else { "worker_down" };
                    attempts.push((ar, typed.to_string()));
                    continue;
                }
            };
            if let Some(t) = self.breakers[aw].on_success() {
                self.note_breaker(s, ar, t);
            }
            let replica = (nr > 1).then_some(ar);
            match proto::parse_worker_resp(&resp) {
                Ok(WorkerResp::Forecast { samples_used, model, iv, .. }) => {
                    if model != self.model_checksum {
                        // A replica on a different model version must never
                        // be merged — that would be the mixed-version
                        // window the two-phase reload exists to prevent.
                        // Its sibling may well be on the right version.
                        attempts.push((ar, "version_skew".to_string()));
                        continue;
                    }
                    if !shape_ok(&iv) {
                        attempts.push((ar, "worker_error".to_string()));
                        continue;
                    }
                    let mean = iv.sigma.data().iter().sum::<f32>() / iv.sigma.len() as f32;
                    self.last_good_sigma[s] = Some(mean);
                    outcome = Some(SliceOutcome {
                        rows: Some(iv),
                        used: Some(samples_used),
                        note: ShardNote { replica, ..ShardNote::ok(s) },
                    });
                }
                Ok(WorkerResp::Fallback { reason, iv }) => {
                    if !shape_ok(&iv) {
                        attempts.push((ar, "worker_error".to_string()));
                        continue;
                    }
                    // The worker already served its documented persistence
                    // fallback — keep its rows, surface its typed reason,
                    // and stop: refusals are healthy transport, not faults.
                    outcome = Some(SliceOutcome {
                        rows: Some(iv),
                        used: None,
                        note: ShardNote { replica, ..ShardNote::fallback(s, &reason) },
                    });
                }
                Ok(WorkerResp::Rejected { reason }) => {
                    outcome = Some(SliceOutcome {
                        rows: None,
                        used: None,
                        note: ShardNote { replica, ..ShardNote::fallback(s, &reason) },
                    });
                }
                Ok(_) | Err(_) => {
                    attempts.push((ar, "worker_error".to_string()));
                    continue;
                }
            }
            break;
        }
        let mut out = outcome.unwrap_or_else(|| {
            // Chain exhausted: every replica failed. The terminal reason is
            // the last attempt's; earlier ones stay in the annotation. A
            // final timeout reads as the worker being gone — the historical
            // single-replica wire bytes say `worker_down`, and the richer
            // `rpc_timeout` detail survives in the attempts annotation.
            let (_, mut reason) = attempts.pop().expect("nr >= 1 attempts on exhaustion");
            if reason == "rpc_timeout" {
                reason = "worker_down".to_string();
            }
            SliceOutcome { rows: None, used: None, note: ShardNote::fallback(s, &reason) }
        });
        if nr > 1 {
            out.note.attempts = attempts;
        }
        out
    }

    /// The first attempt's transport round-trip: plain `call`, unless
    /// hedging is configured, the clock is real, and a serviceable sibling
    /// exists — then the hedged race. Returns `(answering replica, result)`.
    fn hedged_or_plain(
        &mut self,
        s: usize,
        r: usize,
        line: &str,
        timeout_ms: u64,
    ) -> (usize, Result<String, String>) {
        let w = self.map.worker_index(s, r);
        let nr = self.map.n_replicas();
        let plain = |me: &mut Self| (r, me.workers[w].call(line, timeout_ms));
        let Some(hedge_ms) = self.cfg.hedge_ms else {
            return plain(self);
        };
        if self.clock.is_fake() || nr < 2 || !self.workers[w].supports_hedge() {
            return plain(self);
        }
        let partner = (1..nr).map(|i| (r + i) % nr).find(|&h| {
            let hw = self.map.worker_index(s, h);
            self.workers[hw].state() == WorkerState::Up
                && self.breakers[hw].state() != breaker::State::Open
                && self.workers[hw].supports_hedge()
        });
        let Some(h) = partner else {
            return plain(self);
        };
        self.hedged_rpc(s, r, h, line, timeout_ms, hedge_ms)
    }

    /// The hedged race (real clock only): send to the primary; if no reply
    /// within `hedge_ms`, fire the identical request at the sibling and
    /// poll both — first complete line wins, the loser's in-flight reply is
    /// abandoned (its transport skips it as stale). A sibling win is
    /// counted as `cluster_hedge_won`.
    fn hedged_rpc(
        &mut self,
        s: usize,
        rp: usize,
        rh: usize,
        line: &str,
        timeout_ms: u64,
        hedge_ms: u64,
    ) -> (usize, Result<String, String>) {
        let deadline =
            std::time::Instant::now() + Duration::from_millis(timeout_ms.max(hedge_ms).max(1));
        let wp = self.map.worker_index(s, rp);
        let wh = self.map.worker_index(s, rh);
        if let Err(e) = self.workers[wp].send(line) {
            return (rp, Err(e));
        }
        match self.workers[wp].recv(hedge_ms.max(1)) {
            Ok(resp) => return (rp, Ok(resp)),
            Err(e) if e == "rpc_timeout" => {}
            Err(e) => return (rp, Err(e)),
        }
        let hedge_event = |winner: usize| {
            stuq_obs::emit(
                Event::new("cluster_hedge")
                    .uint("shard", s as u64)
                    .uint("primary", rp as u64)
                    .uint("secondary", rh as u64)
                    .uint("winner", winner as u64),
            );
        };
        let mut hedge_live = self.workers[wh].send(line).is_ok();
        let mut primary_err: Option<String> = None;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                if hedge_live {
                    self.workers[wh].abandon();
                }
                return (rp, Err(primary_err.unwrap_or_else(|| "rpc_timeout".into())));
            }
            let slice_ms = (left.as_millis() as u64).clamp(1, 25);
            if primary_err.is_none() {
                match self.workers[wp].recv(slice_ms) {
                    Ok(resp) => {
                        if hedge_live {
                            self.workers[wh].abandon();
                        }
                        hedge_event(rp);
                        return (rp, Ok(resp));
                    }
                    Err(e) if e == "rpc_timeout" => {}
                    Err(e) => primary_err = Some(e),
                }
            }
            if hedge_live {
                match self.workers[wh].recv(slice_ms) {
                    Ok(resp) => {
                        if primary_err.is_none() {
                            self.workers[wp].abandon();
                        }
                        stuq_obs::metrics().cluster_hedge_won.inc();
                        hedge_event(rh);
                        return (rh, Ok(resp));
                    }
                    Err(e) if e == "rpc_timeout" => {}
                    Err(_) => hedge_live = false,
                }
            }
            if !hedge_live && primary_err.is_some() {
                return (rp, Err(primary_err.unwrap()));
            }
        }
    }

    /// Scatter → per-shard calls (shard order) → gather/merge, wrapped in
    /// the request's trace context (DESIGN.md §15): a `request` root span,
    /// one `shard` child per scatter RPC carrying straggler/death
    /// attribution, and a `merge` phase. See the module docs for the
    /// degradation ladder.
    fn handle_forecast(&mut self, req: &ForecastReq) -> String {
        let wait_s = self.pending_wait.take();
        if let Some(w) = wait_s {
            stuq_obs::metrics().serve_admission_seconds.record(w);
        }
        let mut tr = if stuq_obs::trace_enabled() {
            let arrival = self.requests_served;
            let trace_id =
                req.trace.unwrap_or_else(|| trace::derive_trace_id(self.cfg.serve.seed, arrival));
            let parent = req.span.unwrap_or(trace_id);
            Some(ReqTrace {
                trace: trace_id,
                span: trace::derive_span_id(parent, "request", arrival),
                parent,
                arrival,
                wall: std::time::Instant::now(),
                wait_s,
                shards: Vec::new(),
                merge_s: None,
            })
        } else {
            None
        };
        let (mut resp, status) = self.forecast_inner(req, &mut tr);
        if let Some(t) = tr {
            trace::emit_span(trace::start_event(t.trace, t.span, t.parent, "request"));
            if let Some(w) = t.wait_s {
                trace::emit_phase(t.trace, t.span, "admission", t.arrival, w);
            }
            for (shard, seconds, sstatus, reason, replica) in &t.shards {
                let sspan = trace::derive_span_id(t.span, "shard", *shard as u64);
                trace::emit_span(
                    trace::start_event(t.trace, sspan, t.span, "shard")
                        .uint("shard", *shard as u64),
                );
                let mut end = trace::end_event(t.trace, sspan, *seconds)
                    .uint("shard", *shard as u64)
                    .str("status", sstatus.to_string());
                if let Some(r) = reason {
                    end = end.str("reason", r.clone());
                }
                if let Some(r) = replica {
                    end = end.uint("replica", *r as u64);
                }
                trace::emit_span(end);
            }
            if let Some(ms) = t.merge_s {
                trace::emit_phase(t.trace, t.span, "merge", t.arrival, ms);
            }
            let secs = t.wall.elapsed().as_secs_f64();
            let mut end = trace::end_event(t.trace, t.span, secs);
            if status != "ok" {
                end = end.str("status", status.to_string());
            }
            trace::emit_span(end);
            trace::note_request(t.trace, secs);
            proto::push_trace_meta(&mut resp, t.trace, t.span);
        }
        resp
    }

    /// [`Router::handle_forecast`] minus the span emission: returns the
    /// response plus the root-span status, recording per-shard RPC
    /// observations into `tr` along the way.
    fn forecast_inner(
        &mut self,
        req: &ForecastReq,
        tr: &mut Option<ReqTrace>,
    ) -> (String, &'static str) {
        let m = stuq_obs::metrics();
        m.serve_requests.inc();
        let v = match self.validate(req) {
            Ok(v) => v,
            Err(resp) => {
                self.requests_served += 1;
                return (resp, "error");
            }
        };
        // The arrival index pins seedless seeds (in `validate`, above) and
        // replica selection — both pre-increment, both pure in the seed.
        let arrival = self.requests_served;
        self.requests_served += 1;
        let sel_len = req.nodes.as_ref().map_or(self.n_nodes, Vec::len);
        let slices = self.map.scatter(req.nodes.as_deref());
        // One clock read per forecast: every breaker decision in this
        // request shares it, mirroring the solo server's schedule.
        let now = self.clock.now_ms();

        let mut outcomes: Vec<(ShardSlice, SliceOutcome)> = Vec::with_capacity(slices.len());
        for slice in slices {
            let ctx = tr
                .as_ref()
                .map(|t| (t.trace, trace::derive_span_id(t.span, "shard", slice.shard as u64)));
            let rpc_t0 = std::time::Instant::now();
            let outcome = self.call_shard(&slice, req, &v, now, ctx, arrival);
            let rpc_s = rpc_t0.elapsed().as_secs_f64();
            m.cluster_shard_rpc_seconds.record(rpc_s);
            if let Some(t) = tr.as_mut() {
                t.shards.push((
                    slice.shard,
                    rpc_s,
                    outcome.note.status,
                    outcome.note.reason.clone(),
                    outcome.note.replica,
                ));
            }
            outcomes.push((slice, outcome));
        }
        let merge_t0 = std::time::Instant::now();

        // Gather. Live rows and worker fallbacks merge by position; a shard
        // with no rows at all degrades to router-side persistence — unless
        // it has no σ history yet, in which case there is nothing honest to
        // serve and the whole request is rejected naming that shard.
        let h = v.h;
        let t_rows = req.x.len();
        let z = stuq_metrics::Z_95 as f32;
        let mut mu = vec![0.0f32; sel_len * h];
        let mut sigma = vec![0.0f32; sel_len * h];
        let mut lower = vec![0.0f32; sel_len * h];
        let mut upper = vec![0.0f32; sel_len * h];
        let mut notes: Vec<ShardNote> = Vec::with_capacity(outcomes.len());
        let mut min_used: Option<usize> = None;
        let mut first_fail: Option<(usize, String)> = None;
        for (slice, outcome) in &outcomes {
            if outcome.note.status != "ok" && first_fail.is_none() {
                let reason = outcome.note.reason.clone().unwrap_or_else(|| "worker_down".into());
                first_fail = Some((slice.shard, reason));
            }
            match &outcome.rows {
                Some(iv) => {
                    for (k, &pos) in slice.positions.iter().enumerate() {
                        for t in 0..h {
                            mu[pos * h + t] = iv.mu.get(k, t);
                            sigma[pos * h + t] = iv.sigma.get(k, t);
                            lower[pos * h + t] = iv.lower.get(k, t);
                            upper[pos * h + t] = iv.upper.get(k, t);
                        }
                    }
                    if let Some(used) = outcome.used {
                        min_used = Some(min_used.map_or(used, |cur| cur.min(used)));
                        self.samples_used_total += used as u64;
                    }
                }
                None => {
                    let Some(sig0) = self.last_good_sigma[slice.shard] else {
                        let reason =
                            outcome.note.reason.clone().unwrap_or_else(|| "worker_down".into());
                        self.shed += 1;
                        m.serve_shed.inc();
                        stuq_obs::emit(Event::new("serve_rejected").str("reason", reason.as_str()));
                        return (
                            proto::resp_rejected_shard(&req.id, &reason, slice.shard),
                            "rejected",
                        );
                    };
                    let widened = self.cfg.serve.widen_factor * sig0;
                    for (k, &pos) in slice.positions.iter().enumerate() {
                        let last = req.x[t_rows - 1][slice.nodes[k]];
                        for t in 0..h {
                            mu[pos * h + t] = last;
                            sigma[pos * h + t] = widened;
                            lower[pos * h + t] = last - z * widened;
                            upper[pos * h + t] = last + z * widened;
                        }
                    }
                }
            }
            notes.push(outcome.note.clone());
        }

        let partial = notes.iter().any(|n| n.status != "ok");
        if partial {
            let failed = notes.iter().filter(|n| n.status != "ok").count();
            m.serve_partial.inc();
            stuq_obs::emit(Event::new("serve_partial").uint("shards_failed", failed as u64));
        }
        let shape = [sel_len, h];
        let iv = proto::Intervals {
            mu: &Tensor::from_vec(mu, &shape),
            sigma: &Tensor::from_vec(sigma, &shape),
            lower: &Tensor::from_vec(lower, &shape),
            upper: &Tensor::from_vec(upper, &shape),
        };
        let merge_s = merge_t0.elapsed().as_secs_f64();
        m.cluster_merge_seconds.record(merge_s);
        if let Some(t) = tr.as_mut() {
            t.merge_s = Some(merge_s);
        }
        match min_used {
            Some(used) => (
                proto::resp_cluster_forecast(
                    &req.id,
                    used,
                    v.n_req,
                    &self.model_checksum,
                    &notes,
                    &iv,
                ),
                if partial { "partial" } else { "ok" },
            ),
            None => {
                // Every shard degraded, but each one had history to fall
                // back on — the response is a cluster-wide fallback.
                let (_, reason) = first_fail.unwrap_or((0, "worker_down".into()));
                m.serve_fallback.inc();
                (proto::resp_cluster_fallback(&req.id, &reason, &notes, &iv), "fallback")
            }
        }
    }

    /// Two-phase cluster-wide reload. Validation happens exactly once, at
    /// the router; workers then stage (`prepare_reload`) and only a
    /// unanimous ack commits. Any refusal — or any shard down — aborts
    /// everywhere, leaving every worker on the old version with its cache
    /// generation untouched.
    /// Human-readable name for flat worker `w` in reload nack reasons:
    /// `worker 1` on single-replica clusters (the historical wording),
    /// `worker 1/0` with replicas.
    fn worker_label(&self, w: usize) -> String {
        let (s, r) = self.map.worker_role(w);
        if self.map.n_replicas() == 1 {
            format!("worker {s}")
        } else {
            format!("worker {s}/{r}")
        }
    }

    fn handle_reload(&mut self, id: &Option<String>) -> String {
        let m = stuq_obs::metrics();
        let n = self.map.n_workers();
        let nack = |reason: &str| {
            proto::resp_ack(
                id,
                "reload",
                &[("ok", "false".into()), ("reason", json::escape(reason))],
            )
        };
        // Router-side validation: checksum + parse + shape, once.
        let v = reload::validate(&self.cfg.serve.model_path);
        let checksum = v.checksum.clone();
        let precheck = match v.result {
            Err(e) => Err(e),
            Ok(candidate) => {
                let (n1, h1) = (candidate.model().n_nodes(), candidate.model().horizon());
                if (n1, h1) != (self.n_nodes, self.horizon) {
                    Err(format!(
                        "shape mismatch: serving [{} nodes, horizon {}], \
                         candidate [{n1} nodes, horizon {h1}]",
                        self.n_nodes, self.horizon
                    ))
                } else {
                    Ok(())
                }
            }
        };
        if let Err(reason) = precheck {
            m.cluster_reload_aborts.inc();
            stuq_obs::emit(
                Event::new("cluster_reload_abort")
                    .str("checksum", checksum.as_str())
                    .str("reason", reason.as_str()),
            );
            return nack(&reason);
        }
        // A commit must be unanimous, so every worker — every replica of
        // every shard — has to be reachable before anything is staged: a
        // replica that misses the swap would answer `version_skew` slices
        // until its next restart.
        if let Some(w) = (0..n).find(|&w| self.workers[w].state() == WorkerState::Down) {
            let reason = format!("{} down", self.worker_label(w));
            m.cluster_reload_aborts.inc();
            stuq_obs::emit(
                Event::new("cluster_reload_abort")
                    .str("checksum", checksum.as_str())
                    .str("reason", reason.as_str()),
            );
            return nack(&reason);
        }
        // Phase one: stage everywhere; stop at the first refusal.
        let prepare = "{\"type\":\"prepare_reload\"}".to_string();
        let timeout = self.cfg.rpc_timeout_ms;
        let mut acks = 0usize;
        let mut failure: Option<String> = None;
        for w in 0..n {
            let label = self.worker_label(w);
            let outcome = match self.workers[w].call(&prepare, timeout) {
                Err(e) => {
                    self.workers[w].fail(&e);
                    Err(format!("{label}: {e}"))
                }
                Ok(resp) => match proto::parse_worker_resp(&resp) {
                    Ok(WorkerResp::Ack { ok: true, checksum: Some(ck), .. }) if ck == checksum => {
                        Ok(())
                    }
                    Ok(WorkerResp::Ack { ok: true, .. }) => {
                        Err(format!("{label}: staged checksum mismatch"))
                    }
                    Ok(WorkerResp::Ack { reason, .. }) => Err(format!(
                        "{label}: {}",
                        reason.unwrap_or_else(|| "prepare refused".into())
                    )),
                    _ => Err(format!("{label}: unexpected prepare response")),
                },
            };
            match outcome {
                Ok(()) => acks += 1,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        stuq_obs::emit(
            Event::new("cluster_reload_prepare")
                .str("checksum", checksum.as_str())
                .uint("acks", acks as u64),
        );
        if let Some(reason) = failure {
            // Abort everywhere (best effort — a worker that never staged
            // just acks with staged:false).
            let abort = "{\"type\":\"abort_reload\"}".to_string();
            for w in 0..n {
                if self.workers[w].state() == WorkerState::Up {
                    let _ = self.workers[w].call(&abort, timeout);
                }
            }
            m.cluster_reload_aborts.inc();
            stuq_obs::emit(
                Event::new("cluster_reload_abort")
                    .str("checksum", checksum.as_str())
                    .str("reason", reason.as_str()),
            );
            return nack(&reason);
        }
        // Phase two: unanimous — commit everywhere. A transport loss here
        // is tolerable: the restarted worker reloads the *new* artifact
        // from disk, and until then its slices are typed `worker_down`
        // fallbacks, never mixed-version merges.
        let commit = "{\"type\":\"commit_reload\"}".to_string();
        for w in 0..n {
            if let Err(e) = self.workers[w].call(&commit, timeout) {
                self.workers[w].fail(&e);
                let (s, r) = self.map.worker_role(w);
                stuq_obs::emit(
                    Event::new("worker_down")
                        .uint("shard", s as u64)
                        .uint("replica", r as u64)
                        .str("reason", e),
                );
            }
        }
        self.model_checksum = checksum.clone();
        self.generation += 1;
        m.cluster_reload_commits.inc();
        stuq_obs::emit(Event::new("cluster_reload_commit").str("checksum", checksum.as_str()));
        proto::resp_ack(
            id,
            "reload",
            &[
                ("ok", "true".into()),
                ("checksum", json::escape(&checksum)),
                ("generation", self.generation.to_string()),
            ],
        )
    }

    /// Maps a worker-breaker transition onto the event log (`shard` and
    /// `replica` ride along as extra fields on the standard breaker
    /// events).
    fn note_breaker(&mut self, s: usize, r: usize, t: breaker::Transition) {
        let shard = s as u64;
        let replica = r as u64;
        match t {
            breaker::Transition::Opened { consecutive, cooldown_ms } => stuq_obs::emit(
                Event::new("breaker_open")
                    .uint("consecutive_faults", consecutive as u64)
                    .uint("cooldown_ms", cooldown_ms)
                    .uint("shard", shard)
                    .uint("replica", replica),
            ),
            breaker::Transition::HalfOpened { cooldown_ms } => stuq_obs::emit(
                Event::new("breaker_half_open")
                    .uint("cooldown_ms", cooldown_ms)
                    .uint("shard", shard)
                    .uint("replica", replica),
            ),
            breaker::Transition::Closed { cooldown_ms } => stuq_obs::emit(
                Event::new("breaker_close")
                    .uint("cooldown_ms", cooldown_ms)
                    .uint("shard", shard)
                    .uint("replica", replica),
            ),
        }
    }

    /// Idle-tick supervision: drain worker tick events (crash detection,
    /// backed-off restarts, shard-map replay), refresh the workers-up
    /// gauge, and advance real-clock breakers.
    pub fn tick(&mut self) {
        let m = stuq_obs::metrics();
        for wi in 0..self.workers.len() {
            let (s, r) = self.map.worker_role(wi);
            for ev in self.workers[wi].tick() {
                match ev {
                    SupEvent::Down { reason } => {
                        stuq_obs::emit(
                            Event::new("worker_down")
                                .uint("shard", s as u64)
                                .uint("replica", r as u64)
                                .str("reason", reason),
                        );
                    }
                    SupEvent::Restarted { restarts } => {
                        m.cluster_restarts.inc();
                        // Fresh process: its transport history is moot.
                        self.breakers[wi].reset();
                        stuq_obs::emit(
                            Event::new("worker_restart")
                                .uint("shard", s as u64)
                                .uint("replica", r as u64)
                                .uint("restarts", restarts),
                        );
                    }
                    SupEvent::RestartFailed { backoff_ms, reason } => {
                        stuq_obs::emit(
                            Event::new("worker_restart_failed")
                                .uint("shard", s as u64)
                                .uint("replica", r as u64)
                                .uint("backoff_ms", backoff_ms)
                                .str("reason", reason),
                        );
                    }
                }
            }
        }
        let up = self.workers.iter().filter(|w| w.state() == WorkerState::Up).count();
        m.cluster_workers_up.set(up as f64);
        self.poll_breakers_idle();
    }

    /// Real-clock-only idle breaker polls (same contract as the solo
    /// server: no logical-clock reads outside the request pipeline).
    fn poll_breakers_idle(&mut self) {
        if self.clock.is_fake() {
            return;
        }
        let now = self.clock.now_ms();
        for w in 0..self.breakers.len() {
            if let Some(t) = self.breakers[w].poll(now) {
                let (s, r) = self.map.worker_role(w);
                self.note_breaker(s, r, t);
            }
        }
    }

    /// Best-effort worker shutdown (drains each worker's loop), then a
    /// short settle window so process workers can flush their telemetry
    /// sinks; the supervisor's Drop still kills whatever lingers.
    fn shutdown_workers(&mut self) {
        let line = "{\"type\":\"shutdown\"}".to_string();
        let timeout = self.cfg.rpc_timeout_ms;
        for w in 0..self.workers.len() {
            if self.workers[w].state() == WorkerState::Up {
                let _ = self.workers[w].call(&line, timeout);
            }
        }
        for w in &mut self.workers {
            w.settle(2_000);
        }
    }

    /// Aggregate cluster health: `healthy` (every worker up, breaker
    /// closed), `down` (no shard serviceable), `degraded` otherwise, with
    /// per-shard detail. Each shard entry aggregates its replicas —
    /// `state`/`breaker` reflect the best live replica (what the router can
    /// actually use), `restarts` sums, and `fidelity` tracks redundancy:
    /// `full` only while *every* replica is up with a closed breaker, so a
    /// flapping replica shows `degraded` here even though responses stay
    /// full fidelity. Multi-replica clusters add a `replicas` array with
    /// per-replica role (primary = the seed-derived pick for the next
    /// arrival), breaker, restart count, and ms since the last restart.
    fn healthz(&self, id: &Option<String>) -> String {
        let n = self.map.n_shards();
        let nr = self.map.n_replicas();
        let rank = |st: breaker::State| match st {
            breaker::State::Closed => 0u8,
            breaker::State::HalfOpen => 1,
            breaker::State::Open => 2,
        };
        let wup = |w: usize| self.workers[w].state() == WorkerState::Up;
        let replicas_of = |s: usize| (0..nr).map(move |r| s * nr + r);
        let up = |s: usize| replicas_of(s).any(&wup);
        // The breaker the shard effectively presents: the least-severe
        // among live replicas (the chain will reach it), or among all
        // replicas when none are up.
        let agg_breaker = |s: usize| {
            let live = replicas_of(s).filter(|&w| wup(w)).map(|w| self.breakers[w].state());
            let any = replicas_of(s).map(|w| self.breakers[w].state());
            live.min_by_key(|&st| rank(st)).or_else(|| any.min_by_key(|&st| rank(st))).unwrap()
        };
        let serviceable =
            |s: usize| replicas_of(s).any(|w| wup(w) && self.breakers[w].state() != breaker::State::Open);
        let n_up = (0..self.map.n_workers()).filter(|&w| wup(w)).count();
        let n_serviceable = (0..n).filter(|&s| serviceable(s)).count();
        let all_healthy = (0..self.map.n_workers())
            .all(|w| wup(w) && self.breakers[w].state() == breaker::State::Closed);
        let status = if self.draining {
            "draining"
        } else if all_healthy {
            "healthy"
        } else if n_serviceable == 0 {
            "down"
        } else {
            "degraded"
        };
        let ready = !self.draining && n_serviceable > 0;
        let shed = self.shed + self.shed_reader;
        let mut out = String::with_capacity(256);
        out.push_str("{\"type\":\"health\"");
        if let Some(id) = id {
            out.push_str(",\"id\":");
            out.push_str(&json::escape(id));
        }
        out.push_str(&format!(
            ",\"status\":\"{status}\",\"ready\":{ready},\"cluster\":true,\
             \"shards\":{n},\"workers_up\":{n_up},\"queue_depth\":{},\
             \"queue_capacity\":{},\"requests\":{},\"shed\":{shed},\
             \"model_checksum\":\"{}\",\"generation\":{},\"detail\":[",
            self.queue_depth,
            self.cfg.serve.max_queue,
            self.requests_served,
            self.model_checksum,
            self.generation,
        ));
        for s in 0..n {
            if s > 0 {
                out.push(',');
            }
            let restarts: u64 = replicas_of(s).map(|w| self.workers[w].restarts()).sum();
            let fidelity = if replicas_of(s)
                .all(|w| wup(w) && self.breakers[w].state() == breaker::State::Closed)
            {
                "full"
            } else {
                "degraded"
            };
            out.push_str(&format!(
                "{{\"shard\":{s},\"state\":\"{}\",\"breaker\":\"{}\",\"restarts\":{restarts},\
                 \"fidelity\":\"{fidelity}\"",
                if up(s) { "up" } else { "down" },
                agg_breaker(s).as_str(),
            ));
            if nr > 1 {
                let primary = self.primary_replica(self.requests_served, s);
                out.push_str(",\"replicas\":[");
                for r in 0..nr {
                    if r > 0 {
                        out.push(',');
                    }
                    let w = self.map.worker_index(s, r);
                    out.push_str(&format!(
                        "{{\"replica\":{r},\"role\":\"{}\",\"state\":\"{}\",\"breaker\":\"{}\",\
                         \"restarts\":{}",
                        if r == primary { "primary" } else { "backup" },
                        if wup(w) { "up" } else { "down" },
                        self.breakers[w].state().as_str(),
                        self.workers[w].restarts(),
                    ));
                    if let Some(ms) = self.workers[w].last_restart_ms() {
                        out.push_str(&format!(",\"last_restart_ms\":{ms}"));
                    }
                    out.push('}');
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Atomically rewrites `health.json` (same torn-read-free contract as
    /// the solo server — a scrape during a shard flap sees old or new,
    /// never half).
    pub fn write_health(&self) {
        if let Some(dir) = &self.cfg.serve.health_dir {
            let line = self.healthz(&None);
            let _ = stuq_artifact::write_atomic(
                dir.join("health.json"),
                format!("{line}\n").as_bytes(),
            );
        }
    }
}

/// Runs the router loop: the same two-lane admission front as
/// [`crate::serve_loop`] (reader thread sheds `queue_full`/`draining`
/// forecasts with typed rejections), with the worker side scattering each
/// forecast across the cluster. Idle ticks drive supervision and the
/// atomic `health.json` mirror.
pub fn router_loop<R, W>(router: &mut Router, reader: R, writer: W) -> ServeSummary
where
    R: BufRead + Send + 'static,
    W: Write + Send + 'static,
{
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    struct Flags {
        draining: AtomicBool,
        shed: AtomicU64,
    }

    let lanes = Arc::new(Lanes::new(router.cfg.serve.max_queue));
    let flags =
        Arc::new(Flags { draining: AtomicBool::new(router.draining), shed: AtomicU64::new(0) });
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

    let reader_handle = {
        let lanes = Arc::clone(&lanes);
        let flags = Arc::clone(&flags);
        let write_line = write_line.clone();
        std::thread::spawn(move || {
            for line in reader.lines() {
                let line = match line {
                    Ok(line) => line,
                    // `lines()` consumed the bad line's bytes: answer it and
                    // read on. Any other I/O error ends intake.
                    Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                        write_line(&proto::resp_error(
                            &None,
                            "bad_request",
                            "request line is not valid UTF-8",
                        ));
                        continue;
                    }
                    Err(_) => break,
                };
                if line.trim().is_empty() {
                    continue;
                }
                match proto::parse_request(&line) {
                    Err(e) => write_line(&proto::resp_error(&e.id, "bad_request", &e.detail)),
                    Ok(Request::Forecast(req)) => {
                        let reason = if flags.draining.load(Ordering::Relaxed) {
                            Some("draining")
                        } else if !lanes.try_push_forecast(line.clone()) {
                            Some("queue_full")
                        } else {
                            None
                        };
                        if let Some(reason) = reason {
                            flags.shed.fetch_add(1, Ordering::Relaxed);
                            stuq_obs::metrics().serve_shed.inc();
                            stuq_obs::emit(Event::new("serve_rejected").str("reason", reason));
                            write_line(&proto::resp_rejected(&req.id, reason));
                        }
                    }
                    Ok(_) => lanes.push_control(line),
                }
            }
            lanes.close();
        })
    };

    let mut requests: u64 = 0;
    let mut done = false;
    let mirror = |router: &mut Router, flags: &Flags, lanes: &Lanes| {
        flags.draining.store(router.draining, Ordering::Relaxed);
        router.queue_depth = lanes.depth();
        router.shed_reader = flags.shed.load(Ordering::Relaxed);
    };

    while !done {
        match lanes.pop(Duration::from_millis(50)) {
            Popped::Control(line) => {
                mirror(router, &flags, &lanes);
                let r = router.process_line(&line);
                write_line(&r.response);
                done = r.done;
                mirror(router, &flags, &lanes);
            }
            Popped::Forecast(line, at) => {
                requests += 1;
                router.pending_wait = Some(at.elapsed().as_secs_f64());
                let r = router.process_line(&line);
                write_line(&r.response);
                mirror(router, &flags, &lanes);
            }
            Popped::TimedOut => {
                router.tick();
                mirror(router, &flags, &lanes);
                router.write_health();
            }
            Popped::Closed => break,
        }
    }
    let drain_and_answer = |router: &mut Router, requests: &mut u64| {
        for item in lanes.drain_now() {
            match item {
                Popped::Control(line) => {
                    let r = router.process_line(&line);
                    write_line(&r.response);
                }
                Popped::Forecast(line, at) => {
                    *requests += 1;
                    router.pending_wait = Some(at.elapsed().as_secs_f64());
                    let r = router.process_line(&line);
                    write_line(&r.response);
                }
                Popped::TimedOut | Popped::Closed => {}
            }
        }
    };
    if done {
        lanes.close();
        drain_and_answer(router, &mut requests);
    }
    let _ = reader_handle.join();
    if done {
        drain_and_answer(router, &mut requests);
    }

    let shed = router.shed + flags.shed.load(Ordering::Relaxed);
    mirror(router, &flags, &lanes);
    router.write_health();
    stuq_obs::emit(Event::new("serve_stop").uint("requests", requests).uint("shed", shed));
    ServeSummary {
        requests,
        shed,
        responses: responses.load(Ordering::Relaxed),
        samples_used: router.samples_used_total,
    }
}
