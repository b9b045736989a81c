//! Cluster router: the solo forecast pipeline with its MC passes sharded
//! by sample range (DESIGN.md §13).
//!
//! A [`Router`] is an ordinary [`Server`] — validation, seed derivation,
//! cache, coalescing, monotone envelope, breaker/fallback ladder and render
//! are the solo code — whose passes run on worker processes. For a group of
//! `n` passes, shard `s` of `S` runs the range `[s·n/S, (s+1)·n/S)` from
//! the router's own RNG streams ([`ShardMap`]); the gathered passes are
//! folded by the same [`deepstuq::reduce_anytime`] the solo path uses, so a
//! healthy cluster answers byte-for-byte what a solo server answers.
//!
//! * **Failures are fewer samples.** A dead, breaker-open, garbled or
//!   version-skewed shard contributes no passes: the response is the
//!   anytime contract's degraded forecast (`samples_used` below
//!   `samples_requested`, widened envelope). Fewer passes than the floor
//!   is the solo fallback ladder — widened persistence, or a typed
//!   rejection before any healthy history.
//! * **Per-worker circuit breakers** — transport faults (timeout, EOF, I/O
//!   error) open the worker's breaker; while open, it is skipped. Garbled
//!   or version-skewed answers are healthy transport and never count.
//! * **Replica failover** (DESIGN.md §16) — with `--replicas R` each shard
//!   is backed by R interchangeable workers. The primary for a range is a
//!   pure function of `(session seed, arrival index, shard)`, so reruns
//!   pick the same replicas; any failure advances a **failover chain** to
//!   the next replica (counted and logged as `cluster_failover`). Replicas
//!   run the same streams, so a failover never changes response bytes.
//! * **Two-phase cluster reload** — `reload` validates checksum + shape
//!   once at the router, stages on every worker (`prepare_reload`), and
//!   swaps only on unanimous ack (`commit_reload`), the router's own model
//!   last; any refusal aborts everywhere. A worker answering with another
//!   checksum is `version_skew` and contributes nothing.
//!
//! Determinism: range RPCs go out in shard order, breaker decisions share
//! the group's one `t_start` clock read, and the RPCs read no clock, so
//! under `STUQ_FAKE_CLOCK` the router reads its clock exactly where a solo
//! server does and the byte stream is a pure function of the request
//! stream and of which workers are up.

use std::sync::{Arc, Mutex};

use crate::breaker::{self, Breaker};
use crate::proto::{self, WorkerResp};
use crate::shard::ShardMap;
use crate::{reload, LineOutcome, ServeConfig, ServeSummary, Server};
use deepstuq::SamplePass;
use stuq_artifact::json;
use stuq_models::Forecaster;
use stuq_obs::{trace, Event};
use stuq_tensor::{StuqRng, Tensor};

/// Router-specific knobs on top of the shared serve configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The router's own serving configuration (model/data paths, queue,
    /// widening, breaker thresholds, seed, fake clock, batching, cache).
    /// Its reload watcher is always off: reloads are two-phase.
    pub serve: ServeConfig,
    /// Shard count (clamped ≥ 1).
    pub shards: usize,
    /// Replicas per shard (clamped ≥ 1). Total worker count is
    /// `shards × replicas`.
    pub replicas: usize,
    /// Real-time grace added to a request's `deadline_ms` to bound each
    /// worker RPC. Generous on purpose: it is a hang backstop, not a
    /// scheduler — fake-clock runs must never trip it spuriously.
    pub rpc_timeout_ms: u64,
}

impl RouterConfig {
    /// Defaults: 3 shards, single replica, 2 s RPC backstop.
    pub fn new(serve: ServeConfig) -> Self {
        RouterConfig { serve, shards: 3, replicas: 1, rpc_timeout_ms: 2000 }
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
    /// The worker was respawned and reconnected.
    Restarted {
        /// Lifetime restart count for this worker.
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

/// One worker's transport, as the router drives it. Production uses
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

/// Domain-separation salt for replica selection: keeps the primary-pick
/// RNG stream disjoint from seed derivation and the faultnet plan.
const REPLICA_SALT: u64 = 0x5E1E_C7ED;

/// The workers behind a router's [`Server`] and their transport state.
pub(crate) struct Cluster {
    map: ShardMap,
    workers: Vec<Box<dyn ShardWorker>>,
    /// One breaker per *worker*: replicas fail independently, so their
    /// transport history must not be pooled.
    breakers: Vec<Breaker>,
    rpc_timeout_ms: u64,
    /// Session seed (replica selection).
    seed: u64,
    /// Committed cluster-reload generation.
    generation: u64,
}

/// One group's MC passes, as the router scatters them.
pub(crate) struct PassJob<'a> {
    /// Normalised input window.
    pub x: &'a Tensor,
    /// Requested passes (`1` selects the deterministic pass).
    pub n: usize,
    /// State words of the group's RNG before its per-sample fork.
    pub rng: [u64; 4],
    /// The group's `t_start` clock reading (breaker decisions).
    pub now: u64,
    /// Arrival index of the group's lead (replica selection).
    pub arrival: u64,
    /// The group's deadline (bounds each RPC together with the grace).
    pub deadline: Option<u64>,
    /// The router's model checksum; other answers are `version_skew`.
    pub model: &'a str,
    /// Expected `[n_nodes, horizon]` of every pass.
    pub shape: [usize; 2],
    /// Trace context: `(trace id, the lead's compute span)`.
    pub ctx: Option<(u64, u64)>,
}

/// What a scatter gathered.
pub(crate) struct Gathered {
    /// Pass `j`, or `None` when its range's shard contributed nothing.
    pub passes: Vec<Option<SamplePass>>,
    /// Typed reason of the first range that contributed nothing.
    pub lost: Option<&'static str>,
    /// One observation per range RPC, for the trace.
    pub spans: Vec<RangeSpan>,
}

/// One range RPC as the trace records it.
pub(crate) struct RangeSpan {
    shard: usize,
    seconds: f64,
    /// Typed reason when the range contributed nothing.
    lost: Option<&'static str>,
    /// Answering replica (multi-replica clusters only).
    replica: Option<usize>,
}

/// Emits one `shard` span per range RPC under a group's compute span
/// (`status` ok or failed, with the typed reason and answering replica).
pub(crate) fn emit_range_spans(trace_id: u64, cspan: u64, ranges: &[RangeSpan]) {
    for r in ranges {
        let sspan = trace::derive_span_id(cspan, "shard", r.shard as u64);
        trace::emit_span(
            trace::start_event(trace_id, sspan, cspan, "shard").uint("shard", r.shard as u64),
        );
        let mut end = trace::end_event(trace_id, sspan, r.seconds)
            .uint("shard", r.shard as u64)
            .str("status", if r.lost.is_some() { "failed" } else { "ok" });
        if let Some(reason) = r.lost {
            end = end.str("reason", reason);
        }
        if let Some(replica) = r.replica {
            end = end.uint("replica", replica as u64);
        }
        trace::emit_span(end);
    }
}

impl Cluster {
    /// The replica that serves shard `s` for arrival index `arrival` — a
    /// pure function of the session seed, so replica selection replays
    /// byte-identically across reruns and thread counts.
    fn primary_replica(&self, arrival: u64, s: usize) -> usize {
        let nr = self.map.n_replicas();
        if nr == 1 {
            return 0;
        }
        let mut rng = StuqRng::new(self.seed ^ REPLICA_SALT).fork(arrival).fork(s as u64);
        (rng.next_u64() % nr as u64) as usize
    }

    /// Scatters a group's passes, one range RPC per shard with a non-empty
    /// range, in shard order, and gathers them in sample order.
    pub(crate) fn gather(&mut self, job: &PassJob<'_>) -> Gathered {
        let mut out = Gathered { passes: Vec::with_capacity(job.n), lost: None, spans: Vec::new() };
        let map = self.map;
        for (s, range) in map.scatter(job.n) {
            let ctx =
                job.ctx.map(|(t, cspan)| (t, trace::derive_span_id(cspan, "shard", s as u64)));
            let line = proto::render_passes_req(job.x, job.n, range.clone(), &job.rng, ctx);
            let t0 = std::time::Instant::now();
            let (answer, replica) = self.call_range(s, &line, range.len(), job);
            let seconds = t0.elapsed().as_secs_f64();
            stuq_obs::metrics().cluster_shard_rpc_seconds.record(seconds);
            let replica = (self.map.n_replicas() > 1).then_some(replica);
            match answer {
                Ok(passes) => {
                    out.passes.extend(passes.into_iter().map(Some));
                    out.spans.push(RangeSpan { shard: s, seconds, lost: None, replica });
                }
                Err(reason) => {
                    out.passes.extend(range.map(|_| None));
                    out.lost.get_or_insert(reason);
                    out.spans.push(RangeSpan { shard: s, seconds, lost: Some(reason), replica });
                }
            }
        }
        out
    }

    /// One range's failover chain over shard `s`'s replicas, starting at
    /// the seed-derived primary: breaker gate → RPC → typed check. Any
    /// failure (`worker_down`, `breaker_open`, `rpc_timeout`,
    /// `version_skew`, `worker_error`) advances to the next replica; only
    /// transport faults feed that worker's breaker. Returns the passes or
    /// the last typed reason, and the last replica tried.
    fn call_range(
        &mut self,
        s: usize,
        line: &str,
        len: usize,
        job: &PassJob<'_>,
    ) -> (Result<Vec<SamplePass>, &'static str>, usize) {
        let nr = self.map.n_replicas();
        let primary = self.primary_replica(job.arrival, s);
        // Real-time hang backstop: logical deadline plus a generous grace.
        let timeout = job.deadline.unwrap_or(0).saturating_add(self.rpc_timeout_ms);
        let mut last: (&'static str, usize) = ("worker_down", primary);
        for i in 0..nr {
            let r = (primary + i) % nr;
            if i > 0 {
                // The previous attempt failed and another replica is next.
                stuq_obs::metrics().cluster_failover.inc();
                stuq_obs::emit(
                    Event::new("cluster_failover")
                        .uint("shard", s as u64)
                        .uint("from_replica", last.1 as u64)
                        .uint("to_replica", r as u64)
                        .str("reason", last.0),
                );
            }
            let w = self.map.worker_index(s, r);
            if let Some(t) = self.breakers[w].poll(job.now) {
                note_breaker(s, r, t);
            }
            let reason = if self.workers[w].state() == WorkerState::Down {
                "worker_down"
            } else if self.breakers[w].state() == breaker::State::Open {
                "breaker_open"
            } else {
                match self.workers[w].call(line, timeout) {
                    Err(e) => {
                        self.workers[w].fail(&e);
                        if let Some(t) = self.breakers[w].on_fault(job.now) {
                            note_breaker(s, r, t);
                        }
                        stuq_obs::metrics().cluster_rpc_failures.inc();
                        stuq_obs::emit(
                            Event::new("worker_down")
                                .uint("shard", s as u64)
                                .uint("replica", r as u64)
                                .str("reason", e.clone()),
                        );
                        if e == "rpc_timeout" {
                            "rpc_timeout"
                        } else {
                            "worker_down"
                        }
                    }
                    Ok(resp) => {
                        if let Some(t) = self.breakers[w].on_success() {
                            note_breaker(s, r, t);
                        }
                        match proto::parse_worker_resp(&resp) {
                            Ok(WorkerResp::Passes { model, .. }) if model != job.model => {
                                "version_skew"
                            }
                            Ok(WorkerResp::Passes { passes, .. })
                                if passes.len() == len
                                    && passes.iter().all(|(mu, var)| {
                                        mu.shape() == job.shape
                                            && var.as_ref().is_none_or(|v| v.shape() == job.shape)
                                    }) =>
                            {
                                return (Ok(passes), r);
                            }
                            _ => "worker_error",
                        }
                    }
                }
            };
            last = (reason, r);
        }
        (Err(last.0), last.1)
    }

    /// Cluster-wide counter scrape (DESIGN.md §15): asks every Up worker
    /// for its counter dump, sums name-by-name on top of the router's own
    /// counters, answers the merged table, and mirrors it as a Prometheus
    /// export (`cluster_metrics.prom`) next to the router's event log.
    pub(crate) fn merged_metrics(&mut self, id: &Option<String>) -> String {
        let m = stuq_obs::metrics();
        let mut merged: Vec<(String, u64)> =
            m.counters().iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let mut extra: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        let total = self.workers.len();
        let mut scraped = 0usize;
        for w in &mut self.workers {
            if w.state() != WorkerState::Up {
                continue;
            }
            match w.call("{\"type\":\"metrics\"}", self.rpc_timeout_ms) {
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
                    _ => w.fail("bad_metrics_response"),
                },
                Err(e) => w.fail(&e),
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

    /// Best-effort worker shutdown (drains each worker's loop), then a
    /// short settle window so process workers can flush their telemetry
    /// sinks; the supervisor's Drop still kills whatever lingers.
    pub(crate) fn shutdown_workers(&mut self) {
        for w in &mut self.workers {
            if w.state() == WorkerState::Up {
                let _ = w.call("{\"type\":\"shutdown\"}", self.rpc_timeout_ms);
            }
        }
        for w in &mut self.workers {
            w.settle(2_000);
        }
    }

    /// Idle-tick supervision: drain worker tick events (crash detection,
    /// backed-off restarts) and refresh the workers-up gauge.
    pub(crate) fn supervise(&mut self) {
        let m = stuq_obs::metrics();
        for wi in 0..self.workers.len() {
            let (s, r) = self.map.worker_role(wi);
            for ev in self.workers[wi].tick() {
                let ev = match ev {
                    SupEvent::Down { reason } => Event::new("worker_down").str("reason", reason),
                    SupEvent::Restarted { restarts } => {
                        m.cluster_restarts.inc();
                        // Fresh process: its transport history is moot.
                        self.breakers[wi].reset();
                        Event::new("worker_restart").uint("restarts", restarts)
                    }
                    SupEvent::RestartFailed { backoff_ms, reason } => {
                        Event::new("worker_restart_failed")
                            .uint("backoff_ms", backoff_ms)
                            .str("reason", reason)
                    }
                };
                stuq_obs::emit(ev.uint("shard", s as u64).uint("replica", r as u64));
            }
        }
        let up = self.workers.iter().filter(|w| w.state() == WorkerState::Up).count();
        m.cluster_workers_up.set(up as f64);
    }

    /// Real-clock idle polls of the worker breakers.
    pub(crate) fn poll_breakers(&mut self, now: u64) {
        for w in 0..self.breakers.len() {
            if let Some(t) = self.breakers[w].poll(now) {
                let (s, r) = self.map.worker_role(w);
                note_breaker(s, r, t);
            }
        }
    }

    /// `worker 1` on single-replica clusters, `worker 1/0` with replicas.
    fn worker_label(&self, w: usize) -> String {
        let (s, r) = self.map.worker_role(w);
        if self.map.n_replicas() == 1 {
            format!("worker {s}")
        } else {
            format!("worker {s}/{r}")
        }
    }
}

/// Maps a worker-breaker transition onto the event log (`shard` and
/// `replica` ride along as extra fields on the standard breaker events).
fn note_breaker(s: usize, r: usize, t: breaker::Transition) {
    let ev = match t {
        breaker::Transition::Opened { consecutive, cooldown_ms } => Event::new("breaker_open")
            .uint("consecutive_faults", consecutive as u64)
            .uint("cooldown_ms", cooldown_ms),
        breaker::Transition::HalfOpened { cooldown_ms } => {
            Event::new("breaker_half_open").uint("cooldown_ms", cooldown_ms)
        }
        breaker::Transition::Closed { cooldown_ms } => {
            Event::new("breaker_close").uint("cooldown_ms", cooldown_ms)
        }
    };
    stuq_obs::emit(ev.uint("shard", s as u64).uint("replica", r as u64));
}

impl Server {
    fn cluster(&self) -> &Cluster {
        self.cluster.as_ref().expect("router-only path")
    }

    /// Two-phase cluster-wide reload. Validation happens exactly once, at
    /// the router; workers then stage (`prepare_reload`) and only a
    /// unanimous ack commits — the workers first, then the router's own
    /// model. Any refusal — or any worker down — aborts everywhere, leaving
    /// every worker on the old version with its cache generation untouched.
    pub(crate) fn cluster_reload(&mut self, id: &Option<String>) -> String {
        let m = stuq_obs::metrics();
        let v = reload::validate(&self.cfg.model_path);
        let checksum = v.checksum.clone();
        let abort = |reason: String| {
            m.cluster_reload_aborts.inc();
            stuq_obs::emit(
                Event::new("cluster_reload_abort")
                    .str("checksum", checksum.as_str())
                    .str("reason", reason.as_str()),
            );
            proto::resp_ack(
                id,
                "reload",
                &[("ok", "false".into()), ("reason", json::escape(&reason))],
            )
        };
        let candidate = match v.result.and_then(|c| self.check_shape(c)) {
            Err(e) => return abort(e),
            Ok(c) => c,
        };
        let c = self.cluster.as_mut().expect("router-only path");
        let n = c.workers.len();
        // A commit must be unanimous, so every worker — every replica of
        // every shard — has to be reachable before anything is staged.
        if let Some(w) = (0..n).find(|&w| c.workers[w].state() == WorkerState::Down) {
            let reason = format!("{} down", c.worker_label(w));
            return abort(reason);
        }
        // Phase one: stage everywhere; stop at the first refusal.
        let timeout = c.rpc_timeout_ms;
        let mut acks = 0usize;
        let mut failure: Option<String> = None;
        for w in 0..n {
            let label = c.worker_label(w);
            let outcome = match c.workers[w].call("{\"type\":\"prepare_reload\"}", timeout) {
                Err(e) => {
                    c.workers[w].fail(&e);
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
            for w in &mut c.workers {
                if w.state() == WorkerState::Up {
                    let _ = w.call("{\"type\":\"abort_reload\"}", timeout);
                }
            }
            return abort(reason);
        }
        // Phase two: unanimous — commit everywhere. A transport loss here
        // is tolerable: the restarted worker loads the *new* artifact from
        // disk, and until then its ranges are lost, never mixed-version.
        for w in 0..n {
            if let Err(e) = c.workers[w].call("{\"type\":\"commit_reload\"}", timeout) {
                c.workers[w].fail(&e);
                let (s, r) = c.map.worker_role(w);
                stuq_obs::emit(
                    Event::new("worker_down")
                        .uint("shard", s as u64)
                        .uint("replica", r as u64)
                        .str("reason", e),
                );
            }
        }
        c.generation += 1;
        let generation = c.generation;
        self.swap_model(candidate, checksum.clone());
        m.cluster_reload_commits.inc();
        stuq_obs::emit(Event::new("cluster_reload_commit").str("checksum", checksum.as_str()));
        proto::resp_ack(
            id,
            "reload",
            &[
                ("ok", "true".into()),
                ("checksum", json::escape(&checksum)),
                ("generation", generation.to_string()),
            ],
        )
    }

    /// Aggregate cluster health: `healthy` (every worker up, breaker
    /// closed), `down` (no shard serviceable), `degraded` otherwise, with
    /// per-shard detail. Each shard entry aggregates its replicas —
    /// `state`/`breaker` reflect the best live replica (what the router can
    /// actually use), `restarts` sums, and `fidelity` tracks redundancy:
    /// `full` only while *every* replica is up with a closed breaker.
    /// Multi-replica clusters add a `replicas` array with per-replica role
    /// (primary = the seed-derived pick for the next arrival), breaker,
    /// restart count, and ms since the last restart.
    pub(crate) fn cluster_healthz(&self, id: &Option<String>) -> String {
        let c = self.cluster();
        let n = c.map.n_shards();
        let nr = c.map.n_replicas();
        let rank = |st: breaker::State| match st {
            breaker::State::Closed => 0u8,
            breaker::State::HalfOpen => 1,
            breaker::State::Open => 2,
        };
        let wup = |w: usize| c.workers[w].state() == WorkerState::Up;
        let replicas_of = |s: usize| (0..nr).map(move |r| s * nr + r);
        let up = |s: usize| replicas_of(s).any(wup);
        // The breaker the shard effectively presents: the least-severe
        // among live replicas (the chain will reach it), or among all
        // replicas when none are up.
        let agg_breaker = |s: usize| {
            let live = replicas_of(s).filter(|&w| wup(w)).map(|w| c.breakers[w].state());
            let any = replicas_of(s).map(|w| c.breakers[w].state());
            live.min_by_key(|&st| rank(st)).or_else(|| any.min_by_key(|&st| rank(st))).unwrap()
        };
        let serviceable = |s: usize| {
            replicas_of(s).any(|w| wup(w) && c.breakers[w].state() != breaker::State::Open)
        };
        let n_up = (0..c.map.n_workers()).filter(|&w| wup(w)).count();
        let n_serviceable = (0..n).filter(|&s| serviceable(s)).count();
        let all_healthy = (0..c.map.n_workers())
            .all(|w| wup(w) && c.breakers[w].state() == breaker::State::Closed);
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
        proto::push_id(&mut out, id);
        out.push_str(&format!(
            ",\"status\":\"{status}\",\"ready\":{ready},\"cluster\":true,\
             \"shards\":{n},\"workers_up\":{n_up},\"queue_depth\":{},\
             \"queue_capacity\":{},\"requests\":{},\"shed\":{shed},\
             \"model_checksum\":\"{}\",\"generation\":{},\"detail\":[",
            self.queue_depth,
            self.cfg.max_queue,
            self.requests_served,
            self.model_checksum,
            c.generation,
        ));
        for s in 0..n {
            if s > 0 {
                out.push(',');
            }
            let restarts: u64 = replicas_of(s).map(|w| c.workers[w].restarts()).sum();
            let fidelity = if replicas_of(s)
                .all(|w| wup(w) && c.breakers[w].state() == breaker::State::Closed)
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
                let primary = c.primary_replica(self.requests_served, s);
                out.push_str(",\"replicas\":[");
                for r in 0..nr {
                    if r > 0 {
                        out.push(',');
                    }
                    let w = c.map.worker_index(s, r);
                    out.push_str(&format!(
                        "{{\"replica\":{r},\"role\":\"{}\",\"state\":\"{}\",\"breaker\":\"{}\",\
                         \"restarts\":{}",
                        if r == primary { "primary" } else { "backup" },
                        if wup(w) { "up" } else { "down" },
                        c.breakers[w].state().as_str(),
                        c.workers[w].restarts(),
                    ));
                    if let Some(ms) = c.workers[w].last_restart_ms() {
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
}

/// The cluster router: a [`Server`] whose MC passes run on `shards ×
/// replicas` workers. [`router_loop`] drives it from a reader; tests drive
/// it line by line through [`Router::handle_line`].
pub struct Router {
    server: Server,
}

impl Router {
    /// Builds the router: loads the model (the router runs the solo
    /// pipeline on it) and takes the workers, shard-major:
    /// `workers[s * replicas + r]` must be the transport for shard `s`'s
    /// replica `r`.
    pub fn new(cfg: RouterConfig, workers: Vec<Box<dyn ShardWorker>>) -> Result<Router, String> {
        let map = ShardMap::replicated(cfg.shards, cfg.replicas);
        if workers.len() != map.n_workers() {
            return Err(format!(
                "router got {} workers for {} shards × {} replicas",
                workers.len(),
                map.n_shards(),
                map.n_replicas()
            ));
        }
        let mut serve = cfg.serve;
        // The router's model swaps only at a two-phase reload's commit.
        serve.reload_poll_ms = 0;
        let breakers = (0..map.n_workers())
            .map(|_| {
                Breaker::new(
                    serve.breaker_threshold,
                    serve.breaker_cooldown_ms,
                    serve.breaker_cooldown_max_ms,
                )
            })
            .collect();
        let seed = serve.seed;
        let mut server = Server::new(serve)?;
        server.cluster = Some(Cluster {
            map,
            workers,
            breakers,
            rpc_timeout_ms: cfg.rpc_timeout_ms,
            seed,
            generation: 0,
        });
        stuq_obs::emit(
            Event::new("cluster_start")
                .uint("shards", map.n_shards() as u64)
                .uint("replicas", map.n_replicas() as u64)
                .uint("nodes", server.model.model().n_nodes() as u64),
        );
        Ok(Router { server })
    }

    /// The active shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.server.cluster().map
    }

    /// Checksum of the model version the cluster currently serves.
    pub fn model_checksum(&self) -> &str {
        self.server.model_checksum()
    }

    /// Committed cluster-reload generation.
    pub fn generation(&self) -> u64 {
        self.server.cluster().generation
    }

    /// True once a `drain` or `shutdown` request was processed.
    pub fn draining(&self) -> bool {
        self.server.draining()
    }

    /// Sync entry point, exactly [`Server::handle_line`].
    pub fn handle_line(&mut self, line: &str) -> LineOutcome {
        self.server.handle_line(line)
    }
}

/// Runs the router loop: [`crate::serve_loop`] on the router's server —
/// the same admission lanes, coalescing and idle ticks, which also drive
/// worker supervision and the atomic `health.json` mirror.
pub fn router_loop<R, W>(router: &mut Router, reader: R, writer: W) -> ServeSummary
where
    R: std::io::BufRead + Send + 'static,
    W: std::io::Write + Send + 'static,
{
    crate::serve_loop(&mut router.server, reader, writer)
}
