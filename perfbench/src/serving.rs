//! The three serving workloads, driven through the public `serve_loop` /
//! `router_loop` in closed-loop rounds, followed by an output check against
//! a synchronous replay and a quality pass. The traced run also drives an
//! open-loop stream (`Plan::scheduled`).

use std::io::{BufReader, PipeReader, Write};

use stuq_serve::proto::{self, WorkerResp};
use stuq_serve::router::{router_loop, InProcWorker, Router, RouterConfig, ShardWorker};
use stuq_serve::{serve_loop, ServeConfig, ServeSummary, Server};
use stuq_tensor::StuqRng;

use crate::fixture::{Quality, Scores, ServeFixture, MC};
use crate::hostspeed::HostRef;
use crate::load::{self, Resp, StreamOut};
use crate::stats::{median, percentile, thread_cpu_s};
use crate::Report;

/// Request shape and server topology of a serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Distinct windows, explicit seeds, all nodes; solo server, batch 1,
    /// cache off.
    Distinct,
    /// Current-tick windows, seedless with `tick`, node subsets and horizon
    /// prefixes; solo server, batch 8, cache on.
    Cached,
    /// The `Distinct` stream through a router over two in-process shards.
    Cluster,
}

/// A serving workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub kind: Kind,
    /// Requests written at once in each serve-loop round.
    pub round: usize,
    /// Consecutive rounds whose CPU is summed into one sample: one tick's
    /// worth for the cached shape, so every sample holds one model run.
    pub group: usize,
    /// Every this many requests, the response is kept and replayed.
    pub keep_every: usize,
    /// Every this many rounds, the serving thread times one construction
    /// of the target for `setup_s`.
    pub setup_every: usize,
    /// Arrival rate of the traced run's open-loop stream (requests/s).
    pub stream_rps: f64,
}

/// Requests per tick of the cached shape (a multiple of its batch size, so
/// a capacity window never straddles ticks unevenly). Ticks advance with
/// the request count rather than the clock, so every run answers the same
/// share from the cache however fast the host is.
pub const TICK_REQS: usize = 192;
/// Cache TTL of the cached shape; a tick lasts well under it.
const CACHE_TTL_MS: u64 = 2000;
/// Fixed test windows scored for quality.
pub const QUALITY_N: usize = 16;

/// One request: its JSON head up to `"x":`, its test window and the node
/// subset it asks for (`None` = all nodes).
pub struct Req {
    pub head: String,
    pub window: usize,
    pub nodes: Option<Vec<usize>>,
}

/// The seeded request sequence of a run; request `i` is a pure function of
/// the seed and `i`. An open-loop plan also carries each request's due
/// offset.
pub struct Plan<'a> {
    fx: &'a ServeFixture,
    kind: Kind,
    seed: u64,
    /// Test windows in seeded order, cycled by the distinct shape.
    order: Vec<usize>,
    /// The cached shape's window at tick 0.
    first_window: usize,
    /// Due offsets (open loop only).
    pub due: Vec<f64>,
}

impl<'a> Plan<'a> {
    /// Unbounded closed-loop sequence.
    pub fn new(kind: Kind, fx: &'a ServeFixture, seed: u64) -> Plan<'a> {
        let mut rng = StuqRng::new(seed ^ 0xA11_0CA7E);
        let n_win = fx.test_starts.len();
        let first_window = rng.uniform_usize(n_win);
        let mut order: Vec<usize> = (0..n_win).collect();
        rng.shuffle(&mut order);
        Plan { fx, kind, seed, order, first_window, due: Vec::new() }
    }

    /// Open-loop plan: Poisson arrivals at `rate` over `seconds`.
    pub fn scheduled(
        kind: Kind,
        fx: &'a ServeFixture,
        seed: u64,
        rate: f64,
        seconds: f64,
    ) -> Plan<'a> {
        let mut plan = Plan::new(kind, fx, seed);
        plan.due = load::poisson(&mut StuqRng::new(seed ^ 0xD0E), rate, 0.0, seconds);
        plan
    }

    /// The fixture the requests are built from.
    pub fn fixture(&self) -> &'a ServeFixture {
        self.fx
    }

    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Request `i`.
    pub fn req(&self, i: usize) -> Req {
        let mut rng = StuqRng::new(self.seed ^ 0x5E0_0E57).fork(i as u64);
        let n_nodes = self.fx.ds.n_nodes();
        match self.kind {
            Kind::Distinct | Kind::Cluster => {
                let seed = rng.next_u64() >> 12;
                Req {
                    head: format!(
                        "{{\"type\":\"forecast\",\"id\":\"r{i}\",\"seed\":{seed},\"mc\":{MC},\"x\":"
                    ),
                    window: self.order[i % self.order.len()],
                    nodes: None,
                }
            }
            Kind::Cached => {
                let tick = i / TICK_REQS;
                let width = 1 + rng.uniform_usize(16);
                let lo = rng.uniform_usize(n_nodes);
                let nodes: Vec<usize> = (0..width).map(|j| (lo + j) % n_nodes).collect();
                let horizon = 1 + rng.uniform_usize(self.fx.ds.horizon());
                let list = nodes.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
                Req {
                    head: format!(
                        "{{\"type\":\"forecast\",\"id\":\"r{i}\",\"tick\":{tick},\"mc\":{MC},\
                         \"nodes\":[{list}],\"horizon\":{horizon},\"x\":"
                    ),
                    window: (self.first_window + tick) % self.order.len(),
                    nodes: Some(nodes),
                }
            }
        }
    }

    /// Appends request `i`'s line (with newline) to `buf`.
    pub fn write_line(&self, i: usize, buf: &mut Vec<u8>) {
        let r = self.req(i);
        buf.extend_from_slice(r.head.as_bytes());
        buf.extend_from_slice(self.fx.x_json[r.window].as_bytes());
        buf.extend_from_slice(b"}\n");
    }

    /// Request `i`'s line without the newline.
    pub fn line(&self, i: usize) -> String {
        let mut buf = Vec::new();
        self.write_line(i, &mut buf);
        buf.pop();
        String::from_utf8(buf).expect("request lines are UTF-8")
    }
}

/// The serving configuration of a workload (the per-shard configuration
/// for the cluster).
pub fn serve_config(fx: &ServeFixture, kind: Kind) -> ServeConfig {
    let mut cfg = fx.serve_config();
    if kind == Kind::Cached {
        cfg.batch_max = 8;
        cfg.cache_ttl_ms = CACHE_TTL_MS;
    }
    cfg
}

/// A solo server or a router over two in-process shards.
#[allow(clippy::large_enum_variant)] // built a few times per run, never moved in bulk
pub enum Target {
    Solo(Server),
    Cluster(Router),
}

/// Number of shards in the cluster workload.
pub const SHARDS: usize = 2;

impl Target {
    /// Builds the workload's target; the cluster's shards take the
    /// `Distinct` configuration.
    pub fn build(fx: &ServeFixture, kind: Kind) -> Result<Target, String> {
        Target::from_config(serve_config(fx, kind), kind)
    }

    /// Builds the target of `kind` from its (per-shard) configuration.
    pub fn from_config(cfg: ServeConfig, kind: Kind) -> Result<Target, String> {
        match kind {
            Kind::Cluster => Target::cluster_of(cfg, |w| Box::new(w)),
            _ => Server::new(cfg).map(Target::Solo),
        }
    }

    /// A router over `SHARDS` servers configured for `shard_kind`, each
    /// transport produced by `wrap` (the traced run times RPCs with it).
    pub fn cluster(
        fx: &ServeFixture,
        shard_kind: Kind,
        wrap: impl Fn(InProcWorker) -> Box<dyn ShardWorker>,
    ) -> Result<Target, String> {
        Target::cluster_of(serve_config(fx, shard_kind), wrap)
    }

    fn cluster_of(
        cfg: ServeConfig,
        wrap: impl Fn(InProcWorker) -> Box<dyn ShardWorker>,
    ) -> Result<Target, String> {
        let workers = (0..SHARDS)
            .map(|_| Server::new(cfg.clone()).map(|s| wrap(InProcWorker::new(s))))
            .collect::<Result<Vec<_>, _>>()?;
        let rcfg = RouterConfig { shards: SHARDS, ..RouterConfig::new(cfg) };
        Router::new(rcfg, workers).map(Target::Cluster)
    }

    /// Synchronous `handle_line`.
    pub fn handle(&mut self, line: &str) -> String {
        match self {
            Target::Solo(s) => s.handle_line(line).response,
            Target::Cluster(r) => r.handle_line(line).response,
        }
    }

    /// Runs the serve loop (or router loop) to the end of `reader`.
    pub fn serve(
        &mut self,
        reader: BufReader<PipeReader>,
        writer: Box<dyn Write + Send>,
    ) -> ServeSummary {
        match self {
            Target::Solo(s) => serve_loop(s, reader, writer),
            Target::Cluster(r) => router_loop(r, reader, writer),
        }
    }
}

/// Answers a few requests past any the run sends on a throwaway target,
/// so the measurement does not pay first-touch costs (page faults,
/// allocator growth).
pub fn warm_up(plan: &Plan, kind: Kind) -> Result<(), String> {
    let mut warm = Target::build(plan.fx, kind)?;
    for i in 0..3 {
        warm.handle(&plan.line(usize::MAX / 2 + i));
    }
    Ok(())
}

/// Runs the open-loop plan through `target`'s serve loop.
pub fn stream(plan: &Plan, target: &mut Target) -> StreamOut {
    load::run_stream(
        &plan.due,
        |i, buf| plan.write_line(i, buf),
        Box::new(|r, w| target.serve(r, w)),
    )
}

/// Output check: every kept forecast must equal, with annotations
/// stripped, a synchronous `Server::handle_line` replay of the same
/// request (for the cluster: a solo server's answer). Returns
/// `(checked, mismatches)`.
pub fn verify<'r>(
    plan: &Plan,
    kept: impl Iterator<Item = &'r Resp>,
) -> Result<(usize, usize), String> {
    let solo_kind = if plan.kind == Kind::Cluster { Kind::Distinct } else { plan.kind };
    let mut solo = Target::build(plan.fx, solo_kind)?;
    let (mut checked, mut mismatches) = (0, 0);
    for r in kept {
        let (Some(i), Some(got)) = (r.idx, r.line.as_deref()) else { continue };
        if !r.forecast {
            continue;
        }
        let want = solo.handle(&plan.line(i));
        checked += 1;
        if proto::strip_cluster_meta(got) != proto::strip_cluster_meta(&want) {
            mismatches += 1;
            eprintln!("output mismatch on request r{i}");
        }
    }
    Ok((checked, mismatches))
}

/// Quality of the workload's served forecasts over a fixed evaluation
/// set: `QUALITY_N` evenly spaced test windows at all nodes and the full
/// horizon, each with a fixed seed (a fixed tick for the cached shape),
/// answered synchronously by a fresh target of the workload's kind. The
/// output check has already tied the measured responses' bytes to this
/// synchronous path, so these scores are the served intervals' scores.
pub fn quality_pass(fx: &ServeFixture, kind: Kind) -> Result<Scores, String> {
    let mut target = Target::build(fx, kind)?;
    let mut q = Quality::new(fx.ds.horizon());
    let n = fx.test_starts.len();
    for j in 0..QUALITY_N {
        let w = j * n / QUALITY_N;
        let key = if kind == Kind::Cached { "tick" } else { "seed" };
        let line =
            format!("{{\"type\":\"forecast\",\"{key}\":{j},\"mc\":{MC},\"x\":{}}}", fx.x_json[w]);
        let resp = target.handle(&line);
        let Ok(WorkerResp::Forecast { iv, .. }) = proto::parse_worker_resp(&resp) else {
            return Err(format!("quality request {j} was not answered with a forecast"));
        };
        for node in 0..iv.mu.shape()[0] {
            for h in 0..iv.mu.shape()[1] {
                let truth = fx.truth(fx.test_starts[w], h, node);
                q.add(h, iv.mu.get(node, h), iv.sigma.get(node, h), truth);
            }
        }
    }
    Ok(q.scores())
}

/// Outcome of an open-loop stream.
pub struct Steady {
    /// Generator lateness of every request, ms.
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Generator lateness and failures of an open-loop stream.
pub fn steady_outcome(plan: &Plan, out: &StreamOut) -> Steady {
    let mut answered = vec![None; plan.len()];
    for r in &out.responses {
        if let Some(i) = r.idx.filter(|&i| i < plan.len()) {
            answered[i] = Some(r);
        }
    }
    let mut st = Steady { lag_ms: Vec::new(), attempted: 0, failed: 0 };
    for (i, due) in plan.due.iter().enumerate() {
        st.attempted += 1;
        st.lag_ms.push((out.sent[i] - due) * 1e3);
        if !answered[i].is_some_and(|r| r.forecast) {
            st.failed += 1;
        }
    }
    st
}

/// What the serve-loop rounds of a run measured.
struct Measured {
    /// Process CPU per request of every group of rounds after the first
    /// round, ms at nominal host speed, and as measured.
    cpu_ms: Vec<f64>,
    cpu_raw_ms: Vec<f64>,
    /// Latency of every answered request from its round's send time, ms at
    /// nominal host speed, and as measured.
    lat_ms: Vec<f64>,
    lat_raw_ms: Vec<f64>,
    /// Thread CPU seconds of every target construction timed on the
    /// serving thread, at nominal host speed, and as measured.
    setup_s: Vec<f64>,
    setup_raw_s: Vec<f64>,
    attempted: u64,
    /// Requests answered with anything but a forecast, or not at all.
    failed: u64,
    /// Every response; full lines only for the kept requests.
    responses: Vec<Resp>,
}

/// Rounds of `spec.round` requests through the serve loop (router loop)
/// for `seconds`. After each round's last answer the serving thread times
/// the host reference between two readings of the process CPU clock; the
/// CPU between consecutive marks, less the references' (and the
/// constructions'), is the rounds' cost, and the references around it give
/// its host speed. Every `spec.setup_every` rounds the serving thread also
/// builds and drops a target right after its reference: set-up is timed
/// throughout the run, against a reference taken in the same thread and
/// heap state, because construction cost swings with the host in spells
/// shorter than a run.
fn measure(spec: &Spec, plan: &Plan, target: &mut Target, seconds: f64) -> Measured {
    let (cfg, kind) = (serve_config(plan.fx, spec.kind), spec.kind);
    let setup: load::SideWork = Box::new(move || {
        let c0 = thread_cpu_s();
        let built = Target::from_config(cfg.clone(), kind);
        let cpu = thread_cpu_s() - c0;
        if built.is_ok() {
            cpu
        } else {
            f64::NAN
        }
    });
    let out = load::run_rounds(
        spec.round,
        seconds,
        spec.keep_every,
        (setup, spec.setup_every),
        |i, buf| plan.write_line(i, buf),
        Box::new(|r, w| target.serve(r, w)),
    );
    let n = out.sent.len();
    let ok = out.responses.iter().filter(|r| r.forecast && r.idx.is_some_and(|i| i < n)).count();
    let marks: Vec<load::Mark> = out.responses.iter().filter_map(|r| r.mark).collect();
    let mut m = Measured {
        cpu_ms: Vec::new(),
        cpu_raw_ms: Vec::new(),
        lat_ms: Vec::new(),
        lat_raw_ms: Vec::new(),
        setup_s: Vec::new(),
        setup_raw_s: Vec::new(),
        attempted: n as u64,
        failed: n.saturating_sub(ok) as u64,
        responses: Vec::new(),
    };
    let g = spec.group;
    for k in (0..marks.len().saturating_sub(g)).step_by(g) {
        let span = &marks[k..=k + g];
        let refs: f64 = span[1..g].iter().map(|m| m.cpu_after - m.cpu_before).sum();
        let cpu = span[g].cpu_before - span[0].cpu_after - refs;
        let ms = cpu * 1e3 / (g * spec.round) as f64;
        let r = span.iter().map(|m| m.ref_cpu_s).sum::<f64>() / span.len() as f64;
        m.cpu_raw_ms.push(ms);
        m.cpu_ms.push(HostRef::nominal(ms, r));
    }
    for mk in &marks {
        if let Some(s) = mk.side_cpu_s {
            m.setup_raw_s.push(s);
            m.setup_s.push(HostRef::nominal(s, mk.ref_cpu_s));
        }
    }
    // Round j runs between the marks set after rounds j - 1 and j.
    for r in out.responses.iter().filter(|r| r.forecast) {
        let Some(j) = r.idx.filter(|&i| i < n) else { continue };
        let round = j / spec.round;
        let (Some(after), Some(before)) = (marks.get(round), marks.get(round.wrapping_sub(1)))
        else {
            continue;
        };
        let ms = (r.at - out.sent[j]) * 1e3;
        m.lat_raw_ms.push(ms);
        m.lat_ms.push(HostRef::nominal(ms, (before.ref_wall_s + after.ref_wall_s) / 2.0));
    }
    m.responses = out.responses;
    m
}

/// Runs one untraced serving workload.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let fx = ServeFixture::build(kind_tag(spec.kind), None)?;
    let plan = Plan::new(spec.kind, &fx, seed);
    warm_up(&plan, spec.kind)?;
    let mut target = Target::build(&fx, spec.kind)?;
    let m = measure(spec, &plan, &mut target, seconds);
    drop(target);
    if m.setup_s.is_empty() || m.setup_s.iter().any(|s| s.is_nan()) {
        return Err("a target construction during the run failed".into());
    }

    let (checked, mismatches) = verify(&plan, m.responses.iter().filter(|r| r.line.is_some()))?;
    let q = quality_pass(&fx, spec.kind)?;
    let forecasts: Vec<&Resp> = m.responses.iter().filter(|r| r.forecast).collect();
    let hits = forecasts.iter().filter(|r| r.cache_hit).count();
    let nodes: usize = (0..m.attempted as usize)
        .step_by(7)
        .map(|i| plan.req(i).nodes.map_or(fx.ds.n_nodes(), |n| n.len()))
        .sum::<usize>();
    let sampled = (m.attempted as usize).div_ceil(7).max(1);

    let failed = m.failed + mismatches as u64;
    let mut rep = Report::new(m.attempted, failed, failed == 0 && checked > 0);
    rep.note(format!(
        "{} requests in rounds of {} over {seconds:.1} s, {} failed; {} pool threads; \
         {checked} responses replayed, {mismatches} mismatched; cache hits {:.1}% of \
         forecasts; {:.1} nodes/request; PICP {:.2}%",
        m.attempted,
        spec.round,
        m.failed,
        stuq_parallel::num_threads(),
        100.0 * hits as f64 / forecasts.len().max(1) as f64,
        nodes as f64 / sampled as f64,
        q.picp,
    ));
    rep.note(format!(
        "as measured: cpu/request p50 {:.4} ms, latency p50 {:.4} p95 {:.4} ms, setup p50 {:.6} s; \
         at nominal host speed: latency p50 {:.4} p95 {:.4} ms (n={})",
        median(&m.cpu_raw_ms),
        median(&m.lat_raw_ms),
        percentile(&m.lat_raw_ms, 0.95),
        median(&m.setup_raw_s),
        median(&m.lat_ms),
        percentile(&m.lat_ms, 0.95),
        m.lat_ms.len(),
    ));
    rep.metric("setup_s", median(&m.setup_s), "s", m.setup_s.len());
    rep.metric("cpu_ms_per_op", median(&m.cpu_ms), "ms", m.cpu_ms.len());
    rep.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB", 1);
    rep.quality(&q, QUALITY_N);
    Ok(rep)
}

/// Short name used for scratch directories.
pub fn kind_tag(kind: Kind) -> &'static str {
    match kind {
        Kind::Distinct => "distinct",
        Kind::Cached => "cached",
        Kind::Cluster => "cluster",
    }
}
