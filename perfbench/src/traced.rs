//! The traced run: the benchmark's own code times each call into a layer's
//! public functions and reports per-layer metrics as a tree — every parent
//! row carries its children's sum and the unexplained residual, and a
//! residual above 10 % of its parent is flagged. The program itself records
//! no extra spans.
//!
//! Every traced run walks every layer on the workload's own fixture, so all
//! workloads report the same per-layer metrics:
//! 1. an untraced open-loop stream (serving layer queueing, batching,
//!    cache and byte counts; generator lag);
//! 2. a synchronous replay of the stream's first requests, once plain and
//!    once with each layer call timed (parse, handle, render, MC) — the
//!    difference is the tracing overhead;
//! 3. MC forward passes over a few windows rebuilt from `Agcrn`'s public
//!    parts (support, cell bind, cell steps, head) and checked bit-for-bit
//!    against `Agcrn::forward`;
//! 4. the router over two timed shards against a solo server;
//! 5. `train_fit`'s fit rebuilt from the public stage functions with every
//!    batch's forward, loss, backward and Adam step timed; on `train_fit`
//!    itself it is also checked bit-for-bit against `DeepStuq::fit`;
//! 6. the two tensor kernels at their AGCRN shapes, and the compute pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use deepstuq::awa::AwaState;
use deepstuq::calibrate::calibrate_on_validation;
use deepstuq::trainer::{loss_node, LossKind};
use deepstuq::{
    DeepStuq, DeepStuqConfig, GaussianForecast, GuardConfig, GuardState, UnlimitedBudget,
};
use stuq_models::{Agcrn, AgcrnConfig, Forecaster, Head, Prediction};
use stuq_nn::layers::{AgcrnCell, FwdCtx};
use stuq_nn::opt::{Adam, Optimizer};
use stuq_nn::ParamSet;
use stuq_serve::proto::{self, ForecastMeta, Request, WorkerResp};
use stuq_serve::router::{InProcWorker, ShardWorker, SupEvent, WorkerState};
use stuq_tensor::{kernels, GradStore, StuqRng, Tape, Tensor};
use stuq_traffic::{BatchIter, Split, SplitDataset};

use crate::fixture::{self, ServeFixture, MC};
use crate::serving::{self, Kind, Plan, Spec, Target};
use crate::stats::{mean, percentile, process_cpu_s};
use crate::train;
use crate::Report;

/// Share of `--seconds` spent on the untraced steady-phase stream.
const STREAM_SHARE: f64 = 0.35;
/// Requests replayed through the timed serving layer calls.
const SERVE_WALK_N: usize = 16;
/// Requests sent through the timed router and a solo server.
const ROUTER_WALK_N: usize = 8;
/// Windows whose MC forwards are rebuilt from the model's parts.
const FORWARD_WALK_N: usize = 6;
/// A residual above this share of its parent is flagged.
const RESIDUAL_FLAG: f64 = 0.10;
/// A run whose generator sent its p99 request later than this is invalid:
/// its latencies would not describe the schedule. Latency counts from the
/// due time either way; the bound sits above the wake-up delays a busy
/// shared host adds (10–25 ms observed).
const GEN_LAG_LIMIT_MS: f64 = 50.0;

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// One parent row of the layer tree.
struct TreeRow {
    parent: &'static str,
    value: f64,
    unit: &'static str,
    n: usize,
    children: Vec<(String, f64)>,
}

impl TreeRow {
    fn residual(&self) -> f64 {
        self.value - self.children.iter().map(|(_, v)| v).sum::<f64>()
    }

    fn residual_frac(&self) -> f64 {
        self.residual() / self.value
    }

    fn render(&self) -> String {
        let sum: f64 = self.children.iter().map(|(_, v)| v).sum();
        let kids: Vec<String> = self.children.iter().map(|(k, v)| format!("{k} {v:.3}")).collect();
        let flag = if self.residual_frac().abs() > RESIDUAL_FLAG { "  RESIDUAL>10%" } else { "" };
        format!(
            "tree {} = {:.3} {} (n={}) | children {sum:.3} [{}] | residual {:.3} ({:+.1}%){flag}",
            self.parent,
            self.value,
            self.unit,
            self.n,
            kids.join(" + "),
            self.residual(),
            100.0 * self.residual_frac(),
        )
    }
}

/// Runs the traced variant of a workload. `spec` is the serving workload,
/// or `None` for `train_fit`, whose serving walk uses `distinct` (the
/// `serve_distinct` shape). The serving walk always serves the fresh
/// 43-sensor fixture model: the training dataset is smaller.
pub fn run(spec: Option<Spec>, distinct: Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut rep = Report::new(0, 0, true);
    let mut checks_failed = 0u64;

    // Training first: on train_fit its fit is the workload.
    let check_fit = spec.is_none();
    let train_ds = fixture::dataset(train::TRAIN_DATA.0, train::TRAIN_DATA.1);
    let tw = train_walk(&train_ds, &train::fit_config(&train_ds), seed, check_fit)?;
    checks_failed += u64::from(!tw.bits_ok);
    let epoch_tree = tw.epoch_tree();

    let (kind, stream_spec) = match spec {
        Some(s) => (s.kind, s),
        None => (Kind::Distinct, distinct),
    };
    let fx = ServeFixture::build(&format!("{}-traced", serving::kind_tag(kind)), None)?;
    let shard_kind = if kind == Kind::Cluster { Kind::Distinct } else { kind };

    // 1. Untraced open-loop stream.
    let plan = Plan::scheduled(kind, &fx, seed, stream_spec.stream_rps, seconds * STREAM_SHARE);
    serving::warm_up(&plan, kind)?;
    let mut target = Target::build(&fx, kind)?;
    let out = serving::stream(&plan, &mut target);
    drop(target);
    let st = serving::steady_outcome(&plan, &out);
    let lag_p99 = percentile(&st.lag_ms, 0.99);
    if lag_p99 > GEN_LAG_LIMIT_MS {
        return Err(format!(
            "invalid run: generator lag p99 {lag_p99:.2} ms exceeds {GEN_LAG_LIMIT_MS} ms"
        ));
    }
    let (wait_ms, service_ms) = fifo_split(&plan, &out);
    let forecasts: Vec<&crate::load::Resp> = out.responses.iter().filter(|r| r.forecast).collect();
    let nf = forecasts.len().max(1) as f64;
    let batch_max = serving::serve_config(&fx, shard_kind).batch_max as f64;

    // 2. Serving layer walk.
    let sw = serve_walk(shard_kind, &plan)?;
    checks_failed += sw.mismatches;
    let mc_per_handle = sw.mc_us.iter().sum::<f64>() / sw.handle_us.len() as f64;
    let serve_tree = TreeRow {
        parent: "serve.handle_us",
        value: mean(&sw.handle_us),
        unit: "us",
        n: sw.handle_us.len(),
        children: vec![
            (format!("deepstuq.mc_forecast x{} runs", sw.mc_us.len()), mc_per_handle),
            ("serve.render_us".into(), mean(&sw.render_us)),
        ],
    };

    // 3. Forward walk.
    let fw = forward_walk(&fx)?;
    checks_failed += fw.mismatches;
    let n_layers = fx.model.model().config().n_layers as f64;
    let steps = fx.ds.t_h() as f64 * n_layers;
    let forward_tree = TreeRow {
        parent: "models.forward_ms",
        value: mean(&fw.forward_ms),
        unit: "ms",
        n: fw.forward_ms.len(),
        children: vec![
            ("models.support".into(), mean(&fw.parts.support_us) / 1e3),
            (format!("nn.cell_bind x{n_layers}"), mean(&fw.parts.bind_us) * n_layers / 1e3),
            (format!("nn.cell_step x{steps}"), mean(&fw.parts.step_us) * steps / 1e3),
        ],
    };
    let mc_tree = TreeRow {
        parent: "deepstuq.mc_forecast_ms",
        value: mean(&fw.mc_ms),
        unit: "ms",
        n: fw.mc_ms.len(),
        children: vec![(format!("models.forward x{MC}"), MC as f64 * mean(&fw.forward_ms))],
    };

    // 4. Router walk.
    let rw = router_walk(shard_kind, &plan)?;
    checks_failed += rw.mismatches;
    let router_tree = TreeRow {
        parent: "router.handle_ms",
        value: rw.handle_ms,
        unit: "ms",
        n: ROUTER_WALK_N,
        children: vec![(
            format!("router.rpc x{:.1}", rw.rpcs_per_req),
            rw.rpc_ms * rw.rpcs_per_req,
        )],
    };

    // 6. Kernels and the pool.
    let (matmul_gflops, rowwise_gflops) = kernel_walk(&fx);
    let (fanout_us, speedup_2t) = parallel_walk(&fx);

    for t in [&epoch_tree, &serve_tree, &mc_tree, &forward_tree, &router_tree] {
        rep.note(t.render());
    }
    rep.note(format!(
        "stream: {} requests at {:.0}/s, {} failed; replay walk {} requests, \
         {} probe check(s) failed; {} pool threads",
        st.attempted,
        stream_spec.stream_rps,
        st.failed,
        sw.handle_us.len(),
        checks_failed,
        stuq_parallel::num_threads(),
    ));
    rep.note(format!(
        "fit {}: untraced {:.3} s, rebuilt from stage calls {:.3} s, bytes {}",
        if check_fit { "(the workload's)" } else { "(train_fit's, as a probe)" },
        tw.untraced_s,
        tw.traced_s,
        if !check_fit {
            "not compared"
        } else if tw.bits_ok {
            "identical"
        } else {
            "DIFFER"
        },
    ));

    rep.attempted = st.attempted;
    rep.failed = st.failed + checks_failed;
    rep.correct = checks_failed == 0;
    let nw = wait_ms.len();
    rep.metric("serve.queue_wait_p50_ms", percentile(&wait_ms, 0.5), "ms", nw);
    rep.metric("serve.queue_wait_p95_ms", percentile(&wait_ms, 0.95), "ms", nw);
    rep.metric("serve.service_p50_ms", percentile(&service_ms, 0.5), "ms", nw);
    rep.metric("serve.service_p95_ms", percentile(&service_ms, 0.95), "ms", nw);
    rep.metric("serve.parse_us", mean(&sw.parse_us), "us", sw.parse_us.len());
    rep.metric("serve.handle_us", serve_tree.value, "us", serve_tree.n);
    rep.metric("serve.handle_residual_frac", serve_tree.residual_frac(), "frac", serve_tree.n);
    rep.metric("serve.render_us", mean(&sw.render_us), "us", sw.render_us.len());
    let hits = forecasts.iter().filter(|r| r.cache_hit).count() as f64;
    rep.metric("serve.cache_hit_ratio", hits / nf, "frac", forecasts.len());
    let occupancy = forecasts.iter().map(|r| r.batch_size as f64).sum::<f64>() / nf / batch_max;
    rep.metric("serve.batch_occupancy", occupancy, "frac", forecasts.len());
    let samples = out.summary.samples_used as f64 / out.summary.requests.max(1) as f64;
    rep.metric("serve.samples_per_req", samples, "count", out.summary.requests as usize);
    // Share of the stream's process CPU spent in MC forward passes.
    let cpu_ms_per_req = out.cpu_s * 1e3 / st.attempted.max(1) as f64;
    let mc_share = samples * forward_tree.value / cpu_ms_per_req;
    rep.metric("serve.mc_share", mc_share, "frac", st.attempted as usize);
    let req_bytes: usize = (0..plan.len()).map(|i| plan.line(i).len() + 1).sum();
    rep.metric("serve.req_bytes", req_bytes as f64 / plan.len() as f64, "B", plan.len());
    let resp_bytes = forecasts.iter().map(|r| r.bytes as f64).sum::<f64>() / nf;
    rep.metric("serve.resp_bytes", resp_bytes, "B", forecasts.len());
    rep.metric("deepstuq.mc_forecast_ms", mc_tree.value, "ms", mc_tree.n);
    rep.metric("deepstuq.mc_forecast_residual_frac", mc_tree.residual_frac(), "frac", mc_tree.n);
    rep.metric("deepstuq.epoch_ms", epoch_tree.value, "ms", epoch_tree.n);
    rep.metric("deepstuq.epoch_residual_frac", epoch_tree.residual_frac(), "frac", epoch_tree.n);
    rep.metric("deepstuq.awa_epoch_ms", mean(&tw.awa_ms), "ms", tw.awa_ms.len());
    rep.metric("deepstuq.calibrate_ms", tw.calibrate_ms, "ms", 1);
    rep.metric("deepstuq.loss_us", mean(&tw.loss_us), "us", tw.loss_us.len());
    rep.metric("models.forward_ms", forward_tree.value, "ms", forward_tree.n);
    rep.metric(
        "models.forward_residual_frac",
        forward_tree.residual_frac(),
        "frac",
        forward_tree.n,
    );
    rep.metric("models.support_us", mean(&fw.parts.support_us), "us", fw.parts.support_us.len());
    rep.metric("nn.cell_bind_us", mean(&fw.parts.bind_us), "us", fw.parts.bind_us.len());
    rep.metric("nn.cell_step_us", mean(&fw.parts.step_us), "us", fw.parts.step_us.len());
    rep.metric("models.train_forward_ms", mean(&tw.forward_ms), "ms", tw.forward_ms.len());
    rep.metric("models.tape_nodes", fw.tape_nodes as f64, "count", 1);
    rep.metric("models.tape_bytes", fw.tape_bytes as f64, "B", 1);
    rep.metric("nn.adam_step_ms", mean(&tw.adam_ms), "ms", tw.adam_ms.len());
    rep.metric("tensor.backward_ms", mean(&tw.backward_ms), "ms", tw.backward_ms.len());
    rep.metric("tensor.replay_hit_ratio", tw.replay_hit_ratio, "frac", tw.backward_ms.len());
    rep.metric("tensor.matmul_gflops", matmul_gflops, "GFLOP/s", 1);
    rep.metric("tensor.rowwise_gflops", rowwise_gflops, "GFLOP/s", 1);
    rep.metric("router.handle_ms", rw.handle_ms, "ms", ROUTER_WALK_N);
    rep.metric("router.rpc_ms", rw.rpc_ms, "ms", rw.rpcs);
    rep.metric("router.self_ms", router_tree.residual(), "ms", ROUTER_WALK_N);
    rep.metric("router.rpcs_per_req", rw.rpcs_per_req, "count", ROUTER_WALK_N);
    rep.metric("router.fanout_bytes", rw.fanout_bytes, "B", ROUTER_WALK_N);
    rep.metric("router.cpu_vs_solo", rw.cpu_vs_solo, "ratio", ROUTER_WALK_N);
    rep.metric("parallel.threads", stuq_parallel::num_threads() as f64, "count", 1);
    rep.metric("parallel.fanout_us", fanout_us, "us", PARALLEL_REPS);
    rep.metric("parallel.speedup_2t", speedup_2t, "ratio", PARALLEL_REPS);
    rep.metric("obs.trace_overhead_frac", sw.overhead_frac, "frac", sw.handle_us.len());
    rep.metric("bench.gen_lag_p99_ms", lag_p99, "ms", st.lag_ms.len());
    Ok(rep)
}

/// Queue wait and service time of every answered forecast, reconstructing
/// a FIFO worker from the stream's timestamps: a request starts at the
/// later of its due time and the previous completion.
fn fifo_split(plan: &Plan, out: &crate::load::StreamOut) -> (Vec<f64>, Vec<f64>) {
    let mut done: Vec<(f64, f64)> = out
        .responses
        .iter()
        .filter(|r| r.forecast)
        .filter_map(|r| r.idx.and_then(|i| plan.due.get(i)).map(|&due| (due, r.at)))
        .collect();
    done.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (mut wait, mut service) = (Vec::new(), Vec::new());
    let mut prev = f64::NEG_INFINITY;
    for (due, at) in done {
        let start = due.max(prev);
        wait.push((start - due) * 1e3);
        service.push((at - start) * 1e3);
        prev = at;
    }
    (wait, service)
}

#[derive(Default)]
struct ServeWalk {
    parse_us: Vec<f64>,
    handle_us: Vec<f64>,
    render_us: Vec<f64>,
    mc_us: Vec<f64>,
    overhead_frac: f64,
    mismatches: u64,
}

/// Replays the stream's first requests on two fresh servers: plainly
/// through `handle_line`, then as separately timed `parse_request` and
/// `handle_forecast_batch` calls. Each response is re-rendered with
/// `proto::resp_forecast` (timed, and checked byte-for-byte), and each
/// request the cache could not answer re-runs its MC forecast through
/// `mc_forecast_anytime` (timed, and checked against the response's μ).
fn serve_walk(kind: Kind, plan: &Plan) -> Result<ServeWalk, String> {
    let fx = plan.fixture();
    let n = SERVE_WALK_N.min(plan.len());
    let lines: Vec<String> = (0..n).map(|i| plan.line(i)).collect();
    let Target::Solo(mut plain) = Target::build(fx, kind)? else { unreachable!("solo kind") };
    let Target::Solo(mut server) = Target::build(fx, kind)? else { unreachable!("solo kind") };
    let mut w = ServeWalk::default();
    let scaler = *fx.ds.scaler();
    let cfg = serving::serve_config(fx, kind);
    // Each request goes to the plain server, then call by call to the
    // timed one, then through the re-render and MC re-run, back to back so
    // drift in the machine's speed lands on parent and children alike.
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for line in &lines {
        let t0 = Instant::now();
        let plain_resp = plain.handle_line(line).response;
        untraced_s += t0.elapsed().as_secs_f64();

        let t_all = Instant::now();
        let t0 = Instant::now();
        let parsed = proto::parse_request(line);
        w.parse_us.push(us(t0));
        let Ok(Request::Forecast(req)) = parsed else {
            return Err("walk request did not parse as a forecast".into());
        };
        let t0 = Instant::now();
        let resp = server.handle_forecast_batch(std::slice::from_ref(&req)).pop();
        w.handle_us.push(us(t0));
        traced_s += t_all.elapsed().as_secs_f64();
        let resp = resp.ok_or("handle_forecast_batch returned nothing")?;

        if resp != plain_resp {
            w.mismatches += 1;
            eprintln!("timed replay answered differently from handle_line");
        }
        let Ok(WorkerResp::Forecast { samples_used, samples_requested, model, iv }) =
            proto::parse_worker_resp(&resp)
        else {
            return Err("walk request was not answered with a forecast".into());
        };
        let meta = ForecastMeta {
            batched: resp.contains("\"batched\":true"),
            batch_size: 1,
            cache_hit: resp.contains("\"cache_hit\":true"),
        };
        let ivs =
            proto::Intervals { mu: &iv.mu, sigma: &iv.sigma, lower: &iv.lower, upper: &iv.upper };
        let t0 = Instant::now();
        let rendered =
            proto::resp_forecast(&req.id, samples_used, samples_requested, &model, &meta, &ivs);
        w.render_us.push(us(t0));
        if rendered != resp {
            w.mismatches += 1;
            eprintln!("re-rendered response differs from the served one");
        }
        if meta.cache_hit {
            continue;
        }
        let n_req = req.mc.unwrap_or(MC);
        let mut rng = match (req.seed, req.tick) {
            (Some(s), _) => StuqRng::new(s),
            (None, Some(t)) => StuqRng::new(cfg.seed).fork(t),
            (None, None) => return Err("walk requests carry a seed or a tick".into()),
        };
        let flat: Vec<f32> = req.x.iter().flatten().map(|&v| scaler.transform(v)).collect();
        let xn = Tensor::from_vec(flat, &[req.x.len(), req.x[0].len()]);
        let mut observe = |_: &GaussianForecast| {};
        let t0 = Instant::now();
        let any = deepstuq::mc_forecast_anytime(
            fx.model.model(),
            &xn,
            None,
            n_req,
            cfg.floor.clamp(2, n_req),
            &mut UnlimitedBudget,
            &mut rng,
            Some(&mut observe),
        );
        w.mc_us.push(us(t0));
        if req.nodes.is_none() && req.horizon.is_none() {
            let mu = any.forecast.mu.map(|v| scaler.inverse(v));
            if mu.data().iter().zip(iv.mu.data()).any(|(a, b)| a.to_bits() != b.to_bits()) {
                w.mismatches += 1;
                eprintln!("re-run MC forecast differs from the served μ");
            }
        }
    }
    w.overhead_frac = traced_s / untraced_s - 1.0;
    Ok(w)
}

/// `Agcrn`'s layer stack rebuilt from its public parts, so each part of a
/// forward pass can be timed. Replaying `Agcrn::new`'s parameter
/// registration gives identical slot indices; values are read from the
/// real model's parameter set.
struct Mirror {
    cells: Vec<AgcrnCell>,
    head: Head,
    hidden: usize,
}

#[derive(Default)]
struct ForwardTimes {
    support_us: Vec<f64>,
    bind_us: Vec<f64>,
    step_us: Vec<f64>,
}

impl Mirror {
    fn new(model: &Agcrn) -> Result<Mirror, String> {
        let cfg: &AgcrnConfig = model.config();
        if cfg.n_covariates != 0 {
            return Err("the forward walk covers covariate-free models".into());
        }
        let mut ps = ParamSet::new();
        let mut rng = StuqRng::new(0);
        ps.add("agcrn.embedding", Tensor::zeros(&[cfg.n_nodes, cfg.embed_dim]));
        let cells = (0..cfg.n_layers)
            .map(|l| {
                let in_dim = if l == 0 { 1 } else { cfg.hidden };
                let name = format!("agcrn.cell{l}");
                AgcrnCell::new(
                    &mut ps,
                    &name,
                    in_dim,
                    cfg.hidden,
                    cfg.embed_dim,
                    cfg.encoder_dropout,
                    &mut rng,
                )
            })
            .collect();
        let head = Head::new(
            &mut ps,
            "agcrn.head",
            cfg.head,
            cfg.hidden,
            cfg.horizon,
            cfg.decoder_dropout,
            &mut rng,
        );
        let real = model.params();
        if ps.len() != real.len() || (0..ps.len()).any(|i| ps.name(i) != real.name(i)) {
            return Err("Agcrn's parameter layout changed; the forward walk needs updating".into());
        }
        Ok(Mirror { cells, head, hidden: cfg.hidden })
    }

    /// `Agcrn::forward_with_cov` without covariates, each part timed.
    fn forward(
        &self,
        model: &Agcrn,
        tape: &mut Tape,
        x: &Tensor,
        ctx: &mut FwdCtx<'_>,
        t: &mut ForwardTimes,
    ) -> Prediction {
        let ps = model.params();
        let e = tape.param(0, ps.get(0).clone());
        let t0 = Instant::now();
        let support = model.support(tape, e);
        t.support_us.push(us(t0));
        let bound: Vec<_> = self
            .cells
            .iter()
            .map(|cell| {
                let t0 = Instant::now();
                let b = cell.bind(tape, ps, e, support);
                t.bind_us.push(us(t0));
                b
            })
            .collect();
        let n = x.cols();
        let mut hidden: Vec<_> = (0..self.cells.len())
            .map(|_| tape.constant(Tensor::zeros(&[n, self.hidden])))
            .collect();
        for step in 0..x.rows() {
            let mut input = tape.constant(x.row(step).transpose());
            for (l, cell) in bound.iter().enumerate() {
                let t0 = Instant::now();
                hidden[l] = cell.step(tape, ctx, input, hidden[l]);
                t.step_us.push(us(t0));
                input = hidden[l];
            }
        }
        let last = *hidden.last().expect("at least one layer");
        self.head.forward(tape, ps, ctx, last)
    }
}

#[derive(Default)]
struct ForwardWalk {
    forward_ms: Vec<f64>,
    parts: ForwardTimes,
    mc_ms: Vec<f64>,
    tape_nodes: usize,
    tape_bytes: usize,
    mismatches: u64,
}

/// MC-sample forward passes over a few test windows, each run twice on the
/// same stream: whole through `Agcrn::forward`, then part by part through
/// the mirror (outputs must match bit-for-bit). Also times whole
/// `mc_forecast_anytime` calls at `MC` samples, the serving path's call.
fn forward_walk(fx: &ServeFixture) -> Result<ForwardWalk, String> {
    let model = fx.model.model();
    let mirror = Mirror::new(model)?;
    let mut w = ForwardWalk::default();
    let n_win = fx.test_starts.len();
    for k in 0..FORWARD_WALK_N {
        let x = fx.ds.window(fx.test_starts[k * n_win / FORWARD_WALK_N]).x;
        let mut rng = StuqRng::new(k as u64);
        for j in 0..MC {
            let stream = rng.fork(j as u64);
            let mut r = stream.clone();
            let mut tape = Tape::new();
            let mut ctx = FwdCtx::mc_sample(&mut r);
            let t0 = Instant::now();
            let whole = model.forward(&mut tape, &x, &mut ctx);
            w.forward_ms.push(us(t0) / 1e3);
            w.tape_nodes = tape.len();
            w.tape_bytes = (0..tape.len()).map(|i| tape.value(i).len() * 4).sum();
            let want = tape.value(whole.point()).clone();
            // Freed before the rebuilt pass, so both reuse warm memory.
            drop(tape);

            let mut r = stream.clone();
            let mut tape = Tape::new();
            let mut ctx = FwdCtx::mc_sample(&mut r);
            let got = mirror.forward(model, &mut tape, &x, &mut ctx, &mut w.parts);
            let got = tape.value(got.point());
            if got.data().iter().zip(want.data()).any(|(a, b)| a.to_bits() != b.to_bits()) {
                w.mismatches += 1;
                eprintln!("forward rebuilt from parts differs from Agcrn::forward");
            }
        }
        let t0 = Instant::now();
        let f = deepstuq::mc_forecast_anytime(
            model,
            &x,
            None,
            MC,
            2,
            &mut UnlimitedBudget,
            &mut rng,
            None,
        );
        w.mc_ms.push(us(t0) / 1e3);
        std::hint::black_box(f);
    }
    Ok(w)
}

/// A shard transport that times each RPC around an in-process worker.
struct TimedWorker {
    inner: InProcWorker,
    stats: Arc<RpcStats>,
}

#[derive(Default)]
struct RpcStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

impl ShardWorker for TimedWorker {
    fn call(&mut self, line: &str, timeout_ms: u64) -> Result<String, String> {
        let t0 = Instant::now();
        let r = self.inner.call(line, timeout_ms);
        self.stats.nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        r
    }

    fn state(&self) -> WorkerState {
        self.inner.state()
    }

    fn fail(&mut self, reason: &str) {
        self.inner.fail(reason);
    }

    fn tick(&mut self) -> Vec<SupEvent> {
        self.inner.tick()
    }
}

struct RouterWalk {
    handle_ms: f64,
    rpc_ms: f64,
    rpcs: usize,
    rpcs_per_req: f64,
    fanout_bytes: f64,
    cpu_vs_solo: f64,
    mismatches: u64,
}

/// Sends the stream's first requests through `Router::handle_line` over
/// two timed shards and through a solo server: RPC time and count, bytes
/// fanned out, and process CPU per request relative to the solo server.
/// Merged responses must equal the solo ones with annotations stripped.
fn router_walk(shard_kind: Kind, plan: &Plan) -> Result<RouterWalk, String> {
    let fx = plan.fixture();
    let n = ROUTER_WALK_N.min(plan.len());
    let lines: Vec<String> = (0..n).map(|i| plan.line(i)).collect();
    let stats = Arc::new(RpcStats::default());
    let Target::Cluster(mut router) = Target::cluster(fx, shard_kind, |inner| {
        Box::new(TimedWorker { inner, stats: Arc::clone(&stats) }) as Box<dyn ShardWorker>
    })?
    else {
        unreachable!("cluster target")
    };
    let mut solo = Target::build(fx, shard_kind)?;
    // Shard assignment RPCs during construction are not request traffic.
    stats.calls.store(0, Ordering::Relaxed);
    stats.nanos.store(0, Ordering::Relaxed);
    stats.bytes.store(0, Ordering::Relaxed);

    let (c0, t0) = (process_cpu_s(), Instant::now());
    let merged: Vec<String> = lines.iter().map(|l| router.handle_line(l).response).collect();
    let (cluster_cpu, handle_s) = (process_cpu_s() - c0, t0.elapsed().as_secs_f64());
    let c0 = process_cpu_s();
    let single: Vec<String> = lines.iter().map(|l| solo.handle(l)).collect();
    let solo_cpu = process_cpu_s() - c0;
    let mismatches = merged
        .iter()
        .zip(&single)
        .filter(|(a, b)| proto::strip_cluster_meta(a) != proto::strip_cluster_meta(b))
        .count() as u64;
    if mismatches > 0 {
        eprintln!("{mismatches} router response(s) differ from the solo server's");
    }
    let calls = stats.calls.load(Ordering::Relaxed) as usize;
    Ok(RouterWalk {
        handle_ms: handle_s * 1e3 / n as f64,
        rpc_ms: stats.nanos.load(Ordering::Relaxed) as f64 / 1e6 / calls.max(1) as f64,
        rpcs: calls,
        rpcs_per_req: calls as f64 / n as f64,
        fanout_bytes: stats.bytes.load(Ordering::Relaxed) as f64 / n as f64,
        cpu_vs_solo: cluster_cpu / solo_cpu.max(1e-9),
        mismatches,
    })
}

struct TrainWalk {
    model: DeepStuq,
    bits_ok: bool,
    untraced_s: f64,
    traced_s: f64,
    epoch_ms: Vec<f64>,
    forward_ms: Vec<f64>,
    loss_us: Vec<f64>,
    backward_ms: Vec<f64>,
    adam_ms: Vec<f64>,
    awa_ms: Vec<f64>,
    calibrate_ms: f64,
    replay_hit_ratio: f64,
}

impl TrainWalk {
    fn epoch_tree(&self) -> TreeRow {
        let per_epoch = |xs: &[f64]| xs.iter().sum::<f64>() / self.epoch_ms.len() as f64;
        TreeRow {
            parent: "deepstuq.epoch_ms",
            value: mean(&self.epoch_ms),
            unit: "ms",
            n: self.epoch_ms.len(),
            children: vec![
                ("models.train_forward".into(), per_epoch(&self.forward_ms)),
                ("deepstuq.loss".into(), per_epoch(&self.loss_us) / 1e3),
                ("tensor.backward".into(), per_epoch(&self.backward_ms)),
                ("nn.adam_step".into(), per_epoch(&self.adam_ms)),
            ],
        }
    }
}

/// `DeepStuq::fit` rebuilt from the public stage calls: pre-training
/// epochs replayed batch by batch (forward, loss, backward, Adam timed),
/// AWA epochs through `AwaState::run_epoch`, then
/// `calibrate_on_validation`. With `check`, `DeepStuq::fit` also runs
/// untraced and the two models must be bit-identical.
fn train_walk(
    ds: &SplitDataset,
    cfg: &DeepStuqConfig,
    seed: u64,
    check: bool,
) -> Result<TrainWalk, String> {
    let t0 = Instant::now();
    let reference = if check { Some(train::fit(ds, cfg, seed)?) } else { None };
    let untraced_s = t0.elapsed().as_secs_f64();

    let (hits0, compiles0) = stuq_tensor::replay_stats();
    let t_fit = Instant::now();
    let kind = LossKind::Combined { lambda: cfg.train.lambda };
    let guard = GuardConfig::default();
    let mut gstate = GuardState::default();
    let mut rng = StuqRng::new(seed);
    let mut model = Agcrn::new(cfg.base.clone(), &mut rng);
    let mut opt = Adam::new(cfg.train.lr, cfg.train.weight_decay);
    let mut w = TrainWalk {
        model: DeepStuq::from_parts(model.clone(), 1.0, cfg.mc_samples),
        bits_ok: true,
        untraced_s,
        traced_s: 0.0,
        epoch_ms: Vec::new(),
        forward_ms: Vec::new(),
        loss_us: Vec::new(),
        backward_ms: Vec::new(),
        adam_ms: Vec::new(),
        awa_ms: Vec::new(),
        calibrate_ms: 0.0,
        replay_hit_ratio: 0.0,
    };
    for _ in 0..cfg.train.epochs {
        let t0 = Instant::now();
        pretrain_epoch(&mut model, ds, cfg, kind, &mut opt, &mut rng, &guard, &mut w)?;
        w.epoch_ms.push(us(t0) / 1e3);
    }
    if let Some(awa_cfg) = &cfg.awa {
        let mut st = AwaState::new(awa_cfg, cfg.train.weight_decay).map_err(|e| e.to_string())?;
        while st.epochs_done() < awa_cfg.epochs {
            let t0 = Instant::now();
            st.run_epoch(&mut model, ds, awa_cfg, kind, &mut rng, &guard, &mut gstate)
                .map_err(|e| e.to_string())?;
            w.awa_ms.push(us(t0) / 1e3);
        }
        st.finish(&mut model);
    }
    let temperature = match &cfg.calib {
        Some(c) => {
            let t0 = Instant::now();
            let t = calibrate_on_validation(&model, ds, c, &mut rng).map_err(|e| e.to_string())?;
            w.calibrate_ms = us(t0) / 1e3;
            t
        }
        None => 1.0,
    };
    w.traced_s = t_fit.elapsed().as_secs_f64();
    let (hits, compiles) = stuq_tensor::replay_stats();
    let (hits, compiles) = ((hits - hits0) as f64, (compiles - compiles0) as f64);
    w.replay_hit_ratio = hits / (hits + compiles).max(1.0);
    w.model = DeepStuq::from_parts(model, temperature, cfg.mc_samples);
    if let Some(r) = reference {
        w.bits_ok = train::model_bits(&r) == train::model_bits(&w.model);
        if !w.bits_ok {
            eprintln!("fit rebuilt from stage calls differs from DeepStuq::fit");
        }
    }
    Ok(w)
}

/// One pre-training epoch, replaying `train_epoch_guarded`'s healthy path
/// (shuffle, per-sample forward/loss/backward, mean, clip, Adam) with each
/// call timed. A batch the guard would reject ends the walk with an error:
/// the replay covers healthy training only.
#[allow(clippy::too_many_arguments)]
fn pretrain_epoch(
    model: &mut Agcrn,
    ds: &SplitDataset,
    cfg: &DeepStuqConfig,
    kind: LossKind,
    opt: &mut Adam,
    rng: &mut StuqRng,
    guard: &GuardConfig,
    w: &mut TrainWalk,
) -> Result<(), String> {
    let starts = ds.window_starts(Split::Train);
    let batches: Vec<Vec<usize>> = BatchIter::new(starts, cfg.train.batch_size, rng).collect();
    let lr = opt.lr();
    for batch in &batches {
        opt.set_lr(lr);
        let mut grads = GradStore::default();
        let mut batch_loss = 0.0f64;
        for &s in batch {
            let win = ds.window(s);
            let y_norm = ds.normalize_target(&win.y_raw).transpose();
            let mut tape = Tape::new();
            let mut ctx = FwdCtx::train(rng);
            let t0 = Instant::now();
            let pred = model.forward_with_cov(&mut tape, &win.x, win.cov.as_ref(), &mut ctx);
            w.forward_ms.push(us(t0) / 1e3);
            let target = tape.constant(y_norm);
            let t0 = Instant::now();
            let l = loss_node(&mut tape, &pred, target, kind).map_err(|e| e.to_string())?;
            w.loss_us.push(us(t0));
            batch_loss += tape.value(l).get(0, 0) as f64;
            let t0 = Instant::now();
            let g = tape.backward(l);
            w.backward_ms.push(us(t0) / 1e3);
            grads.merge(g);
        }
        grads.scale(1.0 / batch.len() as f32);
        let mean_loss = batch_loss / batch.len() as f64;
        let norm = grads.global_norm();
        if !(mean_loss.is_finite()
            && mean_loss.abs() <= guard.max_abs_loss
            && norm.is_finite()
            && norm <= guard.max_grad_norm)
        {
            return Err("a batch tripped the divergence guard; the traced replay covers healthy \
                        training only"
                .into());
        }
        if cfg.train.grad_clip > 0.0 {
            grads.clip_global_norm(cfg.train.grad_clip);
        }
        let t0 = Instant::now();
        opt.step(model.params_mut(), &grads);
        w.adam_ms.push(us(t0) / 1e3);
    }
    opt.set_lr(lr);
    Ok(())
}

/// Timed rounds of the pool probe.
const PARALLEL_REPS: usize = 200;

/// `stuq-parallel` on its own, beside the 1-thread global pool the runs
/// use: a 2-thread pool's fan-out and join cost for empty chunks, and its
/// speed-up on two equal chunks of support-shaped matmuls.
fn parallel_walk(fx: &ServeFixture) -> (f64, f64) {
    let pool = stuq_parallel::Pool::new(2);
    let cfg = fx.model.model().config();
    let (n, h) = (cfg.n_nodes, cfg.hidden);
    let mut rng = StuqRng::new(5);
    let a = Tensor::randn(&[n, n], 1.0, &mut rng);
    let b = Tensor::randn(&[n, 2 * h], 1.0, &mut rng);
    let chunk = |_: usize| {
        for _ in 0..20 {
            std::hint::black_box(kernels::matmul(a.data(), b.data(), n, n, 2 * h));
        }
    };
    let t0 = Instant::now();
    for _ in 0..PARALLEL_REPS {
        pool.run(2, &|_| {});
    }
    let fanout_us = us(t0) / PARALLEL_REPS as f64;
    let t0 = Instant::now();
    for _ in 0..PARALLEL_REPS {
        chunk(0);
        chunk(1);
    }
    let serial = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..PARALLEL_REPS {
        pool.run(2, &chunk);
    }
    (fanout_us, serial / t0.elapsed().as_secs_f64())
}

/// Achieved GFLOP/s of `kernels::matmul` at the support·[x, h] shape
/// (`N×N` by `N×2h`) and of `kernels::rowwise_matmul` at the NAPL shape
/// (`N` rows of `2h → h`), with FLOPs computed as `2·m·k·n`.
fn kernel_walk(fx: &ServeFixture) -> (f64, f64) {
    let cfg = fx.model.model().config();
    let (n, h) = (cfg.n_nodes, cfg.hidden);
    let mut rng = StuqRng::new(3);
    let a = Tensor::randn(&[n, n], 1.0, &mut rng);
    let b = Tensor::randn(&[n, 2 * h], 1.0, &mut rng);
    let wn = Tensor::randn(&[n, 2 * h * h], 1.0, &mut rng);
    let rate = |flops: f64, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        let mut reps = 0u64;
        while t0.elapsed().as_secs_f64() < 0.2 {
            f();
            reps += 1;
        }
        flops * reps as f64 / t0.elapsed().as_secs_f64() / 1e9
    };
    let matmul = rate(2.0 * (n * n * 2 * h) as f64, &mut || {
        std::hint::black_box(kernels::matmul(a.data(), b.data(), n, n, 2 * h));
    });
    let rowwise = rate(2.0 * (n * 2 * h * h) as f64, &mut || {
        std::hint::black_box(kernels::rowwise_matmul(b.data(), wn.data(), n, 2 * h, h));
    });
    (matmul, rowwise)
}
