//! Wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line in, one response line per request out. Every
//! response is typed by its `"type"` field — `forecast` (normal or
//! degraded), `rejected`, `fallback`, `error`, `health`, `ack` — so a
//! client can always dispatch on one closed enum, whatever state the
//! server is in. See README "Serving" for a transcript and DESIGN.md §11
//! for the contract.
//!
//! Matrices are nested arrays: request `x` is time-major `[t_h][n_nodes]`
//! (the same layout as a dataset window); response `mu`/`sigma`/`lower`/
//! `upper` are node-major `[n_nodes][horizon]`. Non-finite floats use the
//! `"NaN"`/`"inf"`/`"-inf"` marker strings, as in the event log.
//!
//! ## Cluster additions (DESIGN.md §13)
//!
//! The cluster speaks the *same* protocol to clients — a router answers
//! with exactly the responses a solo server would — plus a handful of
//! internal requests between the router and its workers:
//!
//! * `ping` (liveness) and the two-phase reload trio `prepare_reload` /
//!   `commit_reload` / `abort_reload`, each answered with an `ack`;
//! * `passes` ([`render_passes_req`]): the normalised input window, the
//!   requested sample count `n`, a sample range `lo..hi`, and the four
//!   state words of the router's per-request RNG, from which the worker
//!   rebuilds streams `lo..hi` of the router's fork. The worker answers
//!   with those passes' normalised `(μ_j, σ²_j)` and its `model` checksum
//!   ([`resp_passes`]), which the router compares with its own so a
//!   mixed-version window can never be reduced. Unlike every other
//!   matrix, these tensors travel as packed hex words beside explicit
//!   `"dims"` ([`stuq_artifact::text::push_words`]), bit-exact both ways;
//! * every `forecast` response carries `"model"`: the checksum of the
//!   artifact that produced it.
//!
//! ## Annotations: one trailing `"meta"` object
//!
//! Fields that say only *how* an answer was produced live in one object,
//! always the last member of the line, keys in the fixed order `batched`,
//! `batch_size`, `cache_hit` (forecasts only), then `trace`, `span` (when
//! traced): `…,"upper":[…],"meta":{"batched":false,…}}`. Untraced
//! fallback, rejected and error lines have none. Every byte-identity
//! contract (batched, cached, cluster, traced) is stated modulo this
//! object, which [`strip_meta`] removes. JSON escaping puts a `\` before
//! every `"` in a string, so no string can hold the `,"meta":{` it cuts at.
//!
//! ## Trace context (DESIGN.md §15)
//!
//! When tracing is on, forecast requests and `passes` RPCs may carry two
//! optional string fields, `"trace"` and `"span"` — each a 16-hex-digit id
//! ([`stuq_obs::trace::fmt_id`]). On a `passes` RPC `trace` is the
//! request's trace id and `span` the router's per-range shard span, which
//! becomes the parent of the worker's own spans. Responses from a tracing
//! server carry the same two ids in their `meta` object
//! ([`push_trace_meta`]) so a client can join its response to the
//! reconstructed timeline.
//!
//! Telemetry scrape requests: `{"type":"metrics"}` asks a worker for its
//! raw counters (answered `{"type":"metrics","counters":{…}}`);
//! `{"type":"cluster-metrics"}` asks a *router* for the cluster-merged
//! Prometheus export (counters summed across itself and every live worker).

use deepstuq::SamplePass;
use stuq_artifact::json::{self, escape, parse, Json};
use stuq_artifact::text;
use stuq_tensor::Tensor;

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Run a forecast.
    Forecast(ForecastReq),
    /// Report health/readiness.
    Healthz {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Validate + swap the watched model artifact now.
    Reload {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Stop admitting forecasts; finish what is queued.
    Drain {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Drain, then exit the serve loop.
    Shutdown {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Cluster liveness probe (supervisor → worker); answered with an ack.
    Ping {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Run one sample range of a forecast's MC passes (router → worker).
    Passes(PassReq),
    /// Phase one of the cluster-wide reload: validate + stage the artifact,
    /// swap nothing yet.
    PrepareReload {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Phase two: swap the staged candidate in (bumps the cache generation).
    CommitReload {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Drop the staged candidate without swapping (no generation bump).
    AbortReload {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Dump this process's raw metric counters (router → worker scrape).
    Metrics {
        /// Echoed request id.
        id: Option<String>,
    },
    /// Serve the cluster-merged Prometheus export (client → router).
    ClusterMetrics {
        /// Echoed request id.
        id: Option<String>,
    },
}

/// A forecast request.
#[derive(Debug)]
pub struct ForecastReq {
    /// Client-chosen id, echoed on the response.
    pub id: Option<String>,
    /// Input window, time-major `[t_h][n_nodes]`, raw units.
    pub x: Vec<Vec<f32>>,
    /// Per-request deadline in (logical) milliseconds.
    pub deadline_ms: Option<u64>,
    /// MC sample-count override, `1..=`[`MAX_MC_SAMPLES`].
    pub mc: Option<usize>,
    /// Per-request RNG seed (makes the response independent of arrival
    /// order; defaults to the server seed forked by the request counter).
    pub seed: Option<u64>,
    /// Data tick the window was observed at. Seedless requests with a tick
    /// derive their RNG from (server seed, tick), so same-tick requests for
    /// the same window share MC samples when co-batched and are cacheable.
    pub tick: Option<u64>,
    /// Node subset to answer for (indices into the model's sensor set, in
    /// the requested order). The forecast is still computed — or cached —
    /// over the full grid; this only slices the response.
    pub nodes: Option<Vec<usize>>,
    /// Horizon prefix to answer (1..=model horizon); response-slicing only.
    pub horizon: Option<usize>,
    /// Trace context: a trace id chosen upstream, so this server's spans
    /// join the caller's timeline. Purely observational — never touches
    /// the forecast.
    pub trace: Option<u64>,
    /// Trace context: the caller's span, parent of this server's root.
    pub span: Option<u64>,
}

/// A `passes` request: MC passes `lo..hi` of an `n`-pass forecast.
#[derive(Debug)]
pub struct PassReq {
    /// Echoed request id.
    pub id: Option<String>,
    /// Input window `[t_h, n_nodes]`, already normalised by the router.
    pub x: Tensor,
    /// Requested sample count of the whole forecast, at most
    /// [`MAX_MC_SAMPLES`] (`1` selects the deterministic pass).
    pub n: usize,
    /// First pass of the range.
    pub lo: usize,
    /// One past the last pass of the range.
    pub hi: usize,
    /// State words of the router's per-request RNG before its fork.
    pub rng: [u64; 4],
    /// Trace context, as on a forecast request.
    pub trace: Option<u64>,
    /// Parent span (the router's per-range `shard` span).
    pub span: Option<u64>,
}

/// Largest MC sample count a request may ask for, as a forecast's `mc` or a
/// `passes` RPC's `n`. Far above any configured count; it exists because
/// the sample streams are allocated up front, before any work, so an
/// unbounded count from the wire could exhaust memory.
pub const MAX_MC_SAMPLES: usize = 1024;

/// Longest request line the serve reader accepts, in bytes before the
/// newline. A window `x` is the bulk of any request, forecast or `passes`.
/// The paper's largest graph (PEMS07, 883 sensors) over its 12-step history
/// is 10,596 cells; at 24 bytes a cell (a 9-digit f32 such as
/// `-1.23456789e-38`, its comma and some whitespace) that is ~254 KB, and
/// 1 MiB leaves 4× headroom. The reader holds at most this much of a line:
/// a longer one gets one typed `bad_request` and is skipped unbuffered.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Longest worker reply line the router reads, in bytes before the newline,
/// for a model of `n_nodes` sensors and horizon `horizon`. The largest
/// legal reply is a `passes` reply for all [`MAX_MC_SAMPLES`] passes: two
/// hex-word tensors, `mu` and `var`, at 8 bytes a cell, so 16 bytes per
/// cell per pass (~60 MB at 307 × 12). [`MAX_LINE_BYTES`] on top covers
/// its head and every smaller reply.
pub fn max_worker_reply_bytes(n_nodes: usize, horizon: usize) -> usize {
    (16 * MAX_MC_SAMPLES)
        .saturating_mul(n_nodes)
        .saturating_mul(horizon)
        .saturating_add(MAX_LINE_BYTES)
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub struct ParseError {
    /// Id, when it could still be extracted.
    pub id: Option<String>,
    /// Human-readable cause.
    pub detail: String,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let v = parse(line).map_err(|detail| ParseError { id: None, detail })?;
    let id = v.get("id").and_then(Json::as_str).map(str::to_owned);
    let err = |detail: String| ParseError { id: id.clone(), detail };
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| err("missing request field \"type\"".into()))?;
    match ty {
        "healthz" => Ok(Request::Healthz { id }),
        "reload" => Ok(Request::Reload { id }),
        "drain" => Ok(Request::Drain { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "ping" => Ok(Request::Ping { id }),
        "prepare_reload" => Ok(Request::PrepareReload { id }),
        "commit_reload" => Ok(Request::CommitReload { id }),
        "abort_reload" => Ok(Request::AbortReload { id }),
        "metrics" => Ok(Request::Metrics { id }),
        "cluster-metrics" => Ok(Request::ClusterMetrics { id }),
        "passes" => {
            let count = |key: &str| {
                v.get(key)
                    .and_then(Json::as_u64)
                    .map(|n| n as usize)
                    .ok_or_else(|| err(format!("\"passes\" needs a count {key:?}")))
            };
            let (n, lo, hi) = (count("n")?, count("lo")?, count("hi")?);
            if n > MAX_MC_SAMPLES {
                return Err(err(format!("\"n\" must be at most {MAX_MC_SAMPLES}")));
            }
            if n == 0 || lo >= hi || hi > n {
                return Err(err(format!("pass range {lo}..{hi} is not inside 1..={n}")));
            }
            let words = v.get("rng").and_then(Json::as_arr).unwrap_or(&[]);
            let mut rng = [0u64; 4];
            if words.len() != 4 {
                return Err(err("\"rng\" must hold four state words".into()));
            }
            for (slot, w) in rng.iter_mut().zip(words) {
                *slot = w
                    .as_str()
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(|| err("\"rng\" words must be hex strings".into()))?;
            }
            let [rows, cols] = dims_field(&v).map_err(err)?;
            let x = words_field(&v, "x", &[rows, cols]).map_err(err)?;
            let x = Tensor::from_vec(x, &[rows, cols]);
            let trace = trace_ctx(&v, "trace").map_err(err)?;
            let span = trace_ctx(&v, "span").map_err(err)?;
            Ok(Request::Passes(PassReq { id, x, n, lo, hi, rng, trace, span }))
        }
        "forecast" => {
            let rows = v
                .get("x")
                .and_then(Json::as_arr)
                .ok_or_else(|| err("forecast request needs a matrix field \"x\"".into()))?;
            if rows.is_empty() {
                return Err(err("\"x\" must have at least one row".into()));
            }
            let mut x = Vec::with_capacity(rows.len());
            let mut width = None;
            for (i, row) in rows.iter().enumerate() {
                let cells =
                    row.as_arr().ok_or_else(|| err(format!("\"x\" row {i} is not an array")))?;
                match width {
                    None => width = Some(cells.len()),
                    Some(w) if w != cells.len() => {
                        return Err(err(format!(
                            "\"x\" is ragged: row {i} has {} cells, row 0 has {w}",
                            cells.len()
                        )));
                    }
                    _ => {}
                }
                let mut out = Vec::with_capacity(cells.len());
                for (j, c) in cells.iter().enumerate() {
                    let f = c
                        .as_f32()
                        .ok_or_else(|| err(format!("\"x\"[{i}][{j}] is not a number")))?;
                    out.push(f);
                }
                x.push(out);
            }
            if width == Some(0) {
                return Err(err("\"x\" rows must not be empty".into()));
            }
            let deadline_ms =
                match v.get("deadline_ms") {
                    None | Some(Json::Null) => None,
                    Some(d) => Some(d.as_u64().ok_or_else(|| {
                        err("\"deadline_ms\" must be a non-negative integer".into())
                    })?),
                };
            let mc = match v.get("mc") {
                None | Some(Json::Null) => None,
                Some(m) => {
                    let m = m
                        .as_u64()
                        .ok_or_else(|| err("\"mc\" must be a positive integer".into()))?;
                    if m == 0 {
                        return Err(err("\"mc\" must be at least 1".into()));
                    }
                    if m > MAX_MC_SAMPLES as u64 {
                        return Err(err(format!("\"mc\" must be at most {MAX_MC_SAMPLES}")));
                    }
                    Some(m as usize)
                }
            };
            let seed = match v.get("seed") {
                None | Some(Json::Null) => None,
                Some(s) => Some(
                    s.as_u64()
                        .ok_or_else(|| err("\"seed\" must be a non-negative integer".into()))?,
                ),
            };
            let tick = match v.get("tick") {
                None | Some(Json::Null) => None,
                Some(t) => Some(
                    t.as_u64()
                        .ok_or_else(|| err("\"tick\" must be a non-negative integer".into()))?,
                ),
            };
            let nodes = match v.get("nodes") {
                None | Some(Json::Null) => None,
                Some(n) => {
                    let arr = n
                        .as_arr()
                        .ok_or_else(|| err("\"nodes\" must be an array of indices".into()))?;
                    if arr.is_empty() {
                        return Err(err("\"nodes\" must not be empty".into()));
                    }
                    let mut out = Vec::with_capacity(arr.len());
                    for (k, c) in arr.iter().enumerate() {
                        let idx = c.as_u64().ok_or_else(|| {
                            err(format!("\"nodes\"[{k}] is not a non-negative integer"))
                        })?;
                        out.push(idx as usize);
                    }
                    Some(out)
                }
            };
            let horizon = match v.get("horizon") {
                None | Some(Json::Null) => None,
                Some(h) => {
                    let h = h
                        .as_u64()
                        .ok_or_else(|| err("\"horizon\" must be a positive integer".into()))?;
                    if h == 0 {
                        return Err(err("\"horizon\" must be at least 1".into()));
                    }
                    Some(h as usize)
                }
            };
            let trace = trace_ctx(&v, "trace").map_err(err)?;
            let span = trace_ctx(&v, "span").map_err(err)?;
            Ok(Request::Forecast(ForecastReq {
                id,
                x,
                deadline_ms,
                mc,
                seed,
                tick,
                nodes,
                horizon,
                trace,
                span,
            }))
        }
        other => Err(err(format!("unknown request type {other:?}"))),
    }
}

/// An optional trace-context id field (`trace`/`span`).
fn trace_ctx(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(t) => t
            .as_str()
            .and_then(stuq_obs::trace::parse_id)
            .map(Some)
            .ok_or_else(|| format!("{key:?} must be a 16-hex-digit id")),
    }
}

/// Renders a `[rows, cols]` tensor as a nested JSON array.
pub fn render_matrix(t: &Tensor) -> String {
    let (rows, cols) = (t.shape()[0], t.shape()[1]);
    let mut out = String::with_capacity(rows * cols * 8);
    out.push('[');
    for r in 0..rows {
        if r > 0 {
            out.push(',');
        }
        out.push('[');
        for c in 0..cols {
            if c > 0 {
                out.push(',');
            }
            json::push_f32(&mut out, t.get(r, c));
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Appends `,"id":<id>` when the request carried one.
pub(crate) fn push_id(out: &mut String, id: &Option<String>) {
    if let Some(id) = id {
        out.push_str(",\"id\":");
        json::push_string(out, id);
    }
}

/// Interval payload shared by `forecast` and `fallback` responses.
pub struct Intervals<'a> {
    /// Predictive mean `[n_nodes][horizon]`, raw units.
    pub mu: &'a Tensor,
    /// Total predictive σ, raw units.
    pub sigma: &'a Tensor,
    /// 95 % lower bound.
    pub lower: &'a Tensor,
    /// 95 % upper bound.
    pub upper: &'a Tensor,
}

fn push_intervals(out: &mut String, iv: &Intervals<'_>) {
    out.push_str(",\"mu\":");
    out.push_str(&render_matrix(iv.mu));
    out.push_str(",\"sigma\":");
    out.push_str(&render_matrix(iv.sigma));
    out.push_str(",\"lower\":");
    out.push_str(&render_matrix(iv.lower));
    out.push_str(",\"upper\":");
    out.push_str(&render_matrix(iv.upper));
}

/// Batching/caching accounting on a forecast response. These three fields
/// are *annotations*: they describe how the answer was produced, never what
/// it is, so they render into the trailing `"meta"` object that
/// [`strip_meta`] removes (DESIGN.md §12).
#[derive(Clone, Copy, Debug)]
pub struct ForecastMeta {
    /// True when the request was co-processed with at least one other.
    pub batched: bool,
    /// Number of requests in the processed batch (1 on the solo path).
    pub batch_size: usize,
    /// True when the response was answered from the forecast cache without
    /// touching the model.
    pub cache_hit: bool,
}

impl ForecastMeta {
    /// The solo, uncached path (sync mode and batch-of-one).
    pub fn solo() -> Self {
        ForecastMeta { batched: false, batch_size: 1, cache_hit: false }
    }
}

fn push_forecast_head(
    out: &mut String,
    id: &Option<String>,
    samples_used: usize,
    samples_requested: usize,
    model: &str,
) {
    let degraded = samples_used < samples_requested;
    let inflation = samples_requested as f32 / samples_used as f32;
    out.push_str("{\"type\":\"forecast\"");
    push_id(out, id);
    out.push_str(&format!(
        ",\"degraded\":{degraded},\"samples_used\":{samples_used},\"samples_requested\":{samples_requested},\"variance_inflation\":"
    ));
    json::push_f32(out, inflation);
    out.push_str(&format!(",\"model\":{}", escape(model)));
}

/// A normal or degraded forecast response. `model` is the checksum of the
/// artifact that produced it — in a cluster, a router can prove every merged
/// slice came from the same model version by comparing this field.
pub fn resp_forecast(
    id: &Option<String>,
    samples_used: usize,
    samples_requested: usize,
    model: &str,
    meta: &ForecastMeta,
    iv: &Intervals<'_>,
) -> String {
    let mut out = String::with_capacity(256);
    push_forecast_head(&mut out, id, samples_used, samples_requested, model);
    push_intervals(&mut out, iv);
    out.push_str(&format!(
        "{META_OPEN}\"batched\":{},\"batch_size\":{},\"cache_hit\":{}}}}}",
        meta.batched, meta.batch_size, meta.cache_hit
    ));
    out
}

/// Opens the annotation object, the last member of an annotated line.
const META_OPEN: &str = ",\"meta\":{";

/// Appends `"trace":"<16hex>","span":"<16hex>"` as the last members of a
/// rendered line's `meta` object, opening one when the line has none.
pub fn push_trace_meta(line: &mut String, trace: u64, span: u64) {
    debug_assert!(line.ends_with('}'), "trace meta goes on a rendered object");
    line.pop();
    if line.rfind(META_OPEN).is_some() {
        line.pop();
        line.push(',');
    } else {
        line.push_str(META_OPEN);
    }
    line.push_str(&format!(
        "\"trace\":\"{}\",\"span\":\"{}\"}}}}",
        stuq_obs::trace::fmt_id(trace),
        stuq_obs::trace::fmt_id(span)
    ));
}

/// Removes the trailing `meta` object — everything from the last
/// `,"meta":{` on — and closes the line again, leaving what the answer
/// *is*. Every byte-identity comparison goes through this. A line with no
/// `meta` object comes back unchanged.
pub fn strip_meta(line: &str) -> String {
    match line.rfind(META_OPEN) {
        Some(at) => format!("{}}}", &line[..at]),
        None => line.to_string(),
    }
}

/// [`strip_meta`] under its old cluster-vs-solo name, kept only because
/// the benchmark (`perfbench/`) still calls it; it goes when the benchmark
/// moves to [`strip_meta`].
pub fn strip_cluster_meta(line: &str) -> String {
    strip_meta(line)
}

/// Renders a `passes` request (DESIGN.md §13): run passes `lo..hi` of an
/// `n`-pass forecast over the normalised window `x`, with streams forked
/// from the RNG whose state words are `rng`. `ctx` is the trace context —
/// `(trace id, the router's shard span)`.
pub fn render_passes_req(
    x: &Tensor,
    n: usize,
    range: std::ops::Range<usize>,
    rng: &[u64; 4],
    ctx: Option<(u64, u64)>,
) -> String {
    let mut s = String::with_capacity(x.len() * 8 + 192);
    s.push_str(&format!(
        "{{\"type\":\"passes\",\"n\":{n},\"lo\":{},\"hi\":{},\"rng\":[\"{:016x}\",\"{:016x}\",\"{:016x}\",\"{:016x}\"]",
        range.start, range.end, rng[0], rng[1], rng[2], rng[3]
    ));
    if let Some((trace, span)) = ctx {
        s.push_str(&format!(
            ",\"trace\":\"{}\",\"span\":\"{}\"",
            stuq_obs::trace::fmt_id(trace),
            stuq_obs::trace::fmt_id(span)
        ));
    }
    s.push_str(&format!(",\"dims\":[{},{}],\"x\":\"", x.shape()[0], x.shape()[1]));
    text::push_words(&mut s, x.data());
    s.push_str("\"}");
    s
}

/// A worker's answer to `passes`: each pass's normalised mean and, for
/// Gaussian heads, its clamped variance, in sample order, plus the checksum
/// of the model that ran them. Both are packed hex words of shape
/// `dims = [passes, rows, cols]`, row-major.
pub fn resp_passes(model: &str, passes: &[SamplePass]) -> String {
    let cells: usize = passes.iter().map(|(mu, _)| mu.len()).sum();
    let (rows, cols) = passes.first().map_or((0, 0), |(mu, _)| (mu.shape()[0], mu.shape()[1]));
    let mut out = String::with_capacity(cells * 16 + 96);
    out.push_str(&format!(
        "{{\"type\":\"passes\",\"model\":{},\"dims\":[{},{rows},{cols}]",
        escape(model),
        passes.len()
    ));
    let mut push_list = |key: &str, pick: &dyn Fn(&SamplePass) -> &Tensor| {
        out.push_str(&format!(",\"{key}\":\""));
        for p in passes {
            text::push_words(&mut out, pick(p).data());
        }
        out.push('"');
    };
    push_list("mu", &|p| &p.0);
    if passes.iter().all(|p| p.1.is_some()) && !passes.is_empty() {
        push_list("var", &|p| p.1.as_ref().expect("checked"));
    }
    out.push('}');
    out
}

/// A forecast's interval payload, parsed back into tensors. f32 values
/// survive the wire exactly: they are rendered in shortest round-trip form
/// and parsed back from that text as f32 ([`Json::as_f32`]).
pub struct OwnedIntervals {
    /// Predictive mean `[nodes][horizon]`.
    pub mu: Tensor,
    /// Total predictive σ.
    pub sigma: Tensor,
    /// 95 % lower bound.
    pub lower: Tensor,
    /// 95 % upper bound.
    pub upper: Tensor,
}

/// A worker's response line, as the router (or a client reading
/// forecasts) sees it. Only the types a reader acts on parse; any other
/// reply is an `Err`, which the router treats as a failed call.
pub enum WorkerResp {
    /// A live (possibly degraded) forecast.
    Forecast {
        /// MC samples actually drawn.
        samples_used: usize,
        /// MC samples the request asked for.
        samples_requested: usize,
        /// Checksum of the model that produced the forecast.
        model: String,
        /// The intervals.
        iv: OwnedIntervals,
    },
    /// One sample range of MC passes, answering a `passes` request.
    Passes {
        /// Checksum of the model that ran the passes.
        model: String,
        /// Normalised `(μ_j, σ²_j?)` per pass, in sample order.
        passes: Vec<SamplePass>,
    },
    /// A control acknowledgement.
    Ack {
        /// Acknowledged action.
        action: String,
        /// Outcome (actions without an `ok` field report true).
        ok: bool,
        /// Artifact checksum, on reload-family acks.
        checksum: Option<String>,
        /// Failure reason, when `ok` is false.
        reason: Option<String>,
    },
    /// A raw counter dump answering a `metrics` scrape, in catalog order.
    Metrics {
        /// `(exposition name, value)` pairs.
        counters: Vec<(String, u64)>,
    },
}

/// The `"dims"` of a packed hex-word payload: `N` non-negative integers.
/// [`words_field`] checks that they are nonzero and fit the payload.
fn dims_field<const N: usize>(v: &Json) -> Result<[usize; N], String> {
    let bad = || format!("\"dims\" must hold {N} non-negative integers");
    let arr = v.get("dims").and_then(Json::as_arr).ok_or_else(bad)?;
    if arr.len() != N {
        return Err(bad());
    }
    let mut dims = [0usize; N];
    for (d, j) in dims.iter_mut().zip(arr) {
        *d = j.as_u64().and_then(|n| usize::try_from(n).ok()).ok_or_else(bad)?;
    }
    Ok(dims)
}

/// A string field of packed hex words holding a tensor of shape `dims`
/// ([`text::read_words`]).
fn words_field(v: &Json, key: &str, dims: &[usize]) -> Result<Vec<f32>, String> {
    let s =
        v.get(key).and_then(Json::as_str).ok_or_else(|| format!("{key:?} is not a word string"))?;
    text::read_words(s, dims).map_err(|e| format!("{key:?}: {e}"))
}

/// A `[rows][cols]` matrix of f32 cells, each parsed from its own text.
fn parse_matrix(v: &Json, key: &str) -> Result<Tensor, String> {
    let v = v.get(key).ok_or_else(|| format!("missing matrix {key:?}"))?;
    let rows = v.as_arr().ok_or_else(|| format!("{key:?} is not a matrix"))?;
    if rows.is_empty() {
        return Err(format!("{key:?} is empty"));
    }
    let mut data = Vec::new();
    let mut cols = None;
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_arr().ok_or_else(|| format!("{key:?} row {i} is not an array"))?;
        match cols {
            None => cols = Some(cells.len()),
            Some(c) if c != cells.len() => return Err(format!("{key:?} is ragged at row {i}")),
            _ => {}
        }
        for (j, c) in cells.iter().enumerate() {
            data.push(c.as_f32().ok_or_else(|| format!("{key:?}[{i}][{j}] is not a number"))?);
        }
    }
    let c = cols.unwrap_or(0);
    if c == 0 {
        return Err(format!("{key:?} rows must not be empty"));
    }
    Ok(Tensor::from_vec(data, &[rows.len(), c]))
}

fn parse_intervals(v: &Json) -> Result<OwnedIntervals, String> {
    Ok(OwnedIntervals {
        mu: parse_matrix(v, "mu")?,
        sigma: parse_matrix(v, "sigma")?,
        lower: parse_matrix(v, "lower")?,
        upper: parse_matrix(v, "upper")?,
    })
}

/// Parses one worker response line into the closed [`WorkerResp`] set;
/// other types (`fallback`, `rejected`, `error`, `health`) are errors.
pub fn parse_worker_resp(line: &str) -> Result<WorkerResp, String> {
    let v = parse(line)?;
    let ty = v.get("type").and_then(Json::as_str).ok_or("worker response has no \"type\"")?;
    let str_field = |key: &str| v.get(key).and_then(Json::as_str).map(str::to_owned);
    match ty {
        "forecast" => Ok(WorkerResp::Forecast {
            samples_used: v
                .get("samples_used")
                .and_then(Json::as_u64)
                .ok_or("forecast without \"samples_used\"")? as usize,
            samples_requested: v
                .get("samples_requested")
                .and_then(Json::as_u64)
                .ok_or("forecast without \"samples_requested\"")?
                as usize,
            model: str_field("model").ok_or("forecast without \"model\"")?,
            iv: parse_intervals(&v)?,
        }),
        "passes" => {
            let model = str_field("model").ok_or("passes without \"model\"")?;
            let dims: [usize; 3] = dims_field(&v)?;
            let shape = [dims[1], dims[2]];
            // One tensor per pass, in sample order.
            let split = |words: Vec<f32>| -> Vec<Tensor> {
                words
                    .chunks_exact(shape[0] * shape[1])
                    .map(|c| Tensor::from_vec(c.to_vec(), &shape))
                    .collect()
            };
            let mu = split(words_field(&v, "mu", &dims)?);
            let passes = match v.get("var") {
                None => mu.into_iter().map(|m| (m, None)).collect(),
                Some(_) => {
                    let var = split(words_field(&v, "var", &dims)?);
                    mu.into_iter().zip(var).map(|(m, v)| (m, Some(v))).collect()
                }
            };
            Ok(WorkerResp::Passes { model, passes })
        }
        "ack" => Ok(WorkerResp::Ack {
            action: str_field("action").ok_or("ack without \"action\"")?,
            ok: matches!(v.get("ok"), None | Some(Json::Bool(true))),
            checksum: str_field("checksum"),
            reason: str_field("reason"),
        }),
        "metrics" => {
            let Some(Json::Obj(pairs)) = v.get("counters") else {
                return Err("metrics without a \"counters\" object".into());
            };
            let mut counters = Vec::with_capacity(pairs.len());
            for (k, cv) in pairs {
                let n = cv
                    .as_u64()
                    .ok_or_else(|| format!("counter {k:?} is not a non-negative integer"))?;
                counters.push((k.clone(), n));
            }
            Ok(WorkerResp::Metrics { counters })
        }
        other => Err(format!("unknown worker response type {other:?}")),
    }
}

/// A shed/refused request. `reason` ∈ {queue_full, draining, breaker_open,
/// model_fault, worker_down, rpc_timeout, version_skew, worker_error} — all
/// but the first two only before any healthy response exists (with healthy
/// history the same conditions serve a `fallback` instead). The last four
/// come from a router whose shards returned fewer passes than the floor.
pub fn resp_rejected(id: &Option<String>, reason: &str) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"type\":\"rejected\"");
    push_id(&mut out, id);
    out.push_str(&format!(",\"reason\":{}}}", escape(reason)));
    out
}

/// The documented fallback: a persistence forecast with widened intervals.
/// `reason` is a [`resp_rejected`] reason other than `queue_full` and
/// `draining`.
pub fn resp_fallback(id: &Option<String>, reason: &str, iv: &Intervals<'_>) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"type\":\"fallback\"");
    push_id(&mut out, id);
    out.push_str(&format!(",\"reason\":{}", escape(reason)));
    push_intervals(&mut out, iv);
    out.push('}');
    out
}

/// A request-level failure (the connection stays up).
/// `reason` ∈ {bad_request, non_finite_input, shape_mismatch}.
pub fn resp_error(id: &Option<String>, reason: &str, detail: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"type\":\"error\"");
    push_id(&mut out, id);
    out.push_str(&format!(",\"reason\":{},\"detail\":{}}}", escape(reason), escape(detail)));
    out
}

/// A raw counter dump for a `metrics` scrape. Counters render in the order
/// given (the catalog's exposition order), so two dumps from the same build
/// are positionally comparable.
pub fn resp_metrics(id: &Option<String>, counters: &[(&str, u64)]) -> String {
    let mut out = String::with_capacity(64 + counters.len() * 32);
    out.push_str("{\"type\":\"metrics\"");
    push_id(&mut out, id);
    out.push_str(",\"counters\":{");
    for (i, (k, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{v}", escape(k)));
    }
    out.push_str("}}");
    out
}

/// [`resp_metrics`] over owned names (the router's merged dump).
pub fn resp_metrics_owned(id: &Option<String>, counters: &[(String, u64)]) -> String {
    let borrowed: Vec<(&str, u64)> = counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    resp_metrics(id, &borrowed)
}

/// An acknowledgement for control requests (drain/shutdown/reload).
pub fn resp_ack(id: &Option<String>, action: &str, fields: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"type\":\"ack\"");
    push_id(&mut out, id);
    out.push_str(&format!(",\"action\":{}", escape(action)));
    for (k, v) in fields {
        out.push_str(&format!(",{}:{}", escape(k), v));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forecast_request_roundtrip() {
        let r = parse_request(
            r#"{"type":"forecast","id":"r7","x":[[1,2],[3,"NaN"]],"deadline_ms":8,"mc":4,"seed":9}"#,
        )
        .unwrap();
        let Request::Forecast(f) = r else { panic!("wrong variant") };
        assert_eq!(f.id.as_deref(), Some("r7"));
        assert_eq!(f.x.len(), 2);
        assert!(f.x[1][1].is_nan());
        assert_eq!(f.deadline_ms, Some(8));
        assert_eq!(f.mc, Some(4));
        assert_eq!(f.seed, Some(9));
        assert_eq!(f.tick, None);
        assert_eq!(f.nodes, None);
        assert_eq!(f.horizon, None);
    }

    #[test]
    fn batching_request_fields_parse_and_validate() {
        let r = parse_request(
            r#"{"type":"forecast","id":"b1","x":[[1,2]],"tick":12,"nodes":[1,0,1],"horizon":2}"#,
        )
        .unwrap();
        let Request::Forecast(f) = r else { panic!("wrong variant") };
        assert_eq!(f.tick, Some(12));
        assert_eq!(f.nodes, Some(vec![1, 0, 1]));
        assert_eq!(f.horizon, Some(2));
        let e = parse_request(r#"{"type":"forecast","x":[[1]],"nodes":[]}"#).unwrap_err();
        assert!(e.detail.contains("\"nodes\""));
        let e = parse_request(r#"{"type":"forecast","x":[[1]],"nodes":[-1]}"#).unwrap_err();
        assert!(e.detail.contains("\"nodes\"[0]"));
        let e = parse_request(r#"{"type":"forecast","x":[[1]],"horizon":0}"#).unwrap_err();
        assert!(e.detail.contains("\"horizon\""));
        let e = parse_request(r#"{"type":"forecast","x":[[1]],"tick":"soon"}"#).unwrap_err();
        assert!(e.detail.contains("\"tick\""));
        let mc = |m: usize| parse_request(&format!(r#"{{"type":"forecast","x":[[1]],"mc":{m}}}"#));
        assert!(
            matches!(mc(MAX_MC_SAMPLES), Ok(Request::Forecast(f)) if f.mc == Some(MAX_MC_SAMPLES))
        );
        for m in [MAX_MC_SAMPLES + 1, 1_000_000_000_000] {
            assert!(mc(m).unwrap_err().detail.contains("\"mc\" must be at most"), "{m}");
        }
    }

    /// The one annotation rule: `batched`, `batch_size`, `cache_hit`,
    /// `trace` and `span` appear only inside a last-member `meta` object,
    /// in that order, and [`strip_meta`] removes exactly that object from
    /// every response kind, whatever the client put in its id.
    #[test]
    fn annotations_live_only_in_one_trailing_meta_object() {
        const ANNOTATIONS: [&str; 5] = ["batched", "batch_size", "cache_hit", "trace", "span"];
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let iv = Intervals { mu: &m, sigma: &m, lower: &m, upper: &m };
        let hit = ForecastMeta { batched: true, batch_size: 3, cache_hit: true };
        let ids = [None, Some(",\"meta\":{"), Some("}"), Some("\"trace\":\""), Some("a\\\"}")];
        for id in ids.map(|s| s.map(str::to_owned)) {
            let solo = resp_forecast(&id, 8, 8, "ck", &ForecastMeta::solo(), &iv);
            // (line, number of batching keys in its meta object)
            let table = [
                (resp_forecast(&id, 8, 8, "ck", &hit, &iv), 3),
                (solo.clone(), 3),
                (resp_fallback(&id, "breaker_open", &iv), 0),
                (resp_rejected(&id, "queue_full"), 0),
                (resp_error(&id, "bad_request", "}"), 0),
                (resp_ack(&id, "drain", &[]), 0),
                (resp_metrics(&id, &[("meta", 1)]), 0),
            ];
            for (plain, batching) in table {
                // Every forecast strips to the solo payload; a line with no
                // meta object comes back unchanged.
                let payload = if batching == 0 { plain.clone() } else { strip_meta(&solo) };
                let mut traced = plain.clone();
                push_trace_meta(&mut traced, 0xdead_beef, 1);
                assert!(traced
                    .ends_with("\"trace\":\"00000000deadbeef\",\"span\":\"0000000000000001\"}}"));
                for (line, keys) in [(&plain, batching), (&traced, batching + 2)] {
                    assert_eq!(strip_meta(line), payload, "{line}");
                    let Ok(Json::Obj(mut members)) = json::parse(line) else {
                        panic!("not a JSON object: {line}")
                    };
                    let meta = match members.pop() {
                        Some((k, Json::Obj(meta))) if k == "meta" => meta,
                        other => {
                            members.extend(other);
                            Vec::new()
                        }
                    };
                    assert!(!members.iter().any(|(k, _)| ANNOTATIONS.contains(&k.as_str())));
                    assert_eq!(json::parse(&payload), Ok(Json::Obj(members)), "{line}");
                    let names: Vec<&str> = meta.iter().map(|(k, _)| k.as_str()).collect();
                    let order = &ANNOTATIONS[if batching == 0 { 3 } else { 0 }..];
                    assert_eq!(names, order[..keys], "fixed key order: {line}");
                }
            }
        }
    }

    #[test]
    fn strip_batch_meta_removes_only_the_annotation_block() {
        let id = Some("q".to_string());
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let iv = Intervals { mu: &m, sigma: &m, lower: &m, upper: &m };
        let solo = resp_forecast(&id, 8, 8, "ck0", &ForecastMeta::solo(), &iv);
        let meta = ForecastMeta { batched: true, batch_size: 5, cache_hit: false };
        let co = resp_forecast(&id, 8, 8, "ck0", &meta, &iv);
        assert_ne!(solo, co, "annotations must distinguish the paths");
        assert_eq!(strip_meta(&solo), strip_meta(&co));
        assert!(!strip_meta(&co).contains("batch_size"));
        assert!(!strip_meta(&co).contains("\"meta\""));
        assert!(json::parse(&strip_meta(&co)).is_ok());
        // Only the annotation block goes: the payload before it stays.
        assert!(co.starts_with(&strip_meta(&co)[..strip_meta(&co).len() - 1]));
        // Lines with no meta object pass through untouched.
        let rej = resp_rejected(&id, "queue_full");
        assert_eq!(strip_meta(&rej), rej);
    }

    #[test]
    fn cluster_meta_strips_down_to_the_solo_payload() {
        let id = Some("c".to_string());
        let m = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4], &[2, 2]);
        let iv = Intervals { mu: &m, sigma: &m, lower: &m, upper: &m };
        let solo = resp_forecast(&id, 8, 8, "ck", &ForecastMeta::solo(), &iv);
        // A coalescing router annotates its batch; nothing else differs.
        let meta = ForecastMeta { batched: true, batch_size: 3, cache_hit: true };
        let routed = resp_forecast(&id, 8, 8, "ck", &meta, &iv);
        assert_ne!(solo, routed);
        assert_eq!(strip_cluster_meta(&solo), strip_cluster_meta(&routed));
        assert_eq!(strip_cluster_meta(&routed), strip_meta(&routed));
        let rej = resp_rejected(&id, "worker_down");
        assert_eq!(strip_cluster_meta(&rej), rej);
    }

    #[test]
    fn trace_meta_is_fixed_width_and_strips_exactly() {
        const TRACE_MEMBERS: &str = ",\"trace\":\"00000000deadbeef\",\"span\":\"0000000000000001\"";
        let id = Some("t".to_string());
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let iv = Intervals { mu: &m, sigma: &m, lower: &m, upper: &m };
        let plain = resp_forecast(&id, 8, 8, "ck", &ForecastMeta::solo(), &iv);
        let mut traced = plain.clone();
        push_trace_meta(&mut traced, 0xdead_beef, 1);
        // On a forecast the ids join its meta object at a fixed width.
        assert_eq!(traced.len(), plain.len() + TRACE_MEMBERS.len());
        assert!(traced.ends_with(&format!("{TRACE_MEMBERS}}}}}")));
        assert!(json::parse(&traced).is_ok());
        assert_eq!(strip_meta(&traced), strip_meta(&plain));
        // A line with no meta object gains one holding just the ids, and
        // strips back to exactly the untraced line.
        let rej = resp_rejected(&id, "queue_full");
        let mut traced_rej = rej.clone();
        push_trace_meta(&mut traced_rej, 0xdead_beef, 1);
        assert_eq!(traced_rej.len(), rej.len() + META_OPEN.len() + TRACE_MEMBERS.len());
        assert!(json::parse(&traced_rej).is_ok());
        assert_eq!(strip_meta(&traced_rej), rej);
        // Stripping a traced, batched forecast leaves the solo payload.
        let meta = ForecastMeta { batched: true, batch_size: 2, cache_hit: false };
        let mut routed = resp_forecast(&id, 8, 8, "ck", &meta, &iv);
        push_trace_meta(&mut routed, 7, 9);
        assert_eq!(strip_meta(&routed), strip_meta(&plain));
    }

    #[test]
    fn control_requests_parse() {
        assert!(matches!(parse_request(r#"{"type":"healthz"}"#), Ok(Request::Healthz { .. })));
        assert!(matches!(parse_request(r#"{"type":"drain","id":"d"}"#), Ok(Request::Drain { .. })));
        assert!(matches!(parse_request(r#"{"type":"shutdown"}"#), Ok(Request::Shutdown { .. })));
        assert!(matches!(parse_request(r#"{"type":"reload"}"#), Ok(Request::Reload { .. })));
    }

    #[test]
    fn cluster_control_requests_parse() {
        assert!(matches!(parse_request(r#"{"type":"ping","id":"p"}"#), Ok(Request::Ping { .. })));
        assert!(matches!(
            parse_request(r#"{"type":"prepare_reload"}"#),
            Ok(Request::PrepareReload { .. })
        ));
        assert!(matches!(
            parse_request(r#"{"type":"commit_reload"}"#),
            Ok(Request::CommitReload { .. })
        ));
        assert!(matches!(
            parse_request(r#"{"type":"abort_reload"}"#),
            Ok(Request::AbortReload { .. })
        ));
        let x = Tensor::from_vec(vec![0.5, -1.25, 7.0, 0.1], &[2, 2]);
        let rng = [0, u64::MAX, 0x0123_4567_89ab_cdef, 42];
        let line = render_passes_req(&x, 10, 3..7, &rng, Some((0xdead_beef, 5)));
        let Ok(Request::Passes(p)) = parse_request(&line) else { panic!("{line}") };
        assert_eq!((p.n, p.lo, p.hi, p.rng), (10, 3, 7, rng));
        assert_eq!(p.x.data(), x.data());
        assert_eq!((p.trace, p.span), (Some(0xdead_beef), Some(5)));
        let line = render_passes_req(&x, MAX_MC_SAMPLES, 0..MAX_MC_SAMPLES, &rng, None);
        assert!(matches!(parse_request(&line), Ok(Request::Passes(p)) if p.n == MAX_MC_SAMPLES));
        let ok = r#"{"type":"passes","n":4,"lo":0,"hi":2,"rng":["0","0","0","0"],"dims":[1,1],"x":"3f800000"}"#;
        assert!(matches!(parse_request(ok), Ok(Request::Passes(p)) if p.x.data() == [1.0]));
        for bad in [
            r#"{"type":"passes","n":4,"lo":3,"hi":3,"rng":["0","0","0","0"],"dims":[1,1],"x":"3f800000"}"#,
            r#"{"type":"passes","n":4,"lo":0,"hi":5,"rng":["0","0","0","0"],"dims":[1,1],"x":"3f800000"}"#,
            r#"{"type":"passes","n":4,"lo":0,"hi":2,"rng":["0","0","0"],"dims":[1,1],"x":"3f800000"}"#,
            r#"{"type":"passes","n":4,"lo":0,"hi":2,"rng":[0,0,0,0],"dims":[1,1],"x":"3f800000"}"#,
            r#"{"type":"passes","lo":0,"hi":2,"rng":["0","0","0","0"],"dims":[1,1],"x":"3f800000"}"#,
            r#"{"type":"passes","n":1025,"lo":0,"hi":1,"rng":["0","0","0","0"],"dims":[1,1],"x":"3f800000"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    /// Bit patterns the decimal wire could not carry exactly (a NaN
    /// payload), plus the other classes a float codec gets wrong: ±0,
    /// subnormals, ±inf, the extremes, then seeded random patterns.
    fn awkward_bits(rng: &mut stuq_tensor::StuqRng, n: usize) -> Vec<f32> {
        let specials = [
            0x7fc0_0001u32,
            0xffc0_0000,
            0x7f80_0001,
            0x0000_0000,
            0x8000_0000,
            0x0000_0001,
            0x807f_ffff,
            0x7f80_0000,
            0xff80_0000,
            0x7f7f_ffff,
            0x15ae_43fd,
        ];
        let random = std::iter::repeat_with(|| rng.next_u64() as u32);
        specials.into_iter().chain(random).take(n).map(f32::from_bits).collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn worker_reply_cap_holds_the_largest_passes_reply() {
        let cell = Tensor::full(&[3, 2], f32::NAN);
        let passes = vec![(cell.clone(), Some(cell)); MAX_MC_SAMPLES];
        let reply = resp_passes("0123456789abcdef", &passes);
        let cap = max_worker_reply_bytes(3, 2);
        assert!(reply.len() <= cap, "{} > {cap}", reply.len());
        assert!(reply.len() > cap - MAX_LINE_BYTES, "the payload term is the whole payload");
        assert_eq!(max_worker_reply_bytes(307, 12), 60_358_656 + MAX_LINE_BYTES);
    }

    #[test]
    fn passes_rpc_roundtrips_every_bit_pattern_in_both_directions() {
        let mut rng = stuq_tensor::StuqRng::new(0x9a55);
        for (rows, cols, n_passes) in [(12, 43, 5), (1, 1, 1), (3, 7, 2)] {
            let x = Tensor::from_vec(awkward_bits(&mut rng, rows * cols), &[rows, cols]);
            let words = [rng.next_u64(), rng.next_u64(), 0, u64::MAX];
            let line = render_passes_req(&x, 9, 2..9, &words, Some((3, 4)));
            let Ok(Request::Passes(p)) = parse_request(&line) else { panic!("{line}") };
            assert_eq!(p.x.shape(), [rows, cols]);
            assert_eq!(bits(&p.x), bits(&x));
            assert_eq!((p.n, p.lo, p.hi, p.rng), (9, 2, 9, words));

            let (r, c) = (cols, rows);
            let passes: Vec<SamplePass> = (0..n_passes)
                .map(|_| {
                    let mu = Tensor::from_vec(awkward_bits(&mut rng, r * c), &[r, c]);
                    (mu, Some(Tensor::from_vec(awkward_bits(&mut rng, r * c), &[r, c])))
                })
                .collect();
            let line = resp_passes("ck", &passes);
            assert!(line.starts_with("{\"type\":\"passes\""), "faultnet's envelope");
            let Ok(WorkerResp::Passes { model, passes: got }) = parse_worker_resp(&line) else {
                panic!("{line}")
            };
            assert_eq!(model, "ck");
            assert_eq!(got.len(), n_passes);
            for ((gm, gv), (wm, wv)) in got.iter().zip(&passes) {
                assert_eq!((gm.shape(), bits(gm)), (wm.shape(), bits(wm)));
                let (gv, wv) = (gv.as_ref().unwrap(), wv.as_ref().unwrap());
                assert_eq!((gv.shape(), bits(gv)), (wv.shape(), bits(wv)));
            }
        }
        // The decimal wire turned every NaN into the canonical marker; the
        // words keep the payload.
        let nan = Tensor::from_vec(vec![f32::from_bits(0x7fc0_0001)], &[1, 1]);
        let line = render_passes_req(&nan, 1, 0..1, &[0; 4], None);
        assert!(line.ends_with(",\"dims\":[1,1],\"x\":\"7fc00001\"}"), "{line}");
    }

    #[test]
    fn malformed_pass_payloads_get_typed_refusals() {
        let head = r#"{"type":"passes","id":"m","n":2,"lo":0,"hi":1,"rng":["0","0","0","0"]"#;
        let reply = r#"{"type":"passes","model":"ck""#;
        let word = "3f800000";
        for (req_tail, resp_tail) in [
            // Wrong word count, both ways.
            (format!(r#""dims":[1,2],"x":"{word}""#), format!(r#""dims":[1,1,2],"mu":"{word}""#)),
            (
                format!(r#""dims":[1,1],"x":"{word}0""#),
                format!(r#""dims":[1,1,1],"mu":"{word}{word}""#),
            ),
            // Uppercase, signed and non-hex digits.
            (r#""dims":[1,1],"x":"3F800000""#.into(), r#""dims":[1,1,1],"mu":"3F800000""#.into()),
            (r#""dims":[1,1],"x":"+3f80000""#.into(), r#""dims":[1,1,1],"mu":"+3f80000""#.into()),
            (r#""dims":[1,1],"x":"3f80000g""#.into(), r#""dims":[1,1,1],"mu":"3f8 0000""#.into()),
            // Zero and overflowing dims.
            (r#""dims":[0,1],"x":"""#.into(), r#""dims":[1,0,1],"mu":"""#.into()),
            (
                r#""dims":[4294967296,4294967296],"x":"""#.into(),
                r#""dims":[4294967296,4294967296,1],"mu":"""#.into(),
            ),
            // Dims of the wrong rank, or missing.
            (format!(r#""dims":[1],"x":"{word}""#), format!(r#""dims":[1,1],"mu":"{word}""#)),
            (format!(r#""x":"{word}""#), format!(r#""mu":"{word}""#)),
            // A good "mu" beside a bad "var".
            (
                r#""dims":[1,1],"x":1"#.into(),
                format!(r#""dims":[1,1,1],"mu":"{word}","var":"{word}0""#),
            ),
            // The old decimal forms.
            (r#""x":[[1]]"#.into(), r#""mu":[[[0.5]]]"#.into()),
            (r#""dims":[1,1],"x":[[1]]"#.into(), r#""dims":[1,1,1],"mu":[[[0.5]]]"#.into()),
        ] {
            let line = format!("{head},{req_tail}}}");
            let e = parse_request(&line).unwrap_err();
            assert_eq!(e.id.as_deref(), Some("m"), "{line}");
            let line = format!("{reply},{resp_tail}}}");
            assert!(parse_worker_resp(&line).is_err(), "{line}");
        }
        // The good forms of the same lines parse.
        assert!(parse_request(&format!(r#"{head},"dims":[1,1],"x":"{word}"}}"#)).is_ok());
        let good = format!(r#"{reply},"dims":[1,1,1],"mu":"{word}","var":"{word}"}}"#);
        assert!(parse_worker_resp(&good).is_ok());
    }

    #[test]
    fn bad_requests_keep_the_id_when_extractable() {
        let e = parse_request(r#"{"type":"forecast","id":"r9"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r9"));
        assert!(e.detail.contains("\"x\""));
        let e = parse_request("not json at all").unwrap_err();
        assert_eq!(e.id, None);
        let e = parse_request(r#"{"type":"forecast","id":"rg","x":[[1],[2,3]]}"#).unwrap_err();
        assert!(e.detail.contains("ragged"));
        let e = parse_request(r#"{"type":"launch_missiles"}"#).unwrap_err();
        assert!(e.detail.contains("unknown request type"));
    }

    #[test]
    fn responses_are_valid_json_with_stable_types() {
        let id = Some("q".to_string());
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let iv = Intervals { mu: &m, sigma: &m, lower: &m, upper: &m };
        for (line, ty) in [
            (resp_forecast(&id, 3, 8, "ck", &ForecastMeta::solo(), &iv), "forecast"),
            (resp_rejected(&id, "queue_full"), "rejected"),
            (resp_fallback(&id, "breaker_open", &iv), "fallback"),
            (resp_error(&None, "bad_request", "nope"), "error"),
            (resp_ack(&id, "drain", &[]), "ack"),
            (resp_passes("ck", &[(m.clone(), None)]), "passes"),
        ] {
            let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.get("type").and_then(Json::as_str), Some(ty));
        }
        let deg = resp_forecast(&id, 3, 8, "ck", &ForecastMeta::solo(), &iv);
        assert!(deg.contains("\"degraded\":true"));
        assert!(deg.contains("\"samples_used\":3"));
        assert!(deg.contains("\"model\":\"ck\""));
        assert!(deg.contains("\"batched\":false,\"batch_size\":1,\"cache_hit\":false"));
        let v = json::parse(&deg).unwrap();
        let infl = v.get("variance_inflation").and_then(Json::as_f64).unwrap();
        assert!((infl - 8.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn worker_responses_roundtrip_bit_exactly() {
        let id = None;
        // Awkward floats: shortest-roundtrip f32 rendering parsed back as
        // f32 is exact. Parsing as f64 and casting is not: ±7.038531e-26
        // (bits 0x15ae43fd/0x95ae43fd) rounds twice and lands one ulp off.
        let m = Tensor::from_vec(
            vec![
                0.1,
                1.0 / 3.0,
                -2.7182817,
                1e-7,
                f32::from_bits(0x15ae43fd),
                f32::from_bits(0x95ae43fd),
            ],
            &[3, 2],
        );
        let iv = Intervals { mu: &m, sigma: &m, lower: &m, upper: &m };
        let line = resp_forecast(&id, 5, 8, "ck9", &ForecastMeta::solo(), &iv);
        let Ok(WorkerResp::Forecast { samples_used, samples_requested, model, iv: own }) =
            parse_worker_resp(&line)
        else {
            panic!("wrong variant for {line}");
        };
        assert_eq!((samples_used, samples_requested), (5, 8));
        assert_eq!(model, "ck9");
        assert_eq!(render_matrix(&own.mu), render_matrix(&m), "f32 wire roundtrip is exact");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&own.mu), bits(&m));

        let passes = vec![(m.clone(), Some(m.scale(2.0))), (m.scale(-1.0), Some(m.clone()))];
        let Ok(WorkerResp::Passes { model, passes: got }) =
            parse_worker_resp(&resp_passes("ck9", &passes))
        else {
            panic!("wrong variant for passes");
        };
        assert_eq!(model, "ck9");
        assert_eq!(got.len(), 2);
        for ((gm, gv), (wm, wv)) in got.iter().zip(&passes) {
            assert_eq!(bits(gm), bits(wm));
            assert_eq!(bits(gv.as_ref().unwrap()), bits(wv.as_ref().unwrap()));
        }
        let point = parse_worker_resp(&resp_passes("ck9", &[(m.clone(), None)]));
        assert!(matches!(point, Ok(WorkerResp::Passes { passes, .. }) if passes[0].1.is_none()));

        let ack = resp_ack(&id, "prepare_reload", &[("ok", "true".into())]);
        assert!(matches!(
            parse_worker_resp(&ack),
            Ok(WorkerResp::Ack { ok: true, action, .. }) if action == "prepare_reload"
        ));
        let nack = resp_ack(&id, "prepare_reload", &[("ok", "false".into())]);
        assert!(matches!(parse_worker_resp(&nack), Ok(WorkerResp::Ack { ok: false, .. })));
        assert!(parse_worker_resp("garbage").is_err());
    }

    #[test]
    fn trace_context_parses_and_rejects_malformed_ids() {
        let r = parse_request(
            r#"{"type":"forecast","x":[[1]],"trace":"00000000deadbeef","span":"0000000000000001"}"#,
        )
        .unwrap();
        let Request::Forecast(f) = r else { panic!("wrong variant") };
        assert_eq!(f.trace, Some(0xdead_beef));
        assert_eq!(f.span, Some(1));
        let r = parse_request(r#"{"type":"forecast","x":[[1]]}"#).unwrap();
        let Request::Forecast(f) = r else { panic!("wrong variant") };
        assert_eq!((f.trace, f.span), (None, None));
        let e = parse_request(r#"{"type":"forecast","x":[[1]],"trace":"beef"}"#).unwrap_err();
        assert!(e.detail.contains("16-hex"), "{}", e.detail);
        let e = parse_request(r#"{"type":"forecast","x":[[1]],"span":12}"#).unwrap_err();
        assert!(e.detail.contains("\"span\""), "{}", e.detail);
    }

    #[test]
    fn metrics_scrape_roundtrips() {
        assert!(matches!(parse_request(r#"{"type":"metrics"}"#), Ok(Request::Metrics { .. })));
        assert!(matches!(
            parse_request(r#"{"type":"cluster-metrics","id":"m"}"#),
            Ok(Request::ClusterMetrics { .. })
        ));
        let line = resp_metrics(
            &Some("m".into()),
            &[("stuq_serve_requests_total", 41), ("stuq_serve_shed_total", 0)],
        );
        assert!(json::parse(&line).is_ok(), "{line}");
        let Ok(WorkerResp::Metrics { counters }) = parse_worker_resp(&line) else {
            panic!("wrong variant for {line}");
        };
        assert_eq!(
            counters,
            vec![
                ("stuq_serve_requests_total".to_string(), 41),
                ("stuq_serve_shed_total".to_string(), 0)
            ]
        );
        assert!(parse_worker_resp(r#"{"type":"metrics"}"#).is_err());
        assert!(parse_worker_resp(r#"{"type":"metrics","counters":{"a":-1}}"#).is_err());
    }

    #[test]
    fn nonfinite_floats_render_as_markers() {
        let m = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, -1.5, 0.0], &[2, 2]);
        let s = render_matrix(&m);
        assert_eq!(s, r#"[["NaN","inf"],[-1.5,0]]"#);
        assert!(json::parse(&s).is_ok());
    }

    /// A random string over a pool weighted toward what escaping must get
    /// right: controls, quotes, backslashes, escape look-alikes, BMP and
    /// non-BMP characters.
    fn random_string(rng: &mut stuq_tensor::StuqRng) -> String {
        const POOL: &str = "\"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}uaZ0 {:é\u{2028}\u{d7ff}\u{e000}\
                            \u{fffd}\u{ffff}\u{10000}\u{1f600}\u{10ffff}";
        let pool: Vec<char> = POOL.chars().collect();
        let len = rng.uniform_usize(12);
        (0..len)
            .map(|_| match rng.uniform_usize(4) {
                // Any scalar value at all, one draw in four.
                0 => char::from_u32(rng.uniform_usize(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => pool[rng.uniform_usize(pool.len())],
            })
            .collect()
    }

    #[test]
    fn escaped_strings_parse_back_exactly() {
        let mut rng = stuq_tensor::StuqRng::new(0x5eed);
        for _ in 0..20_000 {
            let s = random_string(&mut rng);
            let lit = json::escape(&s);
            assert_eq!(json::parse(&lit).unwrap().as_str(), Some(s.as_str()), "{lit}");
            // As an id, the string survives a request and its response.
            let req = format!(r#"{{"type":"healthz","id":{lit}}}"#);
            let Ok(Request::Healthz { id }) = parse_request(&req) else { panic!("{req}") };
            assert_eq!(id.as_deref(), Some(s.as_str()));
            let resp = resp_rejected(&id, "queue_full");
            let back = json::parse(&resp).unwrap();
            assert_eq!(back.get("id").and_then(Json::as_str), Some(s.as_str()), "{resp}");
        }
    }

    #[test]
    fn arbitrary_f32_bits_roundtrip_through_both_codecs() {
        let mut rng = stuq_tensor::StuqRng::new(0xb175);
        let specials =
            [0x0000_0000, 0x8000_0000, 0x0000_0001, 0x807f_ffff, 0x7fc0_0000, 0xffbf_ffff];
        let bits: Vec<u32> =
            specials.into_iter().chain((0..50_000).map(|_| rng.next_u64() as u32)).collect();
        let values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();

        // Artifact text: bit-exact for every pattern, NaN payloads included.
        let mut payload = Vec::new();
        stuq_artifact::text::write_tensor(&mut payload, "tensor", &[values.len()], &values)
            .unwrap();
        let mut r = payload.as_slice();
        let header = stuq_artifact::text::field(&mut r, "tensor").unwrap();
        let (dims, back) =
            stuq_artifact::text::read_tensor(&mut r, &mut header.split_whitespace()).unwrap();
        assert_eq!(dims, [values.len()]);
        assert!(back.iter().map(|v| v.to_bits()).eq(bits.iter().copied()));

        // Wire JSON: bit-exact for finite values; non-finite ones come back
        // as the class their marker names.
        let m = Tensor::from_vec(values.clone(), &[1, values.len()]);
        let parsed = json::parse(&render_matrix(&m)).unwrap();
        let cells = parsed.as_arr().unwrap()[0].as_arr().unwrap();
        for (v, cell) in values.iter().zip(cells) {
            let got = cell.as_f32().unwrap();
            if v.is_nan() {
                assert!(got.is_nan());
            } else {
                assert_eq!(got.to_bits(), v.to_bits(), "{v:e}");
            }
        }
    }

    #[test]
    fn mutated_request_and_event_lines_never_panic() {
        let forecast = br#"{"type":"forecast","id":"f\"1\ud83d\ude00","x":[[1.5,-2e1,"NaN"],[0,3,"inf"]],"deadline_ms":8,"mc":4,"seed":9,"nodes":[0,2],"horizon":2,"trace":"00000000deadbeef"}"#;
        let event = br#"{"t_ms":12,"seq":3,"type":"span_start","stage":"serve","epoch":0,"trace":"00000000deadbeef","span":"00000000cafef00d","parent":"00000000deadbeef","phase":"request\u00e9"}"#;
        assert!(parse_request(std::str::from_utf8(forecast).unwrap()).is_ok());
        stuq_obs::validate_line(std::str::from_utf8(event).unwrap()).unwrap();

        let mut rng = stuq_tensor::StuqRng::new(0xf1a9);
        let lines: [&[u8]; 2] = [forecast, event];
        for round in 0..10_000 {
            let src = lines[round % 2];
            let other = lines[(round + 1) % 2];
            let mut b = src.to_vec();
            match rng.uniform_usize(3) {
                // Flip one to three bytes to arbitrary values.
                0 => {
                    for _ in 0..=rng.uniform_usize(3) {
                        let i = rng.uniform_usize(b.len());
                        b[i] = rng.next_u64() as u8;
                    }
                }
                1 => b.truncate(rng.uniform_usize(b.len())),
                // Splice a slice of the other line into this one.
                _ => {
                    let at = rng.uniform_usize(b.len());
                    let from = rng.uniform_usize(other.len());
                    let to = from + rng.uniform_usize(other.len() - from);
                    b.splice(at..at, other[from..to].iter().copied());
                }
            }
            let line = String::from_utf8_lossy(&b);
            let _ = parse_request(&line);
            let _ = stuq_obs::validate_line(&line);
        }
    }
}
