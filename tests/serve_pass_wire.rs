//! The cluster's `passes` RPC on the wire (DESIGN.md §13): every payload
//! that is not exactly the packed hex-word form gets a typed refusal. A
//! worker answers a malformed request with `bad_request`; a router that
//! gets a malformed reply loses that sample range as `worker_error` and
//! degrades the response. Neither side panics.
//!
//! The model is a small untrained AGCRN: these tests check the wire, not
//! the forecast, and everything runs on the fake clock in-process.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use deepstuq::pipeline::DeepStuq;
use stuq_artifact::json::{self, Json};
use stuq_models::agcrn::{Agcrn, AgcrnConfig};
use stuq_serve::proto;
use stuq_serve::router::{InProcWorker, Router, RouterConfig, ShardWorker, SupEvent, WorkerState};
use stuq_serve::{ServeConfig, Server};
use stuq_tensor::{StuqRng, Tensor};

const N_NODES: usize = 6;
const T_H: usize = 4;
const HORIZON: usize = 3;

fn model_path() -> &'static PathBuf {
    static MODEL: OnceLock<PathBuf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("stuq_pass_wire_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = AgcrnConfig::new(N_NODES, HORIZON).with_capacity(8, 3, 1).with_dropout(0.3, 0.3);
        let model = DeepStuq::from_parts(Agcrn::new(cfg, &mut StuqRng::new(5)), 1.0, 6);
        let path = dir.join("tiny.stuq");
        deepstuq::save_model(&model, &path).unwrap();
        path
    })
}

fn cfg() -> ServeConfig {
    let mut c = ServeConfig::new(model_path());
    c.fake_clock_step_ms = Some(1);
    c.reload_poll_ms = 0;
    c.mc_samples = Some(6);
    c.floor = 2;
    c.seed = 3;
    c
}

fn field(line: &str, key: &str) -> Json {
    let v = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    v.get(key).cloned().unwrap_or_else(|| panic!("{line} has no {key:?}"))
}

/// Replaces the first `"key":<value>` in `line`, where the value is a
/// string or a bracketed list, with `"key":<with>`.
fn replace_value(line: &str, key: &str, with: &str) -> String {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag).unwrap_or_else(|| panic!("{line} has no {key:?}")) + tag.len();
    let rest = &line[start..];
    let len = if let Some(s) = rest.strip_prefix('"') {
        s.find('"').unwrap() + 2
    } else {
        rest.find(']').unwrap() + 1
    };
    format!("{}{with}{}", &line[..start], &line[start + len..])
}

/// The words of the first `"key":"<words>"` in `line`.
fn words<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag).unwrap() + tag.len();
    &line[start..start + line[start..].find('"').unwrap()]
}

/// Rewrites a well-formed `passes` line into a malformed one.
type Garble = Arc<dyn Fn(&str) -> String + Send + Sync>;

/// Ways to break a well-formed `passes` line whose payload field is `key`
/// (`x` on a request, `mu` on a reply) and whose dims have `rank` entries.
fn breakages(key: &'static str, rank: usize) -> Vec<(&'static str, Garble)> {
    let old = if rank == 2 { "[[1]]" } else { "[[[0.5]]]" };
    let overflow = if rank == 2 { "[4294967296,4294967296]" } else { "[4294967296,4294967296,1]" };
    let zero = if rank == 2 { "[0,6]" } else { "[0,6,3]" };
    vec![
        (
            "one word short",
            Arc::new(move |l: &str| {
                let w = words(l, key);
                replace_value(l, key, &format!("\"{}\"", &w[..w.len() - 8]))
            }),
        ),
        (
            "one word long",
            Arc::new(move |l: &str| {
                replace_value(l, key, &format!("\"{}00000000\"", words(l, key)))
            }),
        ),
        (
            "uppercase digits",
            Arc::new(move |l: &str| {
                replace_value(l, key, &format!("\"{}\"", words(l, key).to_uppercase()))
            }),
        ),
        (
            "a + digit",
            Arc::new(move |l: &str| {
                replace_value(l, key, &format!("\"+{}\"", &words(l, key)[1..]))
            }),
        ),
        (
            "a non-hex byte",
            Arc::new(move |l: &str| {
                replace_value(l, key, &format!("\"{}g\"", &words(l, key)[1..]))
            }),
        ),
        ("zero dims", Arc::new(move |l: &str| replace_value(l, "dims", zero))),
        ("overflowing dims", Arc::new(move |l: &str| replace_value(l, "dims", overflow))),
        (
            "the old decimal form",
            Arc::new(move |l: &str| {
                let no_dims = l.replacen(&format!("\"dims\":{},", field_text(l, "dims")), "", 1);
                replace_value(&no_dims, key, old)
            }),
        ),
    ]
}

/// The raw text of a bracketed list value.
fn field_text<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag).unwrap() + tag.len();
    &line[start..start + line[start..].find(']').unwrap() + 1]
}

#[test]
fn a_worker_refuses_malformed_pass_requests_as_bad_requests() {
    let mut server = Server::new(cfg()).unwrap();
    let x = Tensor::from_vec((0..T_H * N_NODES).map(|i| i as f32 * 0.1).collect(), &[T_H, N_NODES]);
    let good = proto::render_passes_req(&x, 6, 0..3, &[1, 2, 3, 4], None);
    let good = good.replacen("{\"type\":\"passes\"", "{\"type\":\"passes\",\"id\":\"p\"", 1);
    let ok = server.handle_line(&good).response;
    assert_eq!(field(&ok, "type").as_str(), Some("passes"), "{ok}");
    assert_eq!(field(&ok, "dims").as_arr().map(<[Json]>::len), Some(3));

    for (what, brk) in breakages("x", 2) {
        let line = brk(&good);
        assert_ne!(line, good, "{what}");
        let resp = server.handle_line(&line).response;
        assert_eq!(field(&resp, "type").as_str(), Some("error"), "{what}: {resp}");
        assert_eq!(field(&resp, "reason").as_str(), Some("bad_request"), "{what}: {resp}");
        assert_eq!(field(&resp, "id").as_str(), Some("p"), "{what}: {resp}");
    }
}

/// A worker whose `passes` replies pass through `garble` (identity when
/// unset); every other request reaches the wrapped server untouched.
struct Garbling {
    inner: InProcWorker,
    garble: Switch,
}

impl ShardWorker for Garbling {
    fn call(&mut self, line: &str, timeout_ms: u64) -> Result<String, String> {
        let resp = self.inner.call(line, timeout_ms)?;
        match &*self.garble.lock().unwrap() {
            Some(g) if line.starts_with("{\"type\":\"passes\"") => Ok(g(&resp)),
            _ => Ok(resp),
        }
    }
    fn state(&self) -> WorkerState {
        WorkerState::Up
    }
    fn fail(&mut self, reason: &str) {
        panic!("a garbled reply is not a transport fault, but the router failed us: {reason}");
    }
    fn tick(&mut self) -> Vec<SupEvent> {
        Vec::new()
    }
}

type Switch = Arc<Mutex<Option<Garble>>>;

/// A two-shard router whose workers garble through the returned switches.
fn router() -> (Router, Vec<Switch>) {
    let mut rcfg = RouterConfig::new(cfg());
    rcfg.shards = 2;
    let switches: Vec<Switch> = (0..2).map(|_| Arc::new(Mutex::new(None))).collect();
    let workers = switches
        .iter()
        .map(|g| {
            let inner = InProcWorker::new(Server::new(cfg()).unwrap());
            Box::new(Garbling { inner, garble: Arc::clone(g) }) as Box<dyn ShardWorker>
        })
        .collect();
    (Router::new(rcfg, workers).unwrap(), switches)
}

fn forecast(id: &str) -> String {
    let rows: Vec<String> = (0..T_H)
        .map(|t| {
            let cells: Vec<String> =
                (0..N_NODES).map(|i| format!("{}", (t * 7 + i) as f32)).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("{{\"type\":\"forecast\",\"id\":\"{id}\",\"seed\":9,\"x\":[{}]}}", rows.join(","))
}

#[test]
fn a_router_loses_a_malformed_reply_range_as_worker_error() {
    let (mut healthy, _) = router();
    let clean = healthy.handle_line(&forecast("f")).response;
    assert_eq!(field(&clean, "degraded"), Json::Bool(false), "{clean}");

    // One shard garbles: its half of the passes is lost, the response
    // degrades to the other half.
    let (mut one, switches) = router();
    // Both shards garble on a fresh router: fewer passes than the floor and
    // no healthy history, so the first lost range's reason is the answer.
    let (mut both, all) = router();
    for (what, brk) in breakages("mu", 3) {
        let garble = |s: &Switch| *s.lock().unwrap() = Some(Arc::clone(&brk));
        garble(&switches[0]);
        let resp = one.handle_line(&forecast(what)).response;
        assert_eq!(field(&resp, "type").as_str(), Some("forecast"), "{what}: {resp}");
        assert_eq!(field(&resp, "degraded"), Json::Bool(true), "{what}: {resp}");
        assert_eq!(field(&resp, "samples_used").as_u64(), Some(3), "{what}: {resp}");

        all.iter().for_each(garble);
        let resp = both.handle_line(&forecast(what)).response;
        assert_eq!(field(&resp, "type").as_str(), Some("rejected"), "{what}: {resp}");
        assert_eq!(field(&resp, "reason").as_str(), Some("worker_error"), "{what}: {resp}");
    }

    // The same router serves full fidelity again once the replies are clean.
    *switches[0].lock().unwrap() = None;
    let again = one.handle_line(&forecast("f")).response;
    assert_eq!(again, clean);
}

/// The router sizes the worker-reply cap from the model it loaded: a
/// worker's largest legal reply, every one of the `MAX_MC_SAMPLES` passes,
/// fits under it, and its hex-word payload alone fills all of the cap but
/// the [`proto::MAX_LINE_BYTES`] of headroom.
#[test]
fn the_router_sizes_the_reply_cap_from_its_model() {
    let (router, _) = router();
    let cap = router.max_worker_reply_bytes();
    assert_eq!(cap, proto::max_worker_reply_bytes(N_NODES, HORIZON));
    let mut worker = Server::new(cfg()).unwrap();
    let x = Tensor::from_vec((0..T_H * N_NODES).map(|i| i as f32 * 0.1).collect(), &[T_H, N_NODES]);
    let all = proto::MAX_MC_SAMPLES;
    let req = proto::render_passes_req(&x, all, 0..all, &[1, 2, 3, 4], None);
    let reply = worker.handle_line(&req).response;
    assert_eq!(field(&reply, "type").as_str(), Some("passes"), "{reply:.200}");
    assert!(reply.len() <= cap, "reply of {} bytes past the cap {cap}", reply.len());
    let payload = words(&reply, "mu").len() + words(&reply, "var").len();
    assert_eq!(payload, cap - proto::MAX_LINE_BYTES);
}
