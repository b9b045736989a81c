//! Golden pins for the whole forecast pipeline (DESIGN.md §11–§15).
//!
//! One mixed request stream goes through the serve loop of a solo
//! [`Server`] and of a 2-shard in-process [`Router`] with one dead shard,
//! on the fake clock. The stream covers co-batched duplicates, cache
//! hits and a TTL expiry, node and horizon slices, a run cut by its
//! deadline, client errors inside a batch, a model fault that opens the
//! breaker, breaker-open fallbacks and the half-open recovery; on the
//! router, whose first shard is dead, every multi-pass group loses half its
//! passes, and one group's live shard returns fewer passes than the floor.
//!
//! Each run pins three things: the full response bytes (a digest, beside a
//! readable per-line summary), the traced run's event log in emission order
//! without timings, and the serving counters. The other serve suites check
//! that two paths agree with each other; these pins check that a rewrite of
//! the pipeline keeps every byte, clock read, breaker transition, cache
//! insert and eviction, and trace event where it was.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
use stuq_artifact::json::{self, Json};
use stuq_serve::proto::strip_meta;
use stuq_serve::router::{
    router_loop, InProcWorker, Router, RouterConfig, ShardWorker, SupEvent, WorkerState,
};
use stuq_serve::{serve_loop, ServeConfig, Server};
use stuq_traffic::{Preset, Split};

/// Obs state (level, recorder, metrics) is process-global.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

struct Fx {
    dir: PathBuf,
    data: PathBuf,
    model: PathBuf,
    /// Three raw test windows, time-major rows.
    windows: [Vec<Vec<f32>>; 3],
}

fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("stuq_serve_golden_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(601);
        let data = dir.join("toy.stuqd");
        stuq_traffic::save_dataset(ds.data(), &data).unwrap();
        let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        let model = dir.join("toy.stuq");
        deepstuq::save_model(&DeepStuq::train(&ds, cfg, 601), &model).unwrap();
        let starts = ds.window_starts(Split::Test);
        let window = |start: usize| -> Vec<Vec<f32>> {
            (start..start + ds.t_h())
                .map(|t| (0..ds.n_nodes()).map(|i| ds.data().get(t, i)).collect())
                .collect()
        };
        Fx { dir, data, model, windows: [window(starts[0]), window(starts[1]), window(starts[2])] }
    })
}

/// Fake clock, batches of four, a small TTL cache, a one-fault breaker
/// with a short cooldown, and a guard ceiling that normal windows stay
/// under (|μ| below 80 raw units) and a saturated window does not (255).
fn cfg(f: &Fx) -> ServeConfig {
    let mut c = ServeConfig::new(&f.model);
    c.data_path = Some(f.data.clone());
    c.fake_clock_step_ms = Some(1);
    c.reload_poll_ms = 0;
    c.mc_samples = Some(4);
    c.floor = 2;
    c.seed = 11;
    c.max_queue = 100;
    c.batch_max = 4;
    c.cache_ttl_ms = 5;
    c.cache_cap = 2;
    c.breaker_threshold = 1;
    c.breaker_cooldown_ms = 4;
    c.breaker_cooldown_max_ms = 16;
    c.max_abs_output = 150.0;
    c
}

/// A shard worker that is down for good.
struct DeadWorker;

impl ShardWorker for DeadWorker {
    fn call(&mut self, _line: &str, _timeout_ms: u64) -> Result<String, String> {
        Err("worker_down".into())
    }
    fn state(&self) -> WorkerState {
        WorkerState::Down
    }
    fn fail(&mut self, _reason: &str) {}
    fn tick(&mut self) -> Vec<SupEvent> {
        Vec::new()
    }
}

/// The input window as wire JSON; `nan` puts a `"NaN"` marker in it.
fn x_json(rows: &[Vec<f32>], nan: bool) -> String {
    let rows: Vec<String> =
        rows.iter()
            .enumerate()
            .map(|(i, r)| {
                let cells: Vec<String> =
                    r.iter()
                        .enumerate()
                        .map(|(j, v)| {
                            if nan && i == 1 && j == 2 {
                                "\"NaN\"".into()
                            } else {
                                format!("{v}")
                            }
                        })
                        .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
    format!("[{}]", rows.join(","))
}

/// The mixed stream, in batches of four (the last one closed by EOF).
/// Windows: 0–2 are test windows, 3 is window 0 scaled ×1000 (it
/// saturates the recurrent state, so |μ| lands above the guard ceiling).
fn stream(f: &Fx) -> String {
    let saturated: Vec<Vec<f32>> =
        f.windows[0].iter().map(|r| r.iter().map(|v| v * 1000.0).collect()).collect();
    let narrow: Vec<Vec<f32>> = f.windows[0].iter().map(|r| r[..r.len() - 1].to_vec()).collect();
    let x = |w: usize| match w {
        3 => x_json(&saturated, false),
        w => x_json(&f.windows[w], false),
    };
    let req = |id: &str, extra: &str, x: String| {
        format!("{{\"type\":\"forecast\",\"id\":\"{id}\"{extra},\"x\":{x}}}\n")
    };
    [
        // B1: three co-batched duplicates (one sliced) and a shape error.
        req("a0", ",\"tick\":1", x(0)),
        req("a1", ",\"tick\":1", x(0)),
        req("a2", ",\"tick\":1,\"nodes\":[2,0],\"horizon\":2", x(0)),
        req("e0", ",\"tick\":1", x_json(&narrow, false)),
        // B2: a cache hit, a one-pass tick, a sliced seed, a cut run.
        req("h0", ",\"tick\":1", x(0)),
        req("m0", ",\"tick\":2,\"mc\":1", x(1)),
        req("s0", ",\"seed\":5,\"nodes\":[1],\"horizon\":1", x(1)),
        req("d0", ",\"seed\":7,\"mc\":8,\"deadline_ms\":3", x(2)),
        // B3: a horizon error, a hit, an arrival-seeded run, a NaN input.
        req("e1", ",\"tick\":1,\"horizon\":99", x(0)),
        req("m1", ",\"tick\":2,\"mc\":1", x(1)),
        req("l0", "", x(1)),
        req("n0", ",\"seed\":3", x_json(&f.windows[0], true)),
        // B4: two passes (short of the floor on the router), a hit, and a
        // duplicated fault that opens the breaker.
        req("q0", ",\"seed\":13,\"mc\":2", x(2)),
        req("m2", ",\"tick\":2,\"mc\":1", x(1)),
        req("f0", ",\"seed\":9", x(3)),
        req("f1", ",\"seed\":9", x(3)),
        // B5: breaker-open fallbacks (one group sliced) and a node error.
        req("o0", ",\"tick\":3", x(2)),
        req("o1", ",\"tick\":3,\"nodes\":[0,1],\"horizon\":2", x(2)),
        req("o2", ",\"seed\":21", x(0)),
        req("e2", ",\"seed\":21,\"nodes\":[999]", x(0)),
        // B6: the half-open probe and the recovered breaker.
        req("r0", ",\"tick\":1", x(0)),
        req("r1", ",\"tick\":2,\"mc\":1", x(1)),
        req("r2", ",\"seed\":5,\"nodes\":[1],\"horizon\":1", x(1)),
        req("r3", ",\"tick\":1", x(0)),
        // B7, closed by EOF: hits on what B6 computed.
        req("t0", ",\"tick\":2,\"mc\":1", x(1)),
        req("t1", ",\"seed\":5,\"nodes\":[1],\"horizon\":1", x(1)),
    ]
    .concat()
}

#[derive(Clone)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run_solo(f: &Fx) -> Vec<String> {
    let mut srv = Server::new(cfg(f)).unwrap();
    let sink = Sink(Arc::new(Mutex::new(Vec::new())));
    serve_loop(&mut srv, std::io::Cursor::new(stream(f)), sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    out.lines().map(str::to_owned).collect()
}

fn run_router(f: &Fx) -> Vec<String> {
    let mut rcfg = RouterConfig::new(cfg(f));
    rcfg.shards = 2;
    let workers: Vec<Box<dyn ShardWorker>> =
        vec![Box::new(DeadWorker), Box::new(InProcWorker::new(Server::new(cfg(f)).unwrap()))];
    let mut router = Router::new(rcfg, workers).unwrap();
    let sink = Sink(Arc::new(Mutex::new(Vec::new())));
    router_loop(&mut router, std::io::Cursor::new(stream(f)), sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    out.lines().map(str::to_owned).collect()
}

/// One readable line per response: id, type, then the fields that tell
/// the pipeline's branches apart.
fn summary(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            let v = json::parse(l).unwrap_or_else(|e| panic!("{l}: {e}"));
            let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("-").to_string();
            let u = |k: &str| v.get(k).and_then(Json::as_u64).map_or("-".into(), |n| n.to_string());
            let meta = |k: &str| match v.get("meta").and_then(|m| m.get(k)) {
                Some(Json::Bool(b)) => b.to_string(),
                Some(j) => j.as_u64().map_or("-".into(), |n| n.to_string()),
                None => "-".into(),
            };
            let rows = v.get("mu").and_then(Json::as_arr).map_or(0, |r| r.len());
            let cols = v
                .get("mu")
                .and_then(Json::as_arr)
                .and_then(|r| r.first())
                .and_then(Json::as_arr)
                .map_or(0, |c| c.len());
            format!(
                "{} {} reason={} used={}/{} grid={rows}x{cols} batch={} hit={}",
                s("id"),
                s("type"),
                s("reason"),
                u("samples_used"),
                u("samples_requested"),
                meta("batch_size"),
                meta("cache_hit"),
            )
        })
        .collect()
}

fn digest(lines: &[String]) -> u64 {
    stuq_artifact::fnv1a64(lines.join("\n").as_bytes())
}

/// Runs `run` at trace level with a sink in `dir` and returns its output
/// with the event log it left: one line per event, in emission order,
/// without timings, the sink path or slow-request exemplars. Span events
/// keep type, phase, parent, status, reason and shard.
fn traced<T>(dir: &Path, run: impl FnOnce() -> T) -> (T, Vec<String>) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    stuq_obs::init(Some(dir), stuq_obs::Level::Trace);
    let out = run();
    stuq_obs::flush().unwrap();
    let payload = stuq_artifact::read_verified(dir.join(stuq_obs::EVENTS_FILE)).unwrap();
    let text = String::from_utf8(payload).unwrap();
    const SPAN_KEYS: [&str; 6] = ["type", "phase", "parent", "status", "reason", "shard"];
    const UNSTABLE_KEYS: [&str; 6] = ["t_ms", "seq", "seconds", "path", "stage", "epoch"];
    let mut events = Vec::new();
    for l in text.lines() {
        let Json::Obj(pairs) = json::parse(l).unwrap() else { panic!("{l}") };
        let ty = pairs.iter().find(|(k, _)| k == "type").and_then(|(_, v)| v.as_str());
        if ty == Some("trace_exemplar") {
            continue;
        }
        let span = ty.is_some_and(|t| t.starts_with("span_"));
        let fields: Vec<String> = pairs
            .iter()
            .filter(|(k, _)| {
                if span {
                    SPAN_KEYS.contains(&k.as_str())
                } else {
                    !UNSTABLE_KEYS.contains(&k.as_str())
                }
            })
            .map(|(k, v)| match v {
                Json::Str(s) => format!("{k}={s}"),
                other => format!("{k}={}", other.as_f64().map_or("?".into(), |n| n.to_string())),
            })
            .collect();
        events.push(fields.join(" "));
    }
    stuq_obs::init(None, stuq_obs::Level::Off);
    (out, events)
}

/// The serving and cluster counters after a traced run, `name=value`.
fn counters() -> Vec<String> {
    stuq_obs::metrics()
        .counters()
        .into_iter()
        .filter(|(k, v)| *v > 0 && (k.starts_with("stuq_serve_") || k.starts_with("stuq_cluster_")))
        .map(|(k, v)| format!("{k}={v}"))
        .collect()
}

/// What one run must reproduce.
struct Golden {
    /// [`summary`] of the response lines.
    summary: &'static [&'static str],
    /// [`digest`] of the full response bytes.
    responses: u64,
    /// Line count and [`digest`] of the traced event log.
    events: (usize, u64),
    /// The traced run's nonzero serving counters.
    counters: &'static [&'static str],
}

/// Runs the stream untraced and traced, checks that tracing moved no
/// response byte, and compares the run with its golden. On a mismatch the
/// whole run is printed, so the diff can be read off the test output.
fn check(tag: &str, run: impl Fn() -> Vec<String>, want: &Golden) {
    let f = fx();
    stuq_obs::init(None, stuq_obs::Level::Off);
    let out = run();
    let ((traced_out, counts), events) = traced(&f.dir.join(tag), || (run(), counters()));
    assert_eq!(out.len(), traced_out.len(), "{tag}: one response per request");
    for (o, t) in out.iter().zip(&traced_out) {
        assert_eq!(strip_meta(o), strip_meta(t), "{tag}: tracing moved a response byte");
    }
    let got = (summary(&out), digest(&out), (events.len(), digest(&events)), counts);
    let pinned = (
        want.summary.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        want.responses,
        want.events,
        want.counters.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    if got != pinned {
        println!("--- {tag} responses");
        for l in &out {
            println!("{l}");
        }
        println!("--- {tag} events");
        for l in &events {
            println!("{l}");
        }
        println!("--- {tag} summary {:#?}", got.0);
        println!(
            "--- {tag} digests: responses {:#018x}, events ({}, {:#018x})",
            got.1, got.2 .0, got.2 .1
        );
        println!("--- {tag} counters {:#?}", got.3);
    }
    assert_eq!(got.0, pinned.0, "{tag}: response summary moved");
    assert_eq!(got.3, pinned.3, "{tag}: serving counters moved");
    assert_eq!(got.2, pinned.2, "{tag}: event log moved");
    assert_eq!(got.1, pinned.1, "{tag}: response bytes moved");
}

#[test]
fn solo_stream_is_pinned() {
    let _l = obs_lock();
    check(
        "solo",
        || run_solo(fx()),
        &Golden {
            summary: &[
                "a0 forecast reason=- used=4/4 grid=14x12 batch=4 hit=false",
                "a1 forecast reason=- used=4/4 grid=14x12 batch=4 hit=false",
                "a2 forecast reason=- used=4/4 grid=2x2 batch=4 hit=false",
                "e0 error reason=shape_mismatch used=-/- grid=0x0 batch=- hit=-",
                "h0 forecast reason=- used=4/4 grid=14x12 batch=4 hit=true",
                "m0 forecast reason=- used=1/1 grid=14x12 batch=4 hit=false",
                "s0 forecast reason=- used=4/4 grid=1x1 batch=4 hit=false",
                "d0 forecast reason=- used=4/8 grid=14x12 batch=4 hit=false",
                "e1 error reason=shape_mismatch used=-/- grid=0x0 batch=- hit=-",
                "m1 forecast reason=- used=1/1 grid=14x12 batch=4 hit=false",
                "l0 forecast reason=- used=4/4 grid=14x12 batch=4 hit=false",
                "n0 error reason=non_finite_input used=-/- grid=0x0 batch=- hit=-",
                "q0 forecast reason=- used=2/2 grid=14x12 batch=4 hit=false",
                "m2 forecast reason=- used=1/1 grid=14x12 batch=4 hit=true",
                "f0 fallback reason=model_fault used=-/- grid=14x12 batch=- hit=-",
                "f1 fallback reason=model_fault used=-/- grid=14x12 batch=- hit=-",
                "o0 fallback reason=breaker_open used=-/- grid=14x12 batch=- hit=-",
                "o1 fallback reason=breaker_open used=-/- grid=2x2 batch=- hit=-",
                "o2 fallback reason=breaker_open used=-/- grid=14x12 batch=- hit=-",
                "e2 error reason=shape_mismatch used=-/- grid=0x0 batch=- hit=-",
                "r0 forecast reason=- used=4/4 grid=14x12 batch=4 hit=false",
                "r1 forecast reason=- used=1/1 grid=14x12 batch=4 hit=false",
                "r2 forecast reason=- used=4/4 grid=1x1 batch=4 hit=false",
                "r3 forecast reason=- used=4/4 grid=14x12 batch=4 hit=false",
                "t0 forecast reason=- used=1/1 grid=14x12 batch=2 hit=true",
                "t1 forecast reason=- used=4/4 grid=1x1 batch=2 hit=true",
            ],
            responses: 0xa8f8_03ef_efd7_06ab,
            events: (268, 0xbf02_d6ce_046c_9cb2),
            counters: &[
                "stuq_serve_requests_total=26",
                "stuq_serve_degraded_total=1",
                "stuq_serve_fallback_total=5",
                "stuq_serve_batches_total=7",
                "stuq_serve_cache_hits_total=4",
                "stuq_serve_cache_misses_total=17",
                "stuq_serve_cache_evictions_total=3",
                "stuq_serve_cache_invalidations_total=1",
            ],
        },
    );
}

#[test]
fn cluster_stream_is_pinned() {
    let _l = obs_lock();
    check(
        "cluster",
        || run_router(fx()),
        &Golden {
            summary: &[
                "a0 forecast reason=- used=2/4 grid=14x12 batch=4 hit=false",
                "a1 forecast reason=- used=2/4 grid=14x12 batch=4 hit=false",
                "a2 forecast reason=- used=2/4 grid=2x2 batch=4 hit=false",
                "e0 error reason=shape_mismatch used=-/- grid=0x0 batch=- hit=-",
                "h0 forecast reason=- used=2/4 grid=14x12 batch=4 hit=false",
                "m0 forecast reason=- used=1/1 grid=14x12 batch=4 hit=false",
                "s0 forecast reason=- used=2/4 grid=1x1 batch=4 hit=false",
                "d0 forecast reason=- used=4/8 grid=14x12 batch=4 hit=false",
                "e1 error reason=shape_mismatch used=-/- grid=0x0 batch=- hit=-",
                "m1 forecast reason=- used=1/1 grid=14x12 batch=4 hit=false",
                "l0 forecast reason=- used=2/4 grid=14x12 batch=4 hit=false",
                "n0 error reason=non_finite_input used=-/- grid=0x0 batch=- hit=-",
                "q0 fallback reason=worker_down used=-/- grid=14x12 batch=- hit=-",
                "m2 forecast reason=- used=1/1 grid=14x12 batch=4 hit=true",
                "f0 fallback reason=model_fault used=-/- grid=14x12 batch=- hit=-",
                "f1 fallback reason=model_fault used=-/- grid=14x12 batch=- hit=-",
                "o0 fallback reason=breaker_open used=-/- grid=14x12 batch=- hit=-",
                "o1 fallback reason=breaker_open used=-/- grid=2x2 batch=- hit=-",
                "o2 fallback reason=breaker_open used=-/- grid=14x12 batch=- hit=-",
                "e2 error reason=shape_mismatch used=-/- grid=0x0 batch=- hit=-",
                "r0 forecast reason=- used=2/4 grid=14x12 batch=4 hit=false",
                "r1 forecast reason=- used=1/1 grid=14x12 batch=4 hit=false",
                "r2 forecast reason=- used=2/4 grid=1x1 batch=4 hit=false",
                "r3 forecast reason=- used=2/4 grid=14x12 batch=4 hit=false",
                "t0 forecast reason=- used=1/1 grid=14x12 batch=2 hit=true",
                "t1 forecast reason=- used=2/4 grid=1x1 batch=2 hit=false",
            ],
            responses: 0x305d_992e_6057_713f,
            events: (404, 0xcf3b_d45e_ae1d_ee3d),
            counters: &[
                "stuq_serve_requests_total=26",
                "stuq_serve_degraded_total=11",
                "stuq_serve_fallback_total=6",
                "stuq_serve_batches_total=7",
                "stuq_serve_cache_hits_total=2",
                "stuq_serve_cache_misses_total=19",
                "stuq_serve_cache_invalidations_total=1",
            ],
        },
    );
}
