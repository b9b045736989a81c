//! End-to-end and property tests for cross-request batched MC inference and
//! the per-tick forecast cache (DESIGN.md §12).
//!
//! The contract under test, stated once: for uncut budgets, a request's
//! response bytes are the same whether it was answered solo, co-batched, or
//! from the cache (modulo the `batched`/`batch_size`/`cache_hit` annotation
//! in the trailing `meta` object, which [`stuq_serve::proto::strip_meta`]
//! removes); batch composition under the fake clock is a pure function of
//! arrival order; co-batched duplicates share one MC run (samples counted
//! once); and the cache never survives a model swap or a breaker-open
//! transition.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
use stuq_artifact::json::{self, Json};
use stuq_models::Forecaster;
use stuq_serve::proto::{self, strip_meta, ForecastReq, Request};
use stuq_serve::{serve_loop, ServeConfig, Server};
use stuq_traffic::{Preset, Split};

struct Fx {
    dir: PathBuf,
    data: PathBuf,
    model: PathBuf,
    /// Valid artifact, same architecture, all parameters NaN.
    poisoned: PathBuf,
    n_nodes: usize,
    horizon: usize,
    /// Two distinct raw test windows, time-major rows.
    windows: [Vec<Vec<f32>>; 2],
}

fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("stuq_serve_batch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(301);
        let data = dir.join("toy.stuqd");
        stuq_traffic::save_dataset(ds.data(), &data).unwrap();
        let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        let model_obj = DeepStuq::train(&ds, cfg, 301);
        let model = dir.join("toy.stuq");
        deepstuq::save_model(&model_obj, &model).unwrap();

        let mut poisoned_obj = deepstuq::load_model(&model).unwrap();
        let ps = poisoned_obj.model_mut().params_mut();
        let nan_snap: Vec<_> = ps.snapshot().iter().map(|t| t.map(|_| f32::NAN)).collect();
        ps.load_snapshot(&nan_snap);
        let poisoned = dir.join("poisoned.stuq");
        deepstuq::save_model(&poisoned_obj, &poisoned).unwrap();

        let starts = ds.window_starts(Split::Test);
        let window = |start: usize| -> Vec<Vec<f32>> {
            (start..start + ds.t_h())
                .map(|t| (0..ds.n_nodes()).map(|i| ds.data().get(t, i)).collect())
                .collect()
        };
        Fx {
            dir,
            data,
            model,
            poisoned,
            n_nodes: ds.n_nodes(),
            horizon: ds.horizon(),
            windows: [window(starts[0]), window(starts[1])],
        }
    })
}

/// Fake clock, no watcher, batching/cache off — tests opt in per knob.
fn cfg_for(model_path: &Path, f: &Fx) -> ServeConfig {
    let mut c = ServeConfig::new(model_path);
    c.data_path = Some(f.data.clone());
    c.fake_clock_step_ms = Some(1);
    c.reload_poll_ms = 0;
    c.mc_samples = Some(4);
    c.floor = 2;
    c.seed = 11;
    c
}

/// Request-line builder covering the batching-era fields.
#[derive(Clone, Default)]
struct Req {
    id: String,
    seed: Option<u64>,
    tick: Option<u64>,
    mc: Option<usize>,
    deadline_ms: Option<u64>,
    nodes: Option<Vec<usize>>,
    horizon: Option<usize>,
    window: usize,
}

impl Req {
    fn line(&self, f: &Fx) -> String {
        let mut s = format!("{{\"type\":\"forecast\",\"id\":\"{}\"", self.id);
        if let Some(v) = self.seed {
            s.push_str(&format!(",\"seed\":{v}"));
        }
        if let Some(v) = self.tick {
            s.push_str(&format!(",\"tick\":{v}"));
        }
        if let Some(v) = self.mc {
            s.push_str(&format!(",\"mc\":{v}"));
        }
        if let Some(v) = self.deadline_ms {
            s.push_str(&format!(",\"deadline_ms\":{v}"));
        }
        if let Some(ns) = &self.nodes {
            let items: Vec<String> = ns.iter().map(|n| n.to_string()).collect();
            s.push_str(&format!(",\"nodes\":[{}]", items.join(",")));
        }
        if let Some(h) = self.horizon {
            s.push_str(&format!(",\"horizon\":{h}"));
        }
        s.push_str(",\"x\":[");
        for (i, row) in f.windows[self.window].iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{v}"));
            }
            s.push(']');
        }
        s.push_str("]}");
        s
    }

    fn parse(&self, f: &Fx) -> ForecastReq {
        match proto::parse_request(&self.line(f)) {
            Ok(Request::Forecast(r)) => r,
            other => panic!("builder produced a non-forecast line: {other:?}"),
        }
    }
}

fn req(id: &str) -> Req {
    Req { id: id.to_string(), mc: Some(4), ..Req::default() }
}

fn parsed(line: &str) -> Json {
    json::parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
}

fn ty(v: &Json) -> String {
    v.get("type").and_then(Json::as_str).expect("typed response").to_string()
}

fn matrix(v: &Json, key: &str) -> Vec<Vec<f64>> {
    let rows = v.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("missing matrix {key}"));
    rows.iter()
        .map(|r| {
            r.as_arr().expect("matrix row").iter().map(|c| c.as_f64().expect("number")).collect()
        })
        .collect()
}

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Batched vs unbatched identity
// ---------------------------------------------------------------------------

#[test]
fn batched_matches_unbatched_bitwise_for_uncut_budgets() {
    // A mixed batch: a 3-member tick group (one slicing its nodes/horizon),
    // a different tick on the other window, and two explicitly seeded
    // requests (one duplicated). No deadlines → uncut budgets everywhere.
    let f = fx();
    let members = [
        Req { tick: Some(5), ..req("a0") },
        Req { tick: Some(5), ..req("a1") },
        Req { tick: Some(5), nodes: Some(vec![2, 0]), horizon: Some(2), ..req("a2") },
        Req { tick: Some(9), window: 1, ..req("b0") },
        Req { seed: Some(77), ..req("c0") },
        Req { seed: Some(77), ..req("c1") },
    ];
    let reqs: Vec<ForecastReq> = members.iter().map(|r| r.parse(f)).collect();

    let mut batched_srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let batched = batched_srv.handle_forecast_batch(&reqs);

    let mut solo_srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let solo: Vec<String> = reqs
        .iter()
        .map(|r| solo_srv.handle_forecast_batch(std::slice::from_ref(r)).pop().unwrap())
        .collect();

    assert_eq!(batched.len(), solo.len());
    for (i, (b, s)) in batched.iter().zip(&solo).enumerate() {
        assert!(b.contains("\"batched\":true,\"batch_size\":6"), "member {i}: {b}");
        assert!(s.contains("\"batched\":false,\"batch_size\":1"), "member {i}: {s}");
        assert_eq!(
            strip_meta(b),
            strip_meta(s),
            "member {i} must be bit-identical batched vs unbatched"
        );
    }
}

#[test]
fn nodes_and_horizon_slice_the_full_grid_exactly() {
    let f = fx();
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let full_req = Req { seed: Some(33), ..req("full") };
    let sub_req =
        Req { seed: Some(33), nodes: Some(vec![3, 1, 1]), horizon: Some(2), ..req("sub") };
    let full = parsed(&srv.handle_forecast_batch(&[full_req.parse(f)]).pop().unwrap());
    let sub = parsed(&srv.handle_forecast_batch(&[sub_req.parse(f)]).pop().unwrap());
    assert_eq!(ty(&full), "forecast");
    assert_eq!(ty(&sub), "forecast");
    for key in ["mu", "sigma", "lower", "upper"] {
        let grid = matrix(&full, key);
        let slice = matrix(&sub, key);
        assert_eq!(slice.len(), 3, "{key}: three requested nodes (duplicates kept)");
        for (out_row, &node) in slice.iter().zip(&[3usize, 1, 1]) {
            assert_eq!(out_row.len(), 2, "{key}: horizon prefix of 2");
            assert_eq!(out_row[..], grid[node][..2], "{key}: node {node} must match the grid");
        }
    }
    assert!(f.n_nodes > 3 && f.horizon >= 2, "fixture large enough for the slice");
}

#[test]
fn invalid_members_get_positional_errors_without_poisoning_the_group() {
    let f = fx();
    let good = req("g").parse(f);
    let mut bad = req("bad").parse(f);
    for row in &mut bad.x {
        row.pop(); // consistent rows, wrong sensor count
    }
    let good2 = req("g2").parse(f);
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let out = srv.handle_forecast_batch(&[good, bad, good2]);
    assert_eq!(out.len(), 3);
    assert_eq!(ty(&parsed(&out[0])), "forecast", "{}", out[0]);
    let err = parsed(&out[1]);
    assert_eq!(ty(&err), "error", "{}", out[1]);
    assert_eq!(err.get("reason").and_then(Json::as_str), Some("shape_mismatch"));
    assert_eq!(ty(&parsed(&out[2])), "forecast", "{}", out[2]);
}

// ---------------------------------------------------------------------------
// Serve-loop gathering: shared samples, deterministic composition
// ---------------------------------------------------------------------------

/// Forecast-only stream, terminated by EOF. Control lines (shutdown etc.)
/// ride the priority lane, so *when* their ack lands relative to in-flight
/// forecasts depends on reader/worker interleaving — byte-compare tests
/// therefore close the stream with EOF instead of a shutdown line.
fn burst_input(f: &Fx, ticks: usize, per_tick: usize) -> String {
    let mut input = String::new();
    for t in 0..ticks {
        for i in 0..per_tick {
            let r = Req { tick: Some(t as u64), window: t % 2, ..req(&format!("t{t}r{i}")) };
            input.push_str(&r.line(f));
            input.push('\n');
        }
    }
    input
}

fn run_loop(_f: &Fx, cfg: ServeConfig, input: &str) -> (stuq_serve::ServeSummary, String) {
    let mut srv = Server::new(cfg).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let summary = serve_loop(&mut srv, std::io::Cursor::new(input.to_string()), sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    (summary, out)
}

#[test]
fn co_batched_duplicates_share_one_mc_run_and_its_sample_count() {
    let f = fx();
    let input = burst_input(f, 1, 4);
    let mut cfg = cfg_for(&f.model, f);
    cfg.batch_max = 4;
    cfg.max_queue = 100;
    let (summary, out) = run_loop(f, cfg, &input);
    assert_eq!(summary.requests, 4);
    assert_eq!(
        summary.samples_used, 4,
        "four co-batched duplicates share one 4-sample run — not 16:\n{out}"
    );
    let forecasts: Vec<Json> = out.lines().map(parsed).filter(|v| ty(v) == "forecast").collect();
    assert_eq!(forecasts.len(), 4, "{out}");
    for v in &forecasts {
        let meta = v.get("meta").expect("forecasts carry a meta object");
        assert!(matches!(meta.get("batched"), Some(Json::Bool(true))), "{out}");
        assert_eq!(meta.get("batch_size").and_then(Json::as_u64), Some(4), "{out}");
    }
    let mu0 = matrix(&forecasts[0], "mu");
    for v in &forecasts[1..] {
        assert_eq!(matrix(v, "mu"), mu0, "shared run must give identical grids");
    }

    // The same stream unbatched: same responses modulo the annotation,
    // but four independent runs' worth of samples.
    let mut cfg1 = cfg_for(&f.model, f);
    cfg1.batch_max = 1;
    cfg1.max_queue = 100;
    let (summary1, out1) = run_loop(f, cfg1, &input);
    assert_eq!(summary1.samples_used, 16, "unbatched duplicates each run alone:\n{out1}");
    let solo: Vec<String> = out1.lines().map(strip_meta).collect();
    let batched: Vec<String> = out.lines().map(strip_meta).collect();
    assert_eq!(solo, batched, "batched and unbatched streams must agree modulo annotation");
}

#[test]
fn fake_clock_batch_composition_is_reproducible_and_pool_independent() {
    let f = fx();
    let input = burst_input(f, 2, 3);
    let cfg = || {
        let mut c = cfg_for(&f.model, f);
        c.batch_max = 3;
        c.max_queue = 100;
        c
    };
    let (_, out1) = run_loop(f, cfg(), &input);
    let (_, out2) = run_loop(f, cfg(), &input);
    assert_eq!(out1, out2, "same arrival order must reproduce the same bytes");
    let (_, out3) = stuq_parallel::with_serial(|| run_loop(f, cfg(), &input));
    assert_eq!(out1, out3, "STUQ_THREADS must not change batched response bytes");
    assert!(
        out1.contains("\"batched\":true,\"batch_size\":3"),
        "bursts of 3 must actually coalesce:\n{out1}"
    );
}

// ---------------------------------------------------------------------------
// Cache behaviour
// ---------------------------------------------------------------------------

#[test]
fn cache_hit_is_bit_identical_and_reports_the_hit() {
    let f = fx();
    let mut cfg = cfg_for(&f.model, f);
    cfg.cache_ttl_ms = 100_000;
    let mut srv = Server::new(cfg).unwrap();
    let t1 = Req { tick: Some(1), ..req("m") };

    let miss = srv.handle_forecast_batch(&[t1.parse(f)]).pop().unwrap();
    assert!(miss.contains("\"cache_hit\":false"), "{miss}");
    let hit =
        srv.handle_forecast_batch(&[Req { id: "h".into(), ..t1.clone() }.parse(f)]).pop().unwrap();
    assert!(hit.contains("\"cache_hit\":true"), "{hit}");
    // Identity modulo the annotation *and* the id the clients chose.
    let strip_id = |s: &str, id: &str| s.replace(&format!("\"id\":\"{id}\","), "");
    assert_eq!(
        strip_id(&strip_meta(&miss), "m"),
        strip_id(&strip_meta(&hit), "h"),
        "a hit must reproduce the computed response bit-for-bit"
    );

    // A node/horizon slice of the same tick is answered from the same
    // full-grid entry.
    let sub =
        Req { tick: Some(1), nodes: Some(vec![1]), horizon: Some(1), id: "s".into(), ..t1.clone() };
    let sub_resp = parsed(&srv.handle_forecast_batch(&[sub.parse(f)]).pop().unwrap());
    assert!(matches!(
        sub_resp.get("meta").and_then(|m| m.get("cache_hit")),
        Some(Json::Bool(true))
    ));
    let full_mu = matrix(&parsed(&miss), "mu");
    let sub_mu = matrix(&sub_resp, "mu");
    assert_eq!(sub_mu, vec![vec![full_mu[1][0]]]);

    // Health surface reports the live entry.
    let health = parsed(&srv.handle_line("{\"type\":\"healthz\"}").response);
    assert_eq!(health.get("cache_entries").and_then(Json::as_u64), Some(1), "{health:?}");

    // An arrival-indexed (seedless, tickless) request is never cached.
    let legacy = Req { id: "l".into(), seed: None, tick: None, ..t1.clone() };
    let r1 = srv.handle_forecast_batch(&[legacy.parse(f)]).pop().unwrap();
    let r2 = srv.handle_forecast_batch(&[legacy.parse(f)]).pop().unwrap();
    assert!(r1.contains("\"cache_hit\":false") && r2.contains("\"cache_hit\":false"));
    assert_ne!(r1, r2, "arrival-indexed requests draw fresh MC streams");

    // A same-tick duplicate burst: priming is all misses, the replay all
    // hits, each hit equal to its primed line.
    let burst: Vec<ForecastReq> =
        (0..8).map(|i| Req { id: format!("b{i}"), tick: Some(2), ..t1.clone() }.parse(f)).collect();
    let primed = srv.handle_forecast_batch(&burst);
    let hits = srv.handle_forecast_batch(&burst);
    let count_hits =
        |out: &[String]| out.iter().filter(|r| r.contains("\"cache_hit\":true")).count();
    assert_eq!((count_hits(&primed), count_hits(&hits)), (0, 8));
    for (h, p) in hits.iter().zip(&primed) {
        assert_eq!(strip_meta(h), strip_meta(p));
    }
}

#[test]
fn cache_ttl_expires_entries_on_the_logical_clock() {
    let f = fx();
    let mut cfg = cfg_for(&f.model, f);
    // Fake clock advances 1 ms per read. The entry is stamped at the
    // group's t_start read and the next request's lookup happens one read
    // later, so a 1 ms TTL is already stale by then.
    cfg.cache_ttl_ms = 1;
    let mut srv = Server::new(cfg).unwrap();
    let t1 = Req { tick: Some(1), ..req("e") };
    let first = srv.handle_forecast_batch(&[t1.parse(f)]).pop().unwrap();
    assert!(first.contains("\"cache_hit\":false"));
    let second = srv.handle_forecast_batch(&[t1.parse(f)]).pop().unwrap();
    assert!(second.contains("\"cache_hit\":false"), "stale entry must expire: {second}");
}

#[test]
fn reload_and_breaker_open_invalidate_the_cache() {
    let f = fx();
    let dir = f.dir.join("cache_inval");
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.stuq");
    std::fs::copy(&f.model, &live).unwrap();
    let mut cfg = cfg_for(&live, f);
    cfg.cache_ttl_ms = 100_000;
    cfg.breaker_threshold = 1;
    cfg.breaker_cooldown_ms = 10_000;
    cfg.breaker_cooldown_max_ms = 10_000;
    let mut srv = Server::new(cfg).unwrap();
    let t1 = Req { tick: Some(1), ..req("x") };

    // Prime and confirm the entry.
    let prime = srv.handle_forecast_batch(&[t1.parse(f)]).pop().unwrap();
    assert!(prime.contains("\"cache_hit\":false"), "{prime}");
    assert!(srv
        .handle_forecast_batch(&[t1.parse(f)])
        .pop()
        .unwrap()
        .contains("\"cache_hit\":true"));

    // Swap to the poisoned artifact: the reload itself must clear the
    // cache — a hit here would serve the *old* model's forecast as if the
    // new one had produced it.
    std::fs::copy(&f.poisoned, &live).unwrap();
    let ack = srv.handle_line("{\"type\":\"reload\",\"id\":\"r\"}").response;
    assert!(ack.contains("\"ok\":true"), "{ack}");
    let health = parsed(&srv.handle_line("{\"type\":\"healthz\"}").response);
    assert_eq!(health.get("cache_entries").and_then(Json::as_u64), Some(0), "{health:?}");

    // Same tick now reaches the (faulty) model: fallback, breaker opens,
    // which bumps the generation again (belt and braces on top of the
    // reload invalidation).
    let fb = srv.handle_forecast_batch(&[t1.parse(f)]).pop().unwrap();
    assert_eq!(ty(&parsed(&fb)), "fallback", "{fb}");
    assert!(srv.breaker_is_open());
    let open = srv.handle_forecast_batch(&[t1.parse(f)]).pop().unwrap();
    let v = parsed(&open);
    assert_eq!(ty(&v), "fallback");
    assert_eq!(v.get("reason").and_then(Json::as_str), Some("breaker_open"));

    // Recover: swap the good model back. First request recomputes (miss),
    // the next one hits again.
    std::fs::copy(&f.model, &live).unwrap();
    let ack = srv.handle_line("{\"type\":\"reload\",\"id\":\"r2\"}").response;
    assert!(ack.contains("\"ok\":true"), "{ack}");
    let recomputed = srv.handle_forecast_batch(&[t1.parse(f)]).pop().unwrap();
    assert!(recomputed.contains("\"cache_hit\":false"), "{recomputed}");
    assert_eq!(ty(&parsed(&recomputed)), "forecast");
    assert!(srv
        .handle_forecast_batch(&[t1.parse(f)])
        .pop()
        .unwrap()
        .contains("\"cache_hit\":true"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cached_stream_stays_identical_across_pools_in_the_loop() {
    // Batching + cache on together in the serve loop: two identical bursts
    // of the same tick — the second burst is answered from the cache — and
    // the whole annotated stream must still be byte-stable across reruns
    // and thread pools.
    let f = fx();
    let mut input = String::new();
    for wave in 0..2 {
        for i in 0..3 {
            let r = Req { tick: Some(1), ..req(&format!("w{wave}r{i}")) };
            input.push_str(&r.line(f));
            input.push('\n');
        }
    }
    let cfg = || {
        let mut c = cfg_for(&f.model, f);
        c.batch_max = 3;
        c.max_queue = 100;
        c.cache_ttl_ms = 100_000;
        c
    };
    let (summary, out1) = run_loop(f, cfg(), &input);
    assert_eq!(summary.requests, 6);
    assert_eq!(summary.samples_used, 4, "one computed run; the rest cache hits:\n{out1}");
    assert_eq!(out1.matches("\"cache_hit\":true").count(), 3, "{out1}");
    let (_, out2) = stuq_parallel::with_serial(|| run_loop(f, cfg(), &input));
    assert_eq!(out1, out2, "cache hits must be byte-stable across thread pools");
}
