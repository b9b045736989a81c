//! End-to-end tests for the deadline-aware serving runtime (DESIGN.md §11):
//! anytime degradation properties, breaker trajectories, fallback contract,
//! hot reload + rollback, and the serve loop itself.
//!
//! Everything runs on the fake clock (`ServeConfig::fake_clock_step_ms`), so
//! every trajectory here is a pure function of the request stream.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
use stuq_artifact::json::{self, Json};
use stuq_models::{Agcrn, AgcrnConfig, Forecaster};
use stuq_serve::proto::{self, strip_meta, MAX_MC_SAMPLES};
use stuq_serve::router::{router_loop, InProcWorker, Router, RouterConfig, ShardWorker};
use stuq_serve::{reload, serve_loop, ServeConfig, Server};
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::{Preset, Split};

struct Fx {
    dir: PathBuf,
    data: PathBuf,
    model: PathBuf,
    /// Valid artifact, same architecture, all parameters NaN.
    poisoned: PathBuf,
    /// Valid artifact, incompatible architecture (n_nodes + 1).
    mismatch: PathBuf,
    n_nodes: usize,
    horizon: usize,
    /// One raw test window, time-major rows.
    x_rows: Vec<Vec<f32>>,
}

fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("stuq_serve_rt_{}", std::process::id()));
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

        let cfg2 = AgcrnConfig::new(ds.n_nodes() + 1, ds.horizon());
        let other = Agcrn::new(cfg2, &mut StuqRng::new(1));
        let mismatch = dir.join("mismatch.stuq");
        deepstuq::save_model(&DeepStuq::from_parts(other, 1.0, 4), &mismatch).unwrap();

        let start = ds.window_starts(Split::Test)[0];
        let x_rows: Vec<Vec<f32>> = (start..start + ds.t_h())
            .map(|t| (0..ds.n_nodes()).map(|i| ds.data().get(t, i)).collect())
            .collect();
        Fx {
            dir,
            data,
            model,
            poisoned,
            mismatch,
            n_nodes: ds.n_nodes(),
            horizon: ds.horizon(),
            x_rows,
        }
    })
}

/// Test config: fake clock (1 ms per read), no background watcher, small
/// breaker numbers. Individual tests override what they pin down.
fn cfg_for(model_path: &Path, f: &Fx) -> ServeConfig {
    let mut c = ServeConfig::new(model_path);
    c.data_path = Some(f.data.clone());
    c.fake_clock_step_ms = Some(1);
    c.reload_poll_ms = 0;
    c.mc_samples = Some(6);
    c.floor = 2;
    c.breaker_threshold = 2;
    c.breaker_cooldown_ms = 4;
    c.breaker_cooldown_max_ms = 16;
    c.seed = 11;
    c
}

fn forecast_line(
    f: &Fx,
    id: &str,
    deadline_ms: Option<u64>,
    mc: Option<usize>,
    seed: u64,
) -> String {
    let mut s = format!("{{\"type\":\"forecast\",\"id\":\"{id}\",\"seed\":{seed}");
    if let Some(d) = deadline_ms {
        s.push_str(&format!(",\"deadline_ms\":{d}"));
    }
    if let Some(m) = mc {
        s.push_str(&format!(",\"mc\":{m}"));
    }
    s.push_str(",\"x\":[");
    for (i, row) in f.x_rows.iter().enumerate() {
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

fn parsed(line: &str) -> Json {
    json::parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
}

fn field_u64(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing uint {key}"))
}

fn ty(v: &Json) -> String {
    v.get("type").and_then(Json::as_str).expect("typed response").to_string()
}

/// Flattens a `[n][h]` response matrix.
fn matrix(v: &Json, key: &str) -> Vec<f64> {
    let rows = v.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("missing matrix {key}"));
    rows.iter()
        .flat_map(|r| r.as_arr().expect("matrix row").iter().map(|c| c.as_f64().expect("number")))
        .collect()
}

// ---------------------------------------------------------------------------
// Anytime degradation properties
// ---------------------------------------------------------------------------

#[test]
fn samples_used_respect_the_floor_for_any_deadline() {
    let f = fx();
    let mut prev_used = 0;
    for d in [0u64, 1, 2, 3, 4, 6, 100] {
        let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
        let resp = srv.handle_line(&forecast_line(f, "p", Some(d), Some(8), 99)).response;
        let v = parsed(&resp);
        assert_eq!(ty(&v), "forecast", "{resp}");
        let used = field_u64(&v, "samples_used");
        assert!(used >= 2, "deadline {d}: {used} samples is below the floor");
        assert!(used >= prev_used, "samples_used must be monotone in the deadline");
        prev_used = used;
        let degraded = matches!(v.get("degraded"), Some(Json::Bool(true)));
        assert_eq!(degraded, used < 8, "degraded flag must track the cut");
        if d >= 100 {
            assert_eq!(used, 8, "a loose deadline must not degrade");
        }
    }
    assert_eq!(prev_used, 8);
}

#[test]
fn reported_variance_never_narrows_with_fewer_samples() {
    // Same per-request seed → identical sample streams; the monotone
    // envelope then guarantees elementwise σ(more samples) ≤ σ(fewer).
    let f = fx();
    let mut runs: Vec<(u64, Vec<f64>)> = Vec::new();
    for d in [2u64, 3, 4, 6, 1000] {
        let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
        let resp = srv.handle_line(&forecast_line(f, "v", Some(d), Some(8), 5)).response;
        let v = parsed(&resp);
        assert_eq!(ty(&v), "forecast");
        runs.push((field_u64(&v, "samples_used"), matrix(&v, "sigma")));
    }
    runs.sort_by_key(|(used, _)| *used);
    for w in runs.windows(2) {
        let (used_a, sig_a) = &w[0];
        let (used_b, sig_b) = &w[1];
        assert!(used_a <= used_b);
        for (i, (a, b)) in sig_a.iter().zip(sig_b).enumerate() {
            assert!(
                *b <= *a + 1e-9,
                "σ[{i}] grew from {a} ({used_a} samples) to {b} ({used_b} samples)"
            );
        }
    }
}

#[test]
fn degraded_responses_are_identical_under_the_serial_pool() {
    // The STUQ_THREADS=1/2/4 byte-identity the chaos job checks, in-process:
    // the serial pool must reproduce the parallel bytes exactly.
    let f = fx();
    let line = forecast_line(f, "s", Some(3), Some(8), 123);
    let parallel = Server::new(cfg_for(&f.model, f)).unwrap().handle_line(&line).response;
    let serial = stuq_parallel::with_serial(|| {
        Server::new(cfg_for(&f.model, f)).unwrap().handle_line(&line).response
    });
    assert!(parallel.contains("\"degraded\":true"), "{parallel}");
    assert_eq!(parallel, serial, "degraded response must be byte-identical serial vs parallel");
}

#[test]
fn floor_one_still_keeps_the_envelope_honest_for_multi_sample_requests() {
    // --floor 1 with a multi-sample request: a deadline that would cut the
    // run to a single sample must still complete two, because one sample has
    // zero epistemic variance and would report the *narrowest* intervals on
    // the most degraded response. The effective floor is 2 whenever more
    // than one sample is requested.
    let f = fx();
    let mut cfg = cfg_for(&f.model, f);
    cfg.floor = 1;
    let mut srv = Server::new(cfg).unwrap();
    let resp = srv.handle_line(&forecast_line(f, "d", Some(0), Some(8), 21)).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "forecast", "{resp}");
    assert_eq!(field_u64(&v, "samples_used"), 2, "effective floor must be 2, not 1");
    assert!(matches!(v.get("degraded"), Some(Json::Bool(true))), "{resp}");
    let sig_cut = matrix(&v, "sigma");

    // Same seed, no deadline: the full run's intervals must be elementwise
    // no wider than the degraded ones.
    let mut cfg_full = cfg_for(&f.model, f);
    cfg_full.floor = 1;
    let mut srv_full = Server::new(cfg_full).unwrap();
    let full = srv_full.handle_line(&forecast_line(f, "d", None, Some(8), 21)).response;
    let v_full = parsed(&full);
    assert_eq!(field_u64(&v_full, "samples_used"), 8);
    let sig_full = matrix(&v_full, "sigma");
    for (i, (cut, all)) in sig_cut.iter().zip(&sig_full).enumerate() {
        assert!(*all <= *cut + 1e-9, "σ[{i}]: full run {all} wider than degraded {cut}");
    }

    // A genuine single-sample request is still allowed to run one pass.
    let mut srv_one = Server::new({
        let mut c = cfg_for(&f.model, f);
        c.floor = 1;
        c
    })
    .unwrap();
    let one = parsed(&srv_one.handle_line(&forecast_line(f, "one", None, Some(1), 21)).response);
    assert_eq!(field_u64(&one, "samples_used"), 1);
}

#[test]
fn requests_with_explicit_seeds_are_order_independent() {
    let f = fx();
    let a = forecast_line(f, "a", None, Some(4), 77);
    let b = forecast_line(f, "b", None, Some(4), 78);
    let mut s1 = Server::new(cfg_for(&f.model, f)).unwrap();
    let r_a_first = s1.handle_line(&a).response;
    let _ = s1.handle_line(&b);
    let mut s2 = Server::new(cfg_for(&f.model, f)).unwrap();
    let _ = s2.handle_line(&b);
    let r_a_second = s2.handle_line(&a).response;
    assert_eq!(r_a_first, r_a_second, "seeded requests must not depend on arrival order");
}

// ---------------------------------------------------------------------------
// Breaker + fallback
// ---------------------------------------------------------------------------

#[test]
fn breaker_opens_on_faults_and_recovers_after_reload() {
    let f = fx();
    let dir = f.dir.join("breaker_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.stuq");
    std::fs::copy(&f.poisoned, &live).unwrap();
    let mut srv = Server::new(cfg_for(&live, f)).unwrap();

    // Cold server + faulty model: nothing honest to serve → typed rejection
    // carrying the *caller's* reason. The breaker is still closed on these
    // two faults, so the reason is model_fault, not breaker_open.
    for i in 0..2 {
        let resp = srv.handle_line(&forecast_line(f, &format!("f{i}"), None, Some(2), 7)).response;
        let v = parsed(&resp);
        assert_eq!(ty(&v), "rejected", "{resp}");
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("model_fault"), "{resp}");
    }
    assert!(srv.breaker_is_open(), "threshold 2 must open the breaker");
    let health = srv.handle_line(r#"{"type":"healthz","id":"h"}"#).response;
    let v = parsed(&health);
    assert_eq!(v.get("breaker").and_then(Json::as_str), Some("open"));
    assert!(matches!(v.get("ready"), Some(Json::Bool(false))), "{health}");

    // While open (and after any half-open retrial faults again): still shed.
    for i in 0..4 {
        let resp = srv.handle_line(&forecast_line(f, &format!("o{i}"), None, Some(2), 7)).response;
        assert_eq!(ty(&parsed(&resp)), "rejected", "{resp}");
    }

    // Operator swaps in a good artifact and asks for a reload: the swap
    // resets the breaker and service resumes.
    std::fs::copy(&f.model, &live).unwrap();
    let ack = srv.handle_line(r#"{"type":"reload","id":"r"}"#).response;
    assert!(ack.contains("\"ok\":true"), "{ack}");
    assert!(!srv.breaker_is_open());
    let resp = srv.handle_line(&forecast_line(f, "after", None, Some(2), 7)).response;
    assert_eq!(ty(&parsed(&resp)), "forecast", "{resp}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_breaker_serves_widened_persistence_fallback_after_first_success() {
    let f = fx();
    let dir = f.dir.join("fallback_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.stuq");
    std::fs::copy(&f.model, &live).unwrap();
    let mut cfg = cfg_for(&live, f);
    cfg.breaker_threshold = 1;
    cfg.breaker_cooldown_ms = 10_000; // stays open for the whole test
    cfg.breaker_cooldown_max_ms = 10_000;
    cfg.widen_factor = 2.0;
    let mut srv = Server::new(cfg).unwrap();

    // First request is healthy and records the last-good σ.
    let ok = srv.handle_line(&forecast_line(f, "ok", None, Some(3), 9)).response;
    let v_ok = parsed(&ok);
    assert_eq!(ty(&v_ok), "forecast");
    let sig = matrix(&v_ok, "sigma");
    let mean_sigma: f64 = sig.iter().sum::<f64>() / sig.len() as f64;

    // Hot-swap to the NaN model (valid artifact, compatible shape).
    std::fs::copy(&f.poisoned, &live).unwrap();
    let ack = srv.handle_line(r#"{"type":"reload"}"#).response;
    assert!(ack.contains("\"ok\":true"), "{ack}");

    // The fault itself gets the documented fallback…
    let fb = srv.handle_line(&forecast_line(f, "fb", None, Some(3), 9)).response;
    let v = parsed(&fb);
    assert_eq!(ty(&v), "fallback", "{fb}");
    assert_eq!(v.get("reason").and_then(Json::as_str), Some("model_fault"));
    // …with persistence μ (last input row held flat across the horizon)…
    let mu = matrix(&v, "mu");
    let last_row = f.x_rows.last().unwrap();
    for node in 0..f.n_nodes {
        for h in 0..f.horizon {
            let got = mu[node * f.horizon + h];
            let want = last_row[node] as f64;
            assert!((got - want).abs() < 1e-4, "μ[{node},{h}] = {got}, want persisted {want}");
        }
    }
    // …and σ widened from the last healthy response.
    let fb_sig = matrix(&v, "sigma");
    for s in &fb_sig {
        assert!(
            (s - 2.0 * mean_sigma).abs() / (mean_sigma + 1e-9) < 1e-3,
            "σ {s} vs 2×{mean_sigma}"
        );
    }
    assert!(srv.breaker_is_open(), "threshold 1 must open on that fault");

    // Subsequent requests while open: fallback with reason breaker_open.
    let fb2 = srv.handle_line(&forecast_line(f, "fb2", None, Some(3), 9)).response;
    let v2 = parsed(&fb2);
    assert_eq!(ty(&v2), "fallback");
    assert_eq!(v2.get("reason").and_then(Json::as_str), Some("breaker_open"));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Hot reload
// ---------------------------------------------------------------------------

#[test]
fn reload_rolls_back_on_corrupt_bytes_and_shape_mismatch() {
    let f = fx();
    let dir = f.dir.join("rollback_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.stuq");
    std::fs::copy(&f.model, &live).unwrap();
    let mut srv = Server::new(cfg_for(&live, f)).unwrap();
    let checksum0 = srv.model_checksum().to_string();

    // Corrupt artifact: typed rollback, serving model untouched.
    std::fs::write(&live, b"definitely not a model").unwrap();
    let ack = srv.handle_line(r#"{"type":"reload","id":"c"}"#).response;
    assert!(ack.contains("\"ok\":false"), "{ack}");
    assert_eq!(srv.model_checksum(), checksum0, "rollback must keep the old model");

    // Valid artifact, wrong architecture: also a rollback, with the reason.
    std::fs::copy(&f.mismatch, &live).unwrap();
    let ack = srv.handle_line(r#"{"type":"reload","id":"m"}"#).response;
    assert!(ack.contains("\"ok\":false"), "{ack}");
    assert!(ack.contains("shape mismatch"), "{ack}");
    assert_eq!(srv.model_checksum(), checksum0);

    // The two-phase prepare runs the same shape check, and a refused
    // candidate leaves nothing staged, not even an earlier prepare's.
    let prepare = r#"{"type":"prepare_reload","id":"p"}"#;
    std::fs::copy(&f.model, &live).unwrap();
    let ack = srv.handle_line(prepare).response;
    assert!(ack.contains("\"ok\":true"), "{ack}");
    std::fs::copy(&f.mismatch, &live).unwrap();
    let ack = srv.handle_line(prepare).response;
    assert!(ack.contains("\"ok\":false"), "{ack}");
    assert!(ack.contains("shape mismatch"), "{ack}");
    let health = srv.handle_line(r#"{"type":"healthz"}"#).response;
    assert!(health.contains("\"staged\":false"), "{health}");
    assert_eq!(srv.model_checksum(), checksum0);

    // The server still answers forecasts throughout.
    let resp = srv.handle_line(&forecast_line(f, "still", None, Some(2), 3)).response;
    assert_eq!(ty(&parsed(&resp)), "forecast", "{resp}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn server_refuses_a_default_sample_count_above_the_wire_bound() {
    let f = fx();
    let mut cfg = cfg_for(&f.model, f);
    cfg.mc_samples = Some(stuq_serve::proto::MAX_MC_SAMPLES);
    assert!(Server::new(cfg.clone()).is_ok(), "the bound itself is accepted");
    cfg.mc_samples = Some(stuq_serve::proto::MAX_MC_SAMPLES + 1);
    let err = Server::new(cfg).err().expect("1025 MC samples must be refused");
    assert!(err.contains("1025") && err.contains("bound of 1024"), "{err}");
}

#[test]
fn background_watcher_swaps_a_changed_artifact_between_requests() {
    let f = fx();
    let dir = f.dir.join("watcher_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.stuq");
    std::fs::copy(&f.model, &live).unwrap();
    let mut cfg = cfg_for(&live, f);
    cfg.reload_poll_ms = 5;
    let mut srv = Server::new(cfg).unwrap();
    let checksum0 = srv.model_checksum().to_string();

    std::fs::copy(&f.poisoned, &live).unwrap();
    let want = reload::file_checksum(&std::fs::read(&live).unwrap());
    let mut swapped = false;
    for _ in 0..200 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        srv.poll_watcher();
        if srv.model_checksum() == want {
            swapped = true;
            break;
        }
    }
    assert!(swapped, "watcher must deliver the validated artifact (was {checksum0})");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Admission + serve loop
// ---------------------------------------------------------------------------

#[test]
fn drain_rejects_new_forecasts_in_sync_mode() {
    let f = fx();
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let ack = srv.handle_line(r#"{"type":"drain","id":"d"}"#).response;
    assert!(ack.contains("\"action\":\"drain\""), "{ack}");
    let resp = srv.handle_line(&forecast_line(f, "late", None, Some(2), 1)).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "rejected");
    assert_eq!(v.get("reason").and_then(Json::as_str), Some("draining"));
    let health = parsed(&srv.handle_line(r#"{"type":"healthz"}"#).response);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("draining"));
    assert!(matches!(health.get("ready"), Some(Json::Bool(false))));
}

#[test]
fn surrogate_pair_ids_echo_as_one_scalar_and_lone_surrogates_are_bad_requests() {
    // Python's default `json.dumps` writes 😀 as an escaped UTF-16 pair.
    let f = fx();
    let input = "{\"type\":\"healthz\",\"id\":\"\\ud83d\\ude00\"}\n\
                 {\"type\":\"healthz\",\"id\":\"\\ud83d\"}\n";
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    serve_loop(&mut srv, std::io::Cursor::new(input), sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    // The reader answers an unparseable line itself, so the two responses
    // may arrive in either order.
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    let of_type = |t: &str| *lines.iter().find(|l| ty(&parsed(l)) == t).expect(t);
    assert!(of_type("health").contains("\"id\":\"😀\""), "{out}");
    let lone = parsed(of_type("error"));
    assert_eq!(lone.get("reason").and_then(Json::as_str), Some("bad_request"));
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

#[test]
fn serve_loop_answers_every_line_and_honours_shutdown() {
    let f = fx();
    let mut input = String::new();
    for i in 0..3 {
        input.push_str(&forecast_line(f, &format!("r{i}"), Some(3), Some(6), 40 + i));
        input.push('\n');
    }
    input.push_str("{\"type\":\"healthz\",\"id\":\"h\"}\n");
    input.push_str("not even json\n");
    input.push_str("{\"type\":\"shutdown\",\"id\":\"bye\"}\n");

    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let summary = serve_loop(&mut srv, std::io::Cursor::new(input), sink.clone());

    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(summary.responses as usize, lines.len());
    assert_eq!(summary.shed, 0, "large queue must not shed:\n{out}");
    assert_eq!(summary.requests, 3);
    let mut n_forecast = 0;
    for l in &lines {
        let v = parsed(l);
        match ty(&v).as_str() {
            "forecast" => n_forecast += 1,
            "health" | "ack" | "error" => {}
            other => panic!("unexpected response type {other}: {l}"),
        }
    }
    assert_eq!(n_forecast, 3, "{out}");
    assert!(out.contains("\"id\":\"bye\""), "shutdown must be acknowledged:\n{out}");
    assert!(srv.draining(), "shutdown leaves the server draining");
}

#[test]
fn serve_loop_keeps_probing_an_open_breaker() {
    // Regression: admission used to shed every forecast while the breaker
    // was open, so the half-open probe (which only runs inside the worker)
    // never executed and the loop could never recover. Forecasts must keep
    // reaching the worker: while open they are answered there (reason
    // breaker_open), and once the cooldown elapses a probe runs the model
    // again (another model_fault on this permanently poisoned fixture).
    let f = fx();
    let mut cfg = cfg_for(&f.poisoned, f);
    cfg.breaker_threshold = 1;
    cfg.breaker_cooldown_ms = 4;
    cfg.breaker_cooldown_max_ms = 16;
    cfg.max_queue = 100;
    let mut input = String::new();
    for i in 0..20 {
        input.push_str(&forecast_line(f, &format!("r{i}"), None, Some(2), 7));
        input.push('\n');
    }
    input.push_str("{\"type\":\"shutdown\",\"id\":\"bye\"}\n");

    let mut srv = Server::new(cfg).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let summary = serve_loop(&mut srv, std::io::Cursor::new(input), sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();

    assert_eq!(summary.requests, 20, "every forecast must reach the worker:\n{out}");
    assert_eq!(summary.responses, 21, "20 rejections + shutdown ack:\n{out}");
    let n_probe_faults = out.matches("\"reason\":\"model_fault\"").count();
    let n_open = out.matches("\"reason\":\"breaker_open\"").count();
    assert!(
        n_probe_faults >= 2,
        "expected the initial fault plus at least one half-open probe, got \
         {n_probe_faults} model_fault rejections:\n{out}"
    );
    assert!(n_open >= 1, "open-state requests must be answered breaker_open:\n{out}");
}

#[test]
fn serve_loop_answers_trailing_lines_after_shutdown() {
    // Every input line gets exactly one response, even lines that land in
    // the lanes while the worker is already shutting down. Control lines in
    // particular must never be silently dropped.
    let f = fx();
    let mut input = String::new();
    input.push_str(&forecast_line(f, "f1", None, Some(2), 3));
    input.push('\n');
    input.push_str("{\"type\":\"shutdown\",\"id\":\"bye\"}\n");
    input.push_str("{\"type\":\"healthz\",\"id\":\"h-late\"}\n");
    input.push_str(&forecast_line(f, "f-late", None, Some(2), 4));
    input.push('\n');

    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let summary = serve_loop(&mut srv, std::io::Cursor::new(input), sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<Json> = out.lines().map(parsed).collect();

    assert_eq!(summary.responses as usize, lines.len());
    assert_eq!(lines.len(), 4, "4 input lines → 4 responses:\n{out}");
    for id in ["f1", "bye", "h-late", "f-late"] {
        assert!(
            lines.iter().any(|v| v.get("id").and_then(Json::as_str) == Some(id)),
            "line {id} got no response:\n{out}"
        );
    }
    let late = lines.iter().find(|v| v.get("id").and_then(Json::as_str) == Some("h-late")).unwrap();
    assert_eq!(ty(late), "health", "{out}");
    // The summary counts forecasts only, and only those the worker served.
    assert!(summary.requests <= 2, "control lines must not count as requests:\n{out}");
}

#[test]
fn serve_loop_rejects_forecasts_that_arrive_while_draining() {
    let f = fx();
    // drain first, then a forecast: the drain ack is processed by the
    // worker before the reader admits the forecast only sometimes — so
    // assert the weaker, always-true contract: every line is answered and
    // the forecast is either served (admitted first) or typed-rejected.
    let mut input = String::new();
    input.push_str("{\"type\":\"drain\",\"id\":\"d\"}\n");
    input.push_str(&forecast_line(f, "late", None, Some(2), 5));
    input.push('\n');
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let summary = serve_loop(&mut srv, std::io::Cursor::new(input), sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    assert_eq!(summary.responses as usize, out.lines().count());
    let late = out
        .lines()
        .map(parsed)
        .find(|v| v.get("id").and_then(Json::as_str) == Some("late"))
        .expect("late request must be answered");
    match ty(&late).as_str() {
        "forecast" => {}
        "rejected" => {
            assert_eq!(late.get("reason").and_then(Json::as_str), Some("draining"));
        }
        other => panic!("unexpected type {other}:\n{out}"),
    }
}

/// A response sink that wakes whoever waits for a number of lines.
#[derive(Clone, Default)]
struct Responses(Arc<(Mutex<Vec<u8>>, std::sync::Condvar)>);

impl std::io::Write for Responses {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 .0.lock().unwrap().extend_from_slice(buf);
        self.0 .1.notify_all();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Responses {
    /// Blocks until at least `n` lines are written (or a minute passes).
    fn wait_for_lines(&self, n: usize) {
        let (buf, cv) = &*self.0;
        let lines = |b: &mut Vec<u8>| b.iter().filter(|&&c| c == b'\n').count();
        let guard = buf.lock().unwrap();
        let _ = cv
            .wait_timeout_while(guard, std::time::Duration::from_secs(60), |b| lines(b) < n)
            .unwrap();
    }

    fn text(&self) -> String {
        String::from_utf8(self.0 .0.lock().unwrap().clone()).unwrap()
    }
}

/// A request stream that hands out one chunk per read, each only once a
/// response has been written for every chunk handed out before it — so
/// the order of the responses is the order of the input.
struct Lockstep {
    chunks: std::collections::VecDeque<Vec<u8>>,
    handed_out: usize,
    responses: Responses,
}

impl std::io::Read for Lockstep {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(chunk) = self.chunks.pop_front() else { return Ok(0) };
        self.responses.wait_for_lines(self.handed_out);
        assert!(chunk.len() <= buf.len(), "chunk larger than the read buffer");
        buf[..chunk.len()].copy_from_slice(&chunk);
        self.handed_out += 1;
        Ok(chunk.len())
    }
}

#[test]
fn serve_loop_answers_a_non_utf8_line_and_keeps_reading() {
    // Regression: the reader thread used to stop at the first line that
    // was not UTF-8, so every later request went unanswered.
    let f = fx();
    let sink = Responses::default();
    let chunks = [
        format!("{}\n", forecast_line(f, "before", None, Some(2), 1)).into_bytes(),
        b"{\"type\":\"forecast\",\"id\":\"\xff\xfe\"}\n".to_vec(),
        format!("{}\n", forecast_line(f, "after", None, Some(2), 2)).into_bytes(),
    ];
    let input = Lockstep { chunks: chunks.into(), handed_out: 0, responses: sink.clone() };
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let summary =
        serve_loop(&mut srv, std::io::BufReader::with_capacity(1 << 16, input), sink.clone());
    let out = sink.text();
    let lines: Vec<Json> = out.lines().map(parsed).collect();
    assert_eq!(lines.len(), 3, "three lines in, three responses out:\n{out}");
    assert_eq!(summary.responses, 3);
    assert_eq!(ty(&lines[0]), "forecast", "{out}");
    assert_eq!(lines[0].get("id").and_then(Json::as_str), Some("before"));
    assert_eq!(ty(&lines[1]), "error", "{out}");
    assert_eq!(lines[1].get("reason").and_then(Json::as_str), Some("bad_request"));
    assert!(lines[1].get("id").is_none(), "an unreadable line has no id:\n{out}");
    assert_eq!(ty(&lines[2]), "forecast", "{out}");
    assert_eq!(lines[2].get("id").and_then(Json::as_str), Some("after"));
}

#[test]
fn serve_loop_answers_an_oversize_line_and_keeps_reading() {
    // A line past the bound gets one typed answer and is skipped without
    // being buffered; one exactly at the bound is still served.
    use stuq_serve::proto::MAX_LINE_BYTES;
    let f = fx();
    let pad = |mut line: String, len: usize| {
        line.push_str(&" ".repeat(len - line.len()));
        line.into_bytes()
    };
    // Valid JSON one byte past the bound: served only if read whole.
    let mut input = pad(r#"{"type":"healthz","id":"too-long"}"#.into(), MAX_LINE_BYTES + 1);
    input.push(b'\n');
    input.extend(vec![b'y'; 3 * MAX_LINE_BYTES + 5]);
    input.extend_from_slice(b"\n{\"type\":\"healthz\",\"id\":\"after\"}\n");
    input.extend(pad(forecast_line(f, "padded", None, Some(2), 3), MAX_LINE_BYTES));
    input.push(b'\n');
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let reader = std::io::BufReader::with_capacity(1 << 12, std::io::Cursor::new(input));
    let summary = serve_loop(&mut srv, reader, sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<Json> = out.lines().map(parsed).collect();
    assert_eq!(lines.len(), 4, "four lines in, four responses out:\n{out}");
    assert_eq!(summary.responses, 4);
    // The reader answers both oversize lines before it admits anything.
    for bad in &lines[..2] {
        assert_eq!(ty(bad), "error", "{out}");
        assert_eq!(bad.get("reason").and_then(Json::as_str), Some("bad_request"));
        assert!(bad.get("id").is_none(), "an unread line has no id:\n{out}");
    }
    let by_id = |id: &str| {
        let hits: Vec<&Json> =
            lines.iter().filter(|v| v.get("id").and_then(Json::as_str) == Some(id)).collect();
        assert_eq!(hits.len(), 1, "exactly one response for {id}:\n{out}");
        ty(hits[0])
    };
    assert!(!out.contains("too-long"), "the oversize line must not be parsed:\n{out}");
    assert_eq!(by_id("after"), "health", "{out}");
    assert_eq!(by_id("padded"), "forecast", "{out}");
}

#[test]
fn serve_loop_rejects_a_hostile_mc_and_keeps_serving() {
    // An `mc` far past the bound must be refused at parse time — the sample
    // streams are allocated up front — without disturbing later requests,
    // and an `mc` exactly at the bound is served in full.
    let f = fx();
    let hostile = forecast_line(f, "hostile", None, Some(1_000_000_000_000), 1);
    let after = forecast_line(f, "after", None, Some(2), 2);
    let at_bound = forecast_line(f, "at_bound", None, Some(MAX_MC_SAMPLES), 3);
    let input = format!("{hostile}\n{after}\n{at_bound}\n");
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let summary = serve_loop(&mut srv, std::io::Cursor::new(input), sink.clone());
    let out = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<Json> = out.lines().map(parsed).collect();
    assert_eq!(lines.len(), 3, "three lines in, three responses out:\n{out}");
    assert_eq!(summary.responses, 3);
    let by_id = |id: &str| {
        let hits: Vec<&Json> =
            lines.iter().filter(|v| v.get("id").and_then(Json::as_str) == Some(id)).collect();
        assert_eq!(hits.len(), 1, "exactly one response for {id}:\n{out}");
        hits[0]
    };
    let bad = by_id("hostile");
    assert_eq!(ty(bad), "error", "{out}");
    assert_eq!(bad.get("reason").and_then(Json::as_str), Some("bad_request"));
    assert_eq!(ty(by_id("after")), "forecast", "{out}");
    let full = by_id("at_bound");
    assert_eq!(ty(full), "forecast", "{out}");
    assert_eq!(field_u64(full, "samples_used"), MAX_MC_SAMPLES as u64);
    assert_eq!(field_u64(full, "samples_requested"), MAX_MC_SAMPLES as u64);
    assert_eq!(full.get("degraded"), Some(&Json::Bool(false)), "{out}");
}

/// One seeded mutation of a corpus line: up to three single-bit flips, a
/// truncation, or a splice of this line's prefix onto another line's
/// suffix. Never a newline (each mutated line stays one request line) and
/// never blank (every request line is answered).
fn mutate(line: &[u8], corpus: &[Vec<u8>], rng: &mut StuqRng) -> Vec<u8> {
    let mut out = line.to_vec();
    match rng.uniform_usize(3) {
        0 => {
            for _ in 0..1 + rng.uniform_usize(3) {
                let i = rng.uniform_usize(out.len());
                let flipped = out[i] ^ (1 << rng.uniform_usize(8));
                if flipped != b'\n' {
                    out[i] = flipped;
                }
            }
        }
        1 => out.truncate(1 + rng.uniform_usize(out.len() - 1)),
        _ => {
            let other = &corpus[rng.uniform_usize(corpus.len())];
            out.truncate(1 + rng.uniform_usize(out.len() - 1));
            out.extend_from_slice(&other[rng.uniform_usize(other.len())..]);
        }
    }
    if std::str::from_utf8(&out).is_ok_and(|s| s.trim().is_empty()) {
        out.push(b'x');
    }
    out
}

/// Runs `lines` through the serve loop one line at a time and returns the
/// responses, which are then in input order. With `shards == 0` that is
/// `serve_loop` on a solo server; otherwise `router_loop` on a router over
/// `shards` in-process workers, every process configured like the solo one.
fn serve_in_lockstep(f: &Fx, shards: usize, lines: &[Vec<u8>]) -> Vec<String> {
    let sink = Responses::default();
    let chunks = lines.iter().map(|l| [l.as_slice(), b"\n"].concat()).collect();
    let input = Lockstep { chunks, handed_out: 0, responses: sink.clone() };
    let reader = std::io::BufReader::with_capacity(1 << 16, input);
    let server = || Server::new(cfg_for(&f.model, f)).unwrap();
    let summary = if shards == 0 {
        serve_loop(&mut server(), reader, sink.clone())
    } else {
        let mut rcfg = RouterConfig::new(cfg_for(&f.model, f));
        rcfg.shards = shards;
        let workers = (0..shards)
            .map(|_| Box::new(InProcWorker::new(server())) as Box<dyn ShardWorker>)
            .collect();
        router_loop(&mut Router::new(rcfg, workers).unwrap(), reader, sink.clone())
    };
    let out: Vec<String> = sink.text().lines().map(str::to_owned).collect();
    assert_eq!(summary.responses as usize, out.len());
    out
}

#[test]
fn serve_loop_answers_a_mutated_corpus_and_clean_lines_keep_their_bytes() {
    // Whole-loop hostile input, on a solo server and on a 2-shard router: a
    // corpus of explicit-seed forecasts, control lines and one
    // cluster-internal `passes` RPC, each clean line preceded by seeded
    // mutations of the corpus. On both targets every line gets exactly one
    // typed JSON response, nothing panics, and every clean forecast or
    // `passes` line after garbage answers with the bytes it gets in a clean
    // run. Control responses carry counters that garbage legitimately
    // moves, so for them only the type is compared. The router refuses the
    // `passes` RPC with a typed error, and its clean forecasts equal the
    // solo server's modulo the `meta` object.
    let f = fx();
    let mut corpus: Vec<String> =
        (0..6).map(|i| forecast_line(f, &format!("c{i}"), None, Some(4), 60 + i)).collect();
    corpus.push("{\"type\":\"healthz\",\"id\":\"h\"}".into());
    corpus.push("{\"type\":\"metrics\",\"id\":\"m\"}".into());
    let window = Tensor::from_vec(f.x_rows.concat(), &[f.x_rows.len(), f.n_nodes]);
    let rng_words = [0x9e37_79b9_7f4a_7c15, 1, 2, 3];
    corpus.push(proto::render_passes_req(&window, 4, 1..3, &rng_words, None));
    let passes_at = corpus.len() - 1;
    let clean_lines: Vec<Vec<u8>> = corpus.iter().map(|l| l.clone().into_bytes()).collect();

    let mut rng = StuqRng::new(0xF022);
    let (mut lines, mut clean_at) = (Vec::new(), Vec::new());
    for _round in 0..4 {
        for (k, line) in clean_lines.iter().enumerate() {
            for _ in 0..1 + rng.uniform_usize(4) {
                let victim = &clean_lines[rng.uniform_usize(clean_lines.len())];
                lines.push(mutate(victim, &clean_lines, &mut rng));
            }
            clean_at.push((lines.len(), k));
            lines.push(line.clone());
        }
    }
    // The mutations reach past the parser too: some garbage is still a
    // valid forecast (a flipped digit, say) and is served.
    let is_forecast = |k: usize| corpus[k].contains("\"forecast\"");
    let clean_forecasts = clean_at.iter().filter(|&&(_, k)| is_forecast(k)).count();
    let mut clean_runs = Vec::new();
    for shards in [0, 2] {
        let clean = serve_in_lockstep(f, shards, &clean_lines);
        assert_eq!(clean.len(), corpus.len());
        let out = serve_in_lockstep(f, shards, &lines);
        assert_eq!(out.len(), lines.len(), "{shards} shards: one response per request line");
        // Only a worker answers a `passes` RPC.
        let typed = ["forecast", "rejected", "fallback", "error", "health", "ack", "metrics"];
        let mut forecasts = 0;
        for (line, resp) in lines.iter().zip(&out) {
            let t = ty(&parsed(resp));
            assert!(
                typed.contains(&t.as_str()) || (shards == 0 && t == "passes"),
                "{shards} shards: {resp} answers {:?}",
                String::from_utf8_lossy(line)
            );
            forecasts += usize::from(t == "forecast");
        }
        assert!(forecasts > clean_forecasts, "{shards} shards: no mutated forecast was served");
        for &(at, k) in &clean_at {
            if is_forecast(k) || k == passes_at {
                assert_eq!(out[at], clean[k], "{shards} shards: clean line {k} at {at} moved");
            } else {
                assert_eq!(ty(&parsed(&out[at])), ty(&parsed(&clean[k])), "control line {k}");
            }
        }
        clean_runs.push(clean);
    }
    let (solo, routed) = (&clean_runs[0], &clean_runs[1]);
    assert_eq!(ty(&parsed(&solo[passes_at])), "passes", "{}", solo[passes_at]);
    let refusal = parsed(&routed[passes_at]);
    assert_eq!(ty(&refusal), "error", "{}", routed[passes_at]);
    assert_eq!(refusal.get("reason").and_then(Json::as_str), Some("bad_request"));
    for k in (0..corpus.len()).filter(|&k| is_forecast(k)) {
        assert_eq!(strip_meta(&routed[k]), strip_meta(&solo[k]), "clean forecast {k}");
    }
}

#[test]
fn node_lists_longer_than_the_grid_are_refused_but_duplicates_are_not() {
    // Each listed node renders a row of every response matrix, so a list
    // may repeat sensors but never outgrow the model's sensor count.
    let f = fx();
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let with_nodes = |id: &str, len: usize| {
        let nodes = vec!["0"; len].join(",");
        forecast_line(f, id, None, Some(2), 3).replacen(
            "\"x\":[",
            &format!("\"nodes\":[{nodes}],\"x\":["),
            1,
        )
    };
    let long = parsed(&srv.handle_line(&with_nodes("long", f.n_nodes + 1)).response);
    assert_eq!(ty(&long), "error");
    assert_eq!(long.get("reason").and_then(Json::as_str), Some("shape_mismatch"));
    let full = parsed(&srv.handle_line(&with_nodes("full", f.n_nodes)).response);
    assert_eq!(ty(&full), "forecast");
    assert_eq!(matrix(&full, "mu").len(), f.n_nodes * f.horizon);
}
