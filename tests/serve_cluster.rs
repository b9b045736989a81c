//! End-to-end tests for the sharded cluster runtime (DESIGN.md §13):
//! scatter/gather byte-identity against a solo server, partial degradation
//! with widened-σ persistence slices, typed worker-refusal propagation,
//! two-phase cluster reload (commit bumps every worker's cache generation,
//! abort bumps none), aggregate health, and the worker-side protocol.
//!
//! Everything runs on the fake clock, with in-process workers (the router's
//! [`InProcWorker`] plus scripted fakes), so every byte here is a pure
//! function of the request stream and of which workers are up.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
use stuq_serve::json::{self, Json};
use stuq_serve::proto::{strip_batch_meta, strip_cluster_meta};
use stuq_serve::router::{
    router_loop, InProcWorker, Router, RouterConfig, ShardWorker, SupEvent, WorkerState,
};
use stuq_serve::shard::ShardMap;
use stuq_serve::{reload, ServeConfig, Server};
use stuq_traffic::{Preset, Split};

struct Fx {
    data: PathBuf,
    model: PathBuf,
    /// A second trained artifact (different training seed) for reloads.
    model2: PathBuf,
    n_nodes: usize,
    horizon: usize,
    /// One raw test window, time-major rows.
    x_rows: Vec<Vec<f32>>,
}

fn fx() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("stuq_serve_cluster_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(401);
        let data = dir.join("toy.stuqd");
        stuq_traffic::save_dataset(ds.data(), &data).unwrap();
        let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
        let model = dir.join("toy.stuq");
        deepstuq::save_model(&DeepStuq::train(&ds, cfg.clone(), 401), &model).unwrap();
        let model2 = dir.join("toy2.stuq");
        deepstuq::save_model(&DeepStuq::train(&ds, cfg, 409), &model2).unwrap();
        let start = ds.window_starts(Split::Test)[0];
        let x_rows: Vec<Vec<f32>> = (start..start + ds.t_h())
            .map(|t| (0..ds.n_nodes()).map(|i| ds.data().get(t, i)).collect())
            .collect();
        Fx { data, model, model2, n_nodes: ds.n_nodes(), horizon: ds.horizon(), x_rows }
    })
}

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

// ---------------------------------------------------------------------------
// Scripted shard transports
// ---------------------------------------------------------------------------

/// What a scripted worker does with the next matching call.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Pass everything through to the wrapped in-process server.
    Live,
    /// Fail the next call at the transport layer (then stay down).
    KillOnCall,
    /// Answer every forecast with a typed `queue_full` refusal.
    RejectForecasts,
    /// Refuse `prepare_reload` (disk full), pass everything else through.
    NackPrepare,
}

/// An [`InProcWorker`] with a test-controlled failure mode. Control
/// requests (`assign`, reload phases) stay live unless the mode says
/// otherwise, so the topology always assembles cleanly.
struct ScriptedWorker {
    inner: InProcWorker,
    mode: Arc<Mutex<Mode>>,
    down: bool,
}

impl ScriptedWorker {
    fn new(server: Server, mode: Arc<Mutex<Mode>>) -> Self {
        ScriptedWorker { inner: InProcWorker::new(server), mode, down: false }
    }
}

impl ShardWorker for ScriptedWorker {
    fn call(&mut self, line: &str, timeout_ms: u64) -> Result<String, String> {
        if self.down {
            return Err("worker_down".into());
        }
        let mode = *self.mode.lock().unwrap();
        match mode {
            Mode::KillOnCall => {
                self.down = true;
                Err("rpc_timeout".into())
            }
            Mode::RejectForecasts if line.contains("\"type\":\"forecast\"") => {
                Ok("{\"type\":\"rejected\",\"reason\":\"queue_full\"}".into())
            }
            Mode::NackPrepare if line.contains("\"type\":\"prepare_reload\"") => {
                Ok("{\"type\":\"ack\",\"action\":\"prepare_reload\",\"ok\":false,\
                    \"reason\":\"disk_full\"}"
                    .into())
            }
            _ => self.inner.call(line, timeout_ms),
        }
    }

    fn state(&self) -> WorkerState {
        if self.down {
            WorkerState::Down
        } else {
            WorkerState::Up
        }
    }

    fn fail(&mut self, _reason: &str) {
        self.down = true;
    }

    fn tick(&mut self) -> Vec<SupEvent> {
        Vec::new()
    }
}

/// A router over `shards` scripted workers, all starting `Live`. Returns
/// the per-shard mode switches and the shared server handles.
#[allow(clippy::type_complexity)]
fn cluster(
    model: &Path,
    f: &Fx,
    shards: usize,
) -> (Router, Vec<Arc<Mutex<Mode>>>, Vec<Arc<Mutex<Server>>>) {
    let mut rcfg = RouterConfig::new(cfg_for(model, f));
    rcfg.shards = shards;
    let mut modes = Vec::new();
    let mut handles = Vec::new();
    let workers: Vec<Box<dyn ShardWorker>> = (0..shards)
        .map(|_| {
            let mode = Arc::new(Mutex::new(Mode::Live));
            let w = ScriptedWorker::new(Server::new(cfg_for(model, f)).unwrap(), Arc::clone(&mode));
            modes.push(mode);
            handles.push(w.inner.shared());
            Box::new(w) as Box<dyn ShardWorker>
        })
        .collect();
    let router = Router::new(rcfg, workers).unwrap();
    (router, modes, handles)
}

// ---------------------------------------------------------------------------
// Request and response helpers
// ---------------------------------------------------------------------------

fn forecast_line(
    f: &Fx,
    id: &str,
    seed: Option<u64>,
    nodes: Option<&[usize]>,
    horizon: Option<usize>,
) -> String {
    let mut s = format!("{{\"type\":\"forecast\",\"id\":\"{id}\"");
    if let Some(seed) = seed {
        s.push_str(&format!(",\"seed\":{seed}"));
    }
    if let Some(h) = horizon {
        s.push_str(&format!(",\"horizon\":{h}"));
    }
    if let Some(nodes) = nodes {
        s.push_str(",\"nodes\":[");
        for (i, n) in nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&n.to_string());
        }
        s.push(']');
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

fn ty(v: &Json) -> String {
    v.get("type").and_then(Json::as_str).expect("typed response").to_string()
}

fn str_field(v: &Json, key: &str) -> String {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing str {key}")).to_string()
}

/// Flattens a `[n][h]` response matrix.
fn matrix(v: &Json, key: &str) -> Vec<f64> {
    let rows = v.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("missing matrix {key}"));
    rows.iter()
        .flat_map(|r| r.as_arr().expect("matrix row").iter().map(|c| c.as_f64().expect("number")))
        .collect()
}

/// The `shards` annotation array as `(shard, status, reason)` triples.
fn shard_notes(v: &Json) -> Vec<(u64, String, String)> {
    let arr = v.get("shards").and_then(Json::as_arr).expect("shards array");
    arr.iter()
        .map(|n| {
            (
                n.get("shard").and_then(Json::as_u64).expect("shard id"),
                str_field(n, "status"),
                str_field(n, "reason"),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Scatter/gather byte identity
// ---------------------------------------------------------------------------

#[test]
fn merged_responses_match_a_solo_server_byte_for_byte() {
    let f = fx();
    let (mut router, _, _) = cluster(&f.model, f, 3);
    let mut solo = Server::new(cfg_for(&f.model, f)).unwrap();
    let n = f.n_nodes;
    let cross_shard = [0usize, n / 2, n - 1];
    let one_shard = [0usize, 1];
    let cases: Vec<String> = vec![
        forecast_line(f, "full", Some(42), None, None),
        forecast_line(f, "cross", Some(43), Some(&cross_shard), None),
        forecast_line(f, "one", Some(44), Some(&one_shard), None),
        forecast_line(f, "short", Some(45), None, Some(f.horizon - 1)),
    ];
    for line in &cases {
        let merged = router.handle_line(line).response;
        let solo_resp = solo.handle_line(line).response;
        let v = parsed(&merged);
        assert_eq!(ty(&v), "forecast", "{merged}");
        assert!(
            matches!(v.get("partial"), Some(Json::Bool(false))),
            "healthy cluster must not be partial: {merged}"
        );
        assert!(v.get("shards").is_none(), "no shards array on a clean merge");
        assert_eq!(
            strip_cluster_meta(&merged),
            strip_batch_meta(&solo_resp),
            "router merge diverged from the solo server"
        );
    }
}

#[test]
fn seedless_requests_are_pinned_deterministically_at_the_router() {
    // A seedless, tickless request gets an explicit seed derived from the
    // router seed and arrival index — so a rerun reproduces it exactly,
    // and consecutive arrivals still differ.
    let f = fx();
    let line = forecast_line(f, "s", None, None, None);
    let run = |_: usize| {
        let (mut router, _, _) = cluster(&f.model, f, 3);
        (router.handle_line(&line).response, router.handle_line(&line).response)
    };
    let (a1, a2) = run(0);
    let (b1, b2) = run(1);
    assert_eq!(a1, b1, "first arrival must replay identically");
    assert_eq!(a2, b2, "second arrival must replay identically");
    assert_ne!(
        matrix(&parsed(&a1), "sigma"),
        matrix(&parsed(&a2), "sigma"),
        "consecutive seedless arrivals must fork distinct seeds"
    );
}

// ---------------------------------------------------------------------------
// Partial degradation
// ---------------------------------------------------------------------------

#[test]
fn dead_shard_degrades_to_widened_persistence_and_partial_flag() {
    let f = fx();
    let (mut router, modes, _) = cluster(&f.model, f, 3);
    let cfg = cfg_for(&f.model, f);
    let range = ShardMap::new(f.n_nodes, 3).range(1);
    let h = f.horizon;

    // Warmup: all shards live; remember shard 1's slice σ.
    let warm = router.handle_line(&forecast_line(f, "w", Some(9), None, None)).response;
    let vw = parsed(&warm);
    assert!(matches!(vw.get("partial"), Some(Json::Bool(false))));
    let sig_w = matrix(&vw, "sigma");
    let mut mean = 0.0f32;
    for node in range.clone() {
        for t in 0..h {
            mean += sig_w[node * h + t] as f32;
        }
    }
    mean /= (range.len() * h) as f32;

    // Kill shard 1 at the transport layer; same request again.
    *modes[1].lock().unwrap() = Mode::KillOnCall;
    let resp = router.handle_line(&forecast_line(f, "p", Some(9), None, None)).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "forecast");
    assert!(matches!(v.get("partial"), Some(Json::Bool(true))), "{resp}");
    let notes = shard_notes(&v);
    assert_eq!(notes, vec![(1, "fallback".into(), "worker_down".into())]);

    // Dead slice: persistence μ (last input row) with widened σ; live
    // slices are byte-for-byte what the warmup produced.
    let mu = matrix(&v, "mu");
    let sigma = matrix(&v, "sigma");
    let widened = cfg.widen_factor * mean;
    let last = &f.x_rows[f.x_rows.len() - 1];
    for node in 0..f.n_nodes {
        for t in 0..h {
            if range.contains(&node) {
                assert_eq!(mu[node * h + t] as f32, last[node], "persistence μ at node {node}");
                assert_eq!(sigma[node * h + t] as f32, widened, "widened σ at node {node}");
            } else {
                assert_eq!(mu[node * h + t], matrix(&vw, "mu")[node * h + t]);
                assert_eq!(sigma[node * h + t], sig_w[node * h + t]);
            }
        }
    }
}

#[test]
fn partial_responses_replay_byte_identically() {
    let f = fx();
    let run = || {
        let (mut router, modes, _) = cluster(&f.model, f, 3);
        let mut out = Vec::new();
        out.push(router.handle_line(&forecast_line(f, "a", Some(3), None, None)).response);
        *modes[2].lock().unwrap() = Mode::KillOnCall;
        out.push(router.handle_line(&forecast_line(f, "b", Some(4), None, None)).response);
        out.push(router.handle_line(&forecast_line(f, "c", Some(5), None, None)).response);
        out.push(router.handle_line("{\"type\":\"healthz\",\"id\":\"h\"}").response);
        out
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "degraded byte stream must be a pure function of the inputs");
    assert!(first[1].contains("\"partial\":true"), "{}", first[1]);
    assert!(first[1].contains("\"worker_down\""), "{}", first[1]);
}

#[test]
fn worker_refusals_surface_typed_with_the_shard_id() {
    let f = fx();
    // No fallback history yet: a refusing shard kills the whole request
    // with its typed reason and shard id — never silent zeros.
    let (mut router, modes, _) = cluster(&f.model, f, 3);
    *modes[2].lock().unwrap() = Mode::RejectForecasts;
    let resp = router.handle_line(&forecast_line(f, "r0", Some(6), None, None)).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "rejected");
    assert_eq!(str_field(&v, "reason"), "queue_full", "worker reason must not be flattened");
    assert_eq!(v.get("shard").and_then(Json::as_u64), Some(2));

    // With history the refusal degrades that slice only, reason intact.
    let (mut router, modes, _) = cluster(&f.model, f, 3);
    let warm = router.handle_line(&forecast_line(f, "r1", Some(6), None, None)).response;
    assert_eq!(ty(&parsed(&warm)), "forecast");
    *modes[2].lock().unwrap() = Mode::RejectForecasts;
    let resp = router.handle_line(&forecast_line(f, "r2", Some(7), None, None)).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "forecast");
    assert!(matches!(v.get("partial"), Some(Json::Bool(true))));
    assert_eq!(shard_notes(&v), vec![(2, "fallback".into(), "queue_full".into())]);
}

// ---------------------------------------------------------------------------
// Two-phase cluster reload
// ---------------------------------------------------------------------------

/// A private copy of the model artifact the test can overwrite.
fn reload_dir(tag: &str, f: &Fx) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("stuq_cluster_reload_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let current = dir.join("current.stuq");
    std::fs::copy(&f.model, &current).unwrap();
    current
}

#[test]
fn committed_reload_bumps_every_worker_cache_generation() {
    let f = fx();
    let current = reload_dir("commit", f);
    let (mut router, _, handles) = cluster(&current, f, 3);
    let old = router.model_checksum().to_string();
    let gens: Vec<u64> = handles.iter().map(|h| h.lock().unwrap().cache_generation()).collect();

    let bytes = std::fs::read(&f.model2).unwrap();
    let new_ck = reload::file_checksum(&bytes);
    assert_ne!(old, new_ck, "fixture models must differ");
    std::fs::write(&current, &bytes).unwrap();

    let ack = parsed(&router.handle_line("{\"type\":\"reload\",\"id\":\"r\"}").response);
    assert_eq!(ty(&ack), "ack");
    assert!(matches!(ack.get("ok"), Some(Json::Bool(true))), "commit must ack ok");
    assert_eq!(str_field(&ack, "checksum"), new_ck);
    assert_eq!(router.model_checksum(), new_ck);
    assert_eq!(router.generation(), 1);
    for (s, h) in handles.iter().enumerate() {
        let srv = h.lock().unwrap();
        assert_eq!(srv.model_checksum(), new_ck, "worker {s} must serve the new version");
        assert_eq!(
            srv.cache_generation(),
            gens[s] + 1,
            "commit must invalidate worker {s}'s forecast cache"
        );
    }
    // The very next merged forecast is clean on the new version — no
    // mixed-version window, no version_skew slices.
    let resp = router.handle_line(&forecast_line(f, "post", Some(8), None, None)).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "forecast");
    assert_eq!(str_field(&v, "model"), new_ck);
    assert!(matches!(v.get("partial"), Some(Json::Bool(false))), "{resp}");
}

#[test]
fn aborted_prepare_bumps_nothing_and_leaves_bytes_identical() {
    let f = fx();
    let probe = forecast_line(f, "probe", Some(12), None, None);

    // Abort cause 1: one worker refuses to stage.
    let current = reload_dir("nack", f);
    let (mut router, modes, handles) = cluster(&current, f, 3);
    let before = router.handle_line(&probe).response;
    let gens: Vec<u64> = handles.iter().map(|h| h.lock().unwrap().cache_generation()).collect();
    std::fs::write(&current, std::fs::read(&f.model2).unwrap()).unwrap();
    *modes[1].lock().unwrap() = Mode::NackPrepare;
    let ack = parsed(&router.handle_line("{\"type\":\"reload\",\"id\":\"n\"}").response);
    assert!(matches!(ack.get("ok"), Some(Json::Bool(false))), "refused prepare must abort");
    assert!(str_field(&ack, "reason").contains("disk_full"), "worker reason must surface");
    assert_eq!(router.generation(), 0);
    for (s, h) in handles.iter().enumerate() {
        let mut srv = h.lock().unwrap();
        assert_eq!(srv.cache_generation(), gens[s], "abort must not bump worker {s}");
        let health = srv.handle_line("{\"type\":\"healthz\"}").response;
        assert!(!health.contains("\"staged\":true"), "abort must unstage worker {s}");
    }
    *modes[1].lock().unwrap() = Mode::Live;
    let after = router.handle_line(&probe).response;
    assert_eq!(before, after, "an aborted reload must leave zero observable trace");

    // Abort cause 2: the artifact itself fails router-side validation —
    // nothing is ever staged.
    let current = reload_dir("corrupt", f);
    let (mut router, _, handles) = cluster(&current, f, 3);
    let before = router.handle_line(&probe).response;
    let old = router.model_checksum().to_string();
    std::fs::write(&current, b"not a model artifact").unwrap();
    let ack = parsed(&router.handle_line("{\"type\":\"reload\",\"id\":\"c\"}").response);
    assert!(matches!(ack.get("ok"), Some(Json::Bool(false))));
    assert_eq!(router.model_checksum(), old, "checksum must not change on abort");
    for h in &handles {
        assert_eq!(h.lock().unwrap().cache_generation(), 0);
    }
    let after = router.handle_line(&probe).response;
    assert_eq!(before, after);
}

#[test]
fn reload_aborts_while_any_shard_is_down() {
    let f = fx();
    let current = reload_dir("down", f);
    let (mut router, modes, handles) = cluster(&current, f, 3);
    *modes[0].lock().unwrap() = Mode::KillOnCall;
    // Any call marks shard 0 down; a forecast does it.
    let _ = router.handle_line(&forecast_line(f, "k", Some(13), None, None));
    std::fs::write(&current, std::fs::read(&f.model2).unwrap()).unwrap();
    let ack = parsed(&router.handle_line("{\"type\":\"reload\",\"id\":\"d\"}").response);
    assert!(matches!(ack.get("ok"), Some(Json::Bool(false))));
    assert!(str_field(&ack, "reason").contains("worker 0 down"));
    for h in &handles {
        assert_eq!(h.lock().unwrap().cache_generation(), 0);
    }
}

// ---------------------------------------------------------------------------
// Aggregate health
// ---------------------------------------------------------------------------

#[test]
fn cluster_healthz_tracks_shard_liveness() {
    let f = fx();
    let (mut router, modes, _) = cluster(&f.model, f, 3);
    let hz = |router: &mut Router| parsed(&router.handle_line("{\"type\":\"healthz\"}").response);

    let v = hz(&mut router);
    assert_eq!(str_field(&v, "status"), "healthy");
    assert!(matches!(v.get("ready"), Some(Json::Bool(true))));
    assert!(matches!(v.get("cluster"), Some(Json::Bool(true))));
    assert_eq!(v.get("workers_up").and_then(Json::as_u64), Some(3));
    let detail = v.get("detail").and_then(Json::as_arr).expect("detail");
    assert_eq!(detail.len(), 3);
    assert!(detail.iter().all(|d| str_field(d, "state") == "up"));

    // One shard dies → degraded but still ready.
    *modes[1].lock().unwrap() = Mode::KillOnCall;
    let _ = router.handle_line(&forecast_line(f, "h1", Some(21), None, None));
    let v = hz(&mut router);
    assert_eq!(str_field(&v, "status"), "degraded");
    assert!(matches!(v.get("ready"), Some(Json::Bool(true))));
    assert_eq!(v.get("workers_up").and_then(Json::as_u64), Some(2));
    let detail = v.get("detail").and_then(Json::as_arr).expect("detail");
    assert_eq!(str_field(&detail[1], "state"), "down");

    // All shards dead → down, not ready.
    *modes[0].lock().unwrap() = Mode::KillOnCall;
    *modes[2].lock().unwrap() = Mode::KillOnCall;
    let _ = router.handle_line(&forecast_line(f, "h2", Some(22), None, None));
    let v = hz(&mut router);
    assert_eq!(str_field(&v, "status"), "down");
    assert!(matches!(v.get("ready"), Some(Json::Bool(false))));

    // Draining wins over everything.
    let _ = router.handle_line("{\"type\":\"drain\"}");
    let v = hz(&mut router);
    assert_eq!(str_field(&v, "status"), "draining");
}

// ---------------------------------------------------------------------------
// Cluster-wide metrics aggregation
// ---------------------------------------------------------------------------

/// A worker whose `metrics` response is scripted to fixed counters — the
/// only way to verify exact summation: [`InProcWorker`]s share this
/// process's global metrics registry with the router, so their scrapes
/// would double-count.
struct FixedMetricsWorker {
    counters: Vec<(&'static str, u64)>,
}

impl ShardWorker for FixedMetricsWorker {
    fn call(&mut self, line: &str, _timeout_ms: u64) -> Result<String, String> {
        if line.contains("\"type\":\"metrics\"") {
            let mut out = String::from("{\"type\":\"metrics\",\"counters\":{");
            for (i, (k, v)) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push_str("}}");
            Ok(out)
        } else if line.contains("\"type\":\"assign\"") {
            Ok("{\"type\":\"ack\",\"action\":\"assign\",\"ok\":true}".into())
        } else {
            Ok("{\"type\":\"ack\",\"action\":\"noop\",\"ok\":true}".into())
        }
    }

    fn state(&self) -> WorkerState {
        WorkerState::Up
    }

    fn fail(&mut self, _reason: &str) {}

    fn tick(&mut self) -> Vec<SupEvent> {
        Vec::new()
    }
}

#[test]
fn cluster_metrics_merge_sums_worker_counters_exactly() {
    let f = fx();
    let mut rcfg = RouterConfig::new(cfg_for(&f.model, f));
    rcfg.shards = 2;
    // `stuq_train_batches_total` is in the router's catalog but untouched
    // by any serve-path code, so its merged value is exactly base + the
    // worker contributions; the `stuq_test_*` name is unknown to the
    // catalog and must still merge (appended, summed across workers).
    let workers: Vec<Box<dyn ShardWorker>> = vec![
        Box::new(FixedMetricsWorker {
            counters: vec![("stuq_train_batches_total", 11), ("stuq_test_worker_only_total", 2)],
        }),
        Box::new(FixedMetricsWorker {
            counters: vec![("stuq_train_batches_total", 31), ("stuq_test_worker_only_total", 40)],
        }),
    ];
    let mut router = Router::new(rcfg, workers).unwrap();
    let base: u64 = stuq_obs::metrics()
        .counters()
        .iter()
        .find(|(k, _)| *k == "stuq_train_batches_total")
        .map(|(_, v)| *v)
        .expect("catalog counter");

    let resp = router.handle_line("{\"type\":\"cluster-metrics\",\"id\":\"cm\"}").response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "metrics", "{resp}");
    let counters = v.get("counters").expect("counters object");
    assert_eq!(
        counters.get("stuq_train_batches_total").and_then(Json::as_u64),
        Some(base + 11 + 31),
        "known counter must be router + Σ workers: {resp}"
    );
    assert_eq!(
        counters.get("stuq_test_worker_only_total").and_then(Json::as_u64),
        Some(2 + 40),
        "unknown counter must merge across workers: {resp}"
    );

    // A plain `metrics` request is the router's own (unsummed) dump.
    let own = router.handle_line("{\"type\":\"metrics\",\"id\":\"m\"}").response;
    let vo = parsed(&own);
    assert_eq!(ty(&vo), "metrics");
    let own_counters = vo.get("counters").expect("counters object");
    assert!(
        own_counters.get("stuq_test_worker_only_total").is_none(),
        "own dump must not include scraped names: {own}"
    );
}

// ---------------------------------------------------------------------------
// Worker-side cluster protocol
// ---------------------------------------------------------------------------

#[test]
fn worker_assignment_guards_its_node_range() {
    let f = fx();
    let mut srv = Server::new(cfg_for(&f.model, f)).unwrap();
    let range = ShardMap::new(f.n_nodes, 3).range(1);

    let ack = parsed(&srv.handle_line("{\"type\":\"assign\",\"shard\":1,\"shards\":3}").response);
    assert_eq!(ty(&ack), "ack");
    assert!(matches!(ack.get("ok"), Some(Json::Bool(true))));
    assert_eq!(ack.get("node_lo").and_then(Json::as_u64), Some(range.start as u64));
    assert_eq!(ack.get("node_hi").and_then(Json::as_u64), Some(range.end as u64));

    // A node the shard does not own is a loud shape_mismatch, not a wrong
    // answer (the out-of-shard node 0 belongs to shard 0).
    let resp = srv.handle_line(&forecast_line(f, "guard", Some(30), Some(&[0]), None)).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "error");
    assert_eq!(str_field(&v, "reason"), "shape_mismatch");
    assert!(str_field(&v, "detail").contains("not owned by shard 1"), "{resp}");

    // Owned nodes still serve.
    let owned = [range.start];
    let resp = srv.handle_line(&forecast_line(f, "ok", Some(31), Some(&owned), None)).response;
    assert_eq!(ty(&parsed(&resp)), "forecast");

    // A shard index beyond the declared count dies at the parser.
    let v = parsed(&srv.handle_line("{\"type\":\"assign\",\"shard\":9,\"shards\":3}").response);
    assert_eq!(ty(&v), "error");
    // One that only the clamped map (shards > nodes) invalidates is a
    // typed nack from the handler.
    let line = "{\"type\":\"assign\",\"shard\":999,\"shards\":1000}";
    let ack = parsed(&srv.handle_line(line).response);
    assert_eq!(ty(&ack), "ack");
    assert!(matches!(ack.get("ok"), Some(Json::Bool(false))));
}

#[test]
fn router_refuses_cluster_internal_requests_from_clients() {
    let f = fx();
    let (mut router, _, _) = cluster(&f.model, f, 3);
    for line in [
        "{\"type\":\"assign\",\"id\":\"x\",\"shard\":0,\"shards\":3}",
        "{\"type\":\"prepare_reload\",\"id\":\"x\"}",
        "{\"type\":\"commit_reload\",\"id\":\"x\"}",
        "{\"type\":\"abort_reload\",\"id\":\"x\"}",
    ] {
        let v = parsed(&router.handle_line(line).response);
        assert_eq!(ty(&v), "error", "{line}");
        assert_eq!(str_field(&v, "reason"), "bad_request");
        assert!(str_field(&v, "detail").contains("cluster-internal"));
    }
}

// ---------------------------------------------------------------------------
// Replicated shards: failover, hedging, fault injection (DESIGN.md §16)
// ---------------------------------------------------------------------------

use std::time::Duration;

use stuq_serve::faultnet::{self, FaultNet, Profile};

/// Serializes the tests below: they are the only ones incrementing the
/// failover/hedge/faultnet counters, but those counters are process-global,
/// so exact-delta assertions must not overlap.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counter(name: &str) -> u64 {
    stuq_obs::metrics().counters().iter().find(|(k, _)| *k == name).map(|(_, v)| *v).unwrap_or(0)
}

/// A router over `shards × replicas` scripted workers (shard-major), with
/// per-worker mode switches. `fault` splices the seeded fault plan into the
/// seed-chosen victim replica of every shard, exactly as the CLI does.
#[allow(clippy::type_complexity)]
fn replicated(
    model: &Path,
    f: &Fx,
    shards: usize,
    replicas: usize,
    breaker_threshold: usize,
    fault: Option<Profile>,
) -> (Router, Vec<Arc<Mutex<Mode>>>) {
    let mut cfg = cfg_for(model, f);
    cfg.breaker_threshold = breaker_threshold;
    let seed = cfg.seed;
    let mut rcfg = RouterConfig::new(cfg);
    rcfg.shards = shards;
    rcfg.replicas = replicas;
    let mut modes = Vec::new();
    let workers: Vec<Box<dyn ShardWorker>> = (0..shards * replicas)
        .map(|w| {
            let (s, r) = (w / replicas, w % replicas);
            let mode = Arc::new(Mutex::new(Mode::Live));
            let sw =
                ScriptedWorker::new(Server::new(cfg_for(model, f)).unwrap(), Arc::clone(&mode));
            modes.push(mode);
            let boxed = Box::new(sw) as Box<dyn ShardWorker>;
            match fault {
                Some(p) if r == faultnet::victim_replica(seed, s, replicas) => {
                    Box::new(FaultNet::wrap(boxed, p, seed, s, r)) as Box<dyn ShardWorker>
                }
                _ => boxed,
            }
        })
        .collect();
    (Router::new(rcfg, workers).unwrap(), modes)
}

#[test]
fn replica_failover_keeps_full_fidelity_and_replays_byte_identically() {
    let f = fx();
    let _g = counter_lock();
    let mut solo = Server::new(cfg_for(&f.model, f)).unwrap();
    let lines: Vec<String> =
        (0..6).map(|i| forecast_line(f, &format!("r{i}"), Some(60 + i), None, None)).collect();
    let solo_resps: Vec<String> = lines.iter().map(|l| solo.handle_line(l).response).collect();
    let run = || {
        let (mut router, modes) = replicated(&f.model, f, 3, 2, 100, None);
        // Kill shard 1's replica 0 at the transport layer; replica 1 keeps
        // serving the slice whenever the chain reaches it.
        let dead = ShardMap::replicated(f.n_nodes, 3, 2).worker_index(1, 0);
        *modes[dead].lock().unwrap() = Mode::KillOnCall;
        lines.iter().map(|l| router.handle_line(l).response).collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "failover routing must be a pure function of the session seed");
    for (merged, solo_resp) in first.iter().zip(&solo_resps) {
        let v = parsed(merged);
        assert_eq!(ty(&v), "forecast", "{merged}");
        assert!(
            matches!(v.get("partial"), Some(Json::Bool(false))),
            "one dead replica must never degrade fidelity: {merged}"
        );
        assert_eq!(
            strip_cluster_meta(merged),
            strip_batch_meta(solo_resp),
            "failover merge diverged from the solo server"
        );
    }
    // The seeded primary selection must route some (not all) arrivals to
    // the dead replica first — those carry the failover annotation.
    let annotated = first.iter().filter(|m| m.contains("\"attempts\":[")).count();
    assert!(
        annotated >= 1 && annotated < first.len(),
        "expected a mix of clean and failed-over arrivals, got {annotated}/{}",
        first.len()
    );
}

#[test]
fn healthz_reports_per_replica_state_and_shard_fidelity() {
    let f = fx();
    let _g = counter_lock();
    let (mut router, modes) = replicated(&f.model, f, 2, 2, 100, None);
    let hz = |router: &mut Router| parsed(&router.handle_line("{\"type\":\"healthz\"}").response);

    let v = hz(&mut router);
    assert_eq!(str_field(&v, "status"), "healthy");
    assert_eq!(v.get("workers_up").and_then(Json::as_u64), Some(4));
    let detail = v.get("detail").and_then(Json::as_arr).expect("detail");
    assert_eq!(detail.len(), 2, "detail is per shard, not per worker");
    for d in detail {
        assert_eq!(str_field(d, "fidelity"), "full");
        let reps = d.get("replicas").and_then(Json::as_arr).expect("replicas array");
        assert_eq!(reps.len(), 2);
        let roles: Vec<String> = reps.iter().map(|r| str_field(r, "role")).collect();
        assert!(roles.contains(&"primary".into()), "exactly one primary: {roles:?}");
        assert!(roles.contains(&"backup".into()), "its sibling is the backup: {roles:?}");
        assert!(reps.iter().all(|r| str_field(r, "state") == "up"));
    }

    // Kill shard 0 / replica 1. The shard stays up and serviceable on its
    // sibling, but its redundancy is gone: fidelity degrades while the
    // response fidelity (partial flag) does not.
    *modes[1].lock().unwrap() = Mode::KillOnCall;
    for i in 0..8u64 {
        let resp =
            router.handle_line(&forecast_line(f, &format!("hz{i}"), Some(80 + i), None, None));
        assert!(resp.response.contains("\"partial\":false"), "{}", resp.response);
    }
    let v = hz(&mut router);
    assert_eq!(str_field(&v, "status"), "degraded");
    assert!(matches!(v.get("ready"), Some(Json::Bool(true))));
    assert_eq!(v.get("workers_up").and_then(Json::as_u64), Some(3));
    let detail = v.get("detail").and_then(Json::as_arr).expect("detail");
    let d0 = &detail[0];
    assert_eq!(str_field(d0, "state"), "up", "one live replica keeps the shard up");
    assert_eq!(str_field(d0, "fidelity"), "degraded");
    let reps = d0.get("replicas").and_then(Json::as_arr).expect("replicas array");
    let down: Vec<u64> = reps
        .iter()
        .filter(|r| str_field(r, "state") == "down")
        .map(|r| r.get("replica").and_then(Json::as_u64).unwrap())
        .collect();
    assert_eq!(down, vec![1], "exactly the killed replica reads down");
    assert_eq!(str_field(&detail[1], "fidelity"), "full", "shard 1 untouched");
}

#[test]
fn faultnet_injection_counts_match_the_scripted_plan_exactly() {
    let f = fx();
    let _g = counter_lock();
    // cfg_for pins the session seed to 11; the plan below must replay with
    // the same key the router and wrapper use.
    const SEED: u64 = 11;
    let (mut router, _modes) = replicated(&f.model, f, 1, 2, 100, Some(Profile::Drop));
    let victim = faultnet::victim_replica(SEED, 0, 2);
    let base_inj = counter("faultnet_injected_total");
    let base_fo = counter("stuq_cluster_failover_total");

    // Walk arrivals, reading the next primary from healthz (which does not
    // consume an arrival) and replaying the published fault plan alongside:
    // the victim's RPC index advances only when the chain actually reaches
    // it, and every injected drop is exactly one failover.
    let (mut exp_inj, mut exp_fo, mut rpc_idx) = (0u64, 0u64, 0u64);
    for i in 0..10u64 {
        let hz = parsed(&router.handle_line("{\"type\":\"healthz\"}").response);
        let detail = hz.get("detail").and_then(Json::as_arr).expect("detail");
        let reps = detail[0].get("replicas").and_then(Json::as_arr).expect("replicas");
        let primary = reps
            .iter()
            .find(|r| str_field(r, "role") == "primary")
            .and_then(|r| r.get("replica").and_then(Json::as_u64))
            .expect("primary replica") as usize;
        let mut dropped = false;
        if primary == victim {
            dropped = faultnet::fault_at(Profile::Drop, SEED, 0, victim, rpc_idx).is_some();
            rpc_idx += 1;
            if dropped {
                exp_inj += 1;
                exp_fo += 1;
            }
        }
        let resp =
            router.handle_line(&forecast_line(f, &format!("p{i}"), Some(200 + i), None, None));
        let v = parsed(&resp.response);
        assert_eq!(ty(&v), "forecast", "{}", resp.response);
        assert!(
            matches!(v.get("partial"), Some(Json::Bool(false))),
            "an injected drop must fail over, not degrade: {}",
            resp.response
        );
        assert_eq!(
            resp.response.contains("\"attempts\":["),
            dropped,
            "failover annotation must track the plan at arrival {i}: {}",
            resp.response
        );
    }
    assert!(exp_inj > 0, "the plan never fired over 10 arrivals — wrong key?");
    assert_eq!(counter("faultnet_injected_total") - base_inj, exp_inj, "injection counter");
    assert_eq!(counter("stuq_cluster_failover_total") - base_fo, exp_fo, "failover counter");
}

/// A hedge-capable transport whose replies are computed immediately but
/// withheld for a scripted stall — the slow-replica shape hedging exists
/// for, on the real clock.
struct SlowWorker {
    inner: InProcWorker,
    stall_ms: Arc<Mutex<u64>>,
    pending: Option<(std::time::Instant, String)>,
}

impl ShardWorker for SlowWorker {
    fn call(&mut self, line: &str, timeout_ms: u64) -> Result<String, String> {
        self.inner.call(line, timeout_ms)
    }

    fn state(&self) -> WorkerState {
        WorkerState::Up
    }

    fn fail(&mut self, _reason: &str) {}

    fn tick(&mut self) -> Vec<SupEvent> {
        Vec::new()
    }

    fn supports_hedge(&self) -> bool {
        true
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let resp = self.inner.call(line, 10_000)?;
        let stall = Duration::from_millis(*self.stall_ms.lock().unwrap());
        self.pending = Some((std::time::Instant::now() + stall, resp));
        Ok(())
    }

    fn recv(&mut self, timeout_ms: u64) -> Result<String, String> {
        let deadline = std::time::Instant::now() + Duration::from_millis(timeout_ms);
        let Some((ready, _)) = &self.pending else {
            return Err("eof".into());
        };
        if *ready <= deadline {
            let wait = ready.saturating_duration_since(std::time::Instant::now());
            std::thread::sleep(wait);
            Ok(self.pending.take().expect("pending reply").1)
        } else {
            std::thread::sleep(deadline.saturating_duration_since(std::time::Instant::now()));
            Err("rpc_timeout".into())
        }
    }

    fn abandon(&mut self) {
        self.pending = None;
    }
}

#[test]
fn hedged_requests_let_a_fast_sibling_win_over_a_stalled_primary() {
    let f = fx();
    let _g = counter_lock();
    // Hedging is real-clock only — a fake clock would make the race a
    // nondeterminism hazard, so the router refuses to hedge under one.
    let mut cfg = cfg_for(&f.model, f);
    cfg.fake_clock_step_ms = None;
    let mut rcfg = RouterConfig::new(cfg);
    rcfg.shards = 1;
    rcfg.replicas = 2;
    rcfg.hedge_ms = Some(20);
    let stalls: Vec<Arc<Mutex<u64>>> = (0..2).map(|_| Arc::new(Mutex::new(0u64))).collect();
    let workers: Vec<Box<dyn ShardWorker>> = stalls
        .iter()
        .map(|stall| {
            let mut c = cfg_for(&f.model, f);
            c.fake_clock_step_ms = None;
            Box::new(SlowWorker {
                inner: InProcWorker::new(Server::new(c).unwrap()),
                stall_ms: Arc::clone(stall),
                pending: None,
            }) as Box<dyn ShardWorker>
        })
        .collect();
    let mut router = Router::new(rcfg, workers).unwrap();

    // Learn which replica the first arrival will pick, then stall exactly
    // that one far past the hedge delay.
    let hz = parsed(&router.handle_line("{\"type\":\"healthz\"}").response);
    let detail = hz.get("detail").and_then(Json::as_arr).expect("detail");
    let reps = detail[0].get("replicas").and_then(Json::as_arr).expect("replicas");
    let primary = reps
        .iter()
        .find(|r| str_field(r, "role") == "primary")
        .and_then(|r| r.get("replica").and_then(Json::as_u64))
        .expect("primary replica") as usize;
    *stalls[primary].lock().unwrap() = 5_000;

    let base = counter("stuq_cluster_hedge_won_total");
    let resp = router.handle_line(&forecast_line(f, "hedge", Some(5), None, None)).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "forecast", "{resp}");
    assert!(
        matches!(v.get("partial"), Some(Json::Bool(false))),
        "a hedge win is full fidelity: {resp}"
    );
    assert!(
        !resp.contains("\"attempts\":["),
        "a won hedge is not a failover — no attempts annotation: {resp}"
    );
    assert_eq!(counter("stuq_cluster_hedge_won_total") - base, 1, "exactly one hedge win");
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
fn router_loop_answers_a_non_utf8_line_and_keeps_reading() {
    // Regression: the router's reader thread used to stop at the first line
    // that was not UTF-8, so every later request went unanswered.
    let f = fx();
    let (mut router, _, _) = cluster(&f.model, f, 2);
    let sink = Responses::default();
    let chunks = [
        format!("{}\n", forecast_line(f, "before", Some(1), None, None)).into_bytes(),
        b"{\"type\":\"forecast\",\"id\":\"\xff\xfe\"}\n".to_vec(),
        format!("{}\n", forecast_line(f, "after", Some(2), None, None)).into_bytes(),
    ];
    let input = Lockstep { chunks: chunks.into(), handed_out: 0, responses: sink.clone() };
    let summary =
        router_loop(&mut router, std::io::BufReader::with_capacity(1 << 16, input), sink.clone());
    let out = sink.text();
    let lines: Vec<Json> = out.lines().map(parsed).collect();
    assert_eq!(lines.len(), 3, "three lines in, three responses out:\n{out}");
    assert_eq!(summary.responses, 3);
    assert_eq!(ty(&lines[0]), "forecast", "{out}");
    assert_eq!(str_field(&lines[0], "id"), "before");
    assert_eq!(ty(&lines[1]), "error", "{out}");
    assert_eq!(str_field(&lines[1], "reason"), "bad_request");
    assert!(lines[1].get("id").is_none(), "an unreadable line has no id:\n{out}");
    assert_eq!(ty(&lines[2]), "forecast", "{out}");
    assert_eq!(str_field(&lines[2], "id"), "after");
}
