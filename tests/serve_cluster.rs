//! End-to-end tests for the sample-sharded cluster runtime (DESIGN.md §13):
//! byte-identity against a solo server, a lost shard as fewer samples, the
//! solo fallback ladder when too few passes come back, two-phase cluster
//! reload (commit bumps every worker's cache generation, abort bumps none),
//! aggregate health, replica failover and fault injection.
//!
//! Everything runs on the fake clock, with in-process workers (the router's
//! [`InProcWorker`] plus scripted fakes), so every byte here is a pure
//! function of the request stream and of which workers are up.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
use stuq_artifact::json::{self, Json};
use stuq_serve::proto::strip_meta;
use stuq_serve::router::{
    router_loop, InProcWorker, Router, RouterConfig, ShardWorker, SupEvent, WorkerState,
};
use stuq_serve::shard::ShardMap;
use stuq_serve::{reload, serve_loop, ServeConfig, Server};
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
    /// Answer every `passes` request with a typed refusal instead.
    RefusePasses,
    /// Answer every `passes` request as if from another model version.
    Skew,
    /// Refuse `prepare_reload` (disk full), pass everything else through.
    NackPrepare,
}

/// An [`InProcWorker`] with a test-controlled failure mode. Control
/// requests (pings, reload phases) stay live unless the mode says
/// otherwise.
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
            Mode::RefusePasses if line.contains("\"type\":\"passes\"") => {
                Ok("{\"type\":\"rejected\",\"reason\":\"queue_full\"}".into())
            }
            Mode::Skew if line.contains("\"type\":\"passes\"") => {
                let resp = self.inner.call(line, timeout_ms)?;
                let at = resp.find("\"model\":\"").expect("passes carry the model") + 9;
                Ok(format!("{}x{}", &resp[..at], &resp[at..]))
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
    cluster_with(cfg_for(model, f), shards, 1)
}

/// [`cluster`] over `shards × replicas` workers (shard-major), the router
/// and every worker configured by `cfg`.
#[allow(clippy::type_complexity)]
fn cluster_with(
    cfg: ServeConfig,
    shards: usize,
    replicas: usize,
) -> (Router, Vec<Arc<Mutex<Mode>>>, Vec<Arc<Mutex<Server>>>) {
    let mut rcfg = RouterConfig::new(cfg.clone());
    rcfg.shards = shards;
    rcfg.replicas = replicas;
    let mut modes = Vec::new();
    let mut handles = Vec::new();
    let workers: Vec<Box<dyn ShardWorker>> = (0..shards * replicas)
        .map(|_| {
            let mode = Arc::new(Mutex::new(Mode::Live));
            let w = ScriptedWorker::new(Server::new(cfg.clone()).unwrap(), Arc::clone(&mode));
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
    forecast_line_with(f, id, seed.map(|s| format!(",\"seed\":{s}")), nodes, horizon)
}

/// [`forecast_line`] with any extra fields (`,"tick":3`, `,"seed":9`…).
fn forecast_line_with(
    f: &Fx,
    id: &str,
    extra: Option<String>,
    nodes: Option<&[usize]>,
    horizon: Option<usize>,
) -> String {
    let mut s = format!("{{\"type\":\"forecast\",\"id\":\"{id}\"");
    if let Some(extra) = extra {
        s.push_str(&extra);
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

fn uint(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("missing uint {key}"))
}

// ---------------------------------------------------------------------------
// Byte identity with a solo server
// ---------------------------------------------------------------------------

#[test]
fn merged_responses_match_a_solo_server_byte_for_byte() {
    let f = fx();
    let n = f.n_nodes;
    let cross = [n - 1, 0, n / 2];
    let head = [0usize, 1];
    let lines: Vec<String> = vec![
        forecast_line(f, "full", Some(42), None, None),
        forecast_line(f, "nodes", Some(43), Some(&cross), None),
        forecast_line(f, "short", Some(44), None, Some(f.horizon - 1)),
        forecast_line(f, "both", Some(45), Some(&head), Some(2)),
        forecast_line(f, "seedless-a", None, None, None),
        forecast_line(f, "seedless-b", None, Some(&cross), None),
        forecast_line_with(f, "tick", Some(",\"tick\":7".into()), None, None),
    ];
    // Every shard count against every sample count — mc < S included, where
    // some shards own an empty range and get no RPC.
    for shards in 1..=3 {
        for replicas in 1..=2 {
            for mc in [1usize, 2, 3, 10] {
                let mut cfg = cfg_for(&f.model, f);
                cfg.mc_samples = Some(mc);
                let (mut router, _, _) = cluster_with(cfg.clone(), shards, replicas);
                let mut solo = Server::new(cfg).unwrap();
                for line in &lines {
                    let merged = router.handle_line(line).response;
                    let want = solo.handle_line(line).response;
                    let v = parsed(&merged);
                    let tag = format!("S={shards} R={replicas} mc={mc}");
                    assert_eq!(ty(&v), "forecast", "{tag}: {merged}");
                    assert_eq!(uint(&v, "samples_used"), mc as u64, "{tag}: {merged}");
                    assert_eq!(
                        strip_meta(&merged),
                        strip_meta(&want),
                        "{tag}: router diverged from the solo server"
                    );
                }
            }
        }
    }

    // A coalescing, caching router against a solo server with the same
    // configuration, both driven through their loops on the fake clock:
    // same-tick bursts coalesce, and repeats are answered from the cache.
    let mut cfg = cfg_for(&f.model, f);
    cfg.batch_max = 3;
    cfg.cache_ttl_ms = 100_000;
    cfg.max_queue = 100;
    let mut input = String::new();
    for i in 0..9 {
        let extra = format!(",\"tick\":{}", i / 3 % 2);
        input.push_str(&forecast_line_with(f, &format!("b{i}"), Some(extra), None, None));
        input.push('\n');
    }
    let run = |cluster: bool| {
        let sink = Responses::default();
        let reader = std::io::Cursor::new(input.clone().into_bytes());
        if cluster {
            let (mut router, _, _) = cluster_with(cfg.clone(), 2, 1);
            router_loop(&mut router, reader, sink.clone());
        } else {
            serve_loop(&mut Server::new(cfg.clone()).unwrap(), reader, sink.clone());
        }
        sink.text()
    };
    let (routed, solo) = (run(true), run(false));
    assert!(routed.contains("\"batched\":true,\"batch_size\":3"), "{routed}");
    assert!(routed.contains("\"cache_hit\":true"), "{routed}");
    assert_eq!(routed.lines().count(), 9);
    for (a, b) in routed.lines().zip(solo.lines()) {
        assert_eq!(strip_meta(a), strip_meta(b), "batched router diverged");
    }
}

#[test]
fn seedless_requests_are_pinned_deterministically_at_the_router() {
    // A seedless, tickless request forks its RNG from the router seed and
    // arrival index — so a rerun reproduces it exactly, and consecutive
    // arrivals still differ.
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
// Lost shards: fewer samples, then the solo ladder
// ---------------------------------------------------------------------------

#[test]
fn dead_shard_costs_its_sample_range_and_replays_byte_identically() {
    let f = fx();
    let mc = 6usize; // cfg_for's sample count: ranges 0..2 | 2..4 | 4..6
    let healthy = {
        let (mut router, _, _) = cluster(&f.model, f, 3);
        router.handle_line(&forecast_line(f, "h", Some(9), None, None)).response
    };
    let sig_h = matrix(&parsed(&healthy), "sigma");
    for dead in 0..3 {
        let run = || {
            let (mut router, modes, _) = cluster(&f.model, f, 3);
            *modes[dead].lock().unwrap() = Mode::KillOnCall;
            let out: Vec<String> = (0..2)
                .map(|i| router.handle_line(&forecast_line(f, "d", Some(9 + i), None, None)))
                .map(|o| o.response)
                .collect();
            out
        };
        let first = run();
        assert_eq!(first, run(), "shard {dead} down: degraded bytes must replay identically");
        let v = parsed(&first[0]);
        assert_eq!(ty(&v), "forecast", "{}", first[0]);
        assert!(matches!(v.get("degraded"), Some(Json::Bool(true))), "{}", first[0]);
        let lost = ShardMap::new(3).range(dead, mc).len() as u64;
        assert_eq!(uint(&v, "samples_used"), mc as u64 - lost, "shard {dead} down");
        assert_eq!(uint(&v, "samples_requested"), mc as u64);
        let infl = v.get("variance_inflation").and_then(Json::as_f64).unwrap();
        assert!((infl - mc as f64 / (mc as u64 - lost) as f64).abs() < 1e-6);
        // With the last shard lost the survivors are a prefix of the healthy
        // run's passes — exactly a deadline cut — so the monotone envelope
        // guarantees σ never narrows. A lost earlier range leaves a
        // different pass set, whose σ no survivor-only rule can bound: every
        // prefix of the healthy run contains the lost passes.
        if dead == 2 {
            let sig = matrix(&v, "sigma");
            for (k, (d, h)) in sig.iter().zip(&sig_h).enumerate() {
                assert!(d >= h, "losing the last range narrowed σ at cell {k}: {d} < {h}");
            }
        }
    }
}

#[test]
fn dead_shard_degrades_to_widened_persistence_and_partial_flag() {
    // One dead shard whose range takes the survivors below the floor is the
    // solo persistence fallback: the response says so by its type, and
    // carries no cluster-only `partial` flag or per-shard block.
    let f = fx();
    let mut cfg = cfg_for(&f.model, f);
    cfg.floor = 4; // two shards over 6 passes: losing either leaves 3
    for dead in 0..2 {
        let (mut router, modes, _) = cluster_with(cfg.clone(), 2, 1);
        let warm = router.handle_line(&forecast_line(f, "w", Some(5), None, None)).response;
        let sig_w = matrix(&parsed(&warm), "sigma");
        let mean = sig_w.iter().map(|&s| s as f32).sum::<f32>() / sig_w.len() as f32;
        *modes[dead].lock().unwrap() = Mode::KillOnCall;
        let resp = router.handle_line(&forecast_line(f, "d", Some(5), None, None)).response;
        let v = parsed(&resp);
        assert_eq!(ty(&v), "fallback", "shard {dead} down: {resp}");
        assert_eq!(str_field(&v, "reason"), "rpc_timeout");
        for out in [&warm, &resp] {
            assert!(!out.contains("\"partial\""), "no partial flag on the wire: {out}");
            assert!(!out.contains("\"shards\""), "no per-shard block on the wire: {out}");
        }
        let (mu, sigma) = (matrix(&v, "mu"), matrix(&v, "sigma"));
        let last = &f.x_rows[f.x_rows.len() - 1];
        for (node, &x_last) in last.iter().enumerate() {
            for t in 0..f.horizon {
                let k = node * f.horizon + t;
                assert_eq!(mu[k] as f32, x_last, "persistence μ at node {node}");
                assert_eq!(sigma[k] as f32, cfg.widen_factor * mean, "widened σ at node {node}");
            }
        }
    }
}

#[test]
fn partial_responses_replay_byte_identically() {
    // A request stream served through the router loop while one shard is
    // dead: every forecast is short that shard's range (full grid, node
    // subsets, horizon prefixes, seedless), and a rerun replays every byte.
    let f = fx();
    let n = f.n_nodes;
    let cross = [n - 1, 0, n / 2];
    let mut input = String::new();
    for line in [
        forecast_line(f, "full", Some(21), None, None),
        forecast_line(f, "nodes", Some(22), Some(&cross), None),
        forecast_line(f, "short", Some(23), None, Some(f.horizon - 1)),
        forecast_line(f, "seedless", None, None, None),
    ] {
        input.push_str(&line);
        input.push('\n');
    }
    let run = || {
        let (mut router, modes, _) = cluster(&f.model, f, 3);
        *modes[1].lock().unwrap() = Mode::KillOnCall;
        let sink = Responses::default();
        router_loop(&mut router, std::io::Cursor::new(input.clone().into_bytes()), sink.clone());
        sink.text()
    };
    let first = run();
    assert_eq!(first, run(), "sample-short responses must replay byte-identically");
    assert_eq!(first.lines().count(), 4);
    let lost = ShardMap::new(3).range(1, 6).len() as u64;
    for line in first.lines() {
        let v = parsed(line);
        assert_eq!(ty(&v), "forecast", "{line}");
        assert!(matches!(v.get("degraded"), Some(Json::Bool(true))), "{line}");
        assert_eq!(uint(&v, "samples_used"), 6 - lost, "{line}");
        assert!(!line.contains("\"partial\""), "no partial flag on the wire: {line}");
    }
}

#[test]
fn all_shards_down_is_the_solo_fallback_ladder() {
    let f = fx();
    let cfg = cfg_for(&f.model, f);
    let probe = |id: &str| forecast_line(f, id, Some(5), None, None);
    // Dead, refusing and version-skewed shards all contribute nothing.
    let break_all = |modes: &[Arc<Mutex<Mode>>]| {
        for (m, mode) in modes.iter().zip([Mode::KillOnCall, Mode::RefusePasses, Mode::Skew]) {
            *m.lock().unwrap() = mode;
        }
    };

    // No healthy history yet: a typed rejection, never silent zeros. The
    // reason is the first lost range's.
    let (mut router, modes, _) = cluster(&f.model, f, 3);
    break_all(&modes);
    let v = parsed(&router.handle_line(&probe("r0")).response);
    assert_eq!(ty(&v), "rejected");
    assert_eq!(str_field(&v, "reason"), "rpc_timeout");

    // With history: the solo persistence fallback, σ widened from the last
    // healthy response's mean.
    let (mut router, modes, _) = cluster(&f.model, f, 3);
    let warm = parsed(&router.handle_line(&probe("w")).response);
    assert_eq!(ty(&warm), "forecast");
    let sig_w = matrix(&warm, "sigma");
    let mean = sig_w.iter().map(|&s| s as f32).sum::<f32>() / sig_w.len() as f32;
    break_all(&modes);
    let resp = router.handle_line(&probe("f")).response;
    let v = parsed(&resp);
    assert_eq!(ty(&v), "fallback", "{resp}");
    assert_eq!(str_field(&v, "reason"), "rpc_timeout");
    let (mu, sigma) = (matrix(&v, "mu"), matrix(&v, "sigma"));
    let last = &f.x_rows[f.x_rows.len() - 1];
    for (node, &x_last) in last.iter().enumerate() {
        for t in 0..f.horizon {
            let k = node * f.horizon + t;
            assert_eq!(mu[k] as f32, x_last, "persistence μ at node {node}");
            assert_eq!(sigma[k] as f32, cfg.widen_factor * mean, "widened σ at node {node}");
        }
    }
    // Fewer passes than the floor is the same ladder: with two of three
    // shards gone only 2 of 6 passes remain, under a floor of 3.
    let mut cfg3 = cfg.clone();
    cfg3.floor = 3;
    let (mut router, modes, _) = cluster_with(cfg3, 3, 1);
    let _ = router.handle_line(&probe("w"));
    *modes[0].lock().unwrap() = Mode::KillOnCall;
    *modes[2].lock().unwrap() = Mode::Skew;
    let v = parsed(&router.handle_line(&probe("f")).response);
    assert_eq!(ty(&v), "fallback");
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
    assert!(matches!(v.get("degraded"), Some(Json::Bool(false))), "{resp}");
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
fn router_refuses_cluster_internal_requests_from_clients() {
    let f = fx();
    let (mut router, _, _) = cluster(&f.model, f, 3);
    for line in [
        "{\"type\":\"passes\",\"id\":\"x\",\"n\":2,\"lo\":0,\"hi\":1,\
         \"rng\":[\"0\",\"0\",\"0\",\"0\"],\"dims\":[1,1],\"x\":\"3f800000\"}",
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
// Replicated shards: failover, fault injection (DESIGN.md §16)
// ---------------------------------------------------------------------------

use stuq_serve::faultnet::{self, FaultNet, Profile};

/// Serializes the tests below: they are the only ones incrementing the
/// failover/faultnet counters, but those counters are process-global,
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
        // serving the range whenever the chain reaches it.
        let dead = ShardMap::replicated(3, 2).worker_index(1, 0);
        *modes[dead].lock().unwrap() = Mode::KillOnCall;
        lines
            .iter()
            .map(|l| {
                let before = counter("stuq_cluster_failover_total");
                let resp = router.handle_line(l).response;
                (resp, counter("stuq_cluster_failover_total") - before)
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "failover routing must be a pure function of the session seed");
    for ((merged, _), solo_resp) in first.iter().zip(&solo_resps) {
        let v = parsed(merged);
        assert_eq!(ty(&v), "forecast", "{merged}");
        assert_eq!(
            strip_meta(merged),
            strip_meta(solo_resp),
            "one dead replica must never change the response"
        );
    }
    // The seeded primary selection must route some (not all) arrivals to
    // the dead replica first — each of those fails over exactly once.
    let failed_over = first.iter().filter(|(_, hops)| *hops == 1).count();
    assert!(first.iter().all(|(_, hops)| *hops <= 1));
    assert!(
        failed_over >= 1 && failed_over < first.len(),
        "expected a mix of clean and failed-over arrivals, got {failed_over}/{}",
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
    // responses do not.
    *modes[1].lock().unwrap() = Mode::KillOnCall;
    for i in 0..8u64 {
        let resp =
            router.handle_line(&forecast_line(f, &format!("hz{i}"), Some(80 + i), None, None));
        assert!(resp.response.contains("\"degraded\":false"), "{}", resp.response);
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
    // it, and every injected drop is exactly one failover. One shard owns
    // every pass, so each arrival is one range RPC.
    let mut solo = Server::new(cfg_for(&f.model, f)).unwrap();
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
        let line = forecast_line(f, &format!("p{i}"), Some(200 + i), None, None);
        let before = counter("stuq_cluster_failover_total");
        let resp = router.handle_line(&line).response;
        assert_eq!(
            strip_meta(&resp),
            strip_meta(&solo.handle_line(&line).response),
            "an injected drop must fail over, not degrade"
        );
        assert_eq!(
            counter("stuq_cluster_failover_total") - before,
            u64::from(dropped),
            "failovers must track the plan at arrival {i}"
        );
    }
    assert!(exp_inj > 0, "the plan never fired over 10 arrivals — wrong key?");
    assert_eq!(counter("faultnet_injected_total") - base_inj, exp_inj, "injection counter");
    assert_eq!(counter("stuq_cluster_failover_total") - base_fo, exp_fo, "failover counter");
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
