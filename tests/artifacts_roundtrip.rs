//! Artefact lifecycle tests: dataset and model files written by one
//! component must be consumable by every other, including the CLI.

use deepstuq::pipeline::{DeepStuq, DeepStuqConfig};
use stuq_tensor::StuqRng;
use stuq_traffic::{Preset, Split};

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("deepstuq_artifacts").join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn model_file_survives_pipeline_and_reloads_identically() {
    let dir = tmp_dir("model_roundtrip");
    let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(201);
    let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    let model = DeepStuq::train(&ds, cfg, 201);

    let path = dir.join("m.stuq");
    deepstuq::save_model(&model, &path).unwrap();
    let loaded = deepstuq::load_model(&path).unwrap();

    // Deterministic (n=1) predictions must be bit-identical, and the MC
    // stream must also agree because the RNG is caller-provided.
    let w = ds.window(ds.window_starts(Split::Test)[3]);
    let (mut r1, mut r2) = (StuqRng::new(77), StuqRng::new(77));
    let f1 = model.predict(&w.x, ds.scaler(), &mut r1);
    let f2 = loaded.predict(&w.x, ds.scaler(), &mut r2);
    assert_eq!(f1.mu.data(), f2.mu.data());
    assert_eq!(f1.sigma_total.data(), f2.sigma_total.data());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn weather_dataset_file_preserves_covariates() {
    let dir = tmp_dir("weather_roundtrip");
    let sim = stuq_traffic::SimulationConfig {
        weather: Some(stuq_traffic::simulate::WeatherConfig::default()),
        ..Default::default()
    };
    let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate_with(202, &sim, 12, 12);
    assert_eq!(ds.data().n_covariates(), 1);

    let path = dir.join("d.stuqd");
    stuq_traffic::save_dataset(ds.data(), &path).unwrap();
    let loaded = stuq_traffic::load_dataset(&path).unwrap();
    assert_eq!(loaded.n_covariates(), 1);
    for t in [0usize, 100, loaded.n_steps() - 1] {
        assert_eq!(loaded.covariate(t, 0).to_bits(), ds.data().covariate(t, 0).to_bits());
    }
    // Windows built from the reloaded dataset carry identical covariates.
    let reloaded = stuq_traffic::SplitDataset::new(loaded, 12, 12);
    let (wa, wb) = (ds.window(5), reloaded.window(5));
    assert_eq!(wa.cov.as_ref().unwrap().data(), wb.cov.as_ref().unwrap().data());
    std::fs::remove_dir_all(dir).ok();
}

/// Trains one tiny model and saves it; shared by the corruption tests.
fn saved_tiny_model(dir: &std::path::Path) -> std::path::PathBuf {
    let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(204);
    let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    let model = DeepStuq::train(&ds, cfg, 204);
    let path = dir.join("m.stuq");
    deepstuq::save_model(&model, &path).unwrap();
    path
}

#[test]
fn truncated_model_file_reports_missing_trailer() {
    let dir = tmp_dir("model_truncated");
    let path = saved_tiny_model(&dir);
    let bytes = std::fs::read(&path).unwrap();
    // Cut the file mid-way: the checksum trailer (the final line) is gone.
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let err = deepstuq::load_model(&path).unwrap_err();
    assert!(err.to_string().contains("missing checksum trailer"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn flipped_byte_in_model_file_reports_checksum_mismatch() {
    let dir = tmp_dir("model_flipped");
    let path = saved_tiny_model(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();
    let err = deepstuq::load_model(&path).unwrap_err();
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn tampered_arch_header_is_rejected_after_reseal() {
    // A *consistently re-sealed* file with a lying architecture header must
    // still fail — past the checksum, via the parameter shape/count checks —
    // with an error distinct from the two checksum failures above.
    let dir = tmp_dir("model_wrong_arch");
    let path = saved_tiny_model(&dir);
    let bytes = std::fs::read(&path).unwrap();
    let payload = stuq_artifact::verify(&bytes).unwrap();
    let text = std::str::from_utf8(payload).unwrap();
    let tampered: String = text
        .lines()
        .map(|l| match l.strip_prefix("n_nodes ") {
            Some(n) => format!("n_nodes {}", n.trim().parse::<usize>().unwrap() + 1),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    assert_ne!(tampered, text, "expected to find the arch line to tamper");
    std::fs::write(&path, stuq_artifact::seal(tampered.as_bytes())).unwrap();
    let err = deepstuq::load_model(&path).unwrap_err();
    let msg = err.to_string();
    assert!(
        !msg.contains("checksum") && !msg.contains("trailer"),
        "must fail past the checksum layer: {msg}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn cli_artifacts_interoperate_with_library_loaders() {
    // Files produced through the CLI must open with the library APIs.
    let dir = tmp_dir("cli_interop");
    let data_path = dir.join("flow.stuqd");
    let model_path = dir.join("model.stuq");
    let run = |args: &[&str]| {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut sink = Vec::new();
        deepstuq_cli::run(&owned, &mut sink).unwrap();
    };
    run(&[
        "simulate",
        "--preset",
        "pems08",
        "--node-frac",
        "0.08",
        "--step-frac",
        "0.02",
        "--seed",
        "203",
        "--out",
        data_path.to_str().unwrap(),
    ]);
    run(&[
        "train",
        "--data",
        data_path.to_str().unwrap(),
        "--epochs",
        "1",
        "--batch",
        "8",
        "--awa-epochs",
        "2",
        "--mc",
        "3",
        "--seed",
        "203",
        "--out",
        model_path.to_str().unwrap(),
    ]);
    let ds = stuq_traffic::load_split_dataset(&data_path).unwrap();
    let model = deepstuq::load_model(&model_path).unwrap();
    assert_eq!(model.model().config().n_nodes, ds.n_nodes());
    let w = ds.window(ds.window_starts(Split::Test)[0]);
    let mut rng = StuqRng::new(1);
    let f = model.predict(&w.x, ds.scaler(), &mut rng);
    assert!(f.mu.all_finite());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn cli_forecast_feeds_a_covariate_model_its_weather() {
    // A weather-aware model and a dataset carrying the rain channel: the
    // CLI's σ/μ must be the ones `predict_window` gives for the same
    // window and seed, covariates included.
    let dir = tmp_dir("cli_covariates");
    let sim = stuq_traffic::SimulationConfig {
        weather: Some(stuq_traffic::simulate::WeatherConfig {
            rain_start_prob: 1.0 / 24.0,
            rain_len: (6, 12),
            ..Default::default()
        }),
        ..Default::default()
    };
    let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate_with(205, &sim, 12, 12);
    let mut cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    cfg.base = cfg.base.with_covariates(1);
    let model = DeepStuq::train(&ds, cfg, 205);
    let (data_path, model_path) = (dir.join("rain.stuqd"), dir.join("rain.stuq"));
    stuq_traffic::save_dataset(ds.data(), &data_path).unwrap();
    deepstuq::save_model(&model, &model_path).unwrap();

    // A test window whose forecast period has rain, so zeroed covariates
    // would show.
    let starts = ds.window_starts(Split::Test);
    let window = (0..starts.len())
        .find(|&k| ds.window(starts[k]).cov.unwrap().data().iter().any(|&r| r > 0.0))
        .expect("a rainy test window");
    let sensor = 2;
    let args = [
        "forecast",
        "--model",
        model_path.to_str().unwrap(),
        "--data",
        data_path.to_str().unwrap(),
        "--sensor",
        &sensor.to_string(),
        "--window",
        &window.to_string(),
        "--seed",
        "9",
    ];
    let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    deepstuq_cli::run(&owned, &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();

    let f = model.predict_window(&ds.window(starts[window]), ds.scaler(), &mut StuqRng::new(9));
    let rows: Vec<Vec<&str>> =
        out.lines().skip(2).map(|l| l.split_whitespace().collect()).collect();
    assert_eq!(rows.len(), ds.horizon(), "{out}");
    for (h, row) in rows.iter().enumerate() {
        let want: Vec<String> = [&f.mu, &f.sigma_aleatoric, &f.sigma_epistemic, &f.sigma_total]
            .iter()
            .map(|t| format!("{:.2}", t.get(sensor, h)))
            .collect();
        assert_eq!(row[2..6], want, "step {}:\n{out}", h + 1);
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Fuzz sweep across every serialized artifact type: byte truncation at a
/// spread of offsets and single-bit flips at a spread of positions must all
/// surface as typed `Err`s from the loaders — never a panic, never a
/// silently-accepted corrupt artifact. The checksum trailer is the common
/// last line of defence, so a single flipped bit anywhere must be caught.
#[test]
fn corrupted_artifacts_fail_typed_and_never_panic() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let dir = tmp_dir("corruption_fuzz");
    let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(205);

    // Model artifact.
    let model_path = saved_tiny_model(&dir);

    // Dataset artifact.
    let data_path = dir.join("d.stuqd");
    stuq_traffic::save_dataset(ds.data(), &data_path).unwrap();

    // Training checkpoint (pause a budgeted fit after one epoch).
    let ckpt_dir = dir.join("ckpt");
    let opts = deepstuq::FitOptions {
        checkpoint_dir: Some(ckpt_dir.clone()),
        epoch_budget: Some(1),
        ..Default::default()
    };
    let cfg = DeepStuqConfig::fast_demo(ds.n_nodes(), ds.horizon());
    DeepStuq::fit(&ds, cfg, 205, &opts).unwrap();
    let ckpt_path = ckpt_dir.join(deepstuq::pipeline::CHECKPOINT_FILE);
    assert!(ckpt_path.exists(), "budgeted fit must leave a checkpoint behind");

    // Sealed event-log-style payload (the obs sink's closing seal).
    let events_path = dir.join("events.sealed");
    std::fs::write(&events_path, stuq_artifact::seal(b"{\"type\":\"run_start\"}\n")).unwrap();

    type Loader = Box<dyn Fn(&std::path::Path) -> Result<(), String>>;
    let cases: Vec<(&str, std::path::PathBuf, Loader)> = vec![
        (
            "model",
            model_path,
            Box::new(|p| deepstuq::load_model(p).map(drop).map_err(|e| e.to_string())),
        ),
        (
            "dataset",
            data_path,
            Box::new(|p| stuq_traffic::load_dataset(p).map(drop).map_err(|e| e.to_string())),
        ),
        (
            "checkpoint",
            ckpt_path,
            Box::new(|p| {
                deepstuq::checkpoint::load_checkpoint(p).map(drop).map_err(|e| e.to_string())
            }),
        ),
        (
            "sealed-events",
            events_path,
            Box::new(|p| stuq_artifact::read_verified(p).map(drop).map_err(|e| e.to_string())),
        ),
    ];

    for (name, path, load) in &cases {
        let clean = std::fs::read(path).unwrap();
        assert!(load(path).is_ok(), "{name}: pristine artifact must load");
        let scratch = dir.join(format!("{name}.corrupt"));

        // Truncations: empty file, header-only, several mid-file cuts, and
        // one/two bytes shy of complete (clips the trailer's newline).
        let n = clean.len();
        for cut in [0, 1, n / 100, n / 4, n / 2, 3 * n / 4, n - 2, n - 1] {
            std::fs::write(&scratch, &clean[..cut]).unwrap();
            let r = catch_unwind(AssertUnwindSafe(|| load(&scratch)))
                .unwrap_or_else(|_| panic!("{name}: truncation at {cut}/{n} bytes panicked"));
            assert!(r.is_err(), "{name}: truncation at {cut}/{n} bytes must be a typed error");
        }

        // Single-bit flips spread across the file: header, payload body, and
        // the checksum trailer all get hit. Only low-nibble bits are flipped:
        // bit 5 on a trailer hex digit is a case flip (`a` → `A`), which
        // decodes to the same checksum value and is legitimately accepted,
        // whereas a low-nibble flip always changes the decoded content.
        for i in 0..16 {
            let pos = (n * (2 * i + 1)) / 32;
            let mut bad = clean.clone();
            bad[pos] ^= 1 << (i % 4);
            std::fs::write(&scratch, &bad).unwrap();
            let r = catch_unwind(AssertUnwindSafe(|| load(&scratch)))
                .unwrap_or_else(|_| panic!("{name}: bit flip at byte {pos} panicked"));
            assert!(r.is_err(), "{name}: bit flip at byte {pos}/{n} must be a typed error");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

// --- golden bytes -----------------------------------------------------------
//
// Every on-disk and on-wire text format, pinned byte for byte. All values
// are integer-derived f32 bit patterns (normals, subnormals, ±0, ±inf and
// NaN payloads), never RNG-normal draws or simulator output, so no libm
// call can move a digest. The digests were recorded from the writers as
// they stood before the format codecs were shared; any change to a writer
// that moves a byte fails here.

/// The `i`-th golden word under `salt`: a multiplicative hash of `i`, so
/// consecutive words land in unrelated exponent classes.
fn golden_word(i: usize, salt: u32) -> f32 {
    f32::from_bits((i as u32).wrapping_add(1).wrapping_mul(0x9e37_79b9) ^ salt)
}

fn golden_words(n: usize, salt: u32) -> Vec<f32> {
    (0..n).map(|i| golden_word(i, salt)).collect()
}

/// Positive, finite golden values (edge lengths must be > 0).
fn golden_lengths(n: usize) -> Vec<f32> {
    (0..n).map(|i| f32::from_bits(0x3f80_0000 + (i as u32).wrapping_mul(0x0001_2345))).collect()
}

fn golden_tensor(shape: &[usize], salt: u32) -> stuq_tensor::Tensor {
    stuq_tensor::Tensor::from_vec(golden_words(shape.iter().product(), salt), shape)
}

fn golden_params() -> stuq_nn::ParamSet {
    let mut ps = stuq_nn::ParamSet::new();
    ps.add("layer.w", golden_tensor(&[3, 7], 0x0000_0000));
    ps.add("layer.b", golden_tensor(&[7], 0x8000_0000));
    ps.add("embed", golden_tensor(&[5, 4], 0x7f80_0001));
    ps
}

/// A tiny AGCRN whose every parameter is overwritten with golden words
/// (the random init only supplies the shapes).
fn golden_model() -> DeepStuq {
    use stuq_models::Forecaster;
    let arch = stuq_models::AgcrnConfig::new(4, 3).with_capacity(4, 2, 1).with_dropout(0.1, 0.2);
    let mut model = stuq_models::Agcrn::new(arch, &mut StuqRng::new(0));
    let ps = model.params_mut();
    for slot in 0..ps.len() {
        let shape = ps.get(slot).shape().to_vec();
        *ps.get_mut(slot) = golden_tensor(&shape, slot as u32);
    }
    DeepStuq::from_parts(model, 1.375, 12)
}

fn file_digest(path: &std::path::Path) -> u64 {
    stuq_artifact::fnv1a64(&std::fs::read(path).unwrap())
}

#[test]
fn golden_artifact_bytes_are_pinned() {
    use stuq_models::Forecaster;
    let dir = tmp_dir("golden");

    // Params blob.
    let ps = golden_params();
    let mut blob = Vec::new();
    stuq_nn::serialize::write_params(&ps, &mut blob).unwrap();
    let back = stuq_nn::serialize::read_params(&mut blob.as_slice()).unwrap();
    for (slot, (_, t)) in back.iter().enumerate() {
        let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(t.data()), bits(ps.get(slot).data()), "params slot {slot}");
    }

    // Model.
    let model_path = dir.join("golden.stuq");
    deepstuq::save_model(&golden_model(), &model_path).unwrap();

    // Checkpoint with optimizer slots and an AWA running average.
    let model = golden_model();
    let arch = model.model().config().clone();
    let snap = deepstuq::checkpoint::StageSnapshot {
        arch: &arch,
        stage: deepstuq::Stage::Awa,
        epochs_done: 2,
        guard: deepstuq::GuardState {
            lr_scale: golden_word(3, 0),
            rewinds_used: 1,
            trips: 4,
            skipped: 3,
        },
        rng: stuq_tensor::RngState {
            s: [0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 7, u64::MAX],
            spare_normal_bits: Some(0x3ff8_0000_0000_0001),
        },
        opt: stuq_nn::opt::OptimizerState {
            algorithm: "adam".into(),
            counter: 41,
            buffers: vec![
                ("m".into(), vec![Some(golden_tensor(&[2, 9], 0x11)), None]),
                ("v".into(), vec![None, Some(golden_tensor(&[17], 0x22))]),
            ],
        },
        averager: Some((3, vec![golden_tensor(&[33], 0x33), golden_tensor(&[1, 1], 0x44)])),
        params: model.model().params(),
    };
    let ckpt_path = dir.join("golden.ckpt");
    deepstuq::checkpoint::save_checkpoint(&snap, &ckpt_path).unwrap();

    // Dataset with covariates: 5 nodes, 19 steps, 2 covariate channels.
    let (n, t, c) = (5usize, 19usize, 2usize);
    let lengths = golden_lengths(4);
    let edges =
        vec![(0, 1, lengths[0]), (1, 2, lengths[1]), (2, 3, lengths[2]), (3, 4, lengths[3])];
    let positions = (0..n).map(|i| (golden_word(i, 0x55), golden_word(i, 0x66))).collect();
    let net = stuq_graph::RoadNetwork::new(n, edges, positions);
    let data = stuq_traffic::TrafficData::with_covariates(
        "golden set",
        golden_words(t * n, 0x77),
        t,
        net,
        golden_words(t * c, 0x88),
        c,
    );
    let data_path = dir.join("golden.stuqd");
    stuq_traffic::save_dataset(&data, &data_path).unwrap();
    // A reload re-saves to the identical bytes.
    let again = dir.join("golden-again.stuqd");
    stuq_traffic::save_dataset(&stuq_traffic::load_dataset(&data_path).unwrap(), &again).unwrap();
    assert_eq!(std::fs::read(&again).unwrap(), std::fs::read(&data_path).unwrap());

    let digests = [
        ("params", stuq_artifact::fnv1a64(&blob)),
        ("model", file_digest(&model_path)),
        ("checkpoint", file_digest(&ckpt_path)),
        ("dataset", file_digest(&data_path)),
    ];
    let want: [(&str, u64); 4] = [
        ("params", 0x9260_5118_31ff_7ed9),
        ("model", 0x5039_8725_04aa_17c8),
        ("checkpoint", 0xf621_fa70_43e6_d4ec),
        ("dataset", 0x292c_8ca4_6c58_af46),
    ];
    assert_eq!(digests, want);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn golden_manifest_and_wire_lines_are_pinned() {
    let manifest = stuq_obs::RunManifest {
        cmd: "train".into(),
        seed: 17,
        config_hash: format!("{:016x}", stuq_artifact::fnv1a64(b"epochs=1")),
        threads: 4,
        git: "v0.1-\"dirty\"".into(),
        telemetry_level: "summary".into(),
        started_unix_ms: 1_700_000_000_123,
        wall_seconds: 1.25,
        phases: vec![stuq_obs::PhaseTiming {
            path: "train/pre\\train\t1".into(),
            count: 2,
            total_s: 0.1,
            max_s: f64::INFINITY,
        }],
        final_metrics: vec![
            ("loss".into(), 0.5),
            ("temperature".into(), f64::NAN),
            ("floor".into(), f64::NEG_INFINITY),
        ],
    };
    assert_eq!(
        manifest.to_json(),
        "{\n  \"schema\": \"stuq-run-manifest-v1\",\n  \"cmd\": \"train\",\n  \"seed\": 17,\n  \"config_hash\": \"4a56663a2c9ebe85\",\n  \"threads\": 4,\n  \"git\": \"v0.1-\\\"dirty\\\"\",\n  \"telemetry_level\": \"summary\",\n  \"started_unix_ms\": 1700000000123,\n  \"wall_seconds\": 1.25,\n  \"phases\": [\n    {\"path\": \"train/pre\\\\train\\t1\", \"count\": 2, \"total_s\": 0.1, \"max_s\": \"inf\"}\n  ],\n  \"final_metrics\": {\n    \"loss\": 0.5,\n    \"temperature\": \"NaN\",\n    \"floor\": \"-inf\"\n  }\n}\n"
    );

    let id = Some("q\"b\\s\u{1}c\u{1f}é".to_string());
    let mu = stuq_tensor::Tensor::from_vec(vec![1.5, f32::NAN, -0.0, 3.0e-39], &[2, 2]);
    let sigma = stuq_tensor::Tensor::from_vec(vec![0.25, f32::INFINITY, 1e7, 2.0], &[2, 2]);
    let lower = stuq_tensor::Tensor::from_vec(vec![-1.0, f32::NEG_INFINITY, 0.1, 7.0], &[2, 2]);
    let upper = stuq_tensor::Tensor::from_vec(vec![f32::MAX, f32::MIN_POSITIVE, 1.0, 9.5], &[2, 2]);
    let forecast = stuq_serve::proto::resp_forecast(
        &id,
        7,
        8,
        "00000000deadbeef",
        &stuq_serve::proto::ForecastMeta::solo(),
        &stuq_serve::proto::Intervals { mu: &mu, sigma: &sigma, lower: &lower, upper: &upper },
    );
    assert_eq!(
        forecast,
        "{\"type\":\"forecast\",\"id\":\"q\\\"b\\\\s\\u0001c\\u001fé\",\"degraded\":true,\"samples_used\":7,\"samples_requested\":8,\"variance_inflation\":1.1428572,\"model\":\"00000000deadbeef\",\"mu\":[[1.5,\"NaN\"],[-0,0.000000000000000000000000000000000000003]],\"sigma\":[[0.25,\"inf\"],[10000000,2]],\"lower\":[[-1,\"-inf\"],[0.1,7]],\"upper\":[[340282350000000000000000000000000000000,0.000000000000000000000000000000000000011754944],[1,9.5]],\"meta\":{\"batched\":false,\"batch_size\":1,\"cache_hit\":false}}"
    );
    let passes = stuq_serve::proto::resp_passes(
        "m\"\\\n\u{7}",
        &[(mu.clone(), Some(sigma.clone())), (lower, Some(upper))],
    );
    assert_eq!(
        passes,
        "{\"type\":\"passes\",\"model\":\"m\\\"\\\\\\n\\u0007\",\"dims\":[2,2,2],\"mu\":\"3fc000007fc00000800000000020aac8bf800000ff8000003dcccccd40e00000\",\"var\":\"3e8000007f8000004b189680400000007f7fffff008000003f80000041180000\"}"
    );
    let request = stuq_serve::proto::render_passes_req(
        &mu,
        10,
        3..7,
        &[0x0123_4567_89ab_cdef, u64::MAX, 0, 42],
        Some((0xdead_beef, 5)),
    );
    assert_eq!(
        request,
        "{\"type\":\"passes\",\"n\":10,\"lo\":3,\"hi\":7,\"rng\":[\"0123456789abcdef\",\"ffffffffffffffff\",\"0000000000000000\",\"000000000000002a\"],\"trace\":\"00000000deadbeef\",\"span\":\"0000000000000005\",\"dims\":[2,2],\"x\":\"3fc000007fc00000800000000020aac8\"}"
    );
}
