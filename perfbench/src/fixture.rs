//! Fixtures: datasets, model artifacts, request windows and quality scoring.
//!
//! The datasets and the fresh serving model are frozen (`FIXTURE_SEED`);
//! the workload seed drives what is sent to them — arrival times, windows,
//! MC seeds, node subsets — and the training seed. Quality metrics therefore
//! compare like with like across seeds. Everything is built before any
//! timing starts; artifacts go to a per-process scratch directory under the
//! working directory, removed when the fixture is dropped.

use std::path::{Path, PathBuf};

use deepstuq::{DeepStuq, DeepStuqConfig};
use stuq_metrics::{PointAccumulator, ProperScoreAccumulator, UqAccumulator};
use stuq_models::Agcrn;
use stuq_tensor::StuqRng;
use stuq_traffic::{Preset, Split, SplitDataset};

/// MC samples per forecast, as in the paper.
pub const MC: usize = 10;

/// Seed of every dataset and of the fresh serving model.
pub const FIXTURE_SEED: u64 = 8;

/// Scratch directory for artifacts, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>` under the current directory.
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// Path of a file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the shared parent in place while sibling runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The Pems08-like dataset at `(node_frac, step_frac)` of paper size.
pub fn dataset(node_frac: f64, step_frac: f64) -> SplitDataset {
    Preset::Pems08Like.spec().scaled(node_frac, step_frac).generate(FIXTURE_SEED)
}

/// Paper-capacity pipeline configuration (hidden 32, 2 layers, mc 10).
pub fn paper_config(ds: &SplitDataset) -> DeepStuqConfig {
    DeepStuqConfig::paper(ds.n_nodes(), ds.horizon())
}

/// The serving fixture: a 43-sensor dataset and a freshly initialised
/// paper-capacity model, both written as artifacts a `Server` loads. An
/// untrained model costs the same per forward pass as a trained one.
pub struct ServeFixture {
    pub ds: SplitDataset,
    pub model: DeepStuq,
    pub model_path: PathBuf,
    pub data_path: PathBuf,
    /// Test-split window starts.
    pub test_starts: Vec<usize>,
    /// Raw-unit input window of each test start, rendered as the JSON `x`
    /// matrix a client sends.
    pub x_json: Vec<String>,
    _dir: WorkDir,
}

impl ServeFixture {
    /// Builds the fixture; `model` overrides the fresh model (the trained
    /// one, in `train_fit`'s traced run).
    pub fn build(tag: &str, model: Option<DeepStuq>) -> Result<ServeFixture, String> {
        let ds = dataset(0.25, 0.05);
        let model = model.unwrap_or_else(|| {
            let mut rng = StuqRng::new(FIXTURE_SEED);
            DeepStuq::from_parts(Agcrn::new(paper_config(&ds).base, &mut rng), 1.0, MC)
        });
        let dir = WorkDir::new(tag)?;
        let model_path = dir.file("model.stuq");
        let data_path = dir.file("data.stuqd");
        deepstuq::save_model(&model, &model_path).map_err(|e| e.to_string())?;
        stuq_traffic::save_dataset(ds.data(), &data_path).map_err(|e| e.to_string())?;
        let test_starts = ds.window_starts(Split::Test);
        let x_json = test_starts.iter().map(|&s| window_json(&ds, s)).collect();
        Ok(ServeFixture { ds, model, model_path, data_path, test_starts, x_json, _dir: dir })
    }

    /// The serving configuration every workload starts from: no reload
    /// watcher, real clock, dataset scaler attached.
    pub fn serve_config(&self) -> stuq_serve::ServeConfig {
        let mut cfg = stuq_serve::ServeConfig::new(&self.model_path);
        cfg.data_path = Some(self.data_path.clone());
        cfg.reload_poll_ms = 0;
        cfg
    }

    /// Ground truth `y[start + t_h + h][node]` in raw units.
    pub fn truth(&self, start: usize, h: usize, node: usize) -> f32 {
        self.ds.data().get(start + self.ds.t_h() + h, node)
    }
}

/// The raw history window at `start` as a time-major JSON matrix.
fn window_json(ds: &SplitDataset, start: usize) -> String {
    let mut s = String::with_capacity(ds.t_h() * ds.n_nodes() * 8);
    s.push('[');
    for t in start..start + ds.t_h() {
        if t > start {
            s.push(',');
        }
        s.push('[');
        for node in 0..ds.n_nodes() {
            if node > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}", ds.data().get(t, node)));
        }
        s.push(']');
    }
    s.push(']');
    s
}

/// Forecast quality against ground truth, in raw units.
pub struct Quality {
    point: PointAccumulator,
    uq: UqAccumulator,
    proper: ProperScoreAccumulator,
}

/// Finished quality scores.
pub struct Scores {
    pub mae: f64,
    pub mnll: f64,
    /// Mean interval (Winkler) score of the 95 % interval `μ ± 1.96 σ`.
    pub interval_score: f64,
    /// Coverage of that interval, in percent.
    pub picp: f64,
}

impl Quality {
    pub fn new(horizon: usize) -> Quality {
        Quality {
            point: PointAccumulator::new(horizon),
            uq: UqAccumulator::new(horizon),
            proper: ProperScoreAccumulator::new(),
        }
    }

    /// Scores one predicted cell at horizon step `h`.
    pub fn add(&mut self, h: usize, mu: f32, sigma: f32, truth: f32) {
        self.point.update(h, mu, truth);
        self.uq.update(h, mu as f64, sigma as f64, truth as f64);
        self.proper.update(mu as f64, sigma as f64, truth as f64);
    }

    pub fn scores(&self) -> Scores {
        let uq = self.uq.overall();
        Scores {
            mae: self.point.overall().mae,
            mnll: uq.mnll,
            interval_score: self.proper.mean_interval_score(),
            picp: uq.picp,
        }
    }
}
