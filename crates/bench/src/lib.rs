//! Shared harness for the `paper` binary, which regenerates every table and
//! figure of the paper (see DESIGN.md §3 for the index). It holds the CLI,
//! the per-run [`Fits`] every table reads, and table/CSV output; the tables
//! themselves are in [`tables`].
//!
//! # Scales
//!
//! The paper's experiments ran on GPUs for hours; this harness defaults to
//! `--scale quick` (minutes on a laptop: graphs shrunk ~12×, series ~50×,
//! few epochs) and also offers `standard` (tens of minutes) and `full`
//! (paper-sized data and epochs — expect days on CPU; provided for
//! completeness and spot-checking). Relative orderings — which method wins,
//! where coverage lands — are the reproduction target at every scale.

pub mod baselines;
pub mod tables;
pub mod timing;

use std::cell::OnceCell;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use deepstuq::eval::EvalResult;
use deepstuq::methods::{BaseFit, Method, MethodConfig, TrainedMethod};
use deepstuq::pipeline::DeepStuq;
use stuq_traffic::{DatasetSpec, Preset, Split, SplitDataset};

/// Experiment scale: how far from paper-size the run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes on a laptop; CI-friendly.
    Quick,
    /// Tens of minutes; tighter numbers.
    Standard,
    /// Paper-sized data and epochs (days on CPU).
    Full,
}

impl Scale {
    /// `(node_frac, step_frac)` applied to the Table I specs.
    pub fn data_fractions(self) -> (f64, f64) {
        match self {
            Scale::Quick => (0.08, 0.02),
            Scale::Standard => (0.15, 0.06),
            Scale::Full => (1.0, 1.0),
        }
    }

    /// `(pretrain_epochs, batch_size)`.
    pub fn train_knobs(self) -> (usize, usize) {
        match self {
            Scale::Quick => (2, 8),
            Scale::Standard => (6, 16),
            Scale::Full => (100, 64),
        }
    }

    /// Stride over test windows during evaluation.
    pub fn eval_stride(self) -> usize {
        match self {
            Scale::Quick => 7,
            Scale::Standard => 3,
            Scale::Full => 1,
        }
    }
}

/// Parsed harness options.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Master experiment seed.
    pub seed: u64,
    /// Run scale.
    pub scale: Scale,
    /// Output directory for CSV artefacts.
    pub out_dir: PathBuf,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        Self { seed: 42, scale: Scale::Quick, out_dir: PathBuf::from("target/experiments") }
    }
}

/// Parses `--seed N`, `--scale quick|standard|full`, `--out DIR` and the
/// names of the tables to run (none: all of them).
pub fn parse_args() -> (HarnessOpts, Vec<String>) {
    let mut opts = HarnessOpts::default();
    let mut names = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                opts.seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("--seed needs an integer"));
                i += 2;
            }
            "--scale" => {
                opts.scale = match args.get(i + 1).map(String::as_str) {
                    Some("quick") => Scale::Quick,
                    Some("standard") => Scale::Standard,
                    Some("full") => Scale::Full,
                    other => panic!("--scale quick|standard|full, got {other:?}"),
                };
                i += 2;
            }
            "--out" => {
                opts.out_dir = PathBuf::from(args.get(i + 1).expect("--out needs a path"));
                i += 2;
            }
            other if other.starts_with("--") => {
                panic!("unknown argument {other} (use --seed/--scale/--out and table names)")
            }
            name => {
                names.push(name.to_string());
                i += 1;
            }
        }
    }
    (opts, names)
}

fn scaled_spec(p: Preset, nf: f64, sf: f64) -> DatasetSpec {
    let spec = p.spec();
    if (nf - 1.0).abs() < 1e-12 && (sf - 1.0).abs() < 1e-12 {
        spec
    } else {
        spec.scaled(nf, sf)
    }
}

/// Everything one run's tables read: each Table I dataset, generated on
/// first use, and each distinct fit on it, trained on first use. A fit is
/// one of the six method-zoo bases ([`Method::base`], the DeepSTUQ pipeline
/// among them) with the dataset's seed; an arm's test-split evaluation is
/// kept too, since it is a function of its base. Nothing is written to disk.
/// The cells are indexed by `Preset` and `Method` in declaration order.
pub struct Fits {
    /// The run's options.
    pub opts: HarnessOpts,
    data: [OnceCell<SplitDataset>; 4],
    bases: [[OnceCell<BaseFit>; 11]; 4],
    arms: [[OnceCell<EvalResult>; 11]; 4],
}

impl Fits {
    /// An empty set of fits for one run.
    pub fn new(opts: HarnessOpts) -> Self {
        Self { opts, data: Default::default(), bases: Default::default(), arms: Default::default() }
    }

    /// The preset's dataset at the run's scale.
    pub fn dataset(&self, preset: Preset) -> &SplitDataset {
        self.data[preset as usize].get_or_init(|| {
            let (nf, sf) = self.opts.scale.data_fractions();
            scaled_spec(preset, nf, sf).generate(self.seed(preset))
        })
    }

    /// The preset's seed: the run's seed mixed with the preset's offset.
    pub fn seed(&self, preset: Preset) -> u64 {
        self.opts.seed ^ preset.seed_offset()
    }

    /// Method-zoo configuration for the preset's dataset at the run's scale.
    pub fn config(&self, preset: Preset) -> MethodConfig {
        let n_nodes = self.dataset(preset).n_nodes();
        match self.opts.scale {
            Scale::Full => MethodConfig::paper(n_nodes),
            _ => {
                let (epochs, batch) = self.opts.scale.train_knobs();
                MethodConfig::fast(n_nodes, epochs, batch)
            }
        }
    }

    /// The base fit `base` (a value of [`Method::base`]) on the preset.
    pub fn base(&self, preset: Preset, base: Method) -> &BaseFit {
        self.bases[preset as usize][base as usize].get_or_init(|| {
            if base == Method::DeepStuq {
                eprintln!("[fits] {preset:?}: DeepSTUQ pipeline fit");
            } else {
                eprintln!("[fits] {preset:?}: pre-training the {} base", base.name());
            }
            BaseFit::train(base, self.dataset(preset), &self.config(preset), self.seed(preset))
        })
    }

    /// The DeepSTUQ pipeline's model on the preset.
    pub fn deepstuq(&self, preset: Preset) -> DeepStuq {
        let base = self.base(preset, Method::DeepStuq);
        DeepStuq::from_parts(base.model.clone(), base.temperature, self.config(preset).mc_samples)
    }

    /// `method`'s metrics on the preset's test split, at the scale's stride.
    pub fn arm(&self, preset: Preset, method: Method) -> &EvalResult {
        self.arms[preset as usize][method as usize].get_or_init(|| {
            let ds = self.dataset(preset);
            let base = self.base(preset, method.base());
            let mut tm = TrainedMethod::from_base(method, base, ds, self.config(preset));
            tm.evaluate(ds, Split::Test, self.opts.scale.eval_stride())
        })
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = String::new();
    for (h, w) in header.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ");
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len().min(160)));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ");
        }
        println!("{line}");
    }
}

/// Writes a CSV artefact under the output directory.
pub fn write_csv(out_dir: &Path, name: &str, header: &[&str], rows: &[Vec<String>]) {
    std::fs::create_dir_all(out_dir).expect("create output dir");
    let path = out_dir.join(name);
    let mut body = header.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    std::fs::write(&path, body).expect("write csv");
    println!("wrote {}", path.display());
}

/// Formats a float to two decimals, printing `-` for NaN (the paper's "—").
pub fn fmt2(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_knobs_are_ordered() {
        let (nq, sq) = Scale::Quick.data_fractions();
        let (ns, ss) = Scale::Standard.data_fractions();
        let (nf, sf) = Scale::Full.data_fractions();
        assert!(nq < ns && ns < nf && (nf - 1.0).abs() < 1e-12);
        assert!(sq < ss && ss < sf);
        assert!(Scale::Quick.eval_stride() > Scale::Full.eval_stride());
    }

    #[test]
    fn datasets_cover_all_presets() {
        let fits = Fits::new(HarnessOpts::default());
        // Names survive scaling.
        assert!(fits.dataset(Preset::Pems03Like).data().name().contains("PEMS03"));
        assert!(fits.dataset(Preset::Pems08Like).data().name().contains("PEMS08"));
    }

    #[test]
    fn fmt2_handles_nan() {
        assert_eq!(fmt2(f64::NAN), "-");
        assert_eq!(fmt2(12.345), "12.35");
    }

    #[test]
    fn full_scale_uses_paper_specs() {
        let opts = HarnessOpts { scale: Scale::Full, ..Default::default() };
        let (nf, sf) = opts.scale.data_fractions();
        let spec = scaled_spec(Preset::Pems04Like, nf, sf);
        assert_eq!((spec.nodes, spec.edges, spec.steps), (307, 340, 16_992));
    }
}
