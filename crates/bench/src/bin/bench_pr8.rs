//! Machine-readable speedup record for one training epoch.
//!
//! Times one end-to-end AGCRN training epoch (forward + backward + Adam) in
//! three modes, interleaved round-robin so machine noise lands on every
//! side of a ratio:
//!
//! - `seed`: reference kernels on a serial pool, the baseline;
//! - `engine_serial`: the fast kernels on a serial pool;
//! - `parallel`: the fast kernels on the configured pool.
//!
//! Results go to `BENCH_PR8.json` in the current directory. The binary
//! *asserts* that 1-epoch parameters are bit-identical on the pool and on a
//! serial pool, and exits nonzero on divergence. `ci/bench_gate.sh` reads
//! the emitted ratio against the floor in `ci/bench_floors.env`. Every
//! ratio is the median over rounds of the per-round ratio
//! ([`median_ratio`]); `--quick` runs [`MIN_ROUNDS`] rounds, the full run
//! up to 2 s of epochs per variant.

use std::fmt::Write as _;

use deepstuq::trainer::{train_epoch, LossKind};
use stuq_bench::timing::{bench_interleaved, median_ratio, Sample, MIN_ROUNDS};
use stuq_models::{Agcrn, AgcrnConfig, Forecaster, HeadKind};
use stuq_nn::opt::Adam;
use stuq_tensor::{kernels, StuqRng, Tensor};
use stuq_traffic::{Preset, SplitDataset};

/// The three execution modes of the epoch, plus derived ratios.
struct Triple {
    seed: Sample,
    engine_serial: Sample,
    parallel: Sample,
}

impl Triple {
    fn speedup_serial(&self) -> f64 {
        median_ratio(&self.seed, &self.engine_serial)
    }
    fn speedup_parallel(&self) -> f64 {
        median_ratio(&self.seed, &self.parallel)
    }
    fn thread_scaling(&self) -> f64 {
        median_ratio(&self.engine_serial, &self.parallel)
    }
}

fn epoch_fixture() -> SplitDataset {
    Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(21)
}

fn run_epoch(ds: &SplitDataset) -> Vec<Tensor> {
    let mut rng = StuqRng::new(77);
    let cfg = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
        .with_capacity(16, 4, 1)
        .with_dropout(0.05, 0.1)
        .with_head(HeadKind::Gaussian);
    let mut model = Agcrn::new(cfg, &mut rng);
    let mut opt = Adam::new(3e-3, 1e-6);
    train_epoch(
        &mut model,
        ds,
        8,
        LossKind::Combined { lambda: 0.1 },
        &mut opt,
        5.0,
        &mut rng,
        None,
    )
    .expect("epoch trains");
    model.params().snapshot()
}

fn params_bit_identical(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.data().iter().zip(y.data()).all(|(p, q)| p.to_bits() == q.to_bits()))
}

fn time_epoch(ds: &SplitDataset, secs: f64, reps: usize) -> Triple {
    let mut seed = || {
        kernels::with_reference_kernels(|| std::hint::black_box(run_epoch(ds)));
    };
    let mut engine_serial = || {
        stuq_parallel::with_serial(|| std::hint::black_box(run_epoch(ds)));
    };
    let mut parallel = || {
        std::hint::black_box(run_epoch(ds));
    };
    let [seed, engine_serial, parallel]: [Sample; 3] = bench_interleaved(
        &["epoch seed", "epoch engine-serial", "epoch parallel"],
        secs,
        reps,
        &mut [&mut seed, &mut engine_serial, &mut parallel],
    )
    .try_into()
    .expect("three variants");
    Triple { seed, engine_serial, parallel }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = stuq_parallel::num_threads();
    println!("bench_pr8: {threads} thread(s) configured{}", if quick { ", --quick" } else { "" });

    let ds = epoch_fixture();
    let (secs, reps) = if quick { (0.0, MIN_ROUNDS) } else { (2.0, 20) };
    let t = time_epoch(&ds, secs, reps);
    println!(
        "train epoch (Pems08Like 0.08): seed {:.2} ms | engine-serial {:.2} ms ({:.2}x) | \
         parallel {:.2} ms ({:.2}x)",
        t.seed.best_s * 1e3,
        t.engine_serial.best_s * 1e3,
        t.speedup_serial(),
        t.parallel.best_s * 1e3,
        t.speedup_parallel(),
    );

    let par = run_epoch(&ds);
    let ser = stuq_parallel::with_serial(|| run_epoch(&ds));
    let epoch_threads_ok = params_bit_identical(&par, &ser);
    println!("1-epoch parallel vs serial parameters bit-identical: {epoch_threads_ok}");

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"workload_scale\": \"Pems08Like epoch (0.08 scale)\",\n  \
         \"threads\": {threads},\n  \"quick\": {quick},\n  \
         \"baseline\": \"with_reference_kernels epoch on a serial pool\",\n  \
         \"epoch\": {{\n    \"batch_size\": 8,\n    \"seed_ms\": {:.3},\n    \
         \"engine_serial_ms\": {:.3},\n    \"parallel_ms\": {:.3},\n    \
         \"parallel_p50_ms\": {:.3},\n    \"parallel_p95_ms\": {:.3},\n    \
         \"parallel_p99_ms\": {:.3},\n    \"speedup_serial_vs_seed\": {:.2},\n    \
         \"speedup_parallel_vs_seed\": {:.2},\n    \"thread_scaling\": {:.2}\n  }},\n  \
         \"determinism\": {{\n    \
         \"epoch_params_bit_identical_across_thread_counts\": {epoch_threads_ok}\n  }},\n  \
         \"notes\": [\n    \
         \"epoch.speedup_serial_vs_seed is gated: fast kernels vs reference kernels, both on a 1-thread pool\",\n    \
         \"every ratio is the median over interleaved rounds of the per-round ratio; the *_ms times are best-of-rounds\",\n    \
         \"the determinism flag is hard-asserted: the binary exits nonzero if it is false\"\n  ]\n}}\n",
        t.seed.best_s * 1e3,
        t.engine_serial.best_s * 1e3,
        t.parallel.best_s * 1e3,
        t.parallel.p50_s * 1e3,
        t.parallel.p95_s * 1e3,
        t.parallel.p99_s * 1e3,
        t.speedup_serial(),
        t.speedup_parallel(),
        t.thread_scaling(),
    );
    std::fs::write("BENCH_PR8.json", &out).expect("write BENCH_PR8.json");
    println!("wrote BENCH_PR8.json");

    assert!(epoch_threads_ok, "epoch parameters depend on the thread count");
}
