//! Machine-readable speedup record for the parallel training engine PR.
//!
//! Two workloads, each timed against the seed's serial baseline (still
//! compiled in as the `*_reference` kernels and `Tape::backward_serial`):
//!
//! - `matmul_tb`: the transposed-B product — now on the register-tiled
//!   4×32 FMA path — vs the seed's one-dot-per-output reference;
//! - `epoch`: one end-to-end training epoch (forward + backward + Adam step)
//!   in seed / engine-serial / parallel configurations.
//!
//! The backward sweep on its own is timed by `bench_pr8` (replay vs the
//! seed walk). Results go to `BENCH_PR3.json` in the current directory. The
//! binary *asserts* the determinism contract — epoch parameters
//! bit-identical to serial, tiled `matmul_tb` within tolerance of its
//! reference — and exits nonzero on divergence, which is what the CI
//! bench-smoke step relies on (`--quick` shortens the timing loops without
//! weakening the checks).

use std::fmt::Write as _;

use deepstuq::trainer::{train_epoch, LossKind};
use stuq_bench::timing::{bench_with, Sample};
use stuq_models::{Agcrn, AgcrnConfig, Forecaster, HeadKind};
use stuq_nn::opt::Adam;
use stuq_tensor::{kernels, StuqRng, Tensor};
use stuq_traffic::{Preset, SplitDataset};

/// The three execution modes of one workload, plus derived ratios.
struct Triple {
    seed: Sample,
    engine_serial: Sample,
    parallel: Sample,
}

impl Triple {
    fn speedup_serial(&self) -> f64 {
        self.seed.best_s / self.engine_serial.best_s
    }
    fn speedup_parallel(&self) -> f64 {
        self.seed.best_s / self.parallel.best_s
    }
    fn thread_scaling(&self) -> f64 {
        self.engine_serial.best_s / self.parallel.best_s
    }
}

fn time_matmul_tb(m: usize, k: usize, n: usize, secs: f64, reps: usize) -> Triple {
    let mut rng = StuqRng::new(0x307);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
    let label = format!("matmul_tb {m}x{k}x{n}");
    Triple {
        seed: bench_with(&format!("{label} seed"), secs, reps, || {
            std::hint::black_box(kernels::matmul_tb_reference(a.data(), bt.data(), m, k, n))
        }),
        engine_serial: bench_with(&format!("{label} tiled-serial"), secs, reps, || {
            stuq_parallel::with_serial(|| std::hint::black_box(a.matmul_tb(&bt)))
        }),
        parallel: bench_with(&format!("{label} parallel"), secs, reps, || {
            std::hint::black_box(a.matmul_tb(&bt))
        }),
    }
}

/// Tiled `matmul_tb` must stay within fp-reassociation tolerance of the seed
/// kernel (the summation order legitimately differs; bit-equality is only
/// promised across *thread counts*, which the tests assert separately).
fn check_matmul_tb(m: usize, k: usize, n: usize) -> bool {
    let mut rng = StuqRng::new(0x7B);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    let bt = Tensor::randn(&[n, k], 1.0, &mut rng);
    let fast = a.matmul_tb(&bt);
    let reference = kernels::matmul_tb_reference(a.data(), bt.data(), m, k, n);
    fast.data().iter().zip(&reference).all(|(&x, &y)| {
        let denom = x.abs().max(y.abs()).max(1.0);
        (x - y).abs() / denom <= 1e-4
    })
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

fn time_epoch(ds: &SplitDataset, secs: f64, reps: usize) -> Triple {
    Triple {
        seed: bench_with("epoch seed", secs, reps, || {
            stuq_parallel::with_serial(|| kernels::with_reference_kernels(|| run_epoch(ds)))
        }),
        engine_serial: bench_with("epoch engine-serial", secs, reps, || {
            stuq_parallel::with_serial(|| run_epoch(ds))
        }),
        parallel: bench_with("epoch parallel", secs, reps, || run_epoch(ds)),
    }
}

fn triple_json(out: &mut String, key: &str, extra: &str, t: &Triple, trailing_comma: bool) {
    let comma = if trailing_comma { "," } else { "" };
    let _ = write!(
        out,
        "  \"{key}\": {{\n{extra}    \"seed_ms\": {:.3},\n    \"engine_serial_ms\": {:.3},\n    \
         \"parallel_ms\": {:.3},\n    \"parallel_p50_ms\": {:.3},\n    \
         \"parallel_p95_ms\": {:.3},\n    \"parallel_p99_ms\": {:.3},\n    \
         \"speedup_serial_vs_seed\": {:.2},\n    \
         \"speedup_parallel_vs_seed\": {:.2},\n    \"thread_scaling\": {:.2}\n  }}{comma}\n",
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
}

fn print_triple(label: &str, t: &Triple) {
    println!(
        "{label}: seed {:.2} ms | engine-serial {:.2} ms ({:.2}x) | parallel {:.2} ms ({:.2}x)",
        t.seed.best_s * 1e3,
        t.engine_serial.best_s * 1e3,
        t.speedup_serial(),
        t.parallel.best_s * 1e3,
        t.speedup_parallel(),
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = stuq_parallel::num_threads();
    let (secs, reps) = if quick { (0.15, 3) } else { (0.7, 50) };
    println!("bench_pr3: {threads} thread(s) configured{}", if quick { ", --quick" } else { "" });

    let tb_rect = time_matmul_tb(307, 64, 307, secs, reps);
    let tb_square = time_matmul_tb(307, 307, 307, secs, reps);
    print_triple("matmul_tb 307x64x307", &tb_rect);
    print_triple("matmul_tb 307x307x307", &tb_square);
    let tb_ok = check_matmul_tb(307, 64, 307) && check_matmul_tb(307, 307, 307);
    println!("tiled matmul_tb within tolerance of *_reference: {tb_ok}");

    let ds = epoch_fixture();
    let (esecs, ereps) = if quick { (0.0, 1) } else { (2.0, 5) };
    let epoch = time_epoch(&ds, esecs, ereps);
    print_triple("train epoch (Pems08Like 0.08)", &epoch);
    let epoch_ok = {
        let par = run_epoch(&ds);
        let ser = stuq_parallel::with_serial(|| run_epoch(&ds));
        par.len() == ser.len()
            && par.iter().zip(&ser).all(|(a, b)| {
                a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    };
    println!("1-epoch parallel vs serial parameters bit-identical: {epoch_ok}");

    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "  \"workload_scale\": \"Pems08Like epoch (0.08 scale)\",\n  \
         \"threads\": {threads},\n  \"quick\": {quick},\n  \
         \"baseline\": \"seed scalar matmul_tb_reference + Tape::backward_serial + with_reference_kernels epoch\",\n"
    );
    triple_json(&mut out, "matmul_tb_rect", "    \"shape_mkn\": [307, 64, 307],\n", &tb_rect, true);
    triple_json(
        &mut out,
        "matmul_tb_square",
        "    \"shape_mkn\": [307, 307, 307],\n",
        &tb_square,
        true,
    );
    triple_json(&mut out, "epoch", "    \"batch_size\": 8,\n", &epoch, true);
    let _ = write!(
        out,
        "  \"determinism\": {{\n    \"tiled_matmul_tb_within_tolerance_of_reference\": {tb_ok},\n    \
         \"epoch_params_bit_identical_across_thread_counts\": {epoch_ok}\n  }},\n  \
         \"notes\": [\n    \"speedup_parallel_vs_seed is the wall-clock win of the new training engine over the seed code path\",\n    \
         \"thread_scaling isolates pool fan-out (new code, 1 thread vs N); it is ~1.0 on single-core hosts\",\n    \
         \"determinism flags are hard-asserted: the binary exits nonzero if any is false\"\n  ]\n}}\n"
    );

    std::fs::write("BENCH_PR3.json", &out).expect("write BENCH_PR3.json");
    println!("wrote BENCH_PR3.json");

    assert!(tb_ok, "tiled matmul_tb diverged from matmul_tb_reference");
    assert!(epoch_ok, "epoch parameters depend on the thread count");
}
