//! Microbenchmarks for the hot kernels of the reproduction.
//!
//! Runs on the in-tree [`stuq_bench::timing`] harness (the build environment
//! is offline, so Criterion is unavailable). Covers the blocked kernels
//! against the seed's scalar reference, serial-vs-parallel dispatch, the
//! DESIGN.md NAPL fused-vs-composed ablation, whole-model AGCRN costs, and
//! the data substrates. `cargo bench -p stuq-bench` prints one line per
//! benchmark; the end-to-end benchmark is `perfbench/`.

use std::hint::black_box;
use stuq_bench::timing::{bench, bench_with, Sample};
use stuq_models::{Agcrn, AgcrnConfig, Forecaster, HeadKind, Prediction};
use stuq_nn::layers::FwdCtx;
use stuq_nn::lbfgs::{minimize, LbfgsOptions};
use stuq_tensor::{kernels, StuqRng, Tape, Tensor};

fn show(s: &Sample) {
    println!("  {s}");
}

fn bench_matmul() {
    println!("tensor/matmul");
    let mut rng = StuqRng::new(1);
    for n in [64usize, 128, 307] {
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        let flops = 2.0 * (n * n * n) as f64;
        let blocked =
            bench(&format!("matmul_{n}x{n} (blocked+parallel)"), || black_box(a.matmul(&b)));
        let serial = bench(&format!("matmul_{n}x{n} (blocked, 1 thread)"), || {
            stuq_parallel::with_serial(|| black_box(a.matmul(&b)))
        });
        let reference = bench(&format!("matmul_{n}x{n} (seed reference)"), || {
            black_box(a.matmul_reference(&b))
        });
        for s in [&blocked, &serial, &reference] {
            println!("  {s}  {:6.2} GFLOP/s", s.gflops(flops));
        }
        println!(
            "    speedup vs reference: {:.2}x blocked, {:.2}x parallel ({} threads)",
            reference.best_s / serial.best_s,
            reference.best_s / blocked.best_s,
            stuq_parallel::num_threads(),
        );
    }
}

fn bench_napl_fused_vs_composed() {
    println!("napl (fused tape op vs per-node composition)");
    let mut rng = StuqRng::new(2);
    let (n, ci, co) = (64usize, 33usize, 32usize);
    let z = Tensor::randn(&[n, ci], 1.0, &mut rng);
    let w = Tensor::randn(&[n, ci * co], 0.2, &mut rng);

    show(&bench("fused_rowwise_fwd_bwd", || {
        let mut tape = Tape::new();
        let zi = tape.param(0, z.clone());
        let wi = tape.param(1, w.clone());
        let y = tape.rowwise_matmul(zi, wi, ci, co);
        let sq = tape.square(y);
        let loss = tape.mean_all(sq);
        black_box(tape.backward(loss))
    }));

    show(&bench("composed_per_node_fwd_bwd", || {
        let mut tape = Tape::new();
        let zi = tape.param(0, z.clone());
        // One matmul per node with the node's private weight matrix.
        let mut loss_acc = None;
        for node in 0..n {
            let z_row = tape.slice_rows(zi, node, node + 1);
            let w_node = tape.constant(w.slice_rows(node, node + 1).reshape(&[ci, co]));
            let y = tape.matmul(z_row, w_node);
            let sq = tape.square(y);
            let l = tape.mean_all(sq);
            loss_acc = Some(match loss_acc {
                None => l,
                Some(acc) => tape.add(acc, l),
            });
        }
        black_box(tape.backward(loss_acc.unwrap()))
    }));

    let rw = bench("rowwise_kernel (blocked)", || {
        black_box(kernels::rowwise_matmul(z.data(), w.data(), n, ci, co))
    });
    let rw_ref = bench("rowwise_kernel (seed reference)", || {
        black_box(kernels::rowwise_matmul_reference(z.data(), w.data(), n, ci, co))
    });
    show(&rw);
    show(&rw_ref);
    println!("    rowwise kernel speedup vs reference: {:.2}x", rw_ref.best_s / rw.best_s);
}

fn agcrn_fixture(n: usize, rng: &mut StuqRng) -> (Agcrn, Tensor) {
    let cfg = AgcrnConfig::new(n, 12)
        .with_capacity(32, 8, 2)
        .with_dropout(0.1, 0.2)
        .with_head(HeadKind::Gaussian);
    let model = Agcrn::new(cfg, rng);
    let x = Tensor::randn(&[12, n], 1.0, rng);
    (model, x)
}

fn bench_agcrn() {
    println!("agcrn (n = 50)");
    let mut rng = StuqRng::new(3);
    let (model, x) = agcrn_fixture(50, &mut rng);

    show(&bench_with("forward_n50", 0.5, 50, || {
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&mut rng);
        black_box(model.forward(&mut tape, &x, &mut ctx))
    }));
    show(&bench_with("train_step_n50", 0.5, 50, || {
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::train(&mut rng);
        let Prediction::Gaussian { mu, logvar } = model.forward(&mut tape, &x, &mut ctx) else {
            unreachable!()
        };
        let y = tape.constant(Tensor::zeros(&[50, 12]));
        let l = stuq_nn::loss::combined(&mut tape, mu, logvar, y, 0.1);
        black_box(tape.backward(l))
    }));
    let mc_par = bench_with("mc_inference_10_n50 (parallel)", 0.5, 20, || {
        let mut rng = StuqRng::new(9);
        black_box(deepstuq::mc::mc_forecast(&model, &x, 10, &mut rng))
    });
    let mc_ser = bench_with("mc_inference_10_n50 (1 thread)", 0.5, 20, || {
        let mut rng = StuqRng::new(9);
        stuq_parallel::with_serial(|| {
            black_box(deepstuq::mc::mc_forecast(&model, &x, 10, &mut rng))
        })
    });
    show(&mc_par);
    show(&mc_ser);
    println!(
        "    MC thread-scaling: {:.2}x ({} threads)",
        mc_ser.best_s / mc_par.best_s,
        stuq_parallel::num_threads(),
    );
}

fn bench_substrates() {
    println!("substrates");
    show(&bench_with("simulate_50n_1day", 0.5, 20, || {
        let net = stuq_graph::generate_road_network(50, 80, 7);
        let cfg = stuq_traffic::SimulationConfig::default();
        let mut rng = StuqRng::new(7);
        black_box(stuq_traffic::simulate_traffic(&net, 288, &cfg, &mut rng))
    }));
    show(&bench_with("generate_network_100n", 0.5, 20, || {
        black_box(stuq_graph::generate_road_network(100, 150, 7))
    }));
    show(&bench_with("lbfgs_temperature_10k", 0.5, 20, || {
        let mut rng = StuqRng::new(7);
        let residual_sq: Vec<f64> = (0..10_000).map(|_| rng.normal_f64().powi(2)).collect();
        let r = minimize(
            |t| {
                let tt = t[0].max(1e-6);
                let (mut f, mut g) = (0.0, 0.0);
                for &r2 in &residual_sq {
                    f += -(tt * tt).ln() + tt * tt * r2;
                    g += -2.0 / tt + 2.0 * tt * r2;
                }
                let n = residual_sq.len() as f64;
                (f / n, vec![g / n])
            },
            &[1.0],
            &LbfgsOptions::default(),
        );
        black_box(r)
    }));
}

fn main() {
    bench_matmul();
    bench_napl_fused_vs_composed();
    bench_agcrn();
    bench_substrates();
}
