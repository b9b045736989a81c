//! Reproduces **Fig. 11**: point metrics versus the number of Monte-Carlo
//! samples (1, 3, 5, 10, 15).
//!
//! Paper shape to check: metrics improve with more samples and saturate by
//! ~10–15, justifying the paper's choice of 10 at test time.

use deepstuq::eval::{evaluate, RawForecast};
use deepstuq::pipeline::DeepStuq;
use stuq_bench::{datasets, fmt2, method_config, parse_args, print_table, write_csv};
use stuq_tensor::StuqRng;
use stuq_traffic::Split;

fn main() {
    let opts = parse_args();
    println!("Fig. 11 reproduction — scale {:?}, seed {}", opts.scale, opts.seed);
    let stride = opts.scale.eval_stride();
    let sample_counts = [1usize, 3, 5, 10, 15];

    let mut rows = Vec::new();
    for (preset, ds) in datasets(&opts) {
        eprintln!("[fig11] dataset {preset:?}");
        let mcfg = method_config(&opts, ds.n_nodes());
        let seed = opts.seed ^ preset.seed_offset();
        let model = DeepStuq::train(&ds, mcfg.deepstuq(ds.n_nodes(), ds.horizon()), seed);
        for n in sample_counts {
            let mut rng = StuqRng::new(seed ^ 0xF11);
            let r = evaluate(&ds, Split::Test, stride, |x, _| {
                let mu = model.predict_with_samples(x, ds.scaler(), n, &mut rng).mu;
                RawForecast { mu, sigma: None, bounds: None }
            });
            rows.push(vec![
                format!("{preset:?}"),
                format!("{n}"),
                fmt2(r.point.mae),
                fmt2(r.point.rmse),
                fmt2(r.point.mape),
            ]);
        }
    }

    let header = ["dataset", "mc_samples", "MAE", "RMSE", "MAPE(%)"];
    print_table("Fig. 11: metrics vs Monte-Carlo sample count", &header, &rows);
    write_csv(&opts.out_dir, "fig11.csv", &header, &rows);
}
