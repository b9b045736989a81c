//! Reproduces **Fig. 10**: aleatoric and epistemic uncertainty as a
//! function of the forecast horizon, for all four datasets.
//!
//! Paper shape to check: both components grow with the horizon — short-term
//! forecasts are more reliable than long-term ones.

use deepstuq::pipeline::DeepStuq;
use stuq_bench::{datasets, method_config, parse_args, print_table, write_csv};
use stuq_tensor::StuqRng;
use stuq_traffic::Split;

fn main() {
    let opts = parse_args();
    println!("Fig. 10 reproduction — scale {:?}, seed {}", opts.scale, opts.seed);
    let stride = opts.scale.eval_stride();

    let mut rows = Vec::new();
    for (preset, ds) in datasets(&opts) {
        eprintln!("[fig10] dataset {preset:?}");
        let mcfg = method_config(&opts, ds.n_nodes());
        let seed = opts.seed ^ preset.seed_offset();
        let model = DeepStuq::train(&ds, mcfg.deepstuq(ds.n_nodes(), ds.horizon()), seed);
        let mut rng = StuqRng::new(seed ^ 0xF10);
        // Per horizon step: aleatoric, epistemic and total σ, each the
        // sensor mean of one window summed over the test windows.
        let mut sums = vec![[0.0f64; 3]; ds.horizon()];
        let starts: Vec<usize> =
            ds.window_starts(Split::Test).iter().copied().step_by(stride).collect();
        for &s in &starts {
            let w = ds.window(s);
            let f = model.predict(&w.x, ds.scaler(), &mut rng);
            for (h, sum) in sums.iter_mut().enumerate() {
                for (k, sigma) in
                    [&f.sigma_aleatoric, &f.sigma_epistemic, &f.sigma_total].into_iter().enumerate()
                {
                    let across: f64 = (0..ds.n_nodes()).map(|i| sigma.get(i, h) as f64).sum();
                    sum[k] += across / ds.n_nodes() as f64;
                }
            }
        }
        for (h, sum) in sums.iter().enumerate() {
            let mut row = vec![format!("{preset:?}"), format!("{}", h + 1)];
            row.extend(sum.iter().map(|s| format!("{:.3}", s / starts.len() as f64)));
            rows.push(row);
        }
    }

    let header = ["dataset", "horizon", "sigma_aleatoric", "sigma_epistemic", "sigma_total"];
    print_table("Fig. 10: uncertainty by forecast horizon", &header, &rows);
    write_csv(&opts.out_dir, "fig10.csv", &header, &rows);
}
