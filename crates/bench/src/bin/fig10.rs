//! Reproduces **Fig. 10**: aleatoric and epistemic uncertainty as a
//! function of the forecast horizon, for all four datasets.
//!
//! Paper shape to check: both components grow with the horizon — short-term
//! forecasts are more reliable than long-term ones.

use deepstuq::decompose::HorizonUncertaintyAccumulator;
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
        let mut acc = HorizonUncertaintyAccumulator::new(ds.horizon());
        for &s in ds.window_starts(Split::Test).iter().step_by(stride) {
            let w = ds.window(s);
            let f = model.forecast_normalized(&w.x, model.mc_samples(), &mut rng);
            acc.update(&f, ds.scaler().std(), model.temperature());
        }
        let m = acc.mean();
        for h in 0..ds.horizon() {
            rows.push(vec![
                format!("{preset:?}"),
                format!("{}", h + 1),
                format!("{:.3}", m.aleatoric[h]),
                format!("{:.3}", m.epistemic[h]),
                format!("{:.3}", m.total[h]),
            ]);
        }
    }

    let header = ["dataset", "horizon", "sigma_aleatoric", "sigma_epistemic", "sigma_total"];
    print_table("Fig. 10: uncertainty by forecast horizon", &header, &rows);
    write_csv(&opts.out_dir, "fig10.csv", &header, &rows);
}
