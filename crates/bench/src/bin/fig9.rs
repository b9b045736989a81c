//! Reproduces **Fig. 9**: aleatoric vs epistemic uncertainty traces on a
//! randomly selected PEMS08-like sensor.
//!
//! Paper shape to check: the aleatoric band is much wider than the epistemic
//! band — traffic uncertainty is mainly data noise.

use deepstuq::pipeline::DeepStuq;
use stuq_bench::{dataset, method_config, parse_args, write_csv, Scale};
use stuq_tensor::StuqRng;
use stuq_traffic::{Preset, Split};

fn main() {
    let opts = parse_args();
    println!("Fig. 9 reproduction — scale {:?}, seed {}", opts.scale, opts.seed);
    let ds = dataset(&opts, Preset::Pems08Like);
    let mcfg = method_config(&opts, ds.n_nodes());
    let seed = opts.seed ^ Preset::Pems08Like.seed_offset();
    let model = DeepStuq::train(&ds, mcfg.deepstuq(ds.n_nodes(), ds.horizon()), seed);

    let mut rng = StuqRng::new(seed ^ 0xF19);
    let sensor = rng.uniform_usize(ds.n_nodes());
    let starts = ds.window_starts(Split::Test);
    let take = match opts.scale {
        Scale::Quick => 60,
        _ => 288,
    }
    .min(starts.len());

    let mut rows = Vec::new();
    let (mut sum_a, mut sum_e) = (0.0f64, 0.0f64);
    for &s in starts.iter().take(take) {
        let w = ds.window(s);
        let f = model.predict(&w.x, ds.scaler(), &mut rng);
        let (a, e) = (f.sigma_aleatoric.get(sensor, 0), f.sigma_epistemic.get(sensor, 0));
        sum_a += a as f64;
        sum_e += e as f64;
        rows.push(vec![
            format!("{s}"),
            format!("{:.2}", w.y_raw.get(0, sensor)),
            format!("{:.2}", f.mu.get(sensor, 0)),
            format!("{a:.3}"),
            format!("{e:.3}"),
            format!("{:.3}", f.sigma_total.get(sensor, 0)),
        ]);
    }
    println!(
        "sensor {sensor}: mean aleatoric σ = {:.3}, mean epistemic σ = {:.3} (ratio {:.1}×)",
        sum_a / take as f64,
        sum_e / take as f64,
        (sum_a / sum_e.max(1e-12))
    );
    write_csv(
        &opts.out_dir,
        "fig9.csv",
        &["t", "truth", "mu", "sigma_aleatoric", "sigma_epistemic", "sigma_total"],
        &rows,
    );
}
