//! Reproduces **Fig. 8**: forecast + 95 % interval traces on one randomly
//! selected sensor per dataset.
//!
//! Walks consecutive test windows and records the 1-step-ahead prediction,
//! interval bounds and ground truth — the series the paper plots. Check:
//! the interval hugs the daily profile and covers nearly all truth points.

use deepstuq::pipeline::DeepStuq;
use stuq_bench::{datasets, method_config, parse_args, write_csv, Scale};
use stuq_tensor::StuqRng;
use stuq_traffic::Split;

fn main() {
    let opts = parse_args();
    println!("Fig. 8 reproduction — scale {:?}, seed {}", opts.scale, opts.seed);
    let trace_len = match opts.scale {
        Scale::Quick => 60,
        _ => 288,
    };

    for (preset, ds) in datasets(&opts) {
        eprintln!("[fig8] dataset {preset:?}");
        let mcfg = method_config(&opts, ds.n_nodes());
        let seed = opts.seed ^ preset.seed_offset();
        let model = DeepStuq::train(&ds, mcfg.deepstuq(ds.n_nodes(), ds.horizon()), seed);
        let mut rng = StuqRng::new(seed ^ 0xF16);
        let sensor = rng.uniform_usize(ds.n_nodes());
        let starts = ds.window_starts(Split::Test);
        let take = trace_len.min(starts.len());

        let mut rows = Vec::new();
        let mut covered = 0usize;
        for &s in starts.iter().take(take) {
            let w = ds.window(s);
            let f = model.predict(&w.x, ds.scaler(), &mut rng);
            let truth = w.y_raw.get(0, sensor) as f64;
            let (mu, lo, hi) = (
                f.mu.get(sensor, 0) as f64,
                f.lower.get(sensor, 0) as f64,
                f.upper.get(sensor, 0) as f64,
            );
            if truth >= lo && truth <= hi {
                covered += 1;
            }
            rows.push(vec![
                format!("{s}"),
                format!("{truth:.2}"),
                format!("{mu:.2}"),
                format!("{lo:.2}"),
                format!("{hi:.2}"),
            ]);
        }
        println!(
            "{preset:?}: sensor {sensor}, {take} steps, interval covered {}/{} ({:.1} %)",
            covered,
            take,
            100.0 * covered as f64 / take as f64
        );
        let name = format!("fig8_{preset:?}.csv").to_lowercase();
        write_csv(&opts.out_dir, &name, &["t", "truth", "mu", "lower", "upper"], &rows);
    }
}
