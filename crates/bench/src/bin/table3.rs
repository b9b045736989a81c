//! Reproduces **Table III**: point-prediction comparison.
//!
//! Trains the seven baselines (DCRNN, ST-GCN, GWN, ASTGCN, STSGCN, STFGNN,
//! AGCRN) plus DeepSTUQ/S and DeepSTUQ on each of the four datasets and
//! reports MAE / RMSE / MAPE on the test split. The paper's qualitative
//! claim to check: DeepSTUQ (and /S) lead, AGCRN is the strongest baseline.

use deepstuq::methods::{Method, TrainedMethod};
use stuq_bench::baselines::{build_baseline, train_and_eval_baseline, BASELINE_NAMES};
use stuq_bench::{datasets, fmt2, method_config, parse_args, print_table, write_csv};
use stuq_tensor::StuqRng;
use stuq_traffic::Split;

fn main() {
    let opts = parse_args();
    println!("Table III reproduction — scale {:?}, seed {}", opts.scale, opts.seed);
    let stride = opts.scale.eval_stride();

    let mut columns: Vec<String> = BASELINE_NAMES.iter().map(|s| s.to_string()).collect();
    columns.push("DeepSTUQ/S".into());
    columns.push("DeepSTUQ".into());

    let mut rows = Vec::new();
    for (preset, ds) in datasets(&opts) {
        eprintln!("[table3] dataset {preset:?} ({} nodes)", ds.n_nodes());
        let mcfg = method_config(&opts, ds.n_nodes());
        let mut maes = Vec::new();
        let mut rmses = Vec::new();
        let mut mapes = Vec::new();

        for name in BASELINE_NAMES {
            eprintln!("[table3]   training {name}");
            let mut rng = StuqRng::new(
                opts.seed ^ preset.seed_offset() ^ stuq_artifact::fnv1a64(name.as_bytes()),
            );
            let mut model = build_baseline(name, &ds, &mut rng);
            let r = train_and_eval_baseline(&mut model, &ds, &mcfg.train, stride, &mut rng);
            maes.push(r.point.mae);
            rmses.push(r.point.rmse);
            mapes.push(r.point.mape);
        }
        for method in [Method::DeepStuqS, Method::DeepStuq] {
            eprintln!("[table3]   training {}", method.name());
            let mut tm =
                TrainedMethod::train(method, &ds, mcfg.clone(), opts.seed ^ preset.seed_offset());
            let r = tm.evaluate(&ds, Split::Test, stride);
            maes.push(r.point.mae);
            rmses.push(r.point.rmse);
            mapes.push(r.point.mape);
        }

        for (metric, vals) in [("MAE", &maes), ("RMSE", &rmses), ("MAPE(%)", &mapes)] {
            let mut row = vec![format!("{preset:?}"), metric.to_string()];
            row.extend(vals.iter().map(|&v| fmt2(v)));
            rows.push(row);
        }
    }

    let mut header: Vec<&str> = vec!["dataset", "metric"];
    header.extend(columns.iter().map(String::as_str));
    print_table("Table III: point prediction", &header, &rows);
    write_csv(&opts.out_dir, "table3.csv", &header, &rows);
}
