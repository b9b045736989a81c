//! Construction and point-evaluation of the Table III baseline models.

use deepstuq::eval::{evaluate, EvalResult, RawForecast};
use deepstuq::mc::mc_forecast;
use deepstuq::trainer::{train, LossKind};
use deepstuq::TrainConfig;
use stuq_models::{
    agcrn::AgcrnConfig,
    astgcn::{Astgcn, AstgcnConfig},
    dcrnn::{Dcrnn, DcrnnConfig},
    gwnet::{GraphWaveNet, GwnetConfig},
    stfgnn::{Stfgnn, StfgnnConfig},
    stgcn::{Stgcn, StgcnConfig},
    stsgcn::{Stsgcn, StsgcnConfig},
    Agcrn, Forecaster, HeadKind,
};
use stuq_tensor::StuqRng;
use stuq_traffic::{Split, SplitDataset};

/// The seven point-prediction baselines of Table III, in paper order.
pub const BASELINE_NAMES: [&str; 7] =
    ["DCRNN", "ST-GCN", "GWN", "ASTGCN", "STSGCN", "STFGNN", "AGCRN"];

/// Builds a baseline by its Table III name.
pub fn build_baseline(name: &str, ds: &SplitDataset, rng: &mut StuqRng) -> Box<dyn Forecaster> {
    let (n, t_h, tau) = (ds.n_nodes(), ds.t_h(), ds.horizon());
    let net = ds.data().network();
    match name {
        "DCRNN" => {
            let mut cfg = DcrnnConfig::new(n, tau);
            cfg.hidden = 16;
            Box::new(Dcrnn::new(cfg, net, rng))
        }
        "ST-GCN" => {
            let mut cfg = StgcnConfig::new(n, t_h, tau);
            cfg.channels = 16;
            Box::new(Stgcn::new(cfg, net, rng))
        }
        "GWN" => {
            let mut cfg = GwnetConfig::new(n, t_h, tau);
            cfg.channels = 16;
            Box::new(GraphWaveNet::new(cfg, rng))
        }
        "ASTGCN" => {
            let mut cfg = AstgcnConfig::new(n, t_h, tau);
            cfg.channels = 16;
            Box::new(Astgcn::new(cfg, rng))
        }
        "STSGCN" => {
            let mut cfg = StsgcnConfig::new(n, t_h, tau);
            cfg.channels = 16;
            Box::new(Stsgcn::new(cfg, net, rng))
        }
        "STFGNN" => {
            let mut cfg = StfgnnConfig::new(n, t_h, tau);
            cfg.channels = 16;
            // Temporal similarity graph is fit on the training segment only.
            let (lo, hi) = ds.segment(Split::Train);
            let mut values = Vec::with_capacity((hi - lo) * n);
            for t in lo..hi {
                values.extend_from_slice(ds.data().step(t));
            }
            Box::new(Stfgnn::new(cfg, net, &values, hi - lo, rng))
        }
        "AGCRN" => {
            let cfg = AgcrnConfig::new(n, tau)
                .with_capacity(16, 6.min(n / 2).max(2), 1)
                .with_dropout(0.0, 0.0)
                .with_head(HeadKind::Point);
            Box::new(Agcrn::new(cfg, rng))
        }
        other => panic!("unknown baseline {other}"),
    }
}

/// Trains a baseline with MAE loss and evaluates point metrics on the test split.
pub fn train_and_eval_baseline(
    model: &mut Box<dyn Forecaster>,
    ds: &SplitDataset,
    train_cfg: &TrainConfig,
    eval_stride: usize,
    rng: &mut StuqRng,
) -> EvalResult {
    train(model.as_mut(), ds, train_cfg, LossKind::Mae, rng).expect("baseline training failed");
    let scaler = *ds.scaler();
    let mut eval_rng = rng.fork(0xEA1);
    evaluate(ds, Split::Test, eval_stride, |x, _| {
        let mu = mc_forecast(model.as_ref(), x, 1, &mut eval_rng).to_raw(&scaler, 1.0).mu;
        RawForecast { mu, sigma: None, bounds: None }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_traffic::Preset;

    #[test]
    fn every_baseline_builds_and_evaluates() {
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(3);
        let mut rng = StuqRng::new(3);
        let cfg = TrainConfig::scaled(1, 16);
        for name in BASELINE_NAMES {
            let mut model = build_baseline(name, &ds, &mut rng);
            let r = train_and_eval_baseline(&mut model, &ds, &cfg, 19, &mut rng);
            assert!(r.point.mae.is_finite() && r.point.mae > 0.0, "{name}: MAE {}", r.point.mae);
            assert!(r.point.rmse >= r.point.mae, "{name}");
        }
    }
}
