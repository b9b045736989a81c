//! Vanilla deep ensembles (Lakshminarayanan et al., 2017).
//!
//! The paper motivates AWA as a cheap *approximation* of deep ensembling
//! (§IV-C2): a true ensemble trains and stores `M` independent models. This
//! module implements that reference point so the approximation can be
//! quantified (the `ablations` bench compares AWA's single model against
//! the M-model ensemble at matched and unmatched budgets).

use crate::mc::{fork_streams, run_block, Eq19Fold, GaussianForecast, SamplePass};
use crate::trainer::{train, LossKind};
use crate::TrainConfig;
use stuq_models::{Agcrn, AgcrnConfig, Forecaster};
use stuq_tensor::{StuqRng, Tensor};
use stuq_traffic::SplitDataset;

/// An ensemble of independently initialised and trained base models.
pub struct DeepEnsemble {
    members: Vec<Agcrn>,
}

impl DeepEnsemble {
    /// Trains `m` members from independent initialisations (seeds
    /// `seed, seed+1, …`) with the combined loss.
    ///
    /// Members are embarrassingly parallel: each is seeded independently, so
    /// the trained ensemble is identical whether members run concurrently on
    /// the `stuq-parallel` pool or one after another.
    pub fn train(
        base: &AgcrnConfig,
        ds: &SplitDataset,
        train_cfg: &TrainConfig,
        m: usize,
        seed: u64,
    ) -> Self {
        assert!(m >= 1, "need at least one member");
        let members = stuq_parallel::par_map(m, |i| {
            let mut rng = StuqRng::new(seed.wrapping_add(i as u64));
            let mut model = Agcrn::new(base.clone(), &mut rng);
            let kind = match base.head {
                stuq_models::HeadKind::Gaussian => LossKind::Combined { lambda: train_cfg.lambda },
                _ => LossKind::Mae,
            };
            train(&mut model, ds, train_cfg, kind, &mut rng).expect("member training failed");
            model
        });
        Self { members }
    }

    /// The first `m` members: the ensemble [`DeepEnsemble::train`] returns
    /// for `m` members and the same seed.
    pub fn first(&self, m: usize) -> Self {
        Self { members: self.members[..m].to_vec() }
    }

    /// Number of stored models (the memory cost AWA avoids).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the ensemble has no members (never after `train`).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Total stored scalar parameters across members.
    pub fn n_scalars(&self) -> usize {
        self.members.iter().map(|m| m.params().n_scalars()).sum()
    }

    /// Ensemble forecast: across-member mean, mean aleatoric variance, and
    /// across-member (epistemic) variance — the same decomposition as
    /// MC dropout, with models in place of dropout masks. Members run
    /// data-parallel with one forked RNG stream each; the reduction is
    /// ordered, so the result is thread-count independent.
    pub fn forecast(&self, x: &Tensor, rng: &mut StuqRng) -> GaussianForecast {
        let streams = fork_streams(rng, self.members.len());
        let passes: Vec<SamplePass> = stuq_parallel::par_map(self.members.len(), |j| {
            let session = self.members[j].session();
            run_block(&*session, x, None, std::slice::from_ref(&streams[j]), true)
        })
        .into_iter()
        .flatten()
        .collect();
        Eq19Fold::over([self.members[0].n_nodes(), self.members[0].horizon()], &passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_models::HeadKind;
    use stuq_traffic::Preset;

    fn setup() -> (SplitDataset, AgcrnConfig, TrainConfig) {
        let ds = Preset::Pems08Like.spec().scaled(0.08, 0.02).generate(61);
        let base = AgcrnConfig::new(ds.n_nodes(), ds.horizon())
            .with_capacity(8, 3, 1)
            .with_dropout(0.0, 0.0)
            .with_head(HeadKind::Gaussian);
        let cfg = TrainConfig::scaled(1, 8);
        (ds, base, cfg)
    }

    #[test]
    fn members_disagree_giving_positive_epistemic_variance() {
        let (ds, base, cfg) = setup();
        let ens = DeepEnsemble::train(&base, &ds, &cfg, 3, 61);
        assert_eq!(ens.len(), 3);
        let w = ds.window(0);
        let mut rng = StuqRng::new(1);
        let f = ens.forecast(&w.x, &mut rng);
        assert!(f.var_epistemic.mean() > 0.0, "independent members must disagree");
        assert!(f.var_aleatoric.min() > 0.0);
    }

    #[test]
    fn single_member_has_zero_epistemic() {
        let (ds, base, cfg) = setup();
        let ens = DeepEnsemble::train(&base, &ds, &cfg, 1, 61);
        let w = ds.window(0);
        let mut rng = StuqRng::new(1);
        let f = ens.forecast(&w.x, &mut rng);
        assert_eq!(f.var_epistemic.sum(), 0.0);
    }

    #[test]
    fn memory_cost_scales_with_members() {
        let (ds, base, cfg) = setup();
        let e1 = DeepEnsemble::train(&base, &ds, &cfg, 1, 61);
        let e3 = DeepEnsemble::train(&base, &ds, &cfg, 3, 61);
        assert_eq!(e3.n_scalars(), 3 * e1.n_scalars(), "the storage AWA avoids");
    }
}
