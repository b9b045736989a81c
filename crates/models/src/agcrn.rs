//! The AGCRN-style base model of DeepSTUQ (paper §IV-A/IV-B, Fig. 2).
//!
//! Encoder: a stack of NAPL adaptive-graph GRU cells sharing one learnable
//! node-embedding matrix `E`. The support is `I + Â` with
//! `Â = softmax(ReLU(E Eᵀ))` learned from data (Eq. 4) — no ground-truth
//! adjacency is consumed, exactly as in the paper. Decoder: a dropout layer
//! and head(s) mapping the last hidden state to all `horizon` steps at once
//! (direct multi-step decoding, as AGCRN does).
//!
//! The forward pass is written once over [`Exec`]: on a tape for training,
//! and eagerly for inference, where [`Agcrn`]'s [`InferenceSession`] runs
//! each block of MC samples in lockstep on the support and the NAPL gate
//! weights. The model builds those once per parameter state and keeps them
//! until [`Forecaster::params_mut`] is next called (DESIGN.md §17).

use std::borrow::Borrow;
use std::sync::OnceLock;

use crate::heads::{Head, HeadKind};
use crate::traits::{Forecaster, InferenceSession, Prediction};
use stuq_nn::init;
use stuq_nn::layers::{AgcrnCell, Block, BoundAgcrnCell, Eager, Exec, FwdCtx};
use stuq_nn::ParamSet;
use stuq_tensor::{kernels, StuqRng, Tape, Tensor};

/// Hyper-parameters of the base model.
#[derive(Clone, Debug)]
pub struct AgcrnConfig {
    /// Number of sensors `N`.
    pub n_nodes: usize,
    /// Forecast horizon τ (12 in the paper).
    pub horizon: usize,
    /// GRU hidden width.
    pub hidden: usize,
    /// Node-embedding dimension `d` (paper: `d ≪ N`).
    pub embed_dim: usize,
    /// Number of stacked recurrent layers.
    pub n_layers: usize,
    /// Dropout rate inside the graph convolutions (0.1 / 0.05 in §V-B).
    pub encoder_dropout: f32,
    /// Dropout rate in the decoder (0.2 in §V-B).
    pub decoder_dropout: f32,
    /// Output head.
    pub head: HeadKind,
    /// Exogenous covariate channels appended to each step's input (the
    /// weather extension; 0 = the paper's plain setting).
    pub n_covariates: usize,
}

impl AgcrnConfig {
    /// Paper-flavoured defaults at a given graph size.
    pub fn new(n_nodes: usize, horizon: usize) -> Self {
        Self {
            n_nodes,
            horizon,
            hidden: 32,
            embed_dim: 8.min(n_nodes / 2).max(2),
            n_layers: 2,
            encoder_dropout: 0.1,
            decoder_dropout: 0.2,
            head: HeadKind::Gaussian,
            n_covariates: 0,
        }
    }

    /// Switches the head kind.
    pub fn with_head(mut self, head: HeadKind) -> Self {
        self.head = head;
        self
    }

    /// Overrides dropout rates (the MVE/TS baselines train dropout-free).
    pub fn with_dropout(mut self, encoder: f32, decoder: f32) -> Self {
        self.encoder_dropout = encoder;
        self.decoder_dropout = decoder;
        self
    }

    /// Overrides capacity knobs.
    pub fn with_capacity(mut self, hidden: usize, embed_dim: usize, n_layers: usize) -> Self {
        self.hidden = hidden;
        self.embed_dim = embed_dim;
        self.n_layers = n_layers;
        self
    }

    /// Enables exogenous covariate inputs (e.g. the simulator's rain channel).
    pub fn with_covariates(mut self, n_covariates: usize) -> Self {
        self.n_covariates = n_covariates;
        self
    }
}

/// The adaptive-graph recurrent base model.
#[derive(Clone, Debug)]
pub struct Agcrn {
    params: ParamSet,
    cfg: AgcrnConfig,
    e_slot: usize,
    cells: Vec<AgcrnCell>,
    head: Head,
    /// The inference bind of the current parameters: `I + Â` and every
    /// gate's `E·W_pool` / `E·b_pool`, built by the first [`Agcrn::session`]
    /// and cleared by [`Agcrn::params_mut`]. One slot per kernel mode
    /// (indexed by [`kernels::reference_mode`]), since the two modes round
    /// the bind differently.
    bind: [OnceLock<Vec<BoundAgcrnCell<Block<'static>>>>; 2],
}

impl Agcrn {
    /// Builds the model with fresh parameters.
    pub fn new(cfg: AgcrnConfig, rng: &mut StuqRng) -> Self {
        assert!(cfg.n_layers >= 1, "need at least one recurrent layer");
        assert!(cfg.embed_dim >= 1 && cfg.embed_dim <= cfg.n_nodes, "embed_dim out of range");
        let mut params = ParamSet::new();
        let e_slot =
            params.add("agcrn.embedding", init::embedding_init(&[cfg.n_nodes, cfg.embed_dim], rng));
        let mut cells = Vec::with_capacity(cfg.n_layers);
        for l in 0..cfg.n_layers {
            let in_dim = if l == 0 { 1 + cfg.n_covariates } else { cfg.hidden };
            cells.push(AgcrnCell::new(
                &mut params,
                &format!("agcrn.cell{l}"),
                in_dim,
                cfg.hidden,
                cfg.embed_dim,
                cfg.encoder_dropout,
                rng,
            ));
        }
        let head = Head::new(
            &mut params,
            "agcrn.head",
            cfg.head,
            cfg.hidden,
            cfg.horizon,
            cfg.decoder_dropout,
            rng,
        );
        Self { params, cfg, e_slot, cells, head, bind: Default::default() }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &AgcrnConfig {
        &self.cfg
    }

    /// Builds the adaptive support `I + softmax(ReLU(E Eᵀ))` (paper Eq. 4)
    /// from the embedding `e`. Exposed for diagnostics and tests.
    pub fn support<E: Exec>(&self, ex: &mut E, e: impl Borrow<E::Val>) -> E::Val {
        let e = e.borrow();
        let sim = ex.matmul_tb(e, e);
        let rel = ex.relu(sim);
        let a_hat = ex.softmax_rows(rel);
        let eye = ex.constant(Tensor::eye(self.cfg.n_nodes));
        ex.add(eye, &a_hat)
    }

    /// The recurrence over the window and the head, on bound `cells`.
    fn run<E: Exec, V: Borrow<E::Val>>(
        &self,
        ex: &mut E,
        cells: &[BoundAgcrnCell<V>],
        x: &Tensor,
        cov: Option<&Tensor>,
        ctx: &mut FwdCtx<'_, E::Rng>,
    ) -> Prediction<E::Val> {
        let (t_h, n) = (x.rows(), x.cols());
        assert_eq!(
            n, self.cfg.n_nodes,
            "window has {n} sensors, model expects {}",
            self.cfg.n_nodes
        );
        let c = self.cfg.n_covariates;
        // A covariate-unaware model (c == 0) simply ignores any covariates it
        // is offered — mirroring the trait's default behaviour.
        let cov = if c == 0 { None } else { cov };
        if let Some(cv) = cov {
            assert!(cv.rows() > 0, "empty covariate window");
            assert_eq!(cv.cols(), c, "covariate channel count mismatch");
        }
        // Layer-stacked recurrence over the window.
        let mut hidden: Vec<E::Val> =
            cells.iter().map(|_| ex.constant(Tensor::zeros(&[n, self.cfg.hidden]))).collect();
        for t in 0..t_h {
            // Step input: flow column plus (broadcast) covariate channels.
            // The covariate window (typically the forecast-period weather)
            // may have a different length than the history; resample it
            // linearly onto the encoder steps.
            let mut step = x.row(t).transpose();
            if c > 0 {
                let mut with_cov = Tensor::zeros(&[n, 1 + c]);
                for i in 0..n {
                    with_cov.set(i, 0, step.get(i, 0));
                    for k in 0..c {
                        let v = cov.map_or(0.0, |cv| {
                            let row = (t * cv.rows() / t_h).min(cv.rows() - 1);
                            cv.get(row, k)
                        });
                        with_cov.set(i, 1 + k, v);
                    }
                }
                step = with_cov;
            }
            let step = ex.constant(step);
            for (l, cell) in cells.iter().enumerate() {
                let input = if l == 0 { &step } else { &hidden[l - 1] };
                hidden[l] = cell.step(ex, ctx, input, &hidden[l]);
            }
        }
        let last = hidden.pop().expect("at least one layer");
        self.head.forward(ex, &self.params, ctx, last)
    }
}

impl Forecaster for Agcrn {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Clears the cached inference bind: the caller may change any
    /// parameter.
    fn params_mut(&mut self) -> &mut ParamSet {
        self.bind = Default::default();
        &mut self.params
    }

    fn n_nodes(&self) -> usize {
        self.cfg.n_nodes
    }

    fn horizon(&self) -> usize {
        self.cfg.horizon
    }

    fn forward(&self, tape: &mut Tape, x: &Tensor, ctx: &mut FwdCtx<'_>) -> Prediction {
        self.forward_with_cov(tape, x, None, ctx)
    }

    fn forward_with_cov(
        &self,
        tape: &mut Tape,
        x: &Tensor,
        cov: Option<&Tensor>,
        ctx: &mut FwdCtx<'_>,
    ) -> Prediction {
        let e = tape.param(self.e_slot, self.params.get(self.e_slot).clone());
        let support = self.support(tape, e);
        let bound: Vec<_> =
            self.cells.iter().map(|cell| cell.bind(tape, &self.params, e, support)).collect();
        self.run(tape, &bound, x, cov, ctx)
    }

    /// Runs each block of passes eagerly on the cached `I + Â` and gate
    /// weights (built here on first use after a parameter change) and the
    /// borrowed head parameters.
    fn session(&self) -> Box<dyn InferenceSession + '_> {
        let cells = self.bind[usize::from(kernels::reference_mode())].get_or_init(|| {
            let ex = &mut Eager::new(&self.params);
            let e = ex.param(self.e_slot, self.params.get(self.e_slot));
            let support = self.support(ex, &e);
            self.cells
                .iter()
                .map(|cell| cell.bind(ex, &self.params, &e, support.clone()).map(Block::into_owned))
                .collect()
        });
        Box::new(AgcrnSession { model: self, cells })
    }

    fn name(&self) -> &'static str {
        "AGCRN"
    }
}

/// [`Agcrn`]'s inference session: a borrow of the model and of its cached
/// bind, the parameter-only work of a pass.
struct AgcrnSession<'m> {
    model: &'m Agcrn,
    cells: &'m [BoundAgcrnCell<Block<'m>>],
}

impl InferenceSession for AgcrnSession<'_> {
    fn forward(
        &self,
        x: &Tensor,
        cov: Option<&Tensor>,
        ctx: &mut FwdCtx<'_, [StuqRng]>,
    ) -> Vec<Prediction<Tensor>> {
        let ex = &mut Eager::new(&self.model.params);
        let s = ctx.rng.len();
        let pred = self.model.run(ex, self.cells, x, cov, ctx);
        let mut outs = pred.map(|b| b.into_samples(s).into_iter());
        (0..s).map(|_| outs.as_mut().map(|o| o.next().expect("one tensor per sample"))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_nn::loss;
    use stuq_nn::opt::{Adam, Optimizer};

    fn tiny_model(head: HeadKind, rng: &mut StuqRng) -> Agcrn {
        let cfg =
            AgcrnConfig::new(6, 4).with_head(head).with_capacity(8, 3, 1).with_dropout(0.0, 0.0);
        Agcrn::new(cfg, rng)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StuqRng::new(1);
        let model = tiny_model(HeadKind::Gaussian, &mut rng);
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::eval(&mut rng);
        match model.forward(&mut tape, &x, &mut ctx) {
            Prediction::Gaussian { mu, logvar } => {
                assert_eq!(tape.value(mu).shape(), &[6, 4]);
                assert_eq!(tape.value(logvar).shape(), &[6, 4]);
                assert!(tape.value(mu).all_finite());
            }
            _ => panic!("expected gaussian prediction"),
        }
    }

    #[test]
    fn support_rows_sum_to_two() {
        // `Â` is a row softmax, so each row of `I + Â` sums to 1 + 1.
        let mut rng = StuqRng::new(2);
        let model = tiny_model(HeadKind::Point, &mut rng);
        let mut tape = Tape::new();
        let e = tape.constant(model.params.get(model.e_slot).clone());
        let support = model.support(&mut tape, e);
        let a = tape.value(support);
        for i in 0..6 {
            let sum: f32 = (0..6).map(|j| a.get(i, j)).sum();
            assert!((sum - 2.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn every_parameter_receives_gradient() {
        let mut rng = StuqRng::new(3);
        let model = tiny_model(HeadKind::Gaussian, &mut rng);
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let y = Tensor::randn(&[6, 4], 1.0, &mut rng);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::train(&mut rng);
        let pred = model.forward(&mut tape, &x, &mut ctx);
        let Prediction::Gaussian { mu, logvar } = pred else { panic!() };
        let yt = tape.constant(y);
        let l = loss::combined(&mut tape, mu, logvar, yt, 0.5);
        let grads = tape.backward(l);
        assert_eq!(
            grads.len(),
            model.params().len(),
            "all {} parameters should receive gradients",
            model.params().len()
        );
    }

    #[test]
    fn short_training_reduces_loss() {
        // Overfit 4 fixed windows; the combined loss must drop clearly.
        let mut rng = StuqRng::new(4);
        let mut model = tiny_model(HeadKind::Gaussian, &mut rng);
        let windows: Vec<(Tensor, Tensor)> = (0..4)
            .map(|_| (Tensor::randn(&[5, 6], 1.0, &mut rng), Tensor::randn(&[6, 4], 0.5, &mut rng)))
            .collect();
        let mut opt = Adam::new(0.01, 0.0);
        let epoch_loss = |model: &Agcrn, rng: &mut StuqRng| -> f64 {
            windows
                .iter()
                .map(|(x, y)| {
                    let mut tape = Tape::new();
                    let mut ctx = FwdCtx::eval(rng);
                    let Prediction::Gaussian { mu, logvar } = model.forward(&mut tape, x, &mut ctx)
                    else {
                        panic!()
                    };
                    let yt = tape.constant(y.clone());
                    let l = loss::combined(&mut tape, mu, logvar, yt, 0.5);
                    tape.value(l).get(0, 0) as f64
                })
                .sum::<f64>()
                / windows.len() as f64
        };
        let before = epoch_loss(&model, &mut rng);
        for _ in 0..60 {
            for (x, y) in &windows {
                let mut tape = Tape::new();
                let mut ctx = FwdCtx::train(&mut rng);
                let Prediction::Gaussian { mu, logvar } = model.forward(&mut tape, x, &mut ctx)
                else {
                    panic!()
                };
                let yt = tape.constant(y.clone());
                let l = loss::combined(&mut tape, mu, logvar, yt, 0.5);
                let grads = tape.backward(l);
                opt.step(model.params_mut(), &grads);
            }
        }
        let after = epoch_loss(&model, &mut rng);
        assert!(
            after < before - 0.2,
            "training should reduce loss: before {before:.3}, after {after:.3}"
        );
        assert!(model.params().all_finite());
    }

    /// One training tape of the paper configuration at 43 nodes keeps its
    /// 606 nodes (DESIGN.md §17): the tape computes the z and r gates'
    /// spatial mixing separately, so training bytes stay put. Sharing it
    /// is a byte-moving change that must re-pin this count on purpose.
    #[test]
    fn paper_config_tape_has_606_nodes() {
        let mut rng = StuqRng::new(6);
        let model = Agcrn::new(AgcrnConfig::new(43, 12).with_dropout(0.05, 0.2), &mut rng);
        let x = Tensor::randn(&[12, 43], 1.0, &mut rng);
        let mut tape = Tape::new();
        let mut ctx = FwdCtx::train(&mut rng);
        model.forward(&mut tape, &x, &mut ctx);
        assert_eq!(tape.len(), 606);
    }

    #[test]
    fn mc_dropout_samples_vary_eval_does_not() {
        let mut rng = StuqRng::new(5);
        let cfg = AgcrnConfig::new(6, 4).with_capacity(8, 3, 1).with_dropout(0.3, 0.3);
        let model = Agcrn::new(cfg, &mut rng);
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let sample = |mc: bool, rng: &mut StuqRng| {
            let mut tape = Tape::new();
            let mut ctx = if mc { FwdCtx::mc_sample(rng) } else { FwdCtx::eval(rng) };
            let pred = model.forward(&mut tape, &x, &mut ctx);
            tape.value(pred.point()).clone()
        };
        let e1 = sample(false, &mut rng);
        let e2 = sample(false, &mut rng);
        assert_eq!(e1.data(), e2.data());
        let m1 = sample(true, &mut rng);
        let m2 = sample(true, &mut rng);
        assert_ne!(m1.data(), m2.data());
    }
}
