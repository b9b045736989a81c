//! Decoder heads: point, Gaussian (μ / log σ²) and quantile outputs.
//!
//! The paper's decoder (Fig. 2) maps the final hidden state through dropout
//! into **two independent** layers for mean and variance. The same head
//! machinery serves the point baselines (single layer) and the quantile
//! baseline (three layers).

use crate::traits::Prediction;
use stuq_nn::layers::{Exec, FwdCtx, Linear};
use stuq_nn::ParamSet;
use stuq_tensor::StuqRng;

/// Which output distribution the head parameterises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeadKind {
    /// Single point output.
    Point,
    /// Mean + log-variance (heteroscedastic Gaussian, Eq. 8).
    Gaussian,
    /// 2.5 % / 50 % / 97.5 % quantiles.
    Quantile,
}

/// A decoder head mapping `[N, hidden] → [N, horizon]` outputs.
#[derive(Clone, Debug)]
pub struct Head {
    kind: HeadKind,
    dropout_p: f32,
    mu: Linear,
    logvar: Option<Linear>,
    lo: Option<Linear>,
    hi: Option<Linear>,
}

impl Head {
    /// Allocates head parameters. `dropout_p` is the decoder dropout rate
    /// (0.2 in the paper's setup, §V-B).
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        kind: HeadKind,
        hidden: usize,
        horizon: usize,
        dropout_p: f32,
        rng: &mut StuqRng,
    ) -> Self {
        let mu = Linear::new(ps, &format!("{name}.mu"), hidden, horizon, rng);
        let (mut logvar, mut lo, mut hi) = (None, None, None);
        match kind {
            HeadKind::Point => {}
            HeadKind::Gaussian => {
                logvar = Some(Linear::new(ps, &format!("{name}.logvar"), hidden, horizon, rng));
            }
            HeadKind::Quantile => {
                lo = Some(Linear::new(ps, &format!("{name}.q_lo"), hidden, horizon, rng));
                hi = Some(Linear::new(ps, &format!("{name}.q_hi"), hidden, horizon, rng));
            }
        }
        Self { kind, dropout_p, mu, logvar, lo, hi }
    }

    /// The head kind.
    pub fn kind(&self) -> HeadKind {
        self.kind
    }

    /// Maps the final hidden state to a [`Prediction`].
    ///
    /// Each sub-head draws its own dropout mask — the μ and σ paths are
    /// independent networks in the paper.
    pub fn forward<E: Exec>(
        &self,
        ex: &mut E,
        ps: &ParamSet,
        ctx: &mut FwdCtx<'_, E::Rng>,
        h: E::Val,
    ) -> Prediction<E::Val> {
        let hd = ctx.dropout(ex, h.clone(), self.dropout_p);
        let mu = self.mu.bind(ex, ps).forward(ex, &hd);
        match self.kind {
            HeadKind::Point => Prediction::Point(mu),
            HeadKind::Gaussian => {
                let hd2 = ctx.dropout(ex, h, self.dropout_p);
                let lv = self.logvar.as_ref().expect("gaussian head has logvar");
                let logvar = lv.bind(ex, ps).forward(ex, &hd2);
                Prediction::Gaussian { mu, logvar }
            }
            HeadKind::Quantile => {
                let lo_lin = self.lo.as_ref().expect("quantile head has lo");
                let hi_lin = self.hi.as_ref().expect("quantile head has hi");
                let lo = lo_lin.bind(ex, ps).forward(ex, &hd);
                let hi = hi_lin.bind(ex, ps).forward(ex, &hd);
                Prediction::Quantiles { lo, mid: mu, hi }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_tensor::{Tape, Tensor};

    fn run(kind: HeadKind) -> Prediction {
        let mut rng = StuqRng::new(1);
        let mut ps = ParamSet::new();
        let head = Head::new(&mut ps, "h", kind, 8, 12, 0.0, &mut rng);
        let mut tape = Tape::new();
        let h = tape.constant(Tensor::randn(&[5, 8], 1.0, &mut rng));
        let mut ctx = FwdCtx::eval(&mut rng);
        let pred = head.forward(&mut tape, &ps, &mut ctx, h);
        // Shape check piggybacks here.
        match pred {
            Prediction::Point(p) => assert_eq!(tape.value(p).shape(), &[5, 12]),
            Prediction::Gaussian { mu, logvar } => {
                assert_eq!(tape.value(mu).shape(), &[5, 12]);
                assert_eq!(tape.value(logvar).shape(), &[5, 12]);
            }
            Prediction::Quantiles { lo, mid, hi } => {
                for n in [lo, mid, hi] {
                    assert_eq!(tape.value(n).shape(), &[5, 12]);
                }
            }
        }
        pred
    }

    #[test]
    fn point_head_shape() {
        assert!(matches!(run(HeadKind::Point), Prediction::Point(_)));
    }

    #[test]
    fn gaussian_head_has_independent_outputs() {
        assert!(matches!(run(HeadKind::Gaussian), Prediction::Gaussian { .. }));
    }

    #[test]
    fn quantile_head_shape() {
        assert!(matches!(run(HeadKind::Quantile), Prediction::Quantiles { .. }));
    }

    #[test]
    fn parameter_counts_differ_by_kind() {
        let mut rng = StuqRng::new(2);
        let mut count = |kind| {
            let mut ps = ParamSet::new();
            let _ = Head::new(&mut ps, "h", kind, 4, 3, 0.0, &mut rng);
            ps.len()
        };
        assert_eq!(count(HeadKind::Point), 2); // w, b
        assert_eq!(count(HeadKind::Gaussian), 4);
        assert_eq!(count(HeadKind::Quantile), 6);
    }
}
