//! The [`Forecaster`] abstraction shared by every architecture.

use stuq_nn::{FwdCtx, ParamSet};
use stuq_tensor::{NodeId, StuqRng, Tape, Tensor};

/// The output of a forecasting model for one input window.
///
/// Each output is an `[N, horizon]` value: a node id on the tape that
/// recorded the forward pass (the default), or an owned tensor from an
/// [`InferenceSession`]. Values are in *normalised* units; callers
/// de-normalise with the dataset scaler.
#[derive(Clone, Copy, Debug)]
pub enum Prediction<V = NodeId> {
    /// Deterministic point forecast.
    Point(V),
    /// Heteroscedastic Gaussian forecast: mean and log-variance
    /// (the paper's two independent decoder heads, §IV, Fig. 2).
    Gaussian {
        /// Predicted mean `μ(x)`.
        mu: V,
        /// Predicted log-variance `log σ²(x)`.
        logvar: V,
    },
    /// Three conditional quantiles (0.025 / 0.5 / 0.975) for the
    /// distribution-free quantile-regression baseline.
    Quantiles {
        /// 2.5 % quantile.
        lo: V,
        /// Median.
        mid: V,
        /// 97.5 % quantile.
        hi: V,
    },
}

impl<V: Copy> Prediction<V> {
    /// The point forecast: the mean for Gaussian heads, the median for
    /// quantile heads.
    pub fn point(&self) -> V {
        match *self {
            Prediction::Point(p) => p,
            Prediction::Gaussian { mu, .. } => mu,
            Prediction::Quantiles { mid, .. } => mid,
        }
    }
}

impl<V> Prediction<V> {
    /// Applies `f` to every output, keeping the variant.
    pub fn map<U>(self, mut f: impl FnMut(V) -> U) -> Prediction<U> {
        match self {
            Prediction::Point(p) => Prediction::Point(f(p)),
            Prediction::Gaussian { mu, logvar } => {
                Prediction::Gaussian { mu: f(mu), logvar: f(logvar) }
            }
            Prediction::Quantiles { lo, mid, hi } => {
                Prediction::Quantiles { lo: f(lo), mid: f(mid), hi: f(hi) }
            }
        }
    }

    /// Borrows every output mutably, keeping the variant.
    pub fn as_mut(&mut self) -> Prediction<&mut V> {
        match self {
            Prediction::Point(p) => Prediction::Point(p),
            Prediction::Gaussian { mu, logvar } => Prediction::Gaussian { mu, logvar },
            Prediction::Quantiles { lo, mid, hi } => Prediction::Quantiles { lo, mid, hi },
        }
    }
}

/// The forward passes of one inference call (DESIGN.md §17).
///
/// [`Forecaster::session`] builds one per call — an MC-dropout forecast,
/// a batch of them — so work that depends only on the parameters is done
/// once per call rather than once per sample. `Sync`, so blocks of the
/// call's samples can run on the parallel pool against one shared session.
pub trait InferenceSession: Sync {
    /// One forward pass per stream of `ctx.rng` over the window `x`
    /// (`[t_h, N]`) with optional covariates, in stream order; dropout
    /// follows `ctx`, and pass `i` draws from stream `i` alone. A pass's
    /// bytes do not depend on which streams share its block.
    fn forward(
        &self,
        x: &Tensor,
        cov: Option<&Tensor>,
        ctx: &mut FwdCtx<'_, [StuqRng]>,
    ) -> Vec<Prediction<Tensor>>;
}

/// The default session: each pass records [`Forecaster::forward_with_cov`]
/// on a fresh tape and keeps the outputs' values.
struct TapeSession<'m, F: ?Sized>(&'m F);

impl<F: Forecaster + ?Sized> InferenceSession for TapeSession<'_, F> {
    fn forward(
        &self,
        x: &Tensor,
        cov: Option<&Tensor>,
        ctx: &mut FwdCtx<'_, [StuqRng]>,
    ) -> Vec<Prediction<Tensor>> {
        let (train, mc_dropout) = (ctx.train, ctx.mc_dropout);
        ctx.rng
            .iter_mut()
            .map(|rng| {
                let mut tape = Tape::new();
                let mut ctx = FwdCtx { train, mc_dropout, rng };
                let pred = self.0.forward_with_cov(&mut tape, x, cov, &mut ctx);
                pred.map(|id| tape.value(id).clone())
            })
            .collect()
    }
}

/// A trainable spatio-temporal forecaster.
///
/// `forward` consumes a normalised history window of shape `[t_h, N]` and
/// produces a [`Prediction`] over `[N, horizon]`. Dropout behaviour (train /
/// MC-sample / off) is governed by the [`FwdCtx`].
///
/// `Send + Sync` are supertraits so that a shared `&dyn Forecaster` can be
/// handed to the data-parallel MC-dropout / ensemble inference paths
/// (`deepstuq::mc`); models are plain tensors, so every implementor
/// satisfies them automatically.
pub trait Forecaster: Send + Sync {
    /// The model's parameters.
    fn params(&self) -> &ParamSet;
    /// Mutable access for optimisers and weight averaging.
    fn params_mut(&mut self) -> &mut ParamSet;
    /// Number of sensors the model was built for.
    fn n_nodes(&self) -> usize;
    /// Forecast horizon (output steps).
    fn horizon(&self) -> usize;
    /// Records one forward pass on `tape`.
    fn forward(&self, tape: &mut Tape, x: &Tensor, ctx: &mut FwdCtx<'_>) -> Prediction;

    /// Forward pass with optional exogenous covariates (`[t_h, c]`, e.g. the
    /// weather channel of the extended simulator). The default ignores them,
    /// so only covariate-aware architectures need to override.
    fn forward_with_cov(
        &self,
        tape: &mut Tape,
        x: &Tensor,
        _cov: Option<&Tensor>,
        ctx: &mut FwdCtx<'_>,
    ) -> Prediction {
        self.forward(tape, x, ctx)
    }

    /// An inference session for one call. The default runs every pass on a
    /// tape; a model overrides it to hoist parameter-only work out of the
    /// per-sample loop and to run a block of samples without a tape. Either
    /// way pass `i` must return the bytes `forward_with_cov` computes on
    /// stream `i` and leave that stream where it would.
    fn session(&self) -> Box<dyn InferenceSession + '_> {
        Box::new(TapeSession(self))
    }

    /// A short architecture name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_accessor_picks_the_right_node() {
        assert_eq!(Prediction::Point(3).point(), 3);
        assert_eq!(Prediction::Gaussian { mu: 5, logvar: 6 }.point(), 5);
        assert_eq!(Prediction::Quantiles { lo: 1, mid: 2, hi: 3 }.point(), 2);
    }
}
