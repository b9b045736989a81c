//! Loss functions on the tape.
//!
//! All losses return a scalar (`1×1`) node. Targets are passed as tape nodes
//! so callers can choose whether gradients flow into them (they normally
//! register targets as constants).

use stuq_tensor::{NodeId, Tape};

/// Bounds on the predicted log-variance; keeps `exp` finite and the NLL
/// well-conditioned early in training.
pub const LOGVAR_MIN: f32 = -8.0;
/// See [`LOGVAR_MIN`].
pub const LOGVAR_MAX: f32 = 8.0;

/// Mean absolute error.
pub fn mae(tape: &mut Tape, pred: NodeId, target: NodeId) -> NodeId {
    let d = tape.sub(pred, target);
    let a = tape.abs(d);
    tape.mean_all(a)
}

/// Heteroscedastic Gaussian negative log-likelihood (paper Eq. 8, up to the
/// constant `½ log 2π` and the global factor `½`):
/// `mean(logvar + (y − μ)² · exp(−logvar))`.
///
/// `logvar` is clamped to [`LOGVAR_MIN`, `LOGVAR_MAX`] with straight-through
/// zero gradients outside the range.
pub fn gaussian_nll(tape: &mut Tape, mu: NodeId, logvar: NodeId, target: NodeId) -> NodeId {
    let lv = tape.clamp(logvar, LOGVAR_MIN, LOGVAR_MAX);
    let d = tape.sub(target, mu);
    let sq = tape.square(d);
    let neg_lv = tape.neg(lv);
    let inv_var = tape.exp(neg_lv);
    let fit = tape.mul(sq, inv_var);
    let total = tape.add(lv, fit);
    tape.mean_all(total)
}

/// The paper's weighted aleatoric loss (Eq. 9):
/// `λ · NLL + (1 − λ) · MAE`, with `0 < λ < 1`.
///
/// The `λ_W/2p‖w‖²` term of the combined loss (Eq. 14) is realised as L2
/// weight decay in the optimiser, which has the identical gradient.
pub fn combined(
    tape: &mut Tape,
    mu: NodeId,
    logvar: NodeId,
    target: NodeId,
    lambda: f32,
) -> NodeId {
    assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
    let nll = gaussian_nll(tape, mu, logvar, target);
    let l1 = mae(tape, mu, target);
    let a = tape.scale(nll, lambda);
    let b = tape.scale(l1, 1.0 - lambda);
    tape.add(a, b)
}

/// Pinball (quantile) loss at level `q`:
/// `mean(max(q·(y−ŷ), (q−1)·(y−ŷ)))`.
pub fn pinball(tape: &mut Tape, pred: NodeId, target: NodeId, q: f32) -> NodeId {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    let d = tape.sub(target, pred);
    let hi = tape.scale(d, q);
    let lo = tape.scale(d, q - 1.0);
    let m = tape.max_elem(hi, lo);
    tape.mean_all(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuq_tensor::{gradcheck::check_grads, StuqRng, Tensor};

    #[test]
    fn mae_matches_manual() {
        let mut tape = Tape::new();
        let p = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let t = tape.constant(Tensor::from_vec(vec![3.0, 1.0], &[1, 2]));
        let l = mae(&mut tape, p, t);
        assert!((tape.value(l).get(0, 0) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn nll_is_minimised_at_true_variance() {
        // For fixed residual r², NLL(logvar) = logvar + r²·e^{−logvar} is
        // minimised at logvar = ln r².
        let r2 = 4.0f32;
        let eval = |lv: f32| {
            let mut tape = Tape::new();
            let mu = tape.constant(Tensor::scalar(0.0));
            let lvn = tape.constant(Tensor::scalar(lv));
            let y = tape.constant(Tensor::scalar(r2.sqrt()));
            let l = gaussian_nll(&mut tape, mu, lvn, y);
            tape.value(l).get(0, 0)
        };
        let at_opt = eval(r2.ln());
        for lv in [-1.0, 0.5, 2.5, 4.0] {
            assert!(eval(lv) >= at_opt - 1e-6, "NLL({lv}) < NLL(ln r²)");
        }
    }

    #[test]
    fn combined_interpolates() {
        let mut rng = StuqRng::new(1);
        let mu = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let lv = Tensor::zeros(&[2, 3]);
        let y = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let eval = |lambda: f32| {
            let mut tape = Tape::new();
            let m = tape.constant(mu.clone());
            let l = tape.constant(lv.clone());
            let t = tape.constant(y.clone());
            let c = combined(&mut tape, m, l, t, lambda);
            tape.value(c).get(0, 0) as f64
        };
        let nll = eval(1.0);
        let l1 = eval(0.0);
        let mid = eval(0.25);
        assert!((mid - (0.25 * nll + 0.75 * l1)).abs() < 1e-5);
    }

    #[test]
    fn pinball_asymmetry() {
        // Under-prediction is penalised q/(1−q) times more than equal
        // over-prediction at quantile q.
        let eval = |pred: f32, q: f32| {
            let mut tape = Tape::new();
            let p = tape.constant(Tensor::scalar(pred));
            let t = tape.constant(Tensor::scalar(0.0));
            let l = pinball(&mut tape, p, t, q);
            tape.value(l).get(0, 0)
        };
        let under = eval(-1.0, 0.9); // y − ŷ = +1 → q·1
        let over = eval(1.0, 0.9); // y − ŷ = −1 → (1−q)·1
        assert!((under / over - 9.0).abs() < 1e-4, "ratio {}", under / over);
    }

    #[test]
    fn gradcheck_combined_loss() {
        let mut rng = StuqRng::new(2);
        let mu = Tensor::randn(&[2, 3], 0.5, &mut rng);
        let lv = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng);
        let y = Tensor::randn(&[2, 3], 0.5, &mut rng);
        check_grads(
            move |tape, ps| {
                let m = tape.param(0, ps[0].clone());
                let l = tape.param(1, ps[1].clone());
                let t = tape.constant(y.clone());
                combined(tape, m, l, t, 0.3)
            },
            &[mu, lv],
            1e-3,
            3e-3,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_pinball() {
        let mut rng = StuqRng::new(3);
        // Keep residuals away from the kink at 0.
        let pred = Tensor::rand_uniform(&[2, 4], 0.5, 1.5, &mut rng);
        let y = Tensor::rand_uniform(&[2, 4], -1.5, -0.5, &mut rng);
        check_grads(
            move |tape, ps| {
                let p = tape.param(0, ps[0].clone());
                let t = tape.constant(y.clone());
                pinball(tape, p, t, 0.975)
            },
            &[pred],
            1e-3,
            3e-3,
        )
        .unwrap();
    }
}
