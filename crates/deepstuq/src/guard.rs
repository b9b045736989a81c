//! Divergence-guard policy and state (DESIGN.md §8).
//!
//! The trainer checks every batch's loss and gradient norm before applying
//! the optimiser step. The guard's state machine has three reactions:
//!
//! 1. **healthy** — loss and gradient norm are finite and below the
//!    configured ceilings: step normally, and periodically refresh the
//!    in-memory last-good snapshot (params + optimiser moments + RNG);
//! 2. **trip → skip** — an isolated bad batch (e.g. corrupted targets) is
//!    skipped without an update; the epoch continues;
//! 3. **trip → rewind** — `max_consecutive_skips` consecutive trips indicate
//!    the *trajectory* has diverged, not the data: parameters, optimiser
//!    moments and RNG are restored from the last-good snapshot and the run
//!    retries from there with the learning rate scaled down by `backoff`.
//!    After `max_rewinds` rewinds the run gives up with
//!    [`crate::error::TrainError::DivergenceBudgetExhausted`].
//!
//! The distinction matters because the rewind restores the RNG too (that is
//! what keeps resumed runs bit-reproducible): a batch whose *data* is bad
//! trips identically on every replay, so only the skip path can get past it,
//! while genuine optimiser divergence is trajectory-dependent and is what
//! the backed-off retry repairs.

/// Tunable limits of the divergence guard.
#[derive(Clone, Copy, Debug)]
pub struct GuardConfig {
    /// Consecutive trips that trigger a rewind (the issue's `k`).
    pub max_consecutive_skips: usize,
    /// Total rewinds allowed before giving up, counted over the
    /// [`GuardState`] a run threads through its epochs: in
    /// [`crate::DeepStuq::fit`] that spans pre-training and AWA together.
    pub max_rewinds: usize,
    /// Multiplicative learning-rate back-off applied at each rewind.
    pub backoff: f32,
    /// Ceiling on `|mean batch loss|`; larger values trip the guard.
    pub max_abs_loss: f64,
    /// Ceiling on the global gradient norm (pre-clipping).
    pub max_grad_norm: f64,
    /// Healthy batches between refreshes of the last-good snapshot.
    pub snapshot_every: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            max_consecutive_skips: 3,
            max_rewinds: 4,
            backoff: 0.5,
            max_abs_loss: 1e8,
            max_grad_norm: 1e8,
            snapshot_every: 8,
        }
    }
}

/// Mutable guard bookkeeping, sticky across the epochs it is threaded
/// through.
///
/// [`crate::DeepStuq::fit`] threads one state through pre-training and AWA,
/// so the rewind budget and the learning-rate back-off span both stages and
/// `FitOutcome::Complete.guard` reports the run's totals. A standalone
/// [`crate::trainer::train`] call starts from a fresh state, and so does a
/// caller that drives [`crate::awa::AwaState`] by hand with a new one (Table
/// V's AWA branch). `lr_scale` in particular must survive epoch boundaries (a
/// diverging run that was rescued at a lower learning rate should not snap
/// back the next epoch) and is persisted in checkpoints so resumed runs
/// replay it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuardState {
    /// Current multiplicative learning-rate scale (1.0 when undisturbed).
    pub lr_scale: f32,
    /// Rewinds consumed so far.
    pub rewinds_used: usize,
    /// Total guard trips observed (skips and rewind triggers).
    pub trips: usize,
    /// Batches skipped without an update.
    pub skipped: usize,
}

impl Default for GuardState {
    fn default() -> Self {
        Self { lr_scale: 1.0, rewinds_used: 0, trips: 0, skipped: 0 }
    }
}

impl GuardState {
    /// True when the guard never fired.
    pub fn is_clean(&self) -> bool {
        self.trips == 0 && self.rewinds_used == 0 && self.skipped == 0
    }
}

/// Records a guard trip (shared by the skip and rewind paths).
///
/// Guard decisions used to be visible only in the transient [`GuardState`],
/// which a rewind partially erases; these hooks persist every decision to the
/// telemetry stream the moment it is taken, so post-mortems do not need a
/// re-run. Purely observational: never read back by the trainer.
pub(crate) fn record_trip() {
    if stuq_obs::summary_enabled() {
        stuq_obs::metrics().guard_trips.inc();
    }
}

/// Records a skipped batch with the loss/threshold context that caused it.
/// The current stage and epoch are stamped by the recorder.
pub(crate) fn record_skip(cfg: &GuardConfig, loss: f64, grad_norm: f64, consecutive: usize) {
    if !stuq_obs::summary_enabled() {
        return;
    }
    stuq_obs::metrics().guard_skips.inc();
    stuq_obs::emit(
        stuq_obs::Event::new("guard_skip")
            .num("loss", loss)
            .num("grad_norm", grad_norm)
            .num("max_abs_loss", cfg.max_abs_loss)
            .num("max_grad_norm", cfg.max_grad_norm)
            .uint("consecutive_skips", consecutive as u64),
    );
}

/// Records a rewind (snapshot restore + learning-rate back-off).
pub(crate) fn record_rewind(cfg: &GuardConfig, loss: f64, grad_norm: f64, state: &GuardState) {
    if !stuq_obs::summary_enabled() {
        return;
    }
    let m = stuq_obs::metrics();
    m.guard_rewinds.inc();
    m.guard_lr_scale.set(state.lr_scale as f64);
    stuq_obs::emit(
        stuq_obs::Event::new("guard_rewind")
            .num("loss", loss)
            .num("grad_norm", grad_norm)
            .num("max_abs_loss", cfg.max_abs_loss)
            .num("max_grad_norm", cfg.max_grad_norm)
            .num("lr_scale", state.lr_scale as f64)
            .uint("rewinds_used", state.rewinds_used as u64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let g = GuardConfig::default();
        assert!(g.max_consecutive_skips >= 1);
        assert!(g.backoff > 0.0 && g.backoff < 1.0);
        let s = GuardState::default();
        assert_eq!(s.lr_scale, 1.0);
        assert!(s.is_clean());
    }
}
