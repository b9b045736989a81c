//! Circuit breaker over model faults (DESIGN.md §11).
//!
//! A *fault* is a forecast whose outputs fail the guard-style health check
//! (non-finite μ/σ, or |μ| above the configured ceiling — the same
//! ceilings `guard.rs` applies to training losses). The breaker tracks
//! consecutive faults:
//!
//! * **Closed** — requests flow; `threshold` consecutive faults open it;
//! * **Open** — requests are answered with the fallback (or rejected) until
//!   the cooldown elapses, then the breaker half-opens;
//! * **HalfOpen** — exactly one trial request runs against the model. A
//!   healthy result closes the breaker and resets the cooldown to its base;
//!   another fault re-opens it with the cooldown doubled (capped).
//!
//! All time comes from the injectable [`crate::clock::Clock`] via `now_ms`
//! arguments, so breaker trajectories are deterministic under the fake
//! clock. The breaker itself never touches telemetry; the server and the
//! router emit each returned [`Transition`] as its [`Transition::event`].

use stuq_obs::Event;

/// Breaker position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum State {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: serve fallback until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one trial request probes the model.
    HalfOpen,
}

impl State {
    /// Stable protocol name.
    pub fn as_str(self) -> &'static str {
        match self {
            State::Closed => "closed",
            State::Open => "open",
            State::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding (0 closed, 1 open, 2 half-open).
    pub fn gauge(self) -> f64 {
        match self {
            State::Closed => 0.0,
            State::Open => 1.0,
            State::HalfOpen => 2.0,
        }
    }
}

/// A state change worth logging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Closed/HalfOpen → Open.
    Opened {
        /// Consecutive faults at the moment of opening.
        consecutive: usize,
        /// Cooldown until the next half-open probe.
        cooldown_ms: u64,
    },
    /// Open → HalfOpen (cooldown elapsed).
    HalfOpened {
        /// The cooldown that just elapsed.
        cooldown_ms: u64,
    },
    /// HalfOpen → Closed (trial succeeded).
    Closed {
        /// Cooldown after reset (the base value).
        cooldown_ms: u64,
    },
}

impl Transition {
    /// The transition's event: `breaker_open`, `breaker_half_open` or
    /// `breaker_close`, with its cooldown (and fault count, on opening).
    pub(crate) fn event(self) -> Event {
        match self {
            Transition::Opened { consecutive, cooldown_ms } => Event::new("breaker_open")
                .uint("consecutive_faults", consecutive as u64)
                .uint("cooldown_ms", cooldown_ms),
            Transition::HalfOpened { cooldown_ms } => {
                Event::new("breaker_half_open").uint("cooldown_ms", cooldown_ms)
            }
            Transition::Closed { cooldown_ms } => {
                Event::new("breaker_close").uint("cooldown_ms", cooldown_ms)
            }
        }
    }
}

/// The breaker state machine.
#[derive(Debug)]
pub struct Breaker {
    threshold: usize,
    base_cooldown_ms: u64,
    max_cooldown_ms: u64,
    cooldown_ms: u64,
    consecutive: usize,
    state: State,
    open_until_ms: u64,
}

impl Breaker {
    /// A closed breaker. `threshold` is clamped to ≥ 1; the cooldown cap is
    /// clamped to ≥ the base.
    pub fn new(threshold: usize, base_cooldown_ms: u64, max_cooldown_ms: u64) -> Self {
        let base = base_cooldown_ms.max(1);
        Self {
            threshold: threshold.max(1),
            base_cooldown_ms: base,
            max_cooldown_ms: max_cooldown_ms.max(base),
            cooldown_ms: base,
            consecutive: 0,
            state: State::Closed,
            open_until_ms: 0,
        }
    }

    /// Current position.
    pub fn state(&self) -> State {
        self.state
    }

    /// Consecutive faults observed.
    pub fn consecutive(&self) -> usize {
        self.consecutive
    }

    /// Current cooldown length.
    pub fn cooldown_ms(&self) -> u64 {
        self.cooldown_ms
    }

    /// Advances Open → HalfOpen once the cooldown has elapsed. Call before
    /// deciding how to route a request.
    pub fn poll(&mut self, now_ms: u64) -> Option<Transition> {
        if self.state == State::Open && now_ms >= self.open_until_ms {
            self.state = State::HalfOpen;
            return Some(Transition::HalfOpened { cooldown_ms: self.cooldown_ms });
        }
        None
    }

    /// Records a healthy forecast.
    pub fn on_success(&mut self) -> Option<Transition> {
        self.consecutive = 0;
        if self.state == State::HalfOpen {
            self.state = State::Closed;
            self.cooldown_ms = self.base_cooldown_ms;
            return Some(Transition::Closed { cooldown_ms: self.cooldown_ms });
        }
        None
    }

    /// Records a model fault.
    pub fn on_fault(&mut self, now_ms: u64) -> Option<Transition> {
        self.consecutive += 1;
        match self.state {
            State::Closed if self.consecutive >= self.threshold => {
                self.state = State::Open;
                self.open_until_ms = now_ms.saturating_add(self.cooldown_ms);
                Some(Transition::Opened {
                    consecutive: self.consecutive,
                    cooldown_ms: self.cooldown_ms,
                })
            }
            State::HalfOpen => {
                // The trial failed: back off exponentially.
                self.cooldown_ms = (self.cooldown_ms.saturating_mul(2)).min(self.max_cooldown_ms);
                self.state = State::Open;
                self.open_until_ms = now_ms.saturating_add(self.cooldown_ms);
                Some(Transition::Opened {
                    consecutive: self.consecutive,
                    cooldown_ms: self.cooldown_ms,
                })
            }
            _ => None,
        }
    }

    /// Force-closes the breaker (after a successful hot reload: the faulty
    /// model is gone, so its fault history no longer applies).
    pub fn reset(&mut self) {
        self.state = State::Closed;
        self.consecutive = 0;
        self.cooldown_ms = self.base_cooldown_ms;
        self.open_until_ms = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_consecutive_faults() {
        let mut b = Breaker::new(3, 100, 1000);
        assert_eq!(b.on_fault(0), None);
        assert_eq!(b.on_fault(1), None);
        let t = b.on_fault(2);
        assert_eq!(t, Some(Transition::Opened { consecutive: 3, cooldown_ms: 100 }));
        assert_eq!(b.state(), State::Open);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = Breaker::new(2, 100, 1000);
        b.on_fault(0);
        assert_eq!(b.on_success(), None);
        assert_eq!(b.on_fault(1), None, "count must restart after a success");
        assert!(b.on_fault(2).is_some());
    }

    #[test]
    fn half_opens_after_cooldown_and_doubles_on_failed_trial() {
        let mut b = Breaker::new(1, 100, 350);
        b.on_fault(10);
        assert_eq!(b.state(), State::Open);
        assert_eq!(b.poll(50), None, "cooldown not elapsed yet");
        assert_eq!(b.poll(110), Some(Transition::HalfOpened { cooldown_ms: 100 }));
        assert_eq!(b.state(), State::HalfOpen);
        // Failed trial: re-open with doubled cooldown.
        assert_eq!(b.on_fault(111), Some(Transition::Opened { consecutive: 2, cooldown_ms: 200 }));
        assert_eq!(b.poll(311), Some(Transition::HalfOpened { cooldown_ms: 200 }));
        // Another failure hits the cap (350, not 400).
        assert_eq!(b.on_fault(312), Some(Transition::Opened { consecutive: 3, cooldown_ms: 350 }));
    }

    #[test]
    fn successful_trial_closes_and_resets_cooldown() {
        let mut b = Breaker::new(1, 100, 1000);
        b.on_fault(0);
        b.poll(100);
        b.on_fault(101); // doubled to 200
        b.poll(301);
        assert_eq!(b.on_success(), Some(Transition::Closed { cooldown_ms: 100 }));
        assert_eq!(b.state(), State::Closed);
        assert_eq!(b.cooldown_ms(), 100, "cooldown resets to base on close");
    }

    #[test]
    fn reset_force_closes() {
        let mut b = Breaker::new(1, 100, 1000);
        b.on_fault(0);
        b.reset();
        assert_eq!(b.state(), State::Closed);
        assert_eq!(b.consecutive(), 0);
    }

    #[test]
    fn state_gauge_encoding_is_stable() {
        assert_eq!(State::Closed.gauge(), 0.0);
        assert_eq!(State::Open.gauge(), 1.0);
        assert_eq!(State::HalfOpen.gauge(), 2.0);
        assert_eq!(State::HalfOpen.as_str(), "half_open");
    }
}
