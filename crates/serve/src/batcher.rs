//! Request coalescing between admission and the worker (DESIGN.md §12).
//!
//! The serve loop's reader parses each line once; everything here carries
//! the parsed value. Three pieces live here:
//!
//! * [`Lanes`] — the two-lane admission queue: a bounded forecast lane of
//!   parsed [`ForecastReq`]s and an unbounded control lane of parsed
//!   [`Request`]s with pop priority.
//! * [`gather`] — the batcher stage: starting from one admitted forecast,
//!   collect co-arriving forecasts into a batch. Under the **fake clock**
//!   a batch closes only on `--batch-max`, end of input, or (empty-lane)
//!   idle — never on a wall-time timeout and never because a control line
//!   arrived — so batch composition is a pure function of request arrival
//!   order, which is what keeps annotated response streams byte-identical
//!   across `STUQ_THREADS` and across replays. On the **real clock** the
//!   window is bounded by `--batch-wait-ms` *and* by the tightest
//!   `deadline_ms` of any gathered member (a 3 ms request never waits 50 ms
//!   for company), and a control pop closes the batch early so operator
//!   commands keep their latency.
//! * [`RequestKey`] / [`group_requests`] — the request key: requests whose
//!   RNG derivation, sample count, and exact window bits coincide form one
//!   *group* and share a single MC run; each member then slices its
//!   nodes/horizon out of the shared result. The same key, plus the model
//!   generation and the data tick, keys the forecast cache. Arrival-indexed
//!   (legacy seedless) requests get unique specs, so they always compute
//!   alone.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::proto::{ForecastReq, Request};

/// What the worker popped from the lanes.
pub(crate) enum Popped {
    /// A control request (healthz/reload/drain/shutdown) — never shed.
    Control(Request),
    /// An admitted forecast, stamped with its admission instant so the
    /// tracer can attribute queue wait (DESIGN.md §15). The stamp feeds
    /// telemetry only — never the logical clock or the response bytes.
    Forecast(ForecastReq, Instant),
    /// Nothing arrived within the timeout (idle tick).
    TimedOut,
    /// Reader hit end of input and the lanes popped from are empty.
    Closed,
}

struct LaneState {
    forecasts: VecDeque<(ForecastReq, Instant)>,
    control: VecDeque<Request>,
    closed: bool,
}

/// Two-lane queue between reader and worker: control requests bypass the
/// bounded forecast lane so a full queue can never wedge a drain/shutdown.
pub(crate) struct Lanes {
    m: Mutex<LaneState>,
    cv: Condvar,
    cap: usize,
}

impl Lanes {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            m: Mutex::new(LaneState {
                forecasts: VecDeque::new(),
                control: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admission: false means the bounded lane is full (shed the request).
    pub(crate) fn try_push_forecast(&self, req: ForecastReq) -> bool {
        let mut s = self.m.lock().unwrap();
        if s.closed || s.forecasts.len() >= self.cap {
            return false;
        }
        s.forecasts.push_back((req, Instant::now()));
        stuq_obs::metrics().serve_queue_depth.set(s.forecasts.len() as f64);
        self.cv.notify_all();
        true
    }

    pub(crate) fn push_control(&self, req: Request) {
        let mut s = self.m.lock().unwrap();
        s.control.push_back(req);
        self.cv.notify_all();
    }

    pub(crate) fn close(&self) {
        self.m.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    pub(crate) fn pop(&self, timeout: Duration) -> Popped {
        let mut s = self.m.lock().unwrap();
        loop {
            if let Some(req) = s.control.pop_front() {
                return Popped::Control(req);
            }
            if let Some((req, at)) = s.forecasts.pop_front() {
                stuq_obs::metrics().serve_queue_depth.set(s.forecasts.len() as f64);
                return Popped::Forecast(req, at);
            }
            if s.closed {
                return Popped::Closed;
            }
            let (next, res) = self.cv.wait_timeout(s, timeout).unwrap();
            s = next;
            if res.timed_out() {
                // Re-check once after the wakeup, then yield an idle tick.
                if s.control.is_empty() && s.forecasts.is_empty() {
                    return if s.closed { Popped::Closed } else { Popped::TimedOut };
                }
            }
        }
    }

    /// Pops from the forecast lane only, leaving control requests queued
    /// (never returns [`Popped::Control`]). The fake-clock gather path uses
    /// this so a racing control line cannot change where a batch boundary
    /// falls.
    pub(crate) fn pop_forecast(&self, timeout: Duration) -> Popped {
        let mut s = self.m.lock().unwrap();
        loop {
            if let Some((req, at)) = s.forecasts.pop_front() {
                stuq_obs::metrics().serve_queue_depth.set(s.forecasts.len() as f64);
                return Popped::Forecast(req, at);
            }
            if s.closed {
                return Popped::Closed;
            }
            let (next, res) = self.cv.wait_timeout(s, timeout).unwrap();
            s = next;
            if res.timed_out() && s.forecasts.is_empty() {
                return if s.closed { Popped::Closed } else { Popped::TimedOut };
            }
        }
    }

    /// Current forecast-lane depth (the bounded lane the health surfaces
    /// report; the control lane is unbounded and pops first anyway).
    pub(crate) fn depth(&self) -> usize {
        self.m.lock().unwrap().forecasts.len()
    }

    /// Drains whatever is left without waiting (shutdown path): control
    /// requests first, then forecasts, each lane in arrival order.
    pub(crate) fn drain_now(&self) -> Vec<Request> {
        let mut s = self.m.lock().unwrap();
        let mut out: Vec<Request> = s.control.drain(..).collect();
        out.extend(s.forecasts.drain(..).map(|(req, _)| Request::Forecast(req)));
        stuq_obs::metrics().serve_queue_depth.set(0.0);
        out
    }
}

// ---------------------------------------------------------------------------
// Gathering
// ---------------------------------------------------------------------------

/// Why a gather window closed with work left to hand back to the loop.
pub(crate) enum GatherEnd {
    /// A control request was popped mid-gather (real clock only) — process
    /// it after the batch it interrupted.
    Control(Request),
    /// Input closed; the loop should drain and exit after this batch.
    Closed,
}

/// Collects a batch starting from one already-popped forecast.
///
/// `fake_clock` selects the deterministic policy (see module docs). The
/// returned requests are in admission order with their admission instants;
/// `first` is always element 0.
pub(crate) fn gather(
    lanes: &Lanes,
    first: (ForecastReq, Instant),
    batch_max: usize,
    batch_wait_ms: u64,
    fake_clock: bool,
) -> (Vec<(ForecastReq, Instant)>, Option<GatherEnd>) {
    let mut batch = vec![first];
    if batch_max <= 1 {
        return (batch, None);
    }
    if fake_clock {
        while batch.len() < batch_max {
            match lanes.pop_forecast(Duration::from_millis(25)) {
                Popped::Forecast(req, at) => batch.push((req, at)),
                // Keep waiting: composition must not depend on wall time.
                Popped::TimedOut => continue,
                Popped::Control(_) => unreachable!("pop_forecast leaves control queued"),
                Popped::Closed => return (batch, Some(GatherEnd::Closed)),
            }
        }
        (batch, None)
    } else {
        let start = std::time::Instant::now();
        let mut window_ms = batch_wait_ms.min(batch[0].0.deadline_ms.unwrap_or(u64::MAX));
        while batch.len() < batch_max {
            let elapsed = start.elapsed().as_millis() as u64;
            if elapsed >= window_ms {
                break;
            }
            match lanes.pop(Duration::from_millis(window_ms - elapsed)) {
                Popped::Forecast(req, at) => {
                    // The tightest member bounds the window for everyone.
                    if let Some(d) = req.deadline_ms {
                        window_ms = window_ms.min(d);
                    }
                    batch.push((req, at));
                }
                Popped::Control(req) => return (batch, Some(GatherEnd::Control(req))),
                Popped::TimedOut => break,
                Popped::Closed => return (batch, Some(GatherEnd::Closed)),
            }
        }
        (batch, None)
    }
}

/// Wall-clock queue timings the serve loop hands to the batch handler
/// purely for tracing (DESIGN.md §15). Telemetry-only by contract: nothing
/// in the forecast pipeline reads these, so traced and untraced runs stay
/// byte-identical modulo the trace-meta annotation.
pub(crate) struct BatchTiming {
    /// Per-member admission→processing wait in seconds, arrival order.
    pub waits: Vec<f64>,
    /// Gather-window duration shared by the whole batch, in seconds.
    pub dwell_s: f64,
}

// ---------------------------------------------------------------------------
// Request keys and grouping
// ---------------------------------------------------------------------------

/// How a request's RNG is derived — the seed component of the request key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum SeedSpec {
    /// Request carried its own `seed`.
    Explicit(u64),
    /// Seedless with a `tick`: forked from (server seed, tick).
    FromTick(u64),
    /// Legacy seedless request: forked from the server seed by arrival
    /// index. Unique per request, so never equal to another spec — these
    /// compute alone by construction, and are never cached.
    Arrival(u64),
}

/// What fixes a request's MC run, so two requests with equal keys and
/// bit-identical windows may share one run (and one cache entry). Window
/// equality is checked separately, on the exact bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RequestKey {
    /// FNV-1a over the window bits (prefilter; exactness via the bits).
    pub x_hash: u64,
    /// RNG derivation.
    pub seed: SeedSpec,
    /// Requested MC sample count.
    pub n_samples: usize,
}

/// Arrival-ordered grouping of a batch's members.
///
/// `key(i)` returns the request key of member `i`, or `None` when the
/// member needs no compute (validation error or cache hit). `same_x(i, j)`
/// must compare the exact window bits. Groups come back in first-member
/// arrival order, members in arrival order within each group — both facts
/// are load-bearing for determinism (group order fixes the clock-read and
/// breaker-event order).
pub(crate) fn group_requests(
    n: usize,
    key: impl Fn(usize) -> Option<RequestKey>,
    same_x: impl Fn(usize, usize) -> bool,
) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let Some(mine) = key(i) else { continue };
        let found = groups
            .iter_mut()
            .find(|g| key(g[0]).is_some_and(|lead| lead == mine) && same_x(g[0], i));
        match found {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn arrival_specs_never_group() {
        let infos = [
            Some(RequestKey { x_hash: 1, seed: SeedSpec::Arrival(0), n_samples: 4 }),
            Some(RequestKey { x_hash: 1, seed: SeedSpec::Arrival(1), n_samples: 4 }),
        ];
        let g = group_requests(2, |i| infos[i], |_, _| true);
        assert_eq!(g, vec![vec![0], vec![1]]);
    }

    #[test]
    fn grouping_respects_seed_samples_and_window_bits() {
        let tick = |t| SeedSpec::FromTick(t);
        let infos = [
            Some(RequestKey { x_hash: 1, seed: tick(5), n_samples: 8 }), // group A
            Some(RequestKey { x_hash: 1, seed: tick(5), n_samples: 8 }), // group A
            Some(RequestKey { x_hash: 1, seed: tick(5), n_samples: 4 }), // mc differs
            Some(RequestKey { x_hash: 1, seed: tick(6), n_samples: 8 }), // tick differs
            None,                                                        // answered already
            Some(RequestKey { x_hash: 1, seed: tick(5), n_samples: 8 }), // group A
        ];
        let g = group_requests(6, |i| infos[i], |_, _| true);
        assert_eq!(g, vec![vec![0, 1, 5], vec![2], vec![3]]);
    }

    #[test]
    fn hash_collisions_split_on_exact_window_compare() {
        let info = RequestKey { x_hash: 9, seed: SeedSpec::Explicit(3), n_samples: 2 };
        let g = group_requests(2, |_| Some(info), |_, _| false);
        assert_eq!(g, vec![vec![0], vec![1]], "same hash, different bits: no sharing");
    }

    /// A forecast carrying only an id and an optional deadline.
    pub(crate) fn forecast(id: &str, deadline_ms: Option<u64>) -> ForecastReq {
        ForecastReq {
            id: Some(id.into()),
            x: vec![vec![0.0]],
            deadline_ms,
            mc: None,
            seed: None,
            tick: None,
            nodes: None,
            horizon: None,
            trace: None,
            span: None,
        }
    }

    /// A control request identified by its id.
    pub(crate) fn control(id: &str) -> Request {
        Request::Healthz { id: Some(id.into()) }
    }

    fn stamped(id: &str, deadline_ms: Option<u64>) -> (ForecastReq, Instant) {
        (forecast(id, deadline_ms), Instant::now())
    }

    fn ids(batch: &[(ForecastReq, Instant)]) -> Vec<&str> {
        batch.iter().map(|(r, _)| r.id.as_deref().unwrap()).collect()
    }

    #[test]
    fn gather_returns_singleton_when_batching_disabled() {
        let lanes = Lanes::new(4);
        assert!(lanes.try_push_forecast(forecast("f2", None)));
        let (batch, end) = gather(&lanes, stamped("f1", None), 1, 5, true);
        assert_eq!(ids(&batch), vec!["f1"]);
        assert!(end.is_none());
        assert_eq!(lanes.depth(), 1, "nothing else consumed");
    }

    #[test]
    fn fake_clock_gather_fills_to_max_and_ignores_control() {
        let lanes = Lanes::new(8);
        lanes.push_control(control("c"));
        for i in 2..=4 {
            assert!(lanes.try_push_forecast(forecast(&format!("f{i}"), None)));
        }
        let (batch, end) = gather(&lanes, stamped("f1", None), 3, 5, true);
        assert_eq!(ids(&batch), vec!["f1", "f2", "f3"]);
        assert!(end.is_none());
        // Control is still queued and pops first afterwards.
        assert!(matches!(
            lanes.pop(Duration::from_millis(1)),
            Popped::Control(Request::Healthz { id: Some(c) }) if c == "c"
        ));
        assert!(matches!(
            lanes.pop(Duration::from_millis(1)),
            Popped::Forecast(f, _) if f.id.as_deref() == Some("f4")
        ));
    }

    #[test]
    fn fake_clock_gather_flushes_partial_batch_on_close() {
        let lanes = Lanes::new(8);
        assert!(lanes.try_push_forecast(forecast("f2", None)));
        lanes.close();
        let (batch, end) = gather(&lanes, stamped("f1", None), 8, 5, true);
        assert_eq!(batch.len(), 2);
        assert!(matches!(end, Some(GatherEnd::Closed)));
    }

    #[test]
    fn real_clock_gather_closes_on_window_and_control() {
        let lanes = Lanes::new(8);
        // Empty lane: the window expires and the singleton flushes.
        let (batch, end) = gather(&lanes, stamped("f1", None), 8, 1, false);
        assert_eq!(batch.len(), 1);
        assert!(end.is_none());
        // A control line ends the window early.
        lanes.push_control(control("c"));
        let (batch, end) = gather(&lanes, stamped("f1", None), 8, 50, false);
        assert_eq!(batch.len(), 1);
        assert!(
            matches!(end, Some(GatherEnd::Control(Request::Healthz { id: Some(c) })) if c == "c")
        );
    }

    #[test]
    fn real_clock_gather_closes_at_the_tightest_member_deadline() {
        // A 60 s window would hold the batch open for a minute; the
        // gathered member's 5 ms deadline closes it instead.
        let lanes = Lanes::new(8);
        assert!(lanes.try_push_forecast(forecast("tight", Some(5))));
        let t0 = Instant::now();
        let (batch, end) = gather(&lanes, stamped("f1", None), 8, 60_000, false);
        assert_eq!(ids(&batch), vec!["f1", "tight"]);
        assert!(end.is_none());
        assert!(t0.elapsed() < Duration::from_secs(30), "window ignored the member deadline");
    }
}
