//! Deterministic network-fault injection for the cluster transport
//! (DESIGN.md §16).
//!
//! `FaultNet` wraps one replica's [`ShardWorker`] transport and injects
//! faults from a **seeded plan**: a pure function of `(session seed, shard,
//! replica, pass-RPC index)`. Nothing here rolls real dice — the same
//! seed replays the same drops, delays, truncations, and bit-flips on every
//! rerun, which is what lets tests assert `faultnet_injected_total` exactly
//! and lets CI byte-compare a faulted run against a fault-free control.
//!
//! Scope rules that keep the harness honest:
//!
//! * **Only `passes` RPCs are faulted.** Supervision traffic (pings,
//!   reload phases, metrics scrapes) happens on wall-clock schedules, so
//!   keying faults on it would make the plan depend on timing. The wrapper
//!   keeps its own pass-RPC counter per channel.
//! * **Corruption is guaranteed detectable.** There is no wire checksum, so
//!   a bit-flip in the middle of a pass matrix would be reduced silently
//!   and poison the byte-determinism contract. Truncation cuts the line in
//!   half (losing the closing brace) and bit-flips land in the first 16
//!   bytes (the `{"type":"passes"` envelope) — both make
//!   `parse_worker_resp` fail or change the type, so the router classifies
//!   the response as `worker_error` and fails over.
//! * **Injected failures don't tear down the healthy transport.** When the
//!   router calls [`ShardWorker::fail`] for a fault *we* synthesized, the
//!   wrapper swallows it — the victim replica's process stays up and keeps
//!   absorbing the plan, instead of converting every drop into a restart
//!   cycle.
//!
//! Tests and CI pick one **victim replica per shard** via
//! [`victim_replica`] — also seed-derived — so "any single replica faulted"
//! holds by construction and the acceptance byte-compare is meaningful.

use crate::router::{ShardWorker, SupEvent, WorkerState};
use stuq_obs::Event;
use stuq_tensor::StuqRng;

/// Domain-separation salt: keeps the fault plan's RNG streams disjoint from
/// seed pinning (`StuqRng::new(seed)`) and trace-id derivation.
const FAULT_SALT: u64 = 0xFA17_1E55_C0DE;

/// Named fault profile, parsed from `--faultnet <profile>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// No faults — the wrapper is a transparent pass-through.
    Off,
    /// ~50% of pass RPCs are swallowed (`rpc_timeout` to the router).
    Drop,
    /// ~50% of pass RPCs are delayed 20–79 ms before forwarding —
    /// slow-replica behaviour.
    Delay,
    /// A mix: ~20% dropped, ~15% truncated, ~15% bit-flipped.
    Flaky,
    /// A contiguous outage: pass RPCs 4..12 on the channel vanish.
    Blackhole,
}

impl Profile {
    /// Parses a profile name (the `--faultnet` argument).
    pub fn parse(s: &str) -> Result<Profile, String> {
        match s {
            "off" => Ok(Profile::Off),
            "drop" => Ok(Profile::Drop),
            "delay" => Ok(Profile::Delay),
            "flaky" => Ok(Profile::Flaky),
            "blackhole" => Ok(Profile::Blackhole),
            other => Err(format!(
                "unknown faultnet profile {other:?} (expected off|drop|delay|flaky|blackhole)"
            )),
        }
    }

    /// The canonical name (inverse of [`Profile::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            Profile::Off => "off",
            Profile::Drop => "drop",
            Profile::Delay => "delay",
            Profile::Flaky => "flaky",
            Profile::Blackhole => "blackhole",
        }
    }
}

/// One planned fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Swallow the RPC: the router sees `rpc_timeout`, the worker never
    /// sees the request.
    Drop,
    /// Sleep this many wall-clock milliseconds, then forward normally.
    Delay(u64),
    /// Forward, then cut the response line in half.
    Truncate,
    /// Forward, then flip one bit in the response envelope; `entropy`
    /// picks the byte (first 16) and bit.
    BitFlip {
        /// Seeded randomness for the byte/bit choice.
        entropy: u64,
    },
}

impl Fault {
    /// Typed reason recorded on the `faultnet_inject` event.
    pub fn reason(&self) -> &'static str {
        match self {
            Fault::Drop => "drop",
            Fault::Delay(_) => "delay",
            Fault::Truncate => "truncate",
            Fault::BitFlip { .. } => "bitflip",
        }
    }
}

/// The replica a profile's faults target for `shard` — a pure function of
/// the session seed, so tests and CI predict (rather than discover) which
/// sibling stays clean.
pub fn victim_replica(seed: u64, shard: usize, replicas: usize) -> usize {
    if replicas <= 1 {
        return 0;
    }
    let mut rng = StuqRng::new(seed ^ FAULT_SALT).fork(shard as u64);
    (rng.next_u64() % replicas as u64) as usize
}

/// The fault (if any) the plan injects on pass RPC `idx` of channel
/// `(seed, shard, replica)`. Pure: tests recompute expected injection
/// counts with it instead of trusting the wrapper's bookkeeping.
pub fn fault_at(
    profile: Profile,
    seed: u64,
    shard: usize,
    replica: usize,
    idx: u64,
) -> Option<Fault> {
    let mut rng = StuqRng::new(seed ^ FAULT_SALT).fork(shard as u64).fork(replica as u64).fork(idx);
    let roll = rng.next_u64() % 100;
    match profile {
        Profile::Off => None,
        Profile::Drop => (roll < 50).then_some(Fault::Drop),
        Profile::Delay => (roll < 50).then(|| Fault::Delay(20 + rng.next_u64() % 60)),
        Profile::Flaky => match roll {
            0..=19 => Some(Fault::Drop),
            20..=34 => Some(Fault::Truncate),
            35..=49 => Some(Fault::BitFlip { entropy: rng.next_u64() }),
            _ => None,
        },
        Profile::Blackhole => ((4..12).contains(&idx)).then_some(Fault::Drop),
    }
}

/// A replica transport with a seeded fault plan spliced into it.
pub struct FaultNet {
    inner: Box<dyn ShardWorker>,
    profile: Profile,
    seed: u64,
    shard: usize,
    replica: usize,
    /// Pass RPCs seen on this channel — the plan key's last component.
    rpcs: u64,
    /// Set when the last returned failure (or garbage line) was synthetic:
    /// the router's follow-up `fail()` must not reach the healthy inner
    /// transport.
    injected_last: bool,
}

impl FaultNet {
    /// Wraps `inner` as the faulted transport for `(shard, replica)`.
    pub fn wrap(
        inner: Box<dyn ShardWorker>,
        profile: Profile,
        seed: u64,
        shard: usize,
        replica: usize,
    ) -> FaultNet {
        FaultNet { inner, profile, seed, shard, replica, rpcs: 0, injected_last: false }
    }

    fn record(&self, fault: &Fault, idx: u64) {
        stuq_obs::metrics().faultnet_injected.inc();
        stuq_obs::emit(
            Event::new("faultnet_inject")
                .uint("shard", self.shard as u64)
                .uint("replica", self.replica as u64)
                .uint("rpc", idx)
                .str("reason", fault.reason()),
        );
    }
}

/// Flips one envelope bit. The byte lands in the first 16 (the `{"type":…`
/// prefix), so the corrupted line can never parse as a valid worker
/// response — detectability by construction.
fn bit_flip(resp: String, entropy: u64) -> String {
    let mut bytes = resp.into_bytes();
    if bytes.is_empty() {
        return String::new();
    }
    let at = (entropy % bytes.len().min(16) as u64) as usize;
    bytes[at] ^= 1 << ((entropy >> 8) % 8);
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Cuts the line in half — the closing brace is gone, so parsing fails.
fn truncate_half(resp: String) -> String {
    let mut cut = resp.len() / 2;
    while cut > 0 && !resp.is_char_boundary(cut) {
        cut -= 1;
    }
    let mut r = resp;
    r.truncate(cut);
    r
}

impl ShardWorker for FaultNet {
    fn call(&mut self, line: &str, timeout_ms: u64) -> Result<String, String> {
        // Supervision traffic passes through untouched and uncounted.
        if !line.starts_with("{\"type\":\"passes\"") {
            return self.inner.call(line, timeout_ms);
        }
        let idx = self.rpcs;
        self.rpcs += 1;
        self.injected_last = false;
        match fault_at(self.profile, self.seed, self.shard, self.replica, idx) {
            None => self.inner.call(line, timeout_ms),
            Some(f @ Fault::Drop) => {
                self.record(&f, idx);
                self.injected_last = true;
                Err("rpc_timeout".into())
            }
            Some(f @ Fault::Delay(ms)) => {
                self.record(&f, idx);
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.call(line, timeout_ms)
            }
            Some(f @ Fault::Truncate) => {
                let resp = self.inner.call(line, timeout_ms)?;
                self.record(&f, idx);
                self.injected_last = true;
                Ok(truncate_half(resp))
            }
            Some(f @ Fault::BitFlip { entropy }) => {
                let resp = self.inner.call(line, timeout_ms)?;
                self.record(&f, idx);
                self.injected_last = true;
                Ok(bit_flip(resp, entropy))
            }
        }
    }

    fn state(&self) -> WorkerState {
        self.inner.state()
    }

    fn fail(&mut self, reason: &str) {
        // A synthetic failure must not tear down the healthy transport.
        if std::mem::take(&mut self.injected_last) {
            return;
        }
        self.inner.fail(reason);
    }

    fn tick(&mut self) -> Vec<SupEvent> {
        self.inner.tick()
    }

    fn restarts(&self) -> u64 {
        self.inner.restarts()
    }

    fn last_restart_ms(&self) -> Option<u64> {
        self.inner.last_restart_ms()
    }

    fn settle(&mut self, grace_ms: u64) {
        self.inner.settle(grace_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal always-up transport answering a fixed `passes` line.
    struct Echo {
        calls: u64,
    }

    const RESP: &str =
        "{\"type\":\"passes\",\"model\":\"ck\",\"dims\":[1,1,1],\"mu\":\"3f000000\"}";

    impl ShardWorker for Echo {
        fn call(&mut self, _line: &str, _timeout_ms: u64) -> Result<String, String> {
            self.calls += 1;
            Ok(RESP.to_string())
        }
        fn state(&self) -> WorkerState {
            WorkerState::Up
        }
        fn fail(&mut self, _reason: &str) {
            panic!("synthetic failures must never reach the inner transport");
        }
        fn tick(&mut self) -> Vec<SupEvent> {
            Vec::new()
        }
    }

    #[test]
    fn plans_are_pure_functions_of_their_key() {
        for profile in [Profile::Drop, Profile::Delay, Profile::Flaky, Profile::Blackhole] {
            for idx in 0..64 {
                assert_eq!(
                    fault_at(profile, 11, 1, 0, idx),
                    fault_at(profile, 11, 1, 0, idx),
                    "{profile:?} idx={idx}"
                );
            }
        }
        // Distinct channels get distinct streams (with overwhelming odds
        // some index differs).
        let a: Vec<_> = (0..64).map(|i| fault_at(Profile::Drop, 11, 0, 0, i)).collect();
        let b: Vec<_> = (0..64).map(|i| fault_at(Profile::Drop, 11, 0, 1, i)).collect();
        let c: Vec<_> = (0..64).map(|i| fault_at(Profile::Drop, 12, 0, 0, i)).collect();
        assert_ne!(a, b, "replica changes the plan");
        assert_ne!(a, c, "seed changes the plan");
        assert!(a.iter().any(Option::is_some), "drop profile actually drops");
        assert!(a.iter().any(Option::is_none), "drop profile is not a blackhole");
    }

    #[test]
    fn blackhole_is_a_contiguous_window() {
        for idx in 0..20 {
            let f = fault_at(Profile::Blackhole, 7, 0, 1, idx);
            if (4..12).contains(&idx) {
                assert_eq!(f, Some(Fault::Drop), "idx={idx}");
            } else {
                assert_eq!(f, None, "idx={idx}");
            }
        }
    }

    #[test]
    fn victim_selection_is_seeded_and_in_range() {
        for shard in 0..8 {
            let v = victim_replica(401, shard, 3);
            assert!(v < 3);
            assert_eq!(v, victim_replica(401, shard, 3));
        }
        assert_eq!(victim_replica(401, 0, 1), 0, "solo replica is always the victim");
        let picks: Vec<_> = (0..16).map(|s| victim_replica(401, s, 2)).collect();
        assert!(picks.contains(&0) && picks.contains(&1), "victims vary across shards: {picks:?}");
    }

    #[test]
    fn corruption_is_guaranteed_unparseable() {
        assert!(crate::proto::parse_worker_resp(RESP).is_ok(), "the clean line parses");
        for entropy in 0..256u64 {
            let flipped = bit_flip(RESP.to_string(), entropy);
            assert!(
                crate::proto::parse_worker_resp(&flipped).is_err(),
                "entropy={entropy}: {flipped:?} still parsed"
            );
        }
        let cut = truncate_half(RESP.to_string());
        assert!(crate::proto::parse_worker_resp(&cut).is_err(), "{cut:?} still parsed");
    }

    #[test]
    fn wrapper_matches_the_pure_plan_and_shields_the_inner_transport() {
        let (seed, shard, replica) = (11, 1, 0);
        let mut w =
            FaultNet::wrap(Box::new(Echo { calls: 0 }), Profile::Drop, seed, shard, replica);
        // Supervision traffic is never faulted or counted.
        assert!(w.call("{\"type\":\"ping\"}", 100).is_ok());
        assert_eq!(w.rpcs, 0);
        let mut dropped = 0;
        for idx in 0..32 {
            let out = w.call("{\"type\":\"passes\",\"dims\":[1,1],\"x\":\"00000000\"}", 100);
            match fault_at(Profile::Drop, seed, shard, replica, idx) {
                Some(Fault::Drop) => {
                    assert_eq!(out, Err("rpc_timeout".to_string()), "idx={idx}");
                    dropped += 1;
                    // The router reports the synthetic timeout; Echo::fail
                    // panics if it leaks through.
                    w.fail("rpc_timeout");
                    assert_eq!(w.state(), WorkerState::Up, "victim stays up through drops");
                }
                _ => assert_eq!(out, Ok(RESP.to_string()), "idx={idx}"),
            }
        }
        assert!(dropped > 0, "plan never fired");
    }
}
