//! Distributed request tracing: deterministic trace/span ids, span event
//! helpers, and slow-request exemplars (DESIGN.md §15).
//!
//! A *trace* covers one client request end to end, across the router and
//! every worker its scatter touched. Ids are not random: the trace id is a
//! pure hash of `(serve seed, arrival index)` — the same pair the router
//! already uses to pin seedless requests — and every span id is a pure hash
//! of `(parent span, phase, index)`. A seeded rerun therefore reproduces
//! the exact same timeline tree, which is what lets `stuq trace` output be
//! byte-compared in tests and lets traced responses stay deterministic.
//!
//! Determinism contract (same as the rest of `stuq-obs`): nothing here
//! consumes RNG, reads the logical serve clock, or returns a value the
//! instrumented code branches on. Span durations come from
//! `std::time::Instant` — wall time, never `Clock` — so enabling tracing
//! cannot move a clock read and cannot change a response byte beyond the
//! trace ids added to the response's `meta` object.
//!
//! Span events are emitted only at [`crate::Level::Trace`]; callers gate on
//! [`crate::trace_enabled`]. A `span_start` always carries `parent` (a root
//! span's parent is its trace id), and the matching `span_end` carries the
//! measured `seconds`. Phases that are measured retroactively (admission
//! wait, batcher dwell) emit both events back to back — pairing is by id,
//! not by wall offsets, so the reconstruction does not care.

use std::sync::Mutex;

use crate::events::Event;

/// Requests per exemplar window.
const EXEMPLAR_WINDOW: u64 = 64;

/// Worst-N requests reported per window.
const EXEMPLAR_WORST: usize = 4;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The trace id for the request at `arrival` under `seed` — deterministic,
/// never zero. `seed` is the serve/router seed, `arrival` the value of
/// `requests_served` when the request was validated (exactly the pair the
/// router forks seedless-request seeds from).
pub fn derive_trace_id(seed: u64, arrival: u64) -> u64 {
    let id = mix64(seed ^ mix64(arrival.wrapping_add(0x9e37_79b9_7f4a_7c15)));
    if id == 0 {
        1
    } else {
        id
    }
}

/// A child span id under `parent` — deterministic, never zero. `index`
/// disambiguates repeated phases under one parent (shard number, group
/// number, member position).
pub fn derive_span_id(parent: u64, phase: &str, index: u64) -> u64 {
    use stuq_artifact::{fnv1a64_fold as fold, FNV1A64_OFFSET};
    let h = fold(
        fold(fold(FNV1A64_OFFSET, &parent.to_le_bytes()), phase.as_bytes()),
        &index.to_le_bytes(),
    );
    let h = mix64(h);
    if h == 0 {
        1
    } else {
        h
    }
}

/// Renders an id as the wire/event form: 16 lowercase hex digits.
pub fn fmt_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses the 16-hex-digit wire form back to an id.
pub fn parse_id(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Base `span_start` event; decorate with `.uint("shard", …)` /
/// `.str("req", …)` as needed and hand to [`emit_span`].
pub fn start_event(trace: u64, span: u64, parent: u64, phase: &str) -> Event {
    Event::new("span_start")
        .str("trace", fmt_id(trace))
        .str("span", fmt_id(span))
        .str("parent", fmt_id(parent))
        .str("phase", phase)
}

/// Base `span_end` event for the same span; decorate with `.str("status",
/// …)` / `.str("reason", …)` as needed and hand to [`emit_span`].
pub fn end_event(trace: u64, span: u64, seconds: f64) -> Event {
    Event::new("span_end")
        .str("trace", fmt_id(trace))
        .str("span", fmt_id(span))
        .num("seconds", seconds)
}

/// Emits a span event and maintains the span counter. Callers gate on
/// [`crate::trace_enabled`]; this only forwards to [`crate::emit`].
pub fn emit_span(ev: Event) {
    if ev.ty() == "span_start" {
        crate::metrics().trace_spans.inc();
    }
    crate::emit(ev);
}

/// Emits a retroactively measured phase: `span_start` + `span_end` back to
/// back with the given duration. Returns the derived span id.
pub fn emit_phase(trace: u64, parent: u64, phase: &str, index: u64, seconds: f64) -> u64 {
    let span = derive_span_id(parent, phase, index);
    emit_span(start_event(trace, span, parent, phase));
    emit_span(end_event(trace, span, seconds));
    span
}

struct ExemplarWindow {
    seen: u64,
    /// Worst requests this window, sorted slowest-first: (seconds, trace).
    worst: Vec<(f64, u64)>,
}

static EXEMPLARS: Mutex<ExemplarWindow> = Mutex::new(ExemplarWindow { seen: 0, worst: Vec::new() });

fn drain_worst(w: &mut ExemplarWindow) {
    for (seconds, trace) in w.worst.drain(..) {
        crate::metrics().trace_exemplars.inc();
        crate::emit(
            Event::new("trace_exemplar").str("trace", fmt_id(trace)).num("seconds", seconds),
        );
    }
}

/// Records a completed request for slow-request exemplars: the worst
/// `EXEMPLAR_WORST` requests of every `EXEMPLAR_WINDOW`-request window
/// are emitted as `trace_exemplar` events. No-op below trace level. The
/// *number* of emissions at any call point depends only on the request
/// count, so a seeded rerun keeps identical event sequence numbers even
/// though the measured seconds differ.
pub fn note_request(trace: u64, seconds: f64) {
    if !crate::trace_enabled() {
        return;
    }
    let mut w = EXEMPLARS.lock().unwrap();
    w.seen += 1;
    let pos = w.worst.partition_point(|(s, _)| *s >= seconds);
    if pos < EXEMPLAR_WORST {
        w.worst.insert(pos, (seconds, trace));
        w.worst.truncate(EXEMPLAR_WORST);
    }
    if w.seen.is_multiple_of(EXEMPLAR_WINDOW) {
        drain_worst(&mut w);
    }
}

/// Emits any partial-window exemplars (called by [`crate::flush`] before it
/// takes the recorder lock).
pub(crate) fn flush_exemplars() {
    let mut w = EXEMPLARS.lock().unwrap();
    drain_worst(&mut w);
}

/// Resets exemplar state (called by [`crate::init`]).
pub(crate) fn reset() {
    let mut w = EXEMPLARS.lock().unwrap();
    w.seen = 0;
    w.worst.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_deterministic_distinct_and_nonzero() {
        assert_eq!(derive_trace_id(7, 0), derive_trace_id(7, 0));
        assert_ne!(derive_trace_id(7, 0), derive_trace_id(7, 1));
        assert_ne!(derive_trace_id(7, 0), derive_trace_id(8, 0));
        assert_ne!(derive_trace_id(0, 0), 0);
        let t = derive_trace_id(7, 3);
        assert_eq!(derive_span_id(t, "shard", 1), derive_span_id(t, "shard", 1));
        assert_ne!(derive_span_id(t, "shard", 1), derive_span_id(t, "shard", 2));
        assert_ne!(derive_span_id(t, "shard", 1), derive_span_id(t, "merge", 1));
        assert_ne!(derive_span_id(t, "shard", 1), 0);
    }

    #[test]
    fn id_wire_form_roundtrips() {
        for id in [1u64, 0xdead_beef, u64::MAX, derive_trace_id(11, 42)] {
            let s = fmt_id(id);
            assert_eq!(s.len(), 16);
            assert_eq!(parse_id(&s), Some(id));
        }
        assert_eq!(parse_id("xyz"), None);
        assert_eq!(parse_id("00000000000000000"), None, "17 digits");
        assert_eq!(parse_id("000000000000000g"), None);
    }

    #[test]
    fn span_events_validate_against_the_schema() {
        let t = derive_trace_id(1, 1);
        let s = derive_span_id(t, "request", 0);
        let start = start_event(t, s, t, "request").render(0, 0, "serve", 0);
        let end = end_event(t, s, 0.25).render(1, 1, "serve", 0);
        crate::validate_events(&format!("{start}{end}")).unwrap();
    }
}
